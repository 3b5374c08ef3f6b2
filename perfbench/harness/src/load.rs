//! Load against a live `pqos-qosd`: daemon control, the seeded arrival
//! schedule, and the open- and closed-loop generators.
//!
//! Both generators run in this one process, with at most `nproc` threads
//! and connections between them. The daemon receives only the generated
//! requests.

use pqos_service::protocol::{ErrorCode, Request, Response, StatusBody};
use pqos_sim_core::rng::DetRng;
use pqos_workload::synthetic::{LogModel, SyntheticLog};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a daemon may take to bind and answer its first `status`.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(20);

/// How often a phase samples the host's steal time.
const STEAL_SAMPLE_NS: u64 = 100_000_000;

/// Ticks the hypervisor ran other guests while this one's CPUs were ready
/// (the `steal` column of `/proc/stat`); 0 where the kernel reports none.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The host's steal time sampled over a phase, so windows in which the
/// hypervisor took the CPUs away can be told apart from slow ones.
#[derive(Debug, Clone, Default)]
pub struct StealLog {
    samples: Vec<(u64, u64)>,
    next_ns: u64,
}

impl StealLog {
    /// Samples if `t_ns` (phase time) has passed the next sample point.
    fn poll(&mut self, t_ns: u64) {
        if t_ns >= self.next_ns {
            self.samples.push((t_ns, steal_ticks()));
            self.next_ns = t_ns - t_ns % STEAL_SAMPLE_NS + STEAL_SAMPLE_NS;
        }
    }

    fn at(&self, t_ns: u64) -> u64 {
        self.samples
            .iter()
            .take_while(|(at, _)| *at <= t_ns)
            .last()
            .or(self.samples.first())
            .map_or(0, |s| s.1)
    }

    /// Steal ticks between two phase times.
    pub fn during(&self, from_ns: u64, to_ns: u64) -> u64 {
        self.at(to_ns).saturating_sub(self.at(from_ns))
    }

    /// Windows of `width_ns` from `start_ns` that ended by `upto_ns`
    /// without any steal.
    fn quiet_windows(&self, start_ns: u64, width_ns: u64, upto_ns: u64) -> usize {
        (0..)
            .map(|k| start_ns + k * width_ns)
            .take_while(|from| from + width_ns <= upto_ns)
            .filter(|&from| self.during(from, from + width_ns) == 0)
            .count()
    }
}

/// How long a generator waits for replies after its last request.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// A running daemon this process spawned. Dropping it kills and reaps
/// the process if it has not shut down cleanly.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Protocol address.
    pub addr: String,
    /// Wall seconds from spawn to the first answered `status`.
    pub setup_secs: f64,
}

impl Daemon {
    /// Spawns `qosd` with `args` (an `--addr 127.0.0.1:0` is added),
    /// waits for its banner and its first `status` answer. Its stderr
    /// goes to `stderr_path`.
    pub fn spawn(qosd: &Path, args: &[String], stderr_path: &Path) -> Result<Daemon, String> {
        let started = Instant::now();
        let stderr = File::create(stderr_path)
            .map_err(|e| format!("cannot create {}: {e}", stderr_path.display()))?;
        let mut child = Command::new(qosd)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", qosd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut banner = String::new();
        let read = BufReader::new(stdout).read_line(&mut banner);
        let addr = match read {
            Ok(n) if n > 0 => banner
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "pqos-qosd printed no address (see {})",
                stderr_path.display()
            ));
        };
        let mut daemon = Daemon {
            child,
            addr,
            setup_secs: 0.0,
        };
        daemon.status_within(STARTUP_TIMEOUT)?;
        daemon.setup_secs = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    fn status_within(&self, timeout: Duration) -> Result<StatusBody, String> {
        match roundtrip(&self.addr, &Request::Status { id: 1 }, timeout)? {
            Response::Status { body, .. } => Ok(body),
            other => Err(format!("status answered {}", other.encode())),
        }
    }

    /// The daemon's `status` snapshot.
    pub fn status(&self) -> Result<StatusBody, String> {
        self.status_within(DRAIN_TIMEOUT)
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = roundtrip(&self.addr, &Request::Shutdown { id: 2 }, DRAIN_TIMEOUT);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("pqos-qosd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("pqos-qosd did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for pqos-qosd: {e}")),
            }
        }
        match answer? {
            Response::Ok { .. } => Ok(()),
            other => Err(format!("shutdown answered {}", other.encode())),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/*/status` file, in MiB.
pub fn vm_hwm_mb(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One request/response exchange on a fresh connection, retrying the
/// connect until `timeout`.
fn roundtrip(addr: &str, request: &Request, timeout: Duration) -> Result<Response, String> {
    let give_up = Instant::now() + timeout;
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() >= give_up => return Err(format!("connect {addr}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(writer, "{}", request.encode()).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(format!("{addr} closed before answering")),
            Ok(_) => {}
            Err(e) => return Err(format!("reading from {addr}: {e}")),
        }
        if let Some(response) = Response::parse(&line) {
            if response.id() == request.id() {
                return Ok(response);
            }
        }
    }
}

/// One generated job: when it is due, what it asks for, and what the
/// client will do with a quote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Requested nodes.
    pub size: u32,
    /// Requested runtime in seconds.
    pub runtime_secs: u64,
    /// Accept the quote (otherwise decline it with a `cancel`).
    pub accept: bool,
    /// Cancel the job again after a successful accept.
    pub cancel_after_accept: bool,
}

/// Client behaviour drawn per job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientMix {
    /// Probability a quote is accepted.
    pub accept: f64,
    /// Probability an accepted job is cancelled again.
    pub cancel: f64,
}

/// Jobs drawn from the workload model's synthetic log (sizes fit the
/// cluster), with client decisions drawn from `seed`.
pub fn jobs(model: LogModel, seed: u64, n: usize, cluster: u32, mix: ClientMix) -> Vec<Arrival> {
    let log = SyntheticLog::new(model)
        .jobs(n)
        .seed(seed)
        .cluster_size(cluster)
        .build();
    let mut rng = DetRng::seed_from(seed).fork("perfbench-client");
    log.jobs()
        .iter()
        .map(|job| {
            let accept = rng.chance(mix.accept);
            let cancel_after_accept = rng.chance(mix.cancel);
            Arrival {
                due_ns: 0,
                size: job.nodes().clamp(1, cluster),
                runtime_secs: job.runtime().as_secs().max(60),
                accept,
                cancel_after_accept,
            }
        })
        .collect()
}

/// A Poisson schedule at `rate` requests per second over `secs`, drawn
/// from `seed`; the same seed always gives the same schedule.
pub fn schedule(
    model: LogModel,
    seed: u64,
    rate: f64,
    secs: f64,
    cluster: u32,
    mix: ClientMix,
) -> Vec<Arrival> {
    let expected = (rate * secs).ceil() as usize;
    let mut pool = jobs(model, seed, expected + expected / 4 + 64, cluster, mix);
    let mut rng = DetRng::seed_from(seed).fork("perfbench-arrivals");
    let horizon_ns = (secs * 1e9) as u64;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(expected);
    for mut arrival in pool.drain(..) {
        t += rng.exponential(1e9 / rate);
        if t as u64 >= horizon_ns {
            break;
        }
        arrival.due_ns = t as u64;
        out.push(arrival);
    }
    out
}

/// Request and outcome counts of one generator phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a valid outcome (a quote, a rejection, an
    /// ok, an expired quote, a cancel that lost to the job's start).
    pub succeeded: u64,
    /// Negotiates sent.
    pub negotiates: u64,
    /// Negotiates answered with a quote.
    pub quoted: u64,
    /// Negotiates answered `rejected`.
    pub rejected: u64,
    /// Accepts sent.
    pub accepts: u64,
    /// Accepts answered `quote_expired`.
    pub expired: u64,
    /// Cancels sent.
    pub cancels: u64,
}

impl Counts {
    /// Requests that failed: errors, `overloaded`/`timeout` replies, and
    /// requests left unanswered (including by a disconnect).
    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    /// Adds another phase's counts.
    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        self.negotiates += o.negotiates;
        self.quoted += o.quoted;
        self.rejected += o.rejected;
        self.accepts += o.accepts;
        self.expired += o.expired;
        self.cancels += o.cancels;
    }
}

/// A request in flight, with what the client does on its reply.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sent {
    Negotiate(Arrival),
    Accept { job: u64, cancel_after: bool },
    Cancel { job: u64 },
}

impl Sent {
    /// The wire request for this send, with correlation id `id`.
    fn request(self, id: u64) -> Request {
        match self {
            Sent::Negotiate(a) => Request::Negotiate {
                id,
                size: a.size,
                runtime_secs: a.runtime_secs,
            },
            Sent::Accept { job, .. } => Request::Accept { id, job },
            Sent::Cancel { job } => Request::Cancel { id, job },
        }
    }

    fn count(self, counts: &mut Counts) {
        match self {
            Sent::Negotiate(_) => counts.negotiates += 1,
            Sent::Accept { .. } => counts.accepts += 1,
            Sent::Cancel { .. } => counts.cancels += 1,
        }
        counts.attempted += 1;
    }
}

/// Counts one reply (as succeeded when it is a valid outcome) and
/// returns the follow-up to send, if any. A declined quote is withdrawn with a
/// `cancel`, so the daemon holds nothing the client will not use.
fn settle(sent: Sent, response: &Response, counts: &mut Counts) -> Option<Sent> {
    let valid = |counts: &mut Counts, next| {
        counts.succeeded += 1;
        next
    };
    match (sent, response) {
        (Sent::Negotiate(arrival), Response::Quote { job, .. }) => {
            counts.quoted += 1;
            let next = if arrival.accept {
                Sent::Accept {
                    job: *job,
                    cancel_after: arrival.cancel_after_accept,
                }
            } else {
                Sent::Cancel { job: *job }
            };
            valid(counts, Some(next))
        }
        (Sent::Negotiate(_), Response::Error { code, .. }) if *code == ErrorCode::Rejected => {
            counts.rejected += 1;
            valid(counts, None)
        }
        (Sent::Accept { job, cancel_after }, Response::Ok { .. }) => {
            valid(counts, cancel_after.then_some(Sent::Cancel { job }))
        }
        (Sent::Accept { .. }, Response::Error { code, .. }) if *code == ErrorCode::QuoteExpired => {
            counts.expired += 1;
            valid(counts, None)
        }
        (Sent::Cancel { .. }, Response::Ok { .. }) => valid(counts, None),
        // Cancelling a job that has already started loses the race
        // under time scaling; that is an outcome, not an error.
        (Sent::Cancel { .. }, Response::Error { code, .. })
            if *code == ErrorCode::AlreadyStarted =>
        {
            valid(counts, None)
        }
        _ => None,
    }
}

/// Reads one complete line, keeping a partial line across read timeouts.
/// `Ok(None)` means the timeout passed with no complete line.
fn read_reply(reader: &mut BufReader<TcpStream>, line: &mut String) -> std::io::Result<Option<()>> {
    match reader.read_line(line) {
        Ok(0) => Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "daemon closed",
        )),
        Ok(_) if line.ends_with('\n') => Ok(Some(())),
        Ok(_) => Ok(None),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Result of an open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// Request and outcome counts.
    pub counts: Counts,
    /// `(due time ns, latency µs)` of every answered negotiate, latency
    /// timed from the due time to the reply.
    pub latency: Vec<(u64, f64)>,
    /// How late the generator sent each negotiate, in microseconds, in
    /// schedule order.
    pub late_us: Vec<f64>,
    /// Host steal time over the phase.
    pub steal: StealLog,
    /// When the phase stopped sending negotiates, ns after it started.
    pub stop_ns: u64,
}

/// Ids at or above this carry follow-ups (accept/cancel).
const FOLLOWUP_BASE: u64 = 1 << 40;

/// When a phase may end: after `planned_ns`, once `quiet` windows of
/// `window_ns` after `warmup_ns` passed without host steal, and at the
/// latest at `cap_ns`. On a quiet host a phase takes `planned_ns`; on a
/// busy one it runs longer to collect undisturbed windows.
#[derive(Debug, Clone, Copy)]
pub struct StopRule {
    /// Earliest end, ns after the phase started.
    pub planned_ns: u64,
    /// Latest end.
    pub cap_ns: u64,
    /// Start of the first window.
    pub warmup_ns: u64,
    /// Window width.
    pub window_ns: u64,
    /// Quiet windows wanted before ending.
    pub quiet: usize,
}

impl StopRule {
    fn should_stop(&self, t_ns: u64, steal: &StealLog) -> bool {
        t_ns >= self.cap_ns
            || (t_ns >= self.planned_ns
                && steal.quiet_windows(self.warmup_ns, self.window_ns, t_ns) >= self.quiet)
    }
}

/// Sends `arrivals` on one connection at their due times, whatever the
/// daemon's speed, and times each negotiate from its due time, until
/// `stop` ends the phase. A writer thread sends; this thread reads
/// replies and queues follow-ups.
pub fn open_loop(addr: &str, arrivals: &[Arrival], stop: StopRule) -> Result<OpenReport, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<Request>();
    let origin = Instant::now();
    let give_up = Duration::from_nanos(stop.cap_ns) + DRAIN_TIMEOUT;
    // Negotiates due at or after the cut-off are not sent.
    let cutoff = AtomicU64::new(u64::MAX);
    let sent = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);

    let mut report = OpenReport::default();
    // Follow-ups by id offset; `None` once answered.
    let mut followups: Vec<Option<Sent>> = Vec::new();
    let mut followups_open = 0usize;
    let mut answered = vec![false; arrivals.len()];
    let mut negotiates_answered = 0usize;

    let late_us = std::thread::scope(|scope| {
        let shared = (&cutoff, &sent, &writer_done);
        let writer = scope.spawn(move || write_schedule(write_half, arrivals, origin, rx, shared));
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while origin.elapsed() < give_up {
            let t = origin.elapsed().as_nanos() as u64;
            report.steal.poll(t);
            if cutoff.load(Ordering::SeqCst) == u64::MAX && stop.should_stop(t, &report.steal) {
                cutoff.store(t, Ordering::SeqCst);
                report.stop_ns = t;
            }
            if writer_done.load(Ordering::SeqCst)
                && negotiates_answered == sent.load(Ordering::SeqCst)
                && followups_open == 0
            {
                break;
            }
            match read_reply(&mut reader, &mut line) {
                Ok(Some(())) => {}
                Ok(None) => continue,
                Err(_) => break,
            }
            let now_ns = origin.elapsed().as_nanos() as u64;
            let response = Response::parse(&line);
            line.clear();
            let Some(response) = response else { continue };
            let id = response.id();
            let sent = if id >= FOLLOWUP_BASE {
                let Some(slot) = followups.get_mut((id - FOLLOWUP_BASE) as usize) else {
                    continue;
                };
                let Some(sent) = slot.take() else { continue };
                followups_open -= 1;
                sent
            } else {
                let index = (id as usize).wrapping_sub(1);
                match answered.get_mut(index) {
                    Some(done) if !*done => *done = true,
                    _ => continue,
                }
                negotiates_answered += 1;
                let arrival = arrivals[index];
                let waited = now_ns.saturating_sub(arrival.due_ns);
                report
                    .latency
                    .push((arrival.due_ns, waited as f64 / 1_000.0));
                Sent::Negotiate(arrival)
            };
            if let Some(next) = settle(sent, &response, &mut report.counts) {
                let fid = FOLLOWUP_BASE + followups.len() as u64;
                followups.push(Some(next));
                followups_open += 1;
                next.count(&mut report.counts);
                if tx.send(next.request(fid)).is_err() {
                    break;
                }
            }
        }
        drop(tx);
        writer.join().expect("open-loop writer thread")
    });
    for a in &arrivals[..late_us.len()] {
        Sent::Negotiate(*a).count(&mut report.counts);
    }
    if report.stop_ns == 0 {
        report.stop_ns = arrivals
            .get(late_us.len())
            .map_or(stop.cap_ns, |a| a.due_ns);
    }
    report.late_us = late_us;
    Ok(report)
}

/// The open loop's sending side: each negotiate at its due time until the
/// cut-off, each follow-up as soon as the reader queues it. Returns the
/// lateness of every negotiate sent, in microseconds.
fn write_schedule(
    stream: TcpStream,
    arrivals: &[Arrival],
    origin: Instant,
    rx: mpsc::Receiver<Request>,
    (cutoff, sent, done): (&AtomicU64, &AtomicUsize, &AtomicBool),
) -> Vec<f64> {
    let mut out = BufWriter::new(stream);
    let mut late_us = Vec::with_capacity(arrivals.len());
    let mut next = 0usize;
    let mut followups_open = true;
    let finish = |late_us: Vec<f64>| {
        done.store(true, Ordering::SeqCst);
        late_us
    };
    loop {
        let now_ns = origin.elapsed().as_nanos() as u64;
        let mut wrote = false;
        while next < arrivals.len() && arrivals[next].due_ns <= now_ns {
            let a = &arrivals[next];
            if a.due_ns >= cutoff.load(Ordering::SeqCst) {
                next = arrivals.len();
                break;
            }
            let request = Request::Negotiate {
                id: next as u64 + 1,
                size: a.size,
                runtime_secs: a.runtime_secs,
            };
            if writeln!(out, "{}", request.encode()).is_err() {
                return finish(late_us);
            }
            late_us.push((now_ns - a.due_ns) as f64 / 1_000.0);
            next += 1;
            sent.store(next, Ordering::SeqCst);
            wrote = true;
        }
        if next >= arrivals.len() {
            done.store(true, Ordering::SeqCst);
        }
        while let Ok(request) = rx.try_recv() {
            if writeln!(out, "{}", request.encode()).is_err() {
                return finish(late_us);
            }
            wrote = true;
        }
        if wrote && out.flush().is_err() {
            return finish(late_us);
        }
        let wait = match arrivals.get(next) {
            Some(a) => Duration::from_nanos(a.due_ns.saturating_sub(now_ns)),
            None if followups_open => Duration::from_millis(50),
            None => return finish(late_us),
        };
        if !followups_open {
            std::thread::sleep(wait);
            continue;
        }
        match rx.recv_timeout(wait) {
            Ok(request) => {
                if writeln!(out, "{}", request.encode()).is_err() {
                    return finish(late_us);
                }
                // Flushed at the top of the loop with anything else queued.
                while let Ok(more) = rx.try_recv() {
                    if writeln!(out, "{}", more.encode()).is_err() {
                        return finish(late_us);
                    }
                }
                if out.flush().is_err() {
                    return finish(late_us);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => followups_open = false,
        }
    }
}

/// Result of a closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct ClosedReport {
    /// Request and outcome counts.
    pub counts: Counts,
    /// `(answer time ns after the phase started, latency µs from the
    /// write)` of each negotiate answered while the load was being sent.
    pub answered: Vec<(u64, f64)>,
    /// Host steal time over the phase.
    pub steal: StealLog,
    /// When the phase stopped sending, ns after it started.
    pub stop_ns: u64,
}

/// Saturates the daemon from `conns` pipelined connections (one thread
/// each, `depth` requests in flight per connection) until `stop` ends
/// the phase.
pub fn closed_loop(
    addr: &str,
    jobs: &[Arrival],
    conns: usize,
    depth: usize,
    stop: StopRule,
) -> Result<ClosedReport, String> {
    let origin = Instant::now();
    let stop_ns = AtomicU64::new(u64::MAX);
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|conn| {
                let ctx = ClosedCtx {
                    addr,
                    jobs,
                    conn,
                    conns,
                    depth,
                    origin,
                    stop,
                    stop_ns: &stop_ns,
                };
                scope.spawn(move || closed_worker(ctx))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop worker thread"))
            .collect()
    });
    let mut report = ClosedReport {
        stop_ns: stop_ns.load(Ordering::SeqCst).min(stop.cap_ns),
        ..ClosedReport::default()
    };
    for r in results {
        let (counts, answered, steal) = r?;
        report.counts.add(&counts);
        report.answered.extend(answered);
        if !steal.samples.is_empty() {
            report.steal = steal;
        }
    }
    report.answered.sort_by_key(|a| a.0);
    Ok(report)
}

/// A closed-loop connection's counts, answered negotiates and (first
/// connection only) steal log.
type WorkerResult = Result<(Counts, Vec<(u64, f64)>, StealLog), String>;

/// What one closed-loop connection needs.
#[derive(Clone, Copy)]
struct ClosedCtx<'a> {
    addr: &'a str,
    jobs: &'a [Arrival],
    conn: usize,
    conns: usize,
    depth: usize,
    origin: Instant,
    stop: StopRule,
    /// When the phase stopped sending; `u64::MAX` while it runs.
    stop_ns: &'a AtomicU64,
}

fn closed_worker(ctx: ClosedCtx) -> WorkerResult {
    let addr = ctx.addr;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let mut out = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream);
    let mut counts = Counts::default();
    let mut answered = Vec::new();
    // The first connection keeps the steal log and decides when to stop.
    let mut steal = StealLog::default();
    // What each request in flight was, and when it was written.
    let mut in_flight: HashMap<u64, (Sent, u64)> = HashMap::new();
    let mut queued: Vec<Sent> = Vec::new();
    let mut next_job = ctx.conn;
    let mut next_id = 1u64;
    let mut line = String::new();
    let mut drain_until = None;
    loop {
        let now = ctx.origin.elapsed().as_nanos() as u64;
        if ctx.conn == 0 && ctx.stop_ns.load(Ordering::SeqCst) == u64::MAX {
            steal.poll(now);
            if ctx.stop.should_stop(now, &steal) {
                ctx.stop_ns.store(now, Ordering::SeqCst);
            }
        }
        let sending = ctx.stop_ns.load(Ordering::SeqCst) == u64::MAX;
        if !sending {
            let until = *drain_until.get_or_insert(now + DRAIN_TIMEOUT.as_nanos() as u64);
            if in_flight.is_empty() || now > until {
                break;
            }
        }
        let mut wrote = false;
        while sending && in_flight.len() < ctx.depth {
            // Follow-ups first: they settle state the daemon holds.
            let sent = queued.pop().unwrap_or_else(|| {
                let a = ctx.jobs[next_job % ctx.jobs.len()];
                next_job += ctx.conns;
                Sent::Negotiate(a)
            });
            sent.count(&mut counts);
            if writeln!(out, "{}", sent.request(next_id).encode()).is_err() {
                return Ok((counts, answered, steal));
            }
            in_flight.insert(next_id, (sent, ctx.origin.elapsed().as_nanos() as u64));
            next_id += 1;
            wrote = true;
        }
        if wrote && out.flush().is_err() {
            return Ok((counts, answered, steal));
        }
        match read_reply(&mut reader, &mut line) {
            Ok(Some(())) => {}
            Ok(None) => continue,
            Err(_) => return Ok((counts, answered, steal)),
        }
        let at = ctx.origin.elapsed().as_nanos() as u64;
        let response = Response::parse(&line);
        line.clear();
        let Some(response) = response else { continue };
        let Some((sent, sent_ns)) = in_flight.remove(&response.id()) else {
            continue;
        };
        if matches!(sent, Sent::Negotiate(_)) && at < ctx.stop_ns.load(Ordering::SeqCst) {
            answered.push((at, at.saturating_sub(sent_ns) as f64 / 1_000.0));
        }
        queued.extend(settle(sent, &response, &mut counts));
    }
    Ok((counts, answered, steal))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: ClientMix = ClientMix {
        accept: 0.9,
        cancel: 0.05,
    };

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = schedule(LogModel::NasaIpsc, 7, 2000.0, 1.0, 128, MIX);
        let b = schedule(LogModel::NasaIpsc, 7, 2000.0, 1.0, 128, MIX);
        assert_eq!(a, b);
        let c = schedule(LogModel::NasaIpsc, 8, 2000.0, 1.0, 128, MIX);
        assert_ne!(a, c, "another seed gives another schedule");
        // Poisson at 2000/s over one second: close to 2000 arrivals, in
        // due order, all inside the phase, all fitting the cluster.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.due_ns < 1_000_000_000));
        assert!(a.iter().all(|x| (1..=128).contains(&x.size)));
    }
}
