//! The served workload: `pqos-qosd` under an open-loop and a closed-loop
//! phase, each against a fresh daemon, plus the correctness gates and
//! (traced runs) the per-layer split.

use crate::layers;
use crate::load::{self, ClientMix, Daemon};
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio, tail};
use crate::{Check, Outcome};
use pqos_service::replay::{replay, ReplayOptions};
use pqos_telemetry::metrics::Snapshot;
use pqos_telemetry::{labeled, RequestTrace};
use pqos_workload::synthetic::LogModel;
use std::path::{Path, PathBuf};

/// Connections (and generator threads) the load may use: `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A served workload's daemon, client and load.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Arrival model for job sizes and runtimes.
    pub model: LogModel,
    /// Nodes in the served cluster.
    pub cluster: u32,
    /// Engine shards.
    pub shards: u32,
    /// `--quote-horizon-secs`.
    pub horizon_secs: u64,
    /// Offered load in the open loop: rate × mean node-seconds ÷
    /// (time-scale × nodes). The time scale is derived from it.
    pub rho: f64,
    /// Open-loop negotiates per wall second.
    pub open_rate: f64,
    /// Client behaviour after a quote.
    pub mix: ClientMix,
    /// Requests in flight per connection in the closed loop.
    pub depth: usize,
}

/// Below capacity at a wide horizon on two shards with the journal on:
/// accepts interleave with quotes, so quote compute, the quote cache,
/// shard routing and journal appends dominate.
pub const SERVE_BACKLOG: ServeSpec = ServeSpec {
    model: LogModel::SdscSp2,
    cluster: 128,
    shards: 2,
    horizon_secs: 7 * 86_400,
    rho: 0.8,
    open_rate: 1_500.0,
    mix: ClientMix {
        accept: 0.9,
        cancel: 0.05,
    },
    depth: 64,
};

/// Generator lateness (p99, µs) beyond which an open-loop phase is
/// invalid: the schedule, not the daemon, would set the latency.
pub const LATE_BOUND_US: f64 = 10_000.0;

/// Width of the windows each phase is summarised in. Latency and rate
/// are medians over windows, so one stall of a shared host moves one
/// window, not the run.
const WINDOW_NS: u64 = 500_000_000;

/// Share of each phase spent warming up (books filling, caches
/// settling) before any window counts.
const WARMUP_SHARE: f64 = 0.2;

/// A measured phase runs at most this multiple of its planned length
/// while it collects windows the host left undisturbed.
pub const STRETCH: f64 = 1.25;

/// Fewest windows the latency and rate are taken from.
const QUIET_MIN: usize = 4;

/// When a phase of `secs` planned seconds ends. The measured closed loop
/// stretches until as many windows without host steal as its figure is
/// taken from have passed; the open loop keeps its seeded schedule, so
/// its daemon's load (and memory) is the same whatever the host does.
fn stop_rule(secs: f64, stretch: bool) -> load::StopRule {
    let planned_ns = (secs * 1e9) as u64;
    let warmup_ns = (secs * WARMUP_SHARE * 1e9) as u64;
    let windows = (planned_ns - warmup_ns) / WINDOW_NS;
    load::StopRule {
        planned_ns,
        cap_ns: if stretch {
            (secs * STRETCH * 1e9) as u64
        } else {
            planned_ns
        },
        warmup_ns,
        window_ns: WINDOW_NS,
        quiet: if stretch {
            quiet_count(windows as usize)
        } else {
            0
        },
    }
}

/// Dedicated spawns per run for the set-up time median.
const SETUP_SPAWNS: usize = 31;

/// Seed of the fixed sample the time scale is derived from.
const REFERENCE_SEED: u64 = 0xD5_2005;

/// Length of the recorded correctness burst, seconds.
const CHECK_SECS: f64 = 1.0;

/// Seed-derived inputs of one run.
struct Inputs {
    time_scale: f64,
    open: Vec<load::Arrival>,
    jobs: Vec<load::Arrival>,
    check: Vec<load::Arrival>,
}

impl ServeSpec {
    /// Virtual seconds per wall second that give the open loop its
    /// offered load `rho`. The mean job size comes from a large fixed
    /// sample of the model, so it is the same for every seed.
    fn time_scale(&self) -> f64 {
        let reference = load::jobs(self.model, REFERENCE_SEED, 100_000, self.cluster, self.mix);
        let node_secs = reference
            .iter()
            .map(|a| f64::from(a.size) * a.runtime_secs as f64)
            .sum::<f64>()
            / reference.len() as f64;
        self.open_rate * node_secs / (self.rho * f64::from(self.cluster))
    }

    fn inputs(&self, seed: u64, open_secs: f64) -> Inputs {
        Inputs {
            time_scale: self.time_scale(),
            open: load::schedule(
                self.model,
                seed,
                self.open_rate,
                open_secs,
                self.cluster,
                self.mix,
            ),
            jobs: load::jobs(
                self.model,
                seed ^ 0x00C1_05ED,
                50_000,
                self.cluster,
                self.mix,
            ),
            check: load::schedule(
                self.model,
                seed ^ 0xC4EC,
                self.open_rate,
                CHECK_SECS,
                self.cluster,
                self.mix,
            ),
        }
    }

    fn args(&self, time_scale: f64) -> Vec<String> {
        [
            "--cluster-size".to_string(),
            self.cluster.to_string(),
            "--shards".into(),
            self.shards.to_string(),
            "--quote-horizon-secs".into(),
            self.horizon_secs.to_string(),
            "--time-scale".into(),
            format!("{time_scale}"),
        ]
        .into()
    }
}

/// Daemon flags for one phase; every daemon writes a journal.
#[derive(Debug)]
struct Phase<'a> {
    traced: bool,
    journal: &'a Path,
    record: Option<&'a Path>,
    metrics_dump: Option<&'a Path>,
}

impl<'a> Phase<'a> {
    /// Tracing off, journal at `journal`, nothing else.
    fn untraced(journal: &'a Path) -> Self {
        Phase {
            traced: false,
            journal,
            record: None,
            metrics_dump: None,
        }
    }
}

struct Runner<'a> {
    qosd: &'a Path,
    tmp: &'a Path,
    base_args: Vec<String>,
    spawned: usize,
    rss_mb: f64,
}

impl Runner<'_> {
    fn spawn(&mut self, phase: &Phase) -> Result<Daemon, String> {
        let mut args = self.base_args.clone();
        if !phase.traced {
            args.extend(["--no-flight", "--history-window-ms", "0"].map(String::from));
        }
        let mut flag = |name: &str, path: Option<&Path>| {
            if let Some(p) = path {
                args.push(name.to_string());
                args.push(p.display().to_string());
            }
        };
        flag("--journal", Some(phase.journal));
        flag("--record", phase.record);
        flag("--metrics-dump", phase.metrics_dump);
        self.spawned += 1;
        let err = self.tmp.join(format!("qosd-{}.err", self.spawned));
        Daemon::spawn(self.qosd, &args, &err)
    }

    /// Shuts `daemon` down after checking its parity counters; records
    /// its peak RSS.
    fn finish(
        &mut self,
        daemon: Daemon,
        label: &str,
        checks: &mut Vec<Check>,
    ) -> Result<(), String> {
        let status = daemon.status()?;
        self.rss_mb = self.rss_mb.max(daemon.peak_rss_mb().unwrap_or(0.0));
        checks.push(Check::new(
            format!("{label}: zero parity violations"),
            status.parity_violations == 0,
            format!(
                "{} of {} sampled batches disagreed",
                status.parity_violations, status.parity_checked
            ),
        ));
        daemon.shutdown()
    }

    fn journal_path(&self, label: &str) -> PathBuf {
        self.tmp.join(format!("{label}.journal.jsonl"))
    }
}

/// Doctor and promise-audit gates on a served journal.
fn audit_journal(path: &Path, label: &str, checks: &mut Vec<Check>) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doctor = pqos_obs::Doctor::check_str(&text);
    checks.push(Check::new(
        format!("{label}: journal passes the doctor check"),
        doctor.errors() == 0 && doctor.events > 0,
        format!("{} events, {} errors", doctor.events, doctor.errors()),
    ));
    let audit = pqos_obs::audit_str(&text);
    checks.push(Check::new(
        format!("{label}: journal passes the promise audit"),
        audit.report.errors() == 0 && audit.ledger.tiling_holds(),
        format!("{} errors", audit.report.errors()),
    ));
    Ok(())
}

/// Replays a recorded trace and checks 100% response parity and a
/// byte-identical replayed journal. Returns the
/// parsed trace, the replayed journal and the replay rate (entries per
/// second).
pub fn replay_gate(
    trace_text: &str,
    served_journal: &str,
    label: &str,
    checks: &mut Vec<Check>,
) -> Result<(RequestTrace, String, f64), String> {
    let trace = RequestTrace::parse(trace_text).map_err(|e| format!("{label}: {e}"))?;
    let report = replay(&trace, &ReplayOptions::default()).map_err(|e| format!("{label}: {e}"))?;
    checks.push(Check::new(
        format!("{label}: replay answers every request as recorded"),
        report.is_parity_clean() && report.parity_checked > 0,
        format!(
            "{} of {} responses differ",
            report.mismatches.len(),
            report.parity_checked
        ),
    ));
    checks.push(Check::new(
        format!("{label}: replayed journal is byte-identical"),
        report.journal == served_journal,
        format!("{} vs {} bytes", report.journal.len(), served_journal.len()),
    ));
    let rate = ratio(report.entries_replayed as f64, report.elapsed.as_secs_f64());
    Ok((trace, report.journal, rate))
}

/// The recorded correctness burst: a short open loop against a daemon
/// with `--record` and `--journal`, then replay parity and journal
/// equality.
fn check_burst(
    r: &mut Runner,
    inputs: &Inputs,
    checks: &mut Vec<Check>,
) -> Result<load::Counts, String> {
    let record = r.tmp.join("check.trace.jsonl");
    let journal = r.tmp.join("check.journal.jsonl");
    let daemon = r.spawn(&Phase {
        record: Some(&record),
        ..Phase::untraced(&journal)
    })?;
    let report = load::open_loop(&daemon.addr, &inputs.check, stop_rule(CHECK_SECS, false))?;
    r.finish(daemon, "check burst", checks)?;
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    replay_gate(&read(&record)?, &read(&journal)?, "check burst", checks)?;
    Ok(report.counts)
}

/// Runs one served workload for about `secs` seconds.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    secs: f64,
    qosd: &Path,
    tmp: &Path,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let traced = tracer.enabled();
    // Untraced: open loop 50%, closed loop 40% (it gives the latency and
    // the rate). Traced: two closed loops (untraced, traced) of 15% each
    // and a traced open loop of 40%.
    let open_secs = secs * if traced { 0.4 } else { 0.5 };
    let closed_secs = secs * if traced { 0.15 } else { 0.4 };
    let inputs = tracer.span("workload.inputs", || spec.inputs(seed, open_secs));
    let mut r = Runner {
        qosd,
        tmp,
        base_args: spec.args(inputs.time_scale),
        spawned: 0,
        rss_mb: 0.0,
    };
    let mut out = Outcome::default();
    let conns = nproc();
    out.info("time_scale", inputs.time_scale);
    out.info("rho", spec.rho);
    out.info("open_rate", spec.open_rate);
    out.info("connections", conns as f64);

    if !traced {
        let journal = r.journal_path("setup");
        let mut setups = Vec::new();
        for _ in 0..SETUP_SPAWNS {
            let daemon = r.spawn(&Phase::untraced(&journal))?;
            setups.push(daemon.setup_secs);
            daemon.shutdown()?;
        }

        let journal = r.journal_path("open");
        let daemon = r.spawn(&Phase::untraced(&journal))?;
        setups.push(daemon.setup_secs);
        let open = load::open_loop(&daemon.addr, &inputs.open, stop_rule(open_secs, false))?;
        r.finish(daemon, "open loop", &mut out.checks)?;
        // The open loop's load does not depend on the daemon's speed, so
        // neither does its daemon's peak memory; the closed loop's does.
        let rss_mb = r.rss_mb;
        audit_journal(&journal, "open loop", &mut out.checks)?;
        record_open(&mut out, &open, &inputs.open, open_secs, "open", traced)?;

        let journal = r.journal_path("closed");
        let daemon = r.spawn(&Phase::untraced(&journal))?;
        setups.push(daemon.setup_secs);
        let closed = load::closed_loop(
            &daemon.addr,
            &inputs.jobs,
            conns,
            spec.depth,
            stop_rule(closed_secs, true),
        )?;
        r.finish(daemon, "closed loop", &mut out.checks)?;
        audit_journal(&journal, "closed loop", &mut out.checks)?;
        let sat = record_closed(&mut out, &closed, closed_secs, "closed")?;

        let burst = check_burst(&mut r, &inputs, &mut out.checks)?;
        out.add_counts(&burst);

        // Served figures stay as measured: they come from the threads of
        // two processes sharing the CPUs, which the single-threaded host
        // reference (`crate::host`) does not track.
        out.e2e("latency_p50_us", sat.p50_us);
        out.e2e("latency_tail_us", sat.tail_us);
        out.e2e("throughput_per_s", sat.rate);
        out.e2e("setup_s", median(&setups).unwrap_or(0.0));
        out.e2e("rss_peak_mb", rss_mb);
        return Ok(out);
    }

    // Traced: tracing overhead from an untraced and a traced closed loop.
    let mut rates = Vec::new();
    for phase_traced in [false, true] {
        let journal = r.journal_path(if phase_traced {
            "closed-traced"
        } else {
            "closed"
        });
        let id = tracer.begin(if phase_traced {
            "serve.closed_loop_traced"
        } else {
            "serve.closed_loop"
        });
        let daemon = r.spawn(&Phase {
            traced: phase_traced,
            ..Phase::untraced(&journal)
        })?;
        let closed = load::closed_loop(
            &daemon.addr,
            &inputs.jobs,
            conns,
            spec.depth,
            stop_rule(closed_secs, false),
        )?;
        r.finish(daemon, "closed loop", &mut out.checks)?;
        tracer.end(id);
        let label = if phase_traced {
            "closed_traced"
        } else {
            "closed"
        };
        rates.push(record_closed(&mut out, &closed, closed_secs, label)?.rate);
    }
    out.layer(
        "trace_overhead_pct",
        ratio(rates[0] - rates[1], rates[0]) * 100.0,
    );

    // The traced open loop: flight recorder, history, a recording and a
    // final metrics snapshot.
    let record = tmp.join("open.trace.jsonl");
    let dump = tmp.join("open.metrics.json");
    let journal = r.journal_path("open");
    let id = tracer.begin("serve.open_loop_traced");
    let daemon = r.spawn(&Phase {
        traced: true,
        journal: &journal,
        record: Some(&record),
        metrics_dump: Some(&dump),
    })?;
    let open = load::open_loop(&daemon.addr, &inputs.open, stop_rule(open_secs, false))?;
    r.finish(daemon, "open loop", &mut out.checks)?;
    tracer.end(id);
    let (client_p50_us, _) = record_open(&mut out, &open, &inputs.open, open_secs, "open", traced)?;
    audit_journal(&journal, "open loop", &mut out.checks)?;

    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let served = read(&journal)?;
    let id = tracer.begin("replay.replay");
    let (trace, replayed, rate) = replay_gate(
        &read(&record)?,
        &served,
        "traced open loop",
        &mut out.checks,
    )?;
    tracer.end(id);
    out.layer("core.replay_entries_per_s", rate);

    let snapshot = Snapshot::from_json(&read(&dump)?).ok_or("metrics dump does not parse")?;
    server_layers(&mut out, &snapshot, client_p50_us);

    for (k, v) in layers::drive_core(&trace, tracer)? {
        out.layer(k, v);
    }
    // Core + sched work per negotiate against the server's request time:
    // the share an optimisation of those layers could save at most.
    let request_us = out.layer_value("engine.request_us_p50");
    let core_us = out.layer_value("core.quote_us_per_request");
    out.layer("core.request_share", ratio(core_us, request_us));
    for (k, v) in layers::probe_book(&trace, &replayed, tracer)? {
        out.layer(k, v);
    }
    for (k, v) in layers::time_protocol(&trace, tracer) {
        out.layer(k, v);
    }
    let appends = tmp.join("append.jsonl");
    for (k, v) in layers::time_journal(&replayed, trace.entries.len(), &appends, tracer)? {
        out.layer(k, v);
    }

    let burst = check_burst(&mut r, &inputs, &mut out.checks)?;
    out.add_counts(&burst);
    Ok(out)
}

/// One window of an open-loop phase.
#[derive(Debug, Clone)]
struct OpenWindow {
    /// Latencies of the negotiates due in the window, µs.
    latency_us: Vec<f64>,
    late_p99_us: f64,
    steal: u64,
}

/// Windows `[start, start + count · WINDOW_NS)` of a phase planned for
/// `secs` seconds that stopped at `stop_ns`: whole windows after the
/// warm-up.
fn window_grid(secs: f64, stop_ns: u64) -> (u64, usize) {
    let start = (secs * WARMUP_SHARE * 1e9) as u64;
    let count = stop_ns.saturating_sub(start) / WINDOW_NS;
    (start, count as usize)
}

/// How many windows of `n` a phase's figure is taken from: a quarter,
/// but at least [`QUIET_MIN`] (or all of them when there are fewer).
fn quiet_count(n: usize) -> usize {
    n.div_ceil(4).max(QUIET_MIN).min(n)
}

/// The quietest [`quiet_count`] windows: fewest host steal ticks first,
/// then least generator lateness. On a shared host the hypervisor takes
/// the CPUs away for milliseconds at a time; steal is counted in 10 ms
/// ticks, so shorter thefts show only as a late generator. Disturbed
/// windows measure the neighbours, not the daemon.
fn quietest<T>(mut windows: Vec<T>, key: impl Fn(&T) -> (u64, f64)) -> Vec<T> {
    windows.sort_by(|a, b| {
        let (ka, kb) = (key(a), key(b));
        ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
    });
    windows.truncate(quiet_count(windows.len()));
    windows
}

/// Splits an open-loop phase after its warm-up into windows by due time.
fn open_windows(open: &load::OpenReport, arrivals: &[load::Arrival], secs: f64) -> Vec<OpenWindow> {
    let (start, count) = window_grid(secs, open.stop_ns);
    let index = |due: u64| (due >= start).then(|| ((due - start) / WINDOW_NS) as usize);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); count];
    let mut late: Vec<Vec<f64>> = vec![Vec::new(); count];
    for &(due, us) in &open.latency {
        if let Some(w) = index(due).and_then(|i| lat.get_mut(i)) {
            w.push(us);
        }
    }
    for (a, &us) in arrivals.iter().zip(&open.late_us) {
        if let Some(w) = index(a.due_ns).and_then(|i| late.get_mut(i)) {
            w.push(us);
        }
    }
    lat.into_iter()
        .zip(late)
        .enumerate()
        .filter_map(|(k, (l, mut g))| {
            let from = start + k as u64 * WINDOW_NS;
            g.sort_by(f64::total_cmp);
            Some(OpenWindow {
                latency_us: l,
                late_p99_us: percentile(&g, 0.99)?,
                steal: open.steal.during(from, from + WINDOW_NS),
            })
        })
        .collect()
}

/// Counts, validity and latency of an open-loop phase. A window in which
/// the generator ran later than [`LATE_BOUND_US`] (p99) is invalid, not
/// slow, and is left out; the phase is invalid unless at least a quarter
/// of its windows are valid. The latency p50 and tail are taken over the
/// pooled samples of the quietest valid windows (see [`quietest`]). Only an
/// untraced phase's latency is an end-to-end metric, so only there is
/// validity a check.
fn record_open(
    out: &mut Outcome,
    open: &load::OpenReport,
    arrivals: &[load::Arrival],
    secs: f64,
    label: &'static str,
    traced: bool,
) -> Result<(f64, f64), String> {
    out.add_counts(&open.counts);
    out.info_counts(label, &open.counts);
    let windows = open_windows(open, arrivals, secs);
    let valid: Vec<OpenWindow> = windows
        .iter()
        .filter(|w| w.late_p99_us <= LATE_BOUND_US)
        .cloned()
        .collect();
    if !traced {
        out.checks.push(Check::new(
            format!("{label} loop: generator kept its schedule"),
            !valid.is_empty() && valid.len() * 4 >= windows.len(),
            format!(
                "{} of {} windows within {LATE_BOUND_US} us lateness p99",
                valid.len(),
                windows.len()
            ),
        ));
    }
    let late: Vec<f64> = windows.iter().map(|w| w.late_p99_us).collect();
    let late_p99 = median(&late).unwrap_or(0.0);
    out.layer("gen_late_p99_us", late_p99);
    let used = quietest(valid, |w| (w.steal, w.late_p99_us));
    let mut pooled: Vec<f64> = used
        .iter()
        .flat_map(|w| w.latency_us.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let p50 = percentile(&pooled, 0.5).ok_or("no valid open-loop window")?;
    let (tail_q, tail_us) = tail(&pooled).ok_or("no valid open-loop window")?;
    let steal: Vec<f64> = windows.iter().map(|w| w.steal as f64).collect();
    out.info(&format!("{label}.windows"), windows.len() as f64);
    out.info(&format!("{label}.windows_used"), used.len() as f64);
    out.info(&format!("{label}.secs"), open.stop_ns as f64 / 1e9);
    out.info(
        &format!("{label}.steal_ticks_per_window"),
        median(&steal).unwrap_or(0.0),
    );
    out.info(&format!("{label}.gen_late_p99_us"), late_p99);
    out.info(&format!("{label}.samples"), pooled.len() as f64);
    out.info(&format!("{label}.tail_percentile"), tail_q * 100.0);
    out.info(
        &format!("{label}.reject_share"),
        ratio(open.counts.rejected as f64, open.counts.negotiates as f64),
    );
    out.info(&format!("{label}.latency_p50_us"), p50);
    out.info(&format!("{label}.latency_tail_us"), tail_us);
    out.info(
        &format!("{label}.latency_p99_us"),
        percentile(&pooled, 0.99).unwrap_or(0.0),
    );
    Ok((p50, tail_us))
}

/// What a closed-loop phase measured, over its windows after the warm-up
/// that the host left undisturbed.
#[derive(Debug, Clone, Copy)]
struct Saturation {
    /// Negotiates answered per second: the median over the windows.
    rate: f64,
    /// Negotiate latency, write to reply, µs: p50 and tail of the pooled
    /// samples of the windows.
    p50_us: f64,
    tail_us: f64,
}

/// Counts, coupling shares, rate and latency of a closed-loop phase.
fn record_closed(
    out: &mut Outcome,
    closed: &load::ClosedReport,
    secs: f64,
    label: &'static str,
) -> Result<Saturation, String> {
    out.add_counts(&closed.counts);
    out.info_counts(label, &closed.counts);
    let (start, count) = window_grid(secs, closed.stop_ns);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); count];
    for &(at, us) in &closed.answered {
        if at >= start {
            if let Some(w) = per_window.get_mut(((at - start) / WINDOW_NS) as usize) {
                w.push(us);
            }
        }
    }
    let windows: Vec<(Vec<f64>, u64)> = per_window
        .into_iter()
        .enumerate()
        .map(|(k, lat)| {
            let from = start + k as u64 * WINDOW_NS;
            (lat, closed.steal.during(from, from + WINDOW_NS))
        })
        .collect();
    // The rate moves from window to window more than latency does, so it
    // is the median over every window without steal (or the quieter
    // half when too few are).
    let quiet = windows.iter().filter(|w| w.1 == 0).count();
    let used: Vec<(Vec<f64>, u64)> = if quiet >= QUIET_MIN {
        windows.into_iter().filter(|w| w.1 == 0).collect()
    } else {
        let half = windows.len().div_ceil(2);
        let mut sorted = windows;
        sorted.sort_by_key(|w| w.1);
        sorted.truncate(half);
        sorted
    };
    let per_s = 1e9 / WINDOW_NS as f64;
    let rates: Vec<f64> = used.iter().map(|w| w.0.len() as f64 * per_s).collect();
    let rate = median(&rates).unwrap_or(0.0);
    let mut pooled: Vec<f64> = used.iter().flat_map(|w| w.0.iter().copied()).collect();
    pooled.sort_by(f64::total_cmp);
    let p50_us = percentile(&pooled, 0.5).ok_or("no closed-loop window")?;
    let (tail_q, tail_us) = tail(&pooled).ok_or("no closed-loop window")?;
    out.info(&format!("{label}.negotiates_per_s"), rate);
    out.info(&format!("{label}.windows"), count as f64);
    out.info(&format!("{label}.windows_used"), used.len() as f64);
    out.info(&format!("{label}.secs"), closed.stop_ns as f64 / 1e9);
    out.info(&format!("{label}.samples"), pooled.len() as f64);
    out.info(&format!("{label}.latency_p50_us"), p50_us);
    out.info(&format!("{label}.tail_percentile"), tail_q * 100.0);
    out.info(&format!("{label}.latency_tail_us"), tail_us);
    out.info(
        &format!("{label}.latency_p99_us"),
        percentile(&pooled, 0.99).unwrap_or(0.0),
    );
    // Virtual time runs at wall time × time-scale, so a faster daemon
    // sees more virtual load in this phase; these shares show how much.
    out.info(
        &format!("{label}.reject_share"),
        ratio(
            closed.counts.rejected as f64,
            closed.counts.negotiates as f64,
        ),
    );
    out.info(
        &format!("{label}.expire_share"),
        ratio(closed.counts.expired as f64, closed.counts.accepts as f64),
    );
    Ok(Saturation {
        rate,
        p50_us,
        tail_us,
    })
}

/// Server-side stage split and engine counters from the traced open
/// loop's final metrics snapshot.
fn server_layers(out: &mut Outcome, snap: &Snapshot, client_p50_us: f64) {
    let hist =
        |name: &str, labels: &[(&str, &str)]| snap.histogram(&labeled(name, labels)).cloned();
    let request = hist("rpc.request_ns", &[("verb", "negotiate")]);
    let request_p50_us = request.as_ref().map_or(0.0, |h| h.p50 / 1_000.0);
    out.layer("net.overhead_us", client_p50_us - request_p50_us);
    out.layer("engine.request_us_p50", request_p50_us);
    let mut compute_p50_us = 0.0;
    for stage in ["queue", "batch", "compute", "write"] {
        let h = hist("rpc.stage_ns", &[("stage", stage), ("verb", "negotiate")]);
        let (p50, p99) = h.map_or((0.0, 0.0), |h| (h.p50 / 1_000.0, h.p99 / 1_000.0));
        if stage == "compute" {
            compute_p50_us = p50;
        }
        let (k50, k99) = match stage {
            "queue" => ("engine.queue_us_p50", "engine.queue_us_p99"),
            "batch" => ("engine.batch_us_p50", "engine.batch_us_p99"),
            "compute" => ("engine.compute_us_p50", "engine.compute_us_p99"),
            _ => ("engine.write_us_p50", "engine.write_us_p99"),
        };
        out.layer(k50, p50);
        out.layer(k99, p99);
    }
    out.layer(
        "engine.compute_share",
        ratio(compute_p50_us, request_p50_us),
    );
    out.layer(
        "engine.tick_us",
        snap.histogram("engine.tick_ns")
            .map_or(0.0, |h| h.mean / 1_000.0),
    );
    out.layer(
        "engine.batch_size_mean",
        snap.histogram("engine.batch_size").map_or(0.0, |h| h.mean),
    );
    out.layer(
        "engine.overloaded",
        snap.gauge("engine.overloaded_total").unwrap_or(0) as f64,
    );
    let hits = snap.gauge("quote_cache.hits").unwrap_or(0) as f64;
    let misses = snap.gauge("quote_cache.misses").unwrap_or(0) as f64;
    out.layer("sched.quote_cache_hit_rate", ratio(hits, hits + misses));
}
