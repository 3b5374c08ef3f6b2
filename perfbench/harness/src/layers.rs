//! In-process probes of single layers, driven by a served workload's own
//! recorded trace: the core session (through `ShardedCore::apply`), the
//! quote cache, the protocol codec and the journal sink. Every call into a
//! layer is wrapped in a span; the per-layer numbers are read off those
//! spans.

use crate::span::{totals, Tracer};
use crate::stats::{mean, ratio};
use pqos_cluster::node::NodeId;
use pqos_cluster::Partition;
use pqos_core::config::SimConfig;
use pqos_core::session::{AdmissionRequest, NegotiationSession, SessionOp, SessionOpOutcome};
use pqos_predict::api::{NullPredictor, Predictor};
use pqos_sched::CachedReservationBook;
use pqos_service::protocol::{ErrorCode, Request, Response};
use pqos_service::shard::{partition_spans, ShardedCore};
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::reqtrace::RequestTrace;
use pqos_telemetry::{Telemetry, TelemetryEvent};
use pqos_workload::job::JobId;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A predictor wrapper that counts (and, when `timed`, times) every
/// query the wrapped predictor answers. The counters are statistics only.
#[derive(Debug)]
pub struct Counted<P> {
    inner: P,
    timed: bool,
    calls: Arc<AtomicU64>,
    nanos: Arc<AtomicU64>,
}

/// Shared view of a [`Counted`] predictor's tallies.
#[derive(Debug, Clone, Default)]
pub struct QueryTally {
    calls: Arc<AtomicU64>,
    nanos: Arc<AtomicU64>,
}

impl QueryTally {
    /// Queries answered.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per query (0 when untimed or idle).
    pub fn mean_ns(&self) -> f64 {
        ratio(
            self.nanos.load(Ordering::Relaxed) as f64,
            self.calls() as f64,
        )
    }

    /// Wraps `inner`, feeding this tally.
    pub fn wrap<P>(&self, inner: P, timed: bool) -> Counted<P> {
        Counted {
            inner,
            timed,
            calls: Arc::clone(&self.calls),
            nanos: Arc::clone(&self.nanos),
        }
    }
}

impl<P: Predictor> Predictor for Counted<P> {
    fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if !self.timed {
            return self.inner.failure_probability(nodes, window);
        }
        let t = Instant::now();
        let p = self.inner.failure_probability(nodes, window);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        p
    }
}

/// Named per-layer values, in the order they were measured.
pub type Values = Vec<(&'static str, f64)>;

/// Drives `trace` through a freshly built `ShardedCore` shaped like the
/// daemon that recorded it (null predictor, same shard split and
/// horizon), one span per `apply`. Quote batches run on this thread, so
/// the spans hold core and sched work only, not the daemon's per-tick
/// fan-out. Returns the core, session, shard and predictor numbers.
pub fn drive_core(trace: &RequestTrace, tracer: &mut Tracer) -> Result<Values, String> {
    let meta = &trace.meta;
    if meta.predictor != "null" {
        return Err(format!("unexpected predictor {:?}", meta.predictor));
    }
    let tally = QueryTally::default();
    let shards = meta.shards.max(1) as u32;
    let spans = partition_spans(meta.cluster_size, shards);
    let widest = spans
        .iter()
        .map(|s| s.width)
        .max()
        .unwrap_or(meta.cluster_size);
    let session = |nodes: u32, base: u32| {
        NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(nodes),
            tally.wrap(NullPredictor, false),
            Telemetry::builder().build(),
        )
        .verify_parity(false)
        .node_base(u64::from(base))
    };
    let mut core = if shards == 1 {
        ShardedCore::single(session(meta.cluster_size, 0))
    } else {
        ShardedCore::sharded(
            spans.iter().map(|s| session(s.width, s.base)).collect(),
            tally.wrap(NullPredictor, false),
            Telemetry::builder().build(),
            Telemetry::builder().build(),
        )
    };
    if let Some(secs) = meta.quote_horizon_secs {
        core = core.quote_horizon(SimDuration::from_secs(secs));
    }
    let threads = 1;

    let drive = tracer.begin("core.drive");
    let mut sizes: HashMap<u64, u32> = HashMap::new();
    let mut reservations = Vec::new();
    let (mut quoted_requests, mut accepts, mut expired) = (0u64, 0u64, 0u64);
    let (mut wide_accepts, mut wide_expired) = (0u64, 0u64);
    let mut idx = 0;
    while idx < trace.entries.len() {
        let epoch = trace.entries[idx].epoch;
        let end = idx
            + trace.entries[idx..]
                .iter()
                .take_while(|e| e.epoch == epoch)
                .count();
        let entries = &trace.entries[idx..end];
        idx = end;
        let tick = SimTime::from_secs(entries[0].tick_secs);
        let id = tracer.begin("core.advance");
        core.apply(&SessionOp::AdvanceTo(tick), threads);
        tracer.end(id);

        let mut batch = Vec::new();
        let mut rest = Vec::new();
        for entry in entries {
            let request = Request::parse(&entry.request)
                .map_err(|e| format!("seq {}: {}", entry.seq, e.detail))?;
            let timed_out = matches!(
                Response::parse(&entry.response),
                Some(Response::Error {
                    code: ErrorCode::Timeout,
                    ..
                })
            );
            if timed_out {
                continue;
            }
            match (request, entry.job) {
                (
                    Request::Negotiate {
                        size, runtime_secs, ..
                    },
                    Some(job),
                ) => {
                    sizes.insert(job, size);
                    batch.push((
                        JobId::new(job),
                        AdmissionRequest {
                            size,
                            runtime: SimDuration::from_secs(runtime_secs),
                        },
                    ));
                }
                (Request::Accept { job, .. }, _) => rest.push(SessionOp::Accept(JobId::new(job))),
                (Request::Cancel { job, .. }, _) => rest.push(SessionOp::Cancel(JobId::new(job))),
                _ => {}
            }
        }
        if !batch.is_empty() {
            quoted_requests += batch.len() as u64;
            let op = SessionOp::QuoteBatch(batch);
            let id = tracer.begin("core.quote_batch");
            let outcome = core.apply(&op, threads);
            tracer.end(id);
            black_box(outcome);
        }
        for op in rest {
            let name = match op {
                SessionOp::Accept(_) => "core.accept",
                _ => "core.cancel",
            };
            let id = tracer.begin(name);
            let outcome = core.apply(&op, threads);
            tracer.end(id);
            if let (SessionOp::Accept(job), SessionOpOutcome::Accepted(result)) = (&op, &outcome) {
                let wide = sizes.get(&job.as_u64()).is_some_and(|&s| s > widest);
                accepts += 1;
                wide_accepts += u64::from(wide);
                if result.is_err() {
                    expired += 1;
                    wide_expired += u64::from(wide);
                }
            }
        }
        reservations.push(core.status().reservations as f64);
    }
    tracer.end(drive);

    let status = core.status();
    let cache = core.quote_cache_stats();
    let mutations = status.stats.accepted + status.stats.cancelled + status.stats.completed;
    let routed = core.routed_total();
    let (shard_lanes, wide_lane) = if shards > 1 && !routed.is_empty() {
        (&routed[..routed.len() - 1], routed[routed.len() - 1])
    } else {
        (routed, 0)
    };
    let lane_counts: Vec<f64> = shard_lanes.iter().map(|&n| n as f64).collect();
    let lane_max = lane_counts.iter().copied().fold(0.0, f64::max);
    let routed_sum = lane_counts.iter().sum::<f64>() + wide_lane as f64;

    let t = totals(tracer.spans());
    let quote = t.get("core.quote_batch").copied().unwrap_or_default();
    let mut v: Values = vec![
        ("core.quote_batch_us", quote.mean_us()),
        (
            "core.quote_us_per_request",
            ratio(quote.total_ns as f64 / 1_000.0, quoted_requests as f64),
        ),
        (
            "core.accept_us",
            t.get("core.accept").map_or(0.0, |s| s.mean_us()),
        ),
        (
            "core.cancel_us",
            t.get("core.cancel").map_or(0.0, |s| s.mean_us()),
        ),
        (
            "core.advance_us",
            t.get("core.advance").map_or(0.0, |s| s.mean_us()),
        ),
        (
            "session.accept_expired_share",
            ratio(expired as f64, accepts as f64),
        ),
        ("sched.book_reservations_mean", mean(&reservations)),
        (
            "sched.profile_rebuilds_per_mutation",
            ratio(cache.profile_rebuilds as f64, mutations as f64),
        ),
        (
            "predict.queries_per_quote",
            ratio(tally.calls() as f64, quoted_requests as f64),
        ),
    ];
    if shards > 1 {
        v.extend([
            ("shard.wide_share", ratio(wide_lane as f64, routed_sum)),
            ("shard.route_imbalance", ratio(lane_max, mean(&lane_counts))),
            (
                "shard.wide_conflict_share",
                ratio(wide_expired as f64, wide_accepts as f64),
            ),
        ]);
    }
    Ok(v)
}

/// Rebuilds the replayed session's live reservations from its journal
/// (`quote_negotiated` + `job_placed` at accept, `job_cancelled` on
/// release) into one cluster-wide `CachedReservationBook`, then times
/// `earliest_slots` for the workload's own requests: first lookup of each
/// request (cold: profile built, memo empty) and the repeat (warm).
pub fn probe_book(
    trace: &RequestTrace,
    journal: &str,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let cluster = trace.meta.cluster_size;
    let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut placed: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut now = 0u64;
    for line in journal.lines() {
        let Some(event) = TelemetryEvent::from_jsonl(line) else {
            return Err(format!("journal line does not parse: {line}"));
        };
        now = now.max(event.at().as_secs());
        match event {
            TelemetryEvent::QuoteNegotiated {
                job,
                start_secs,
                promised_secs,
                ..
            } => {
                windows.insert(job, (start_secs, promised_secs));
            }
            TelemetryEvent::JobPlaced { job, nodes, .. } => {
                placed.insert(job, nodes);
            }
            TelemetryEvent::JobCancelled { job, .. } => {
                placed.remove(&job);
            }
            _ => {}
        }
    }
    let mut book = CachedReservationBook::new(cluster);
    for (job, nodes) in &placed {
        let Some(&(start, end)) = windows.get(job) else {
            continue;
        };
        if end <= now || end <= start {
            continue;
        }
        let partition = Partition::new(nodes.iter().map(|&n| NodeId::new(n as u32)))
            .map_err(|e| format!("job {job}: {e:?}"))?;
        let window = TimeWindow::new(SimTime::from_secs(start), SimTime::from_secs(end));
        book.add(JobId::new(*job), partition, window)
            .map_err(|e| format!("job {job} does not fit the rebuilt book: {e:?}"))?;
    }

    let config = SimConfig::paper_defaults().cluster_size_nodes(cluster);
    let planner = NegotiationSession::new(config.clone(), NullPredictor, Telemetry::disabled());
    let mut requests: Vec<(u32, SimDuration)> = Vec::new();
    for entry in trace.entries.iter().rev() {
        if let Ok(Request::Negotiate {
            size, runtime_secs, ..
        }) = Request::parse(&entry.request)
        {
            let key = (
                size,
                planner.planned_total(SimDuration::from_secs(runtime_secs)),
            );
            if !requests.contains(&key) {
                requests.push(key);
            }
        }
        if requests.len() == 256 {
            break;
        }
    }
    let from = SimTime::from_secs(now);
    let slots = config.max_negotiation_slots;
    // Build the flattened profile once, outside the timed probes.
    black_box(book.earliest_slots(1, SimDuration::from_secs(1), from, &[], 1));
    let probe = tracer.begin("sched.probe");
    for &(size, duration) in &requests {
        for name in ["sched.earliest_slots_cold", "sched.earliest_slots_warm"] {
            let id = tracer.begin(name);
            black_box(book.earliest_slots(size, duration, from, &[], slots));
            tracer.end(id);
        }
    }
    tracer.end(probe);
    let t = totals(tracer.spans());
    Ok(vec![
        (
            "sched.earliest_slots_cold_us",
            t.get("sched.earliest_slots_cold")
                .map_or(0.0, |s| s.mean_us()),
        ),
        (
            "sched.earliest_slots_warm_us",
            t.get("sched.earliest_slots_warm")
                .map_or(0.0, |s| s.mean_us()),
        ),
    ])
}

/// Repeats `f` over `items` until at least 50 ms have passed; returns
/// the mean nanoseconds per item.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut done = 0u64;
    while done == 0 || started.elapsed().as_millis() < 50 {
        for item in items {
            f(item);
        }
        done += items.len() as u64;
    }
    started.elapsed().as_nanos() as f64 / done as f64
}

/// Times `Request::parse` on the trace's request lines and
/// `Response::encode` on its responses.
pub fn time_protocol(trace: &RequestTrace, tracer: &mut Tracer) -> Values {
    let requests: Vec<&str> = trace.entries.iter().map(|e| e.request.as_str()).collect();
    let responses: Vec<Response> = trace
        .entries
        .iter()
        .filter_map(|e| Response::parse(&e.response))
        .collect();
    let parse_ns = tracer.span("protocol.parse", || {
        per_item_ns(&requests, |line| {
            let _ = black_box(Request::parse(black_box(line)));
        })
    });
    let encode_ns = tracer.span("protocol.encode", || {
        per_item_ns(&responses, |r| {
            black_box(black_box(r).encode());
        })
    });
    vec![
        ("protocol.parse_ns", parse_ns),
        ("protocol.encode_ns", encode_ns),
    ]
}

/// Times appends of the journal's own events to a JSONL file sink set up
/// as the daemon sets up its journal.
pub fn time_journal(
    journal: &str,
    requests: usize,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let events: Vec<TelemetryEvent> = journal
        .lines()
        .filter_map(TelemetryEvent::from_jsonl)
        .collect();
    let count = events.len();
    let telemetry = Telemetry::builder()
        .flush_every(1024)
        .jsonl_path(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?
        .build();
    let id = tracer.begin("telemetry.journal_append");
    let started = Instant::now();
    for event in events {
        telemetry.emit(move || event);
    }
    telemetry.flush();
    let elapsed = started.elapsed();
    tracer.end(id);
    let _ = std::fs::remove_file(path);
    Ok(vec![
        (
            "telemetry.events_per_request",
            ratio(count as f64, requests as f64),
        ),
        (
            "telemetry.journal_append_ns",
            ratio(elapsed.as_nanos() as f64, count as f64),
        ),
    ])
}
