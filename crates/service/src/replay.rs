//! Deterministic re-execution of recorded request traces.
//!
//! [`replay`] feeds a trace captured by the daemon's `--record` flag back
//! through the *real* engine tick — no sockets, no wall clock. The core
//! comes from [`CoreSpec::from_meta`] and [`CoreSpec::build`], the same
//! construction path `pqos-qosd` takes; each recorded epoch then runs
//! through `tick::step`, the same tick the engine thread runs, with the
//! recorded tick time, batching and job ids. The replayed core therefore
//! makes exactly the decisions the live engine made and emits a
//! byte-identical journal. What is left here is reading entries,
//! honouring recorded timeouts and comparing responses.
//!
//! # Determinism contract
//!
//! Replay checks *response parity* for the deterministic verbs —
//! `negotiate`, `accept`, `cancel`, `shutdown` — whose responses are pure
//! functions of session state. `status`, `dump` and `history` responses
//! carry wall-clock fields (uptime, queue depth, flight-recorder
//! contents, sampled history) and are skipped (counted in
//! [`ReplayReport::skipped_nondeterministic`]). Queue-timeout refusals
//! never reached the session when recorded, so replay honors them by
//! skipping the entry. Journal equality is checked by the caller against
//! the recorded journal ([`ReplayReport::journal`] holds the replayed
//! one).

use crate::protocol::{ErrorCode, Request, Response};
use crate::record::SharedBuf;
use crate::spec::CoreSpec;
use crate::tick::{self, Answer};
use pqos_telemetry::reqtrace::{RequestTrace, TraceEntry};
use pqos_workload::job::JobId;
use std::convert::Infallible;
use std::fmt;
use std::time::{Duration, Instant};

/// Tuning for one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Stop after this epoch (inclusive); `None` replays to the end.
    pub until: Option<u64>,
    /// Batch fan-out override; `0` uses the recorded `batch_threads`
    /// (quoting is thread-count independent, so this only affects speed).
    pub threads: usize,
    /// Compare every deterministic response byte-for-byte against the
    /// recording.
    pub check_parity: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            until: None,
            threads: 0,
            check_parity: true,
        }
    }
}

/// One replayed response that differs from the recording.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityMismatch {
    /// Sequence number of the diverging entry.
    pub seq: u64,
    /// Epoch it replayed in.
    pub epoch: u64,
    /// Protocol verb.
    pub verb: String,
    /// The recorded response line.
    pub recorded: String,
    /// What this build of the code answered instead.
    pub replayed: String,
}

/// Per-epoch progress, for `--step` narrowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSummary {
    /// The epoch just replayed.
    pub epoch: u64,
    /// Virtual time it advanced to.
    pub tick_secs: u64,
    /// Entries it contained.
    pub entries: usize,
    /// Live jobs after the epoch.
    pub live_jobs: usize,
    /// Cumulative parity mismatches so far.
    pub mismatches: usize,
}

/// What a replay produced.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Entries in the trace.
    pub entries_total: usize,
    /// Entries fed through the session (or honored as recorded
    /// timeouts); the rest were cut off by `--until` or a mid-trace
    /// shutdown.
    pub entries_replayed: usize,
    /// Epochs replayed.
    pub epochs_replayed: u64,
    /// Deterministic responses compared against the recording.
    pub parity_checked: usize,
    /// The comparisons that diverged.
    pub mismatches: Vec<ParityMismatch>,
    /// `status`/`dump`/`history` entries skipped (wall-clock responses).
    pub skipped_nondeterministic: usize,
    /// Recorded queue-timeout refusals honored by skipping.
    pub timeouts_honored: usize,
    /// Whether the trace ended with a shutdown acknowledgement.
    pub shutdown_seen: bool,
    /// The replayed journal (JSONL), for byte comparison against the
    /// recorded one.
    pub journal: String,
    /// Replayed response line per deterministic entry, in replay order
    /// (`(seq, line)`); lets callers reconstruct responses for authored
    /// traces.
    pub responses: Vec<(u64, String)>,
    /// Wall-clock cost of the replay.
    pub elapsed: Duration,
}

impl ReplayReport {
    /// No response diverged from the recording.
    pub fn is_parity_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Why a trace cannot be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The trace as a whole is not replayable (wrong source, unknown
    /// predictor, a shard count that does not fit the cluster).
    Unsupported(String),
    /// One entry is malformed beyond what the schema validator can see
    /// (unparseable request/response payload, negotiate without a job).
    BadEntry {
        /// Sequence number of the offending entry.
        seq: u64,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Unsupported(detail) => write!(f, "cannot replay: {detail}"),
            ReplayError::BadEntry { seq, detail } => {
                write!(f, "trace entry seq {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays `trace` to completion (or `opts.until`). See the
/// [module docs](self) for the determinism contract.
pub fn replay(trace: &RequestTrace, opts: &ReplayOptions) -> Result<ReplayReport, ReplayError> {
    replay_with(trace, opts, |_| {})
}

/// [`replay`], invoking `on_epoch` after each replayed epoch (the
/// substrate for `pqos-replay run --step`).
pub fn replay_with(
    trace: &RequestTrace,
    opts: &ReplayOptions,
    mut on_epoch: impl FnMut(&EpochSummary),
) -> Result<ReplayReport, ReplayError> {
    let started = Instant::now();
    let meta = &trace.meta;
    if meta.source != "qosd" {
        return Err(ReplayError::Unsupported(format!(
            "trace source is {:?}; only engine-side (\"qosd\") traces carry \
             the batch epochs replay needs — re-capture with `pqos-qosd --record`",
            meta.source
        )));
    }
    let spec = CoreSpec::from_meta(meta)?;
    // One in-memory journal per plane, in merge order.
    let mut journals: Vec<SharedBuf> = Vec::new();
    let Ok((mut core, mut slo)) = spec.build(|_, builder| {
        let buf = SharedBuf::new();
        journals.push(buf.clone());
        Ok::<_, Infallible>(builder.flush_every(0).jsonl_writer(buf).build())
    });
    let threads = if opts.threads > 0 {
        opts.threads
    } else {
        (meta.batch_threads as usize).max(1)
    };

    let mut report = ReplayReport {
        entries_total: trace.entries.len(),
        entries_replayed: 0,
        epochs_replayed: 0,
        parity_checked: 0,
        mismatches: Vec::new(),
        skipped_nondeterministic: 0,
        timeouts_honored: 0,
        shutdown_seen: false,
        journal: String::new(),
        responses: Vec::new(),
        elapsed: Duration::ZERO,
    };

    let mut idx = 0;
    while idx < trace.entries.len() {
        let epoch = trace.entries[idx].epoch;
        if opts.until.is_some_and(|until| epoch > until) {
            break;
        }
        let mut end = idx;
        while end < trace.entries.len() && trace.entries[end].epoch == epoch {
            end += 1;
        }
        let entries = &trace.entries[idx..end];
        let tick = entries[0].tick_secs;

        // Parse payloads and split out recorded queue-timeouts, which
        // never reached the session. `at[i]` is op i's place in `entries`.
        let mut ops = Vec::with_capacity(entries.len());
        let mut at = Vec::with_capacity(entries.len());
        let mut timed_out = Vec::new();
        for (pos, entry) in entries.iter().enumerate() {
            let bad = |detail: String| ReplayError::BadEntry {
                seq: entry.seq,
                detail,
            };
            let request = Request::parse(&entry.request)
                .map_err(|e| bad(format!("request does not parse: {}", e.detail)))?;
            if request.verb() != entry.verb {
                return Err(bad(format!(
                    "entry verb {:?} disagrees with its request payload ({:?})",
                    entry.verb,
                    request.verb()
                )));
            }
            let recorded = Response::parse(&entry.response)
                .ok_or_else(|| bad("response does not parse".to_string()))?;
            if let Response::Error {
                code: ErrorCode::Timeout,
                ..
            } = recorded
            {
                timed_out.push(pos);
                continue;
            }
            // Rejected negotiates consumed a job id too.
            let job = match request {
                Request::Negotiate { .. } => Some(JobId::new(entry.job.ok_or_else(|| {
                    bad("executed negotiate is missing its engine-assigned job id".into())
                })?)),
                _ => None,
            };
            ops.push((request, job));
            at.push(pos);
        }

        // Entries past a shutdown were never answered.
        let mut cut = entries.len();
        let shutdown = tick::step(
            &mut core,
            slo.as_mut(),
            tick,
            &ops,
            threads,
            |_, i, answer| match answer {
                Answer::Batching => {}
                Answer::Query => report.skipped_nondeterministic += 1,
                Answer::Response(response) => {
                    check_parity(opts, &entries[at[i]], &response, &mut report);
                    if matches!(ops[i].0, Request::Shutdown { .. }) {
                        cut = at[i] + 1;
                    }
                }
            },
        );
        report.timeouts_honored += timed_out.iter().filter(|&&pos| pos < cut).count();
        report.entries_replayed += cut;
        report.epochs_replayed += 1;
        on_epoch(&EpochSummary {
            epoch,
            tick_secs: tick,
            entries: entries.len(),
            live_jobs: core.live_jobs(),
            mismatches: report.mismatches.len(),
        });
        if shutdown {
            report.shutdown_seen = true;
            break;
        }
        idx = end;
    }

    core.flush();
    let texts: Vec<String> = journals.iter().map(SharedBuf::take_string).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    report.journal = spec.merge_journals(&refs);
    report.elapsed = started.elapsed();
    Ok(report)
}

/// Records the replayed response and, when parity checking is on,
/// byte-compares it against the recorded line.
fn check_parity(
    opts: &ReplayOptions,
    entry: &TraceEntry,
    replayed: &Response,
    report: &mut ReplayReport,
) {
    let line = replayed.encode();
    if opts.check_parity {
        report.parity_checked += 1;
        if line != entry.response {
            report.mismatches.push(ParityMismatch {
                seq: entry.seq,
                epoch: entry.epoch,
                verb: entry.verb.clone(),
                recorded: entry.response.clone(),
                replayed: line.clone(),
            });
        }
    }
    report.responses.push((entry.seq, line));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self as eng, EngineConfig, ReplySender};
    use crate::flight::FlightRecorder;
    use crate::record::TraceRecorder;
    use crate::shard::ShardedCore;
    use crate::spec::{BoxedPredictor, SloPlane};
    use pqos_core::config::SimConfig;
    use pqos_core::session::NegotiationSession;
    use pqos_predict::api::NullPredictor;
    use pqos_telemetry::Telemetry;
    use std::time::Duration as StdDuration;

    /// Builds `spec`'s core with one in-memory journal per plane, in
    /// merge order — a live daemon's core, minus the files.
    fn buffered(
        spec: &CoreSpec,
    ) -> (
        ShardedCore<BoxedPredictor>,
        Option<SloPlane>,
        Vec<SharedBuf>,
    ) {
        let mut bufs = Vec::new();
        let Ok((core, slo)) = spec.build(|_, builder| {
            let buf = SharedBuf::new();
            bufs.push(buf.clone());
            Ok::<_, Infallible>(builder.flush_every(0).jsonl_writer(buf).build())
        });
        (core, slo, bufs)
    }

    /// Records an in-process engine run, then replays it and asserts the
    /// round trip: byte-identical journal, 100% response parity.
    #[test]
    fn record_then_replay_round_trips() {
        let trace_buf = SharedBuf::new();
        let journal_buf = SharedBuf::new();
        let meta = pqos_telemetry::reqtrace::TraceMeta {
            version: pqos_telemetry::reqtrace::TRACE_FORMAT_VERSION,
            source: "qosd".into(),
            cluster_size: 16,
            time_scale: 2000.0,
            batch_threads: 2,
            quote_horizon_secs: None,
            predictor: "null".into(),
            shards: 1,
            slo: Vec::new(),
            slo_window_secs: pqos_telemetry::slo::DEFAULT_WINDOW_SECS,
        };
        let telemetry = Telemetry::builder()
            .flush_every(0)
            .jsonl_writer(journal_buf.clone())
            .build();
        let session = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(16),
            NullPredictor,
            telemetry,
        );
        let config = EngineConfig {
            time_scale: 2000.0,
            batch_threads: 2,
            ..EngineConfig::default()
        };
        let recorder = TraceRecorder::to_writer(trace_buf.clone(), &meta).unwrap();
        let (handle, join) = eng::spawn(session, config, FlightRecorder::disabled(), recorder);
        let (reply, rx) = ReplySender::channel();
        let ask = |request: Request| {
            handle.submit(request, &reply, None, 1).expect("accepts");
            rx.recv_timeout(StdDuration::from_secs(5)).expect("reply").0
        };
        let mut jobs = Vec::new();
        for k in 0..12u64 {
            match ask(Request::Negotiate {
                id: k,
                size: 1 + (k % 5) as u32,
                runtime_secs: 600 + 60 * k,
            }) {
                Response::Quote { job, .. } => jobs.push(job),
                other => panic!("expected quote, got {other:?}"),
            }
            // Spread requests across ticks so several epochs exist.
            if k % 4 == 3 {
                std::thread::sleep(StdDuration::from_millis(5));
            }
        }
        // Some accepts succeed, some lose their slot to an earlier accept
        // and expire — both outcomes must replay identically, so neither
        // is asserted away.
        let mut accepted_ok = 0;
        for &job in jobs.iter().take(6) {
            if matches!(
                ask(Request::Accept { id: 100 + job, job }),
                Response::Ok { .. }
            ) {
                accepted_ok += 1;
            }
        }
        assert!(accepted_ok >= 1, "at least one accept lands");
        // A cancel on a merely-quoted job is an error reply; that too must
        // round-trip byte-for-byte.
        ask(Request::Cancel {
            id: 200,
            job: jobs[6],
        });
        // An unknown job too: error responses must replay identically.
        assert!(matches!(
            ask(Request::Cancel { id: 201, job: 9999 }),
            Response::Error { .. }
        ));
        assert!(matches!(
            ask(Request::Status { id: 300 }),
            Response::Status { .. }
        ));
        assert!(matches!(
            ask(Request::Shutdown { id: 301 }),
            Response::Ok { .. }
        ));
        join.join().unwrap();

        let recorded_journal = journal_buf.take_string();
        let trace = RequestTrace::parse(&trace_buf.take_string()).expect("recorded trace parses");
        assert!(trace.entries.len() >= 16, "all answered requests recorded");

        let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
        assert!(report.shutdown_seen);
        assert_eq!(report.skipped_nondeterministic, 1, "the status probe");
        assert!(
            report.is_parity_clean(),
            "parity mismatches: {:#?}",
            report.mismatches
        );
        // 12 negotiates + 6 accepts + 2 cancels + 1 shutdown.
        assert_eq!(report.parity_checked, 21);
        assert_eq!(
            report.journal, recorded_journal,
            "replayed journal must be byte-identical"
        );
    }

    /// The SLO plane round trip: a live engine run with a tight
    /// `rejects<=0` rule journals a fire and a resolve, and replay —
    /// rebuilding the evaluator from the trace header alone — reproduces
    /// the exact `slo_alert` lines, byte for byte.
    #[test]
    fn slo_alerts_record_then_replay_byte_identically() {
        use pqos_telemetry::{AlertState, TelemetryEvent};
        let trace_buf = SharedBuf::new();
        let spec = CoreSpec {
            cluster_size: 16,
            slo: vec!["tight:rejects<=0@1".into()],
            slo_window_secs: 60,
            ..CoreSpec::default()
        };
        let (core, slo, bufs) = buffered(&spec);
        let journal_buf = bufs[0].clone();
        let mut config = EngineConfig {
            time_scale: 5000.0,
            batch_threads: 2,
            ..EngineConfig::default()
        };
        let meta = spec.trace_meta(&config);
        config.slo = slo;
        let recorder = TraceRecorder::to_writer(trace_buf.clone(), &meta).unwrap();
        let (handle, join) = eng::spawn_core(core, config, FlightRecorder::disabled(), recorder);
        let (reply, rx) = ReplySender::channel();
        let ask = |request: Request| {
            handle.submit(request, &reply, None, 1).expect("accepts");
            rx.recv_timeout(StdDuration::from_secs(5)).expect("reply").0
        };
        // Wider than the cluster: journals a reject into the live window.
        assert!(matches!(
            ask(Request::Negotiate {
                id: 1,
                size: 32,
                runtime_secs: 600,
            }),
            Response::Error { .. }
        ));
        // 30ms of wall time is 150 virtual seconds at this scale — more
        // than one 60s window, so the next tick must close the reject's
        // window and FIRE, and its own clean quote lands in a later one.
        std::thread::sleep(StdDuration::from_millis(30));
        assert!(matches!(
            ask(Request::Negotiate {
                id: 2,
                size: 2,
                runtime_secs: 600,
            }),
            Response::Quote { .. }
        ));
        // Another window's worth of virtual time: the shutdown tick's
        // drain closes the clean window and RESOLVES before serving.
        std::thread::sleep(StdDuration::from_millis(30));
        assert!(matches!(
            ask(Request::Shutdown { id: 3 }),
            Response::Ok { .. }
        ));
        join.join().unwrap();

        let recorded_journal = journal_buf.take_string();
        let states: Vec<AlertState> = recorded_journal
            .lines()
            .filter_map(TelemetryEvent::from_jsonl)
            .filter_map(|e| match e {
                TelemetryEvent::SloAlert { state, .. } => Some(state),
                _ => None,
            })
            .collect();
        assert_eq!(
            states,
            [AlertState::Fire, AlertState::Resolve],
            "the run journals one fire and one resolve"
        );

        let trace = RequestTrace::parse(&trace_buf.take_string()).expect("recorded trace parses");
        let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
        assert!(report.shutdown_seen);
        assert!(
            report.is_parity_clean(),
            "parity mismatches: {:#?}",
            report.mismatches
        );
        assert_eq!(
            report.journal, recorded_journal,
            "replayed journal (alerts included) must be byte-identical"
        );
    }

    /// Regression for engine tick coalescing: a cancel and a re-negotiate
    /// for the same capacity racing into one tick are quoted in pass 1
    /// (pre-cancel snapshot) and mutated in pass 2, so the fresh job can
    /// never quote against a hole that no longer exists — and whichever
    /// tick boundary the pair actually lands on, the accept must succeed
    /// and the whole interleaving must replay byte-for-byte.
    #[test]
    fn cancel_and_requote_interleaving_replays_clean() {
        let trace_buf = SharedBuf::new();
        let spec = CoreSpec {
            cluster_size: 4,
            ..CoreSpec::default()
        };
        let (core, _, bufs) = buffered(&spec);
        let journal_buf = bufs[0].clone();
        // Near-frozen virtual time: accepted-but-queued jobs never start,
        // so every cancel below targets a cancellable reservation.
        let config = EngineConfig {
            time_scale: 0.001,
            batch_threads: 1,
            ..EngineConfig::default()
        };
        let meta = spec.trace_meta(&config);
        let recorder = TraceRecorder::to_writer(trace_buf.clone(), &meta).unwrap();
        let (handle, join) = eng::spawn_core(core, config, FlightRecorder::disabled(), recorder);
        let (reply, rx) = ReplySender::channel();
        let recv = || rx.recv_timeout(StdDuration::from_secs(5)).expect("reply").0;
        let ask = |request: Request| {
            handle.submit(request, &reply, None, 1).expect("accepts");
            recv()
        };
        // C pins the whole cluster from t=0; everything below queues
        // behind it as a future reservation.
        let Response::Quote { job: pin, .. } = ask(Request::Negotiate {
            id: 0,
            size: 4,
            runtime_secs: 100_000,
        }) else {
            panic!("pin job must quote");
        };
        assert!(matches!(
            ask(Request::Accept { id: 1, job: pin }),
            Response::Ok { .. }
        ));
        let mut next_id = 10u64;
        for round in 0..8u64 {
            // Accept A behind the pin (and any earlier B backlog).
            let Response::Quote { job: a, .. } = ask(Request::Negotiate {
                id: next_id,
                size: 4,
                runtime_secs: 3600 + round,
            }) else {
                panic!("A must quote in round {round}");
            };
            assert!(matches!(
                ask(Request::Accept {
                    id: next_id + 1,
                    job: a
                }),
                Response::Ok { .. }
            ));
            // Pipeline cancel(A) + negotiate(B) back-to-back so they tend
            // to coalesce into a single tick; the engine was idle, so both
            // usually drain into one batch.
            handle
                .submit(
                    Request::Cancel {
                        id: next_id + 2,
                        job: a,
                    },
                    &reply,
                    None,
                    1,
                )
                .expect("accepts");
            handle
                .submit(
                    Request::Negotiate {
                        id: next_id + 3,
                        size: 4,
                        runtime_secs: 3600 + round,
                    },
                    &reply,
                    None,
                    1,
                )
                .expect("accepts");
            let (r1, r2) = (recv(), recv());
            let b = match (&r1, &r2) {
                (Response::Ok { .. }, Response::Quote { job, .. })
                | (Response::Quote { job, .. }, Response::Ok { .. }) => *job,
                other => panic!("round {round}: cancel+requote got {other:?}"),
            };
            // Whether B was quoted against the pre- or post-cancel book,
            // the quote must be honorable once the cancel has landed.
            assert!(
                matches!(
                    ask(Request::Accept {
                        id: next_id + 4,
                        job: b
                    }),
                    Response::Ok { .. }
                ),
                "round {round}: stale-snapshot quote must stay honorable"
            );
            next_id += 10;
        }
        assert!(matches!(
            ask(Request::Shutdown { id: 999 }),
            Response::Ok { .. }
        ));
        join.join().unwrap();

        let recorded_journal = journal_buf.take_string();
        let trace = RequestTrace::parse(&trace_buf.take_string()).expect("recorded trace parses");
        let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
        assert!(report.shutdown_seen);
        assert_eq!(report.skipped_nondeterministic, 0);
        assert!(
            report.is_parity_clean(),
            "parity mismatches: {:#?}",
            report.mismatches
        );
        // 17 negotiates + 17 accepts + 8 cancels + 1 shutdown.
        assert_eq!(report.parity_checked, 43);
        assert_eq!(
            report.journal, recorded_journal,
            "replayed journal must be byte-identical"
        );
    }

    #[test]
    fn refuses_loadgen_and_unknown_predictor_traces() {
        let mut meta = CoreSpec::default().trace_meta(&EngineConfig::default());
        meta.source = "loadgen".into();
        let trace = RequestTrace {
            meta: meta.clone(),
            entries: vec![],
        };
        let err = replay(&trace, &ReplayOptions::default()).unwrap_err();
        assert!(matches!(err, ReplayError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("qosd"), "{err}");

        meta.source = "qosd".into();
        meta.predictor = "crystal-ball".into();
        let trace = RequestTrace {
            meta,
            entries: vec![],
        };
        let err = replay(&trace, &ReplayOptions::default()).unwrap_err();
        assert!(err.to_string().contains("unknown predictor"), "{err}");
    }

    #[test]
    fn until_cuts_the_replay_short() {
        let meta = CoreSpec::default().trace_meta(&EngineConfig::default());
        let entry = |seq, epoch, tick, job: u64| TraceEntry {
            seq,
            epoch,
            tick_secs: tick,
            conn: 1,
            verb: "negotiate".into(),
            job: Some(job),
            request: Request::Negotiate {
                id: seq,
                size: 1,
                runtime_secs: 60,
            }
            .encode(),
            response: String::from("{\"id\":0,\"ok\":true}"),
        };
        let trace = RequestTrace {
            meta,
            entries: vec![entry(1, 1, 0, 1), entry(2, 2, 5, 2), entry(3, 3, 9, 3)],
        };
        let report = replay(
            &trace,
            &ReplayOptions {
                until: Some(2),
                check_parity: false,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.epochs_replayed, 2);
        assert_eq!(report.entries_replayed, 2);
        assert_eq!(report.responses.len(), 2);
    }

    /// The sharded mirror of `record_then_replay_round_trips`: a 4-shard
    /// engine run (narrow jobs routed by probe, one wide job through the
    /// two-phase coordinator) is recorded, then replayed through a
    /// freshly partitioned core. Parity must hold response-by-response
    /// and the replayed merged journal must be byte-identical to the
    /// merge of the live run's per-plane journals.
    #[test]
    fn sharded_record_then_replay_round_trips() {
        let trace_buf = SharedBuf::new();
        // The live core comes from the same spec pqos-qosd --shards 4
        // builds, except each plane journals to a buffer instead of a file.
        let spec = CoreSpec {
            cluster_size: 16,
            shards: 4,
            ..CoreSpec::default()
        };
        let (core, _, plane_bufs) = buffered(&spec);
        let config = EngineConfig {
            time_scale: 2000.0,
            batch_threads: 2,
            ..EngineConfig::default()
        };
        let meta = spec.trace_meta(&config);
        let recorder = TraceRecorder::to_writer(trace_buf.clone(), &meta).unwrap();
        let (handle, join) = eng::spawn_core(core, config, FlightRecorder::disabled(), recorder);
        let (reply, rx) = ReplySender::channel();
        let ask = |request: Request| {
            handle.submit(request, &reply, None, 1).expect("accepts");
            rx.recv_timeout(StdDuration::from_secs(5)).expect("reply").0
        };
        let mut jobs = Vec::new();
        for k in 0..10u64 {
            match ask(Request::Negotiate {
                id: k,
                // Each shard owns 4 nodes, so sizes 1-4 route narrow.
                size: 1 + (k % 4) as u32,
                runtime_secs: 600 + 60 * k,
            }) {
                Response::Quote { job, .. } => jobs.push(job),
                other => panic!("expected quote, got {other:?}"),
            }
            if k % 3 == 2 {
                std::thread::sleep(StdDuration::from_millis(5));
            }
        }
        // One job wider than any shard: the coordinator negotiates it
        // against the merged view and reserves slices on several shards.
        let wide = match ask(Request::Negotiate {
            id: 50,
            size: 10,
            runtime_secs: 1200,
        }) {
            Response::Quote { job, .. } => job,
            other => panic!("expected wide quote, got {other:?}"),
        };
        let mut accepted_ok = 0;
        for &job in jobs.iter().take(5).chain([&wide]) {
            if matches!(
                ask(Request::Accept { id: 100 + job, job }),
                Response::Ok { .. }
            ) {
                accepted_ok += 1;
            }
        }
        assert!(accepted_ok >= 1, "at least one accept lands");
        // Cancel one narrow and the wide job so slice release journals too.
        ask(Request::Cancel {
            id: 200,
            job: jobs[0],
        });
        ask(Request::Cancel { id: 201, job: wide });
        assert!(matches!(
            ask(Request::Status { id: 300 }),
            Response::Status { .. }
        ));
        assert!(matches!(
            ask(Request::Shutdown { id: 301 }),
            Response::Ok { .. }
        ));
        join.join().unwrap();

        let plane_texts: Vec<String> = plane_bufs.iter().map(SharedBuf::take_string).collect();
        let plane_refs: Vec<&str> = plane_texts.iter().map(String::as_str).collect();
        let recorded_journal = pqos_telemetry::merge::merge_journals_to_string(&plane_refs);
        assert!(
            !recorded_journal.is_empty(),
            "sharded run journals through its planes"
        );

        let trace = RequestTrace::parse(&trace_buf.take_string()).expect("recorded trace parses");
        let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
        assert!(report.shutdown_seen);
        assert!(
            report.is_parity_clean(),
            "parity mismatches: {:#?}",
            report.mismatches
        );
        // 11 negotiates + 6 accepts + 2 cancels + 1 shutdown.
        assert_eq!(report.parity_checked, 20);
        assert_eq!(
            report.journal, recorded_journal,
            "replayed merged journal must be byte-identical"
        );
    }
}
