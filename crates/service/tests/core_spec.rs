//! The one construction path end to end: a `CoreSpec` round-trips
//! through its trace header, lists its journal planes in merge order, and
//! a core built from it records and replays byte for byte.

use pqos_service::engine::{self, EngineConfig, ReplySender};
use pqos_service::flight::FlightRecorder;
use pqos_service::protocol::{Request, Response};
use pqos_service::record::{SharedBuf, TraceRecorder};
use pqos_service::replay::{replay, ReplayError, ReplayOptions};
use pqos_service::shard::ShardedCore;
use pqos_service::spec::{BoxedPredictor, CoreSpec, JournalPlane, PredictorKind, SloPlane};
use pqos_telemetry::reqtrace::RequestTrace;
use std::convert::Infallible;
use std::time::Duration;

/// Builds `spec`'s core with one in-memory journal per plane, in merge
/// order — a live daemon's core, minus the files.
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

#[test]
fn the_recorded_header_reads_back_as_the_same_spec() {
    let spec = CoreSpec {
        cluster_size: 16,
        shards: 2,
        predictor: PredictorKind::SyntheticAix,
        quote_horizon_secs: Some(3600),
        verify_parity: false,
        slo: vec!["tight:rejects<=0@1".into()],
        slo_window_secs: 600,
    };
    let meta = spec.trace_meta(&EngineConfig::default());
    assert_eq!(CoreSpec::from_meta(&meta), Ok(spec));
}

#[test]
fn planes_list_shards_then_the_coordinator() {
    let spec = CoreSpec {
        shards: 3,
        ..CoreSpec::default()
    };
    assert_eq!(
        spec.planes(),
        [
            JournalPlane::Shard(0),
            JournalPlane::Shard(1),
            JournalPlane::Shard(2),
            JournalPlane::Wide
        ]
    );
    assert_eq!(CoreSpec::default().planes(), [JournalPlane::Whole]);
}

/// A header whose shard count overflows u32 must be refused, not
/// truncated into some other machine.
#[test]
fn an_oversized_shards_header_is_refused() {
    let spec = CoreSpec::default();
    let mut meta = spec.trace_meta(&EngineConfig::default());
    meta.shards = 4_294_967_297;
    let trace = RequestTrace::parse(&format!("{}\n", meta.encode())).expect("header parses");
    assert_eq!(trace.meta.shards, 4_294_967_297);
    let err = replay(&trace, &ReplayOptions::default()).unwrap_err();
    assert!(matches!(err, ReplayError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("4294967297 shards"), "{err}");
}

/// The synthetic-AIX predictor and the SLO plane over a 2-shard core,
/// recorded live and replayed from the header alone: every
/// deterministic response and the merged journal come back exactly.
#[test]
fn synthetic_aix_sharded_slo_record_then_replay_round_trips() {
    let trace_buf = SharedBuf::new();
    let spec = CoreSpec {
        cluster_size: 16,
        shards: 2,
        predictor: PredictorKind::SyntheticAix,
        slo: vec!["tight:rejects<=0@1".into()],
        slo_window_secs: 60,
        ..CoreSpec::default()
    };
    let (core, slo, plane_bufs) = buffered(&spec);
    let mut config = EngineConfig {
        time_scale: 5000.0,
        batch_threads: 2,
        ..EngineConfig::default()
    };
    let meta = spec.trace_meta(&config);
    assert_eq!(meta.predictor, "synthetic-aix");
    config.slo = slo;
    let recorder = TraceRecorder::to_writer(trace_buf.clone(), &meta).unwrap();
    let (handle, join) = engine::spawn_core(core, config, FlightRecorder::disabled(), recorder);
    let (reply, rx) = ReplySender::channel();
    let ask = |request: Request| {
        handle.submit(request, &reply, None, 1).expect("accepts");
        rx.recv_timeout(Duration::from_secs(5)).expect("reply").0
    };
    // Wider than the cluster: a reject in the first SLO window.
    assert!(matches!(
        ask(Request::Negotiate {
            id: 1,
            size: 32,
            runtime_secs: 600,
        }),
        Response::Error { .. }
    ));
    std::thread::sleep(Duration::from_millis(30));
    // Narrow jobs on both shards plus one wide job across them.
    let mut jobs = Vec::new();
    for k in 0..6u64 {
        let size = if k == 5 { 12 } else { 1 + (k % 4) as u32 };
        match ask(Request::Negotiate {
            id: 10 + k,
            size,
            runtime_secs: 3600 + 60 * k,
        }) {
            Response::Quote { job, .. } => jobs.push(job),
            other => panic!("expected quote, got {other:?}"),
        }
    }
    for &job in &jobs {
        ask(Request::Accept { id: 100 + job, job });
    }
    ask(Request::Cancel {
        id: 200,
        job: jobs[5],
    });
    std::thread::sleep(Duration::from_millis(30));
    assert!(matches!(
        ask(Request::Shutdown { id: 300 }),
        Response::Ok { .. }
    ));
    join.join().unwrap();

    let plane_texts: Vec<String> = plane_bufs.iter().map(SharedBuf::take_string).collect();
    let plane_refs: Vec<&str> = plane_texts.iter().map(String::as_str).collect();
    let recorded_journal = pqos_telemetry::merge::merge_journals_to_string(&plane_refs);
    assert!(
        recorded_journal.contains("\"slo_alert\""),
        "the reject fires"
    );

    let trace = RequestTrace::parse(&trace_buf.take_string()).expect("recorded trace parses");
    let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
    assert!(report.shutdown_seen);
    assert!(
        report.is_parity_clean(),
        "parity mismatches: {:#?}",
        report.mismatches
    );
    // 7 negotiates + 6 accepts + 1 cancel + 1 shutdown.
    assert_eq!(report.parity_checked, 15);
    assert_eq!(
        report.journal, recorded_journal,
        "replayed merged journal must be byte-identical"
    );
}
