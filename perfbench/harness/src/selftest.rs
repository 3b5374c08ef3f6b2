//! The correctness gate must fail when it should: a recorded response
//! that the code would not give again makes the replay check fail.

use crate::serve::replay_gate;
use pqos_core::config::SimConfig;
use pqos_core::session::NegotiationSession;
use pqos_predict::api::NullPredictor;
use pqos_service::engine::{self, EngineConfig, ReplySender};
use pqos_service::flight::FlightRecorder;
use pqos_service::protocol::{Request, Response};
use pqos_service::record::{SharedBuf, TraceRecorder};
use pqos_telemetry::reqtrace::{TraceMeta, TRACE_FORMAT_VERSION};
use pqos_telemetry::Telemetry;
use std::time::Duration;

/// Records a short in-process engine run: a few negotiates, accepts and
/// a shutdown. Returns the trace and the served journal.
fn record() -> (String, String) {
    let trace_buf = SharedBuf::new();
    let journal_buf = SharedBuf::new();
    let meta = TraceMeta {
        version: TRACE_FORMAT_VERSION,
        source: "qosd".into(),
        cluster_size: 16,
        time_scale: 1000.0,
        batch_threads: 1,
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
        time_scale: 1000.0,
        batch_threads: 1,
        ..EngineConfig::default()
    };
    let recorder = TraceRecorder::to_writer(trace_buf.clone(), &meta).expect("in-memory trace");
    let (handle, join) = engine::spawn(session, config, FlightRecorder::disabled(), recorder);
    let (reply, rx) = ReplySender::channel();
    let ask = |request: Request| {
        handle
            .submit(request, &reply, None, 1)
            .expect("engine accepts");
        rx.recv_timeout(Duration::from_secs(5))
            .expect("engine replies")
            .0
    };
    for k in 0..6u64 {
        let quote = ask(Request::Negotiate {
            id: k,
            size: 1 + (k % 4) as u32,
            runtime_secs: 600,
        });
        if let Response::Quote { job, .. } = quote {
            ask(Request::Accept { id: 100 + k, job });
        }
    }
    ask(Request::Shutdown { id: 999 });
    join.join().expect("engine thread");
    (trace_buf.take_string(), journal_buf.take_string())
}

#[test]
fn recorded_run_passes_the_gate_and_a_tampered_one_fails() {
    let (trace, journal) = record();
    let mut checks = Vec::new();
    replay_gate(&trace, &journal, "clean", &mut checks).expect("replayable");
    assert!(checks.iter().all(|c| c.ok), "{checks:?}");

    // Promise a different probability in one recorded quote.
    let needle = "\\\"success_probability\\\":1.0";
    assert!(trace.contains(needle), "a quote to tamper with");
    let tampered = trace.replacen(needle, "\\\"success_probability\\\":0.5", 1);
    let mut checks = Vec::new();
    replay_gate(&tampered, &journal, "tampered", &mut checks).expect("still parses");
    assert!(
        checks
            .iter()
            .any(|c| !c.ok && c.name.contains("as recorded")),
        "the gate must fail: {checks:?}"
    );

    // A journal line that replay would not write fails the gate too.
    let mut checks = Vec::new();
    let forged = journal.replacen("\"job\":1", "\"job\":77", 1);
    replay_gate(&trace, &forged, "forged journal", &mut checks).expect("replayable");
    assert!(checks
        .iter()
        .any(|c| !c.ok && c.name.contains("byte-identical")));
}
