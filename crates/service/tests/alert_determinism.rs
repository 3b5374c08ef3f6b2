//! Alert determinism against the real daemon binary: a tight SLO rule is
//! driven through fire → resolve over a live socket, then the journal
//! must hold both alerts, `pqos_obs::slo` must re-derive exactly those
//! alerts from the raw events, and the recorded trace must replay to a
//! byte-identical journal, alerts included.

use pqos_service::protocol::{Request, Response};
use pqos_service::replay::{replay, ReplayOptions};
use pqos_telemetry::reqtrace::RequestTrace;
use pqos_telemetry::{AlertState, TelemetryEvent};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const RULE: &str = "tight:rejects<=0@1";

/// Kills the daemon if the test fails before it drains.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A scratch directory removed when the test ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn slo_alerts_fire_resolve_and_replay_byte_identically() {
    let dir = Scratch(std::env::temp_dir().join(format!("pqos-alerts-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("scratch dir");
    let journal_path = dir.0.join("slo.jsonl");
    let trace_path = dir.0.join("slo_trace.jsonl");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_pqos-qosd"))
            .args(["--cluster-size", "64", "--journal"])
            .arg(&journal_path)
            .arg("--record")
            .arg(&trace_path)
            .args(["--parity-sample", "1", "--time-scale", "50000"])
            .args([
                "--metrics-addr",
                "127.0.0.1:0",
                "--history-window-ms",
                "100",
            ])
            .args(["--slo", RULE, "--slo-window-secs", "600"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn pqos-qosd"),
    );

    // Both banner addresses are printed.
    let mut banner = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    banner.read_line(&mut line).expect("banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listening banner")
        .to_string();
    line.clear();
    banner.read_line(&mut line).expect("banner");
    assert!(
        line.trim()
            .strip_prefix("metrics on ")
            .is_some_and(|a| !a.is_empty()),
        "metrics banner: {line:?}"
    );

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut ask = |request: Request| {
        writer
            .write_all(format!("{}\n", request.encode()).as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        Response::parse(reply.trim()).expect("reply parses")
    };
    let negotiate = |id, size| Request::Negotiate {
        id,
        size,
        runtime_secs: 600,
    };
    // Oversized: journals a reject into the live SLO window.
    let r = ask(negotiate(1, 100));
    assert!(matches!(r, Response::Error { .. }), "{r:?}");
    std::thread::sleep(Duration::from_millis(50)); // 2500 virtual secs
                                                   // This tick closes the reject's window: FIRE.
    let r = ask(negotiate(2, 1));
    assert!(matches!(r, Response::Quote { .. }), "{r:?}");
    std::thread::sleep(Duration::from_millis(50));
    // This tick closes the clean window: RESOLVE.
    let r = ask(negotiate(3, 1));
    assert!(matches!(r, Response::Quote { .. }), "{r:?}");
    ask(Request::Shutdown { id: 4 });
    assert!(daemon.0.wait().expect("daemon exits").success());

    // The journal has a fire and a resolve.
    let journal = std::fs::read_to_string(&journal_path).expect("journal");
    let states: Vec<AlertState> = journal
        .lines()
        .filter_map(TelemetryEvent::from_jsonl)
        .filter_map(|e| match e {
            TelemetryEvent::SloAlert { state, .. } => Some(state),
            _ => None,
        })
        .collect();
    assert!(
        states.contains(&AlertState::Fire) && states.contains(&AlertState::Resolve),
        "want a fire and a resolve in the journal: {states:?}"
    );

    // Re-deriving the alerts from the raw events finds zero diffs.
    let rules = vec![pqos_telemetry::parse_rule(RULE).expect("rule parses")];
    let check = pqos_obs::slo::check_journal(&journal, rules, 600);
    assert!(check.matches(), "{:#?}", check.diff_lines());

    // The trace replays to the recorded journal, byte for byte.
    let trace = std::fs::read_to_string(&trace_path).expect("trace");
    let trace = RequestTrace::parse(&trace).expect("trace parses");
    let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
    assert!(report.is_parity_clean(), "{:#?}", report.mismatches);
    assert_eq!(
        report.journal, journal,
        "replayed journal is byte-identical"
    );
}
