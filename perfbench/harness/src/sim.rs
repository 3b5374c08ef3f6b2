//! The `sim-paper` workload: `QosSimulator` at paper scale (10,000 jobs)
//! over a fixed scenario set, once on one thread and once as a
//! `run_scenarios` sweep at `nproc` threads.

use crate::host::HostSpeed;
use crate::layers::QueryTally;
use crate::load::{steal_ticks, vm_hwm_mb};
use crate::serve::{nproc, STRETCH};
use crate::span::{totals, Tracer};
use crate::stats::{median, ratio};
use crate::{Check, Outcome};
use pqos_bench::scenario::{run_scenarios, standard_trace, Scenario};
use pqos_core::metrics::SimReport;
use pqos_core::system::QosSimulator;
use pqos_failures::trace::FailureTrace;
use pqos_predict::oracle::TraceOracle;
use pqos_telemetry::Telemetry;
use pqos_workload::log::JobLog;
use pqos_workload::synthetic::{LogModel, SyntheticLog};
use std::sync::Arc;
use std::time::Instant;

/// Jobs per log: the paper's scale.
pub const JOBS: usize = 10_000;

/// Set-up repetitions per run for the set-up time median.
const SETUP_REPS: usize = 9;

/// Both logs along the diagonal of the paper's grid: a ∈ {0, 0.5, 1}
/// against the U lines {0.1, 0.5, 0.9}. The (a=1, U=0.9) points feed
/// the QoS guard.
pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for model in [LogModel::NasaIpsc, LogModel::SdscSp2] {
        for (a, u) in [(0.0, 0.1), (0.5, 0.5), (1.0, 0.9)] {
            out.push(Scenario::paper(model, a, u));
        }
    }
    out
}

/// The two 10,000-job logs, drawn from the workload seed.
fn logs(seed: u64) -> [(LogModel, JobLog); 2] {
    [LogModel::NasaIpsc, LogModel::SdscSp2].map(|model| {
        let log = SyntheticLog::new(model)
            .jobs(JOBS)
            .seed(seed ^ (model as u64 + 1).wrapping_mul(0x9E37_79B9))
            .build();
        (model, log)
    })
}

fn log_of(logs: &[(LogModel, JobLog)], model: LogModel) -> &JobLog {
    &logs
        .iter()
        .find(|(m, _)| *m == model)
        .expect("both logs built")
        .1
}

/// A timed piece of work: seconds scaled to the nominal host, seconds as
/// measured, and the host steal ticks during it.
#[derive(Debug, Clone, Copy)]
struct Timed {
    value: f64,
    raw: f64,
    steal: u64,
}

/// Runs `f`, timing it right after timing the host's reference (see
/// [`crate::host`]), and counting host steal during it.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let mut host = HostSpeed::default();
    host.sample();
    let steal = steal_ticks();
    let started = Instant::now();
    let out = f();
    let raw = started.elapsed().as_secs_f64();
    let timed = Timed {
        value: raw * host.time_factor(),
        raw,
        steal: steal_ticks() - steal,
    };
    (out, timed)
}

/// Median over the samples the host left undisturbed (no steal), or
/// over all samples when none was.
fn quiet_median(samples: &[Timed]) -> Option<f64> {
    let quiet: Vec<f64> = samples
        .iter()
        .filter(|t| t.steal == 0)
        .map(|t| t.value)
        .collect();
    if quiet.is_empty() {
        median(&samples.iter().map(|t| t.value).collect::<Vec<_>>())
    } else {
        median(&quiet)
    }
}

/// One pass of every scenario on this thread: wall time per scenario,
/// reports, and the scenarios whose jobs + rejected missed the log size.
fn single_pass(
    scen: &[Scenario],
    logs: &[(LogModel, JobLog)],
    trace: &Arc<FailureTrace>,
) -> (Vec<Timed>, Vec<SimReport>, Vec<String>) {
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    let mut unaccounted = Vec::new();
    for s in scen {
        let log = log_of(logs, s.model).clone();
        let (output, wall) = timed(|| QosSimulator::new(s.config(), log, Arc::clone(trace)).run());
        walls.push(wall);
        let accounted = output.report.jobs + output.rejected.len();
        if accounted != JOBS {
            unaccounted.push(format!("{}: {accounted} of {JOBS}", s.label));
        }
        reports.push(output.report);
    }
    (walls, reports, unaccounted)
}

/// Runs `sim-paper` for about `secs` seconds (at least one round).
pub fn run(seed: u64, secs: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scen = scenarios();
    let threads = nproc();
    out.info("threads", threads as f64);

    // Set-up: both logs and the failure trace, median of several builds.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (pair, t) = timed(|| {
            let logs = tracer.span("workload.log_build", || logs(seed));
            let trace = tracer.span("failures.trace_build", standard_trace);
            (logs, trace)
        });
        setups.push(t.value);
        built = Some(pair);
    }
    let (logs, trace) = built.expect("at least one set-up");

    let started = Instant::now();
    // Wall time of each scenario, one entry per round.
    let mut walls: Vec<Vec<Timed>> = vec![Vec::new(); scen.len()];
    let mut sweep_walls = Vec::new();
    let mut rss_mb = None;
    let mut identical = true;
    let mut unaccounted = Vec::new();
    let single_reports = loop {
        let round = Instant::now();
        let id = tracer.begin("sim.single_thread_pass");
        let (w, reports, missed) = single_pass(&scen, &logs, &trace);
        unaccounted.extend(missed);
        tracer.end(id);
        for (all, one) in walls.iter_mut().zip(w) {
            all.push(one);
        }
        // The single-threaded pass allocates the same way every run; the
        // sweep's per-thread allocator arenas would make the peak vary.
        rss_mb = rss_mb.or_else(|| vm_hwm_mb("/proc/self/status"));

        let id = tracer.begin("sim.sweep");
        let (swept, wall) =
            timed(|| run_scenarios(&scen, &|m| log_of(&logs, m).clone(), &trace, threads));
        sweep_walls.push(wall);
        tracer.end(id);
        identical &=
            swept.len() == reports.len() && swept.iter().zip(&reports).all(|(a, b)| a.report == *b);
        // Rounds continue to the planned length, and past it (up to
        // STRETCH times) until every scenario and the sweep have one run
        // the host left undisturbed.
        let round_secs = round.elapsed().as_secs_f64();
        let elapsed = started.elapsed().as_secs_f64();
        let quiet = walls.iter().all(|w| w.iter().any(|t| t.steal == 0))
            && sweep_walls.iter().any(|t| t.steal == 0);
        let planned_over = elapsed + round_secs > secs;
        if tracer.enabled() || (planned_over && quiet) || elapsed + round_secs > STRETCH * secs {
            break reports;
        }
    };
    out.checks.push(Check::new(
        "every SimReport is identical between one thread and the sweep".into(),
        identical,
        format!("{} scenarios at {threads} threads, every round", scen.len()),
    ));
    out.checks.push(Check::new(
        "jobs + rejected = log size in every scenario".into(),
        unaccounted.is_empty(),
        if unaccounted.is_empty() {
            format!("{} scenarios of {JOBS} jobs", scen.len())
        } else {
            unaccounted.join("; ")
        },
    ));

    // Output-quality guards: mean Eq. 2 QoS at a=1, U=0.9 over both logs,
    // and the deadline-miss share over every scenario.
    let guard: Vec<f64> = scen
        .iter()
        .zip(&single_reports)
        .filter(|(s, _)| s.accuracy == 1.0 && s.user_threshold == 0.9)
        .map(|(_, r)| r.qos)
        .collect();
    let qos = crate::stats::mean(&guard);
    let misses: usize = single_reports.iter().map(|r| r.deadline_misses).sum();
    let jobs: usize = single_reports.iter().map(|r| r.jobs).sum();
    out.checks.push(Check::new(
        "QoS at a=1, U=0.9 lies in (0, 1]".into(),
        qos > 0.0 && qos <= 1.0,
        format!("{qos:.4}"),
    ));

    // End-to-end times are scaled to the nominal host; the `sim.*` figures
    // are as measured.
    let total_jobs = (JOBS * scen.len()) as f64;
    let single_secs: f64 = walls.iter().filter_map(|w| quiet_median(w)).sum();
    let raw = |t: &[Timed]| median(&t.iter().map(|t| t.raw).collect::<Vec<_>>()).unwrap_or(0.0);
    let raw_single_secs: f64 = walls.iter().map(|w| raw(w)).sum();
    out.info(
        "host.time_factor",
        median(
            &sweep_walls
                .iter()
                .map(|t| t.value / t.raw)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
    );
    out.info("sim.jobs_per_s_1t", ratio(total_jobs, raw_single_secs));
    out.info("sim.sweep_wall_s", raw(&sweep_walls));
    out.info("sim.qos_a1_u09", qos);
    out.info("sim.deadline_miss_share", ratio(misses as f64, jobs as f64));
    out.info("rounds", sweep_walls.len() as f64);
    out.info(
        "quiet_sweeps",
        sweep_walls.iter().filter(|t| t.steal == 0).count() as f64,
    );
    out.attempted += (JOBS * scen.len() * (sweep_walls.len() * 2)) as u64;

    if tracer.enabled() {
        telemetered_pass(&mut out, &scen, &logs, &trace, &single_reports, tracer);
        let t = totals(tracer.spans());
        let per_build = |name: &str| {
            t.get(name)
                .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64 / 1e9)
        };
        out.layer("workload.log_build_s", per_build("workload.log_build"));
        out.layer("failures.trace_build_s", per_build("failures.trace_build"));
        for key in [
            "sim.jobs_per_s_1t",
            "sim.sweep_wall_s",
            "sim.qos_a1_u09",
            "sim.deadline_miss_share",
        ] {
            let v = out.info_value(key);
            out.layer(key, v);
        }
        return Ok(out);
    }

    // A scenario's wall time is its median over rounds; the run's p50 is
    // the median scenario and its tail the slowest one.
    let per_scenario: Vec<f64> = walls
        .iter()
        .filter_map(|w| quiet_median(w).map(|s| s * 1e6))
        .collect();
    out.e2e(
        "latency_p50_us",
        median(&per_scenario).ok_or("no scenario ran")?,
    );
    out.e2e(
        "latency_tail_us",
        per_scenario.iter().copied().fold(0.0, f64::max),
    );
    out.e2e("throughput_per_s", ratio(total_jobs, single_secs));
    out.e2e("setup_s", median(&setups).unwrap_or(0.0));
    out.e2e("rss_peak_mb", rss_mb.ok_or("cannot read VmHWM")?);
    Ok(out)
}

/// Every scenario again with an enabled telemetry registry and a counted,
/// timed predictor: the dispatch split by event kind, the predictor's
/// query cost and the checkpoint skip share. Telemetry must not change a
/// single result.
fn telemetered_pass(
    out: &mut Outcome,
    scen: &[Scenario],
    logs: &[(LogModel, JobLog)],
    trace: &Arc<FailureTrace>,
    reports: &[SimReport],
    tracer: &mut Tracer,
) {
    let tally = QueryTally::default();
    let mut dispatch = [(0u64, 0.0f64); 7];
    const KINDS: [&str; 7] = [
        "arrival",
        "start",
        "finish",
        "ckpt_request",
        "ckpt_finish",
        "node_failure",
        "node_recovery",
    ];
    let (mut submitted, mut ckpt_requests, mut ckpt_skipped) = (0u64, 0u64, 0u64);
    let mut same = true;
    for (s, expected) in scen.iter().zip(reports) {
        let oracle = TraceOracle::new(Arc::clone(trace), s.accuracy).expect("accuracy in range");
        let telemetry = Telemetry::builder().build();
        let sim = QosSimulator::with_predictor(
            s.config(),
            log_of(logs, s.model).clone(),
            Arc::clone(trace),
            Arc::new(tally.wrap(oracle, true)),
        )
        .with_telemetry(telemetry);
        let output = tracer.span("sim.telemetered_run", || sim.run());
        same &= output.report == *expected;
        let Some(snap) = output.telemetry else {
            continue;
        };
        for (k, kind) in KINDS.iter().enumerate() {
            if let Some(h) = snap.histogram(&format!("dispatch.{kind}_ns")) {
                dispatch[k].0 += h.count;
                dispatch[k].1 += h.mean * h.count as f64;
            }
        }
        submitted += snap.counter("jobs.submitted").unwrap_or(0);
        ckpt_requests += snap.counter("ckpt.requests").unwrap_or(0);
        ckpt_skipped += snap.counter("ckpt.skipped").unwrap_or(0);
    }
    out.checks.push(Check::new(
        "telemetry changes no SimReport".into(),
        same,
        format!("{} scenarios", scen.len()),
    ));
    let events: u64 = dispatch.iter().map(|d| d.0).sum();
    let busy_ns: f64 = dispatch.iter().map(|d| d.1).sum();
    out.layer("sim.events_per_job", ratio(events as f64, submitted as f64));
    for (k, kind) in KINDS.iter().enumerate() {
        let (count, ns) = dispatch[k];
        let key_us = match *kind {
            "arrival" => Some(("sim.dispatch.arrival_us", "sim.dispatch.arrival_count")),
            "finish" => Some(("sim.dispatch.finish_us", "sim.dispatch.finish_count")),
            "ckpt_request" => Some((
                "sim.dispatch.ckpt_request_us",
                "sim.dispatch.ckpt_request_count",
            )),
            "node_failure" => Some((
                "sim.dispatch.node_failure_us",
                "sim.dispatch.node_failure_count",
            )),
            _ => None,
        };
        if let Some((mean_key, count_key)) = key_us {
            out.layer(mean_key, ratio(ns, count as f64) / 1_000.0);
            out.layer(count_key, count as f64);
        }
        if *kind == "arrival" {
            out.layer("sim.dispatch.arrival_share", ratio(ns, busy_ns));
        }
    }
    out.layer(
        "sim.ckpt_skip_share",
        ratio(ckpt_skipped as f64, ckpt_requests as f64),
    );
    out.layer("predict.query_ns", tally.mean_ns());
    out.layer(
        "predict.queries_per_quote",
        ratio(tally.calls() as f64, submitted as f64),
    );
}
