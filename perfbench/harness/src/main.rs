//! `perfbench-harness`: runs one benchmark workload and prints one JSON
//! line (checks, counts, end-to-end or per-layer values, and context).
//! `perfbench/run.py` builds it, runs it and shapes the final result; see
//! `perfbench/README.md`.
//!
//! ```text
//! perfbench-harness --workload NAME --seed N --seconds S --trace 0|1
//!                   --qosd PATH --out DIR
//! ```

mod host;
mod layers;
mod load;
mod out;
mod serve;
mod sim;
mod span;
mod stats;

#[cfg(test)]
mod selftest;

use out::Val;
use std::path::PathBuf;
use std::process::ExitCode;

/// One correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check result.
    pub fn new(name: String, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks; the run is correct when all hold.
    pub checks: Vec<Check>,
    /// Operations attempted (requests sent, or jobs simulated).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end values (untraced runs).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Context for the report: phase counts, shares, settings.
    pub info: Vec<(String, f64)>,
}

impl Outcome {
    fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.retain(|(n, _)| *n != name);
        self.layers.push((name, value));
    }

    fn info(&mut self, name: &str, value: f64) {
        self.info.retain(|(n, _)| n != name);
        self.info.push((name.to_string(), value));
    }

    fn layer_value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn info_value(&self, name: &str) -> f64 {
        self.info
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn add_counts(&mut self, c: &load::Counts) {
        self.attempted += c.attempted;
        self.failed += c.failed();
    }

    fn info_counts(&mut self, label: &str, c: &load::Counts) {
        for (k, v) in [
            ("attempted", c.attempted),
            ("succeeded", c.succeeded),
            ("failed", c.failed()),
            ("negotiates", c.negotiates),
            ("quoted", c.quoted),
            ("rejected", c.rejected),
            ("accepts", c.accepts),
            ("expired", c.expired),
            ("cancels", c.cancels),
        ] {
            self.info(&format!("{label}.{k}"), v as f64);
        }
    }

    fn to_val(&self, trace: bool, spans: &[span::Span]) -> Val {
        let correct = self.checks.iter().all(|c| c.ok) && !self.checks.is_empty();
        let values = if trace { &self.layers } else { &self.e2e };
        let span_totals = span::totals(spans)
            .into_iter()
            .map(|(name, t)| {
                let v = Val::obj([
                    ("count", Val::Int(t.count)),
                    ("total_ms", Val::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms", Val::Num(t.self_ns as f64 / 1e6)),
                ]);
                (name.to_string(), v)
            })
            .collect();
        Val::obj([
            ("correct", Val::Bool(correct)),
            ("attempted", Val::Int(self.attempted)),
            ("failed", Val::Int(self.failed)),
            (
                "values",
                Val::Obj(
                    values
                        .iter()
                        .map(|(k, v)| (k.to_string(), Val::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "checks",
                Val::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Val::obj([
                                ("name", Val::str(&c.name)),
                                ("ok", Val::Bool(c.ok)),
                                ("detail", Val::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "info",
                Val::Obj(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.clone(), Val::Num(*v)))
                        .collect(),
                ),
            ),
            ("spans", Val::Obj(span_totals)),
        ])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    qosd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut qosd, mut out) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds: need a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                })
            }
            "--qosd" => qosd = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        qosd: qosd.ok_or("--qosd is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = args.out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench-harness: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let mut tracer = span::Tracer::new(args.trace);
    let root = tracer.begin("workload");
    let result = match args.workload.as_str() {
        "serve-backlog" => serve::run(
            &serve::SERVE_BACKLOG,
            args.seed,
            args.seconds,
            &args.qosd,
            &tmp,
            &mut tracer,
        ),
        "sim-paper" => sim::run(args.seed, args.seconds, &mut tracer),
        other => Err(format!("unknown workload {other}")),
    };
    tracer.end(root);
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench-harness: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .out
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, span::chrome_trace(tracer.spans())) {
            eprintln!("perfbench-harness: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.to_val(args.trace, tracer.spans()).to_json());
    ExitCode::SUCCESS
}
