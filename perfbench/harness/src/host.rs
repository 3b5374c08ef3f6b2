//! Host speed, measured by a fixed reference computation.
//!
//! On a shared virtual machine the speed of a CPU drifts by a fifth or
//! more over minutes (busy hyperthread siblings, caches shared with other
//! guests) without any steal time showing. Timings are therefore scaled
//! to a nominal host: a run times [`reference_work`] while nothing it
//! measures is running, and every end-to-end time is multiplied by
//! [`NOMINAL_REFERENCE_SECS`] ÷ the reference's median time (rates by the
//! inverse). The reference is harness code that no change to the
//! repository can speed up; the raw figures and the reference time are in
//! the report.

use crate::stats::median;
use pqos_sim_core::rng::DetRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference time of the nominal host the end-to-end times are scaled
/// to (about its time on an idle 2-vCPU Xeon guest).
pub const NOMINAL_REFERENCE_SECS: f64 = 0.010;

/// Reference runs per sample point.
const REPEATS: usize = 3;

/// A fixed CPU- and memory-bound computation: sort 300,000 seeded
/// integers and index every seventh in a `BTreeMap`.
fn reference_work() -> u64 {
    let mut rng = DetRng::seed_from(7);
    let mut values: Vec<u64> = (0..300_000).map(|_| rng.next_u64()).collect();
    values.sort_unstable();
    let mut index = BTreeMap::new();
    for (i, x) in values.iter().enumerate().step_by(7) {
        index.insert(*x, i);
    }
    black_box(index.len() as u64 + values[1000])
}

/// Reference timings taken over a run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    secs: Vec<f64>,
}

impl HostSpeed {
    /// Times the reference a few times; call only while nothing the run
    /// measures is running.
    pub fn sample(&mut self) {
        for _ in 0..REPEATS {
            let started = Instant::now();
            black_box(reference_work());
            self.secs.push(started.elapsed().as_secs_f64());
        }
    }

    /// Median reference time so far, seconds.
    pub fn reference_secs(&self) -> f64 {
        median(&self.secs).unwrap_or(NOMINAL_REFERENCE_SECS)
    }

    /// Multiplier that scales a time measured on this host to the nominal
    /// host (divide a rate by it).
    pub fn time_factor(&self) -> f64 {
        NOMINAL_REFERENCE_SECS / self.reference_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_takes_time() {
        assert_eq!(reference_work(), reference_work());
        let mut host = HostSpeed::default();
        host.sample();
        assert!(host.reference_secs() > 0.0);
        assert!(host.time_factor().is_finite());
    }
}
