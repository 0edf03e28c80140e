//! Streaming statistics.
//!
//! A fleet sweep over millions of device-runs cannot afford to hold every
//! per-run value in memory just to compute a mean at the end. [`Streaming`]
//! keeps the classic count/mean/M2/min/max accumulator (Welford's online
//! algorithm), and a [`CellRollup`] absorbs each finished job of its cell.
//! The executor absorbs jobs in job order, so the result is bit-identical
//! regardless of how many workers ran them.

use fedco_telemetry::profiling::Measured;

use crate::executor::JobSummary;

/// A streaming count/mean/M2/min/max accumulator over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Streaming {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Streaming {
    fn default() -> Self {
        Streaming::new()
    }
}

impl Streaming {
    /// An empty accumulator.
    pub fn new() -> Self {
        Streaming {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorbs one sample (Welford's update).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

/// Per-cell rollup of the scalar outcomes of a sweep, keyed by the pair
/// `(scenario label, policy label)`
/// ([`ScenarioSpec::label`](fedco_core::scenario::ScenarioSpec::label) ×
/// [`PolicySpec::label`](fedco_core::spec::PolicySpec::label)), so every
/// distinct workload/policy combination gets its own row and replicate
/// seeds fold into it.
///
/// Equality deliberately ignores the wall-clock statistics (`wall_ms`,
/// `slots_per_sec`): they vary between runs of the same grid, while every
/// other field is covered by the fleet's bit-identical determinism
/// contract. The exclusion lives in the [`Measured`] wrapper (which always
/// compares equal), so the derived `PartialEq` is exactly the determinism
/// contract — no hand-written equality to keep in sync with the fields.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRollup {
    /// The scenario label these statistics describe.
    pub scenario: String,
    /// The policy label these statistics describe.
    pub policy: String,
    /// Total device energy per run, in joules.
    pub energy_j: Streaming,
    /// Radio (transport) energy per run, in joules.
    pub radio_j: Streaming,
    /// Global-model updates per run.
    pub updates: Streaming,
    /// Co-run epochs per run.
    pub corun_epochs: Streaming,
    /// Mean staleness lag per run.
    pub mean_lag: Streaming,
    /// Time-averaged task-queue backlog per run.
    pub mean_queue: Streaming,
    /// Final test accuracy per run (only runs with the ML workload
    /// contribute, so `accuracy.count()` can be below `energy_j.count()`).
    pub accuracy: Streaming,
    /// Wall-clock milliseconds per run (timing; [`Measured`], so ignored by
    /// `PartialEq`).
    pub wall_ms: Measured<Streaming>,
    /// Simulated slots per wall-clock second per run (timing; [`Measured`],
    /// so ignored by `PartialEq`); the rollup table's throughput column.
    pub slots_per_sec: Measured<Streaming>,
}

impl CellRollup {
    /// An empty rollup for one (scenario, policy) label pair.
    pub fn new(scenario: impl Into<String>, policy: impl Into<String>) -> Self {
        CellRollup {
            scenario: scenario.into(),
            policy: policy.into(),
            energy_j: Streaming::new(),
            radio_j: Streaming::new(),
            updates: Streaming::new(),
            corun_epochs: Streaming::new(),
            mean_lag: Streaming::new(),
            mean_queue: Streaming::new(),
            accuracy: Streaming::new(),
            wall_ms: Measured(Streaming::new()),
            slots_per_sec: Measured(Streaming::new()),
        }
    }

    /// Absorbs one finished job.
    pub fn absorb(&mut self, job: &JobSummary) {
        debug_assert_eq!(job.scenario, self.scenario);
        debug_assert_eq!(job.policy, self.policy);
        self.energy_j.push(job.total_energy_j);
        self.radio_j.push(job.radio_energy_j);
        self.updates.push(job.total_updates as f64);
        self.corun_epochs.push(job.corun_epochs as f64);
        self.mean_lag.push(job.mean_lag);
        self.mean_queue.push(job.mean_queue);
        if let Some(acc) = job.final_accuracy {
            self.accuracy.push(acc as f64);
        }
        self.wall_ms.push(*job.wall_ms);
        self.slots_per_sec.push(*job.slots_per_sec);
    }

    /// Number of runs absorbed.
    pub fn runs(&self) -> u64 {
        self.energy_j.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_naive_moments() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = Streaming::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert!((s.sum() - 31.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_is_inert() {
        let s = Streaming::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    fn job(scenario: &str, policy: &str, energy: f64, acc: Option<f32>, wall: f64) -> JobSummary {
        JobSummary {
            id: 0,
            scenario: scenario.to_string(),
            policy: policy.to_string(),
            arrival_probability: 0.001,
            devices: "testbed".to_string(),
            link: "ideal",
            seed: 1,
            total_energy_j: energy,
            radio_energy_j: 0.0,
            total_updates: 10,
            corun_epochs: 2,
            mean_lag: 1.5,
            max_lag: 4,
            mean_queue: 0.5,
            mean_virtual_queue: 1.0,
            final_accuracy: acc,
            wall_ms: Measured(wall),
            slots_per_sec: Measured(2000.0),
        }
    }

    #[test]
    fn rollup_absorbs_jobs() {
        let mut r = CellRollup::new("smoke", "Online");
        r.absorb(&job("smoke", "Online", 100.0, Some(0.5), 1.0));
        r.absorb(&job("smoke", "Online", 200.0, None, 1.0));
        assert_eq!(r.runs(), 2);
        assert_eq!(r.energy_j.mean(), 150.0);
        assert_eq!(r.accuracy.count(), 1);
        assert_eq!(r.wall_ms.count(), 2);
        assert_eq!(r.slots_per_sec.mean(), 2000.0);
        r.absorb(&job("smoke", "Online", 300.0, Some(0.7), 1.0));
        assert_eq!(r.runs(), 3);
        assert_eq!(r.energy_j.mean(), 200.0);
        assert_eq!(r.accuracy.count(), 2);
        assert_eq!(r.wall_ms.count(), 3);
    }

    #[test]
    fn rollup_equality_ignores_timing_statistics() {
        let base = |wall: f64| {
            let mut r = CellRollup::new("smoke", "Online");
            r.absorb(&job("smoke", "Online", 10.0, None, wall));
            r
        };
        // Same deterministic outcomes, very different timings: still equal.
        assert_eq!(base(1.0), base(250.0));
        // A deterministic field difference still breaks equality.
        let mut other = base(1.0);
        other.energy_j.push(99.0);
        assert_ne!(base(1.0), other);
        // A different scenario key breaks equality too.
        let mut renamed = CellRollup::new("sparse", "Online");
        renamed.absorb(&job("sparse", "Online", 10.0, None, 1.0));
        assert_ne!(base(1.0), renamed);
    }
}
