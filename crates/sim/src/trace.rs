//! Trace recording and the result summary of one simulation run.

use fedco_core::spec::PolicySpec;
use fedco_device::energy::Joules;
use fedco_device::profiler::EnergyComponent;

/// One sampled point of the system-level time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Simulated time in seconds.
    pub t_s: f64,
    /// Cumulative energy of all devices so far, in joules.
    pub total_energy_j: f64,
    /// Task-queue backlog `Q(t)` (zero for stateless policies).
    pub queue: f64,
    /// Virtual-queue backlog `H(t)` (zero for stateless policies).
    pub virtual_queue: f64,
    /// Mean per-user gradient gap at this instant.
    pub mean_gap: f64,
    /// Maximum per-user gradient gap at this instant.
    pub max_gap: f64,
    /// Number of updates applied to the global model so far.
    pub updates: u64,
    /// Test accuracy of the global model, when evaluated at this point.
    pub accuracy: Option<f32>,
}

/// One sampled per-user gradient-gap value (Fig. 5d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserGapPoint {
    /// Simulated time in seconds.
    pub t_s: f64,
    /// The user.
    pub user_id: usize,
    /// The user's gradient gap at this instant.
    pub gap: f64,
}

/// One applied global-model update (used for the lag-vs-gap correlation of
/// Fig. 5a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateEvent {
    /// Simulated time of the upload, in seconds.
    pub t_s: f64,
    /// The uploading user.
    pub user_id: usize,
    /// The lag the update experienced (Definition 1).
    pub lag: u64,
    /// The gradient gap of the update (measured when the ML workload is
    /// enabled, otherwise the Eq.-4 estimate).
    pub gap: f64,
    /// Whether the epoch was co-run with a foreground application.
    pub corun: bool,
}

/// The summary of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The policy that produced this run (its [`PolicySpec::label`] keys
    /// reports).
    pub policy: PolicySpec,
    /// Total system energy over the horizon.
    pub total_energy_j: f64,
    /// Energy broken down by power-state component, summed over devices.
    pub energy_by_component: Vec<(EnergyComponent, f64)>,
    /// Total number of updates applied to the global model.
    pub total_updates: u64,
    /// Number of local epochs that were co-run with an application.
    pub corun_epochs: u64,
    /// Mean lag across applied updates.
    pub mean_lag: f64,
    /// Maximum lag across applied updates.
    pub max_lag: u64,
    /// Final test accuracy (when the ML workload was enabled).
    pub final_accuracy: Option<f32>,
    /// Final task-queue backlog.
    pub final_queue: f64,
    /// Final virtual-queue backlog.
    pub final_virtual_queue: f64,
    /// Time-averaged task-queue backlog.
    pub mean_queue: f64,
    /// Time-averaged virtual-queue backlog.
    pub mean_virtual_queue: f64,
    /// The system-level time series.
    pub trace: Vec<TracePoint>,
    /// Per-user gap samples (empty unless requested).
    pub user_gaps: Vec<UserGapPoint>,
    /// Applied update events.
    pub updates: Vec<UpdateEvent>,
}

impl SimResult {
    /// Total energy in kilojoules.
    pub fn total_energy_kj(&self) -> f64 {
        self.total_energy_j / 1e3
    }

    /// Total energy as a typed quantity.
    pub fn total_energy(&self) -> Joules {
        Joules(self.total_energy_j)
    }

    /// The earliest simulated time at which the recorded test accuracy
    /// reached `target`, if it ever did (Fig. 5c).
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.trace
            .iter()
            .find(|p| p.accuracy.map(|a| a >= target).unwrap_or(false))
            .map(|p| p.t_s)
    }

    /// The best test accuracy observed at any evaluation point.
    pub fn best_accuracy(&self) -> Option<f32> {
        self.trace
            .iter()
            .filter_map(|p| p.accuracy)
            .fold(None, |best, a| match best {
                None => Some(a),
                Some(b) => Some(b.max(a)),
            })
    }

    /// Pearson correlation between lag and gap across applied updates
    /// (Fig. 5a, lower subplot shows this is positive).
    pub fn lag_gap_correlation(&self) -> f64 {
        let n = self.updates.len();
        if n < 2 {
            return 0.0;
        }
        let lags: Vec<f64> = self.updates.iter().map(|u| u.lag as f64).collect();
        let gaps: Vec<f64> = self.updates.iter().map(|u| u.gap).collect();
        // fedco-audit: allow(float-reduction): fixed-order reduction over trace vectors — deterministic by construction
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (ml, mg) = (mean(&lags), mean(&gaps));
        let cov: f64 = lags
            .iter()
            .zip(&gaps)
            .map(|(l, g)| (l - ml) * (g - mg))
            // fedco-audit: allow(float-reduction): fixed-order reduction over trace vectors — deterministic by construction
            .sum();
        // fedco-audit: allow(float-reduction): fixed-order reduction over trace vectors — deterministic by construction
        let vl: f64 = lags.iter().map(|l| (l - ml) * (l - ml)).sum();
        // fedco-audit: allow(float-reduction): fixed-order reduction over trace vectors — deterministic by construction
        let vg: f64 = gaps.iter().map(|g| (g - mg) * (g - mg)).sum();
        if vl <= 0.0 || vg <= 0.0 {
            return 0.0;
        }
        cov / (vl.sqrt() * vg.sqrt())
    }

    /// Variance of the per-user gap samples (Fig. 5d compares the variance of
    /// the three schemes).
    pub fn user_gap_variance(&self) -> f64 {
        let n = self.user_gaps.len();
        if n < 2 {
            return 0.0;
        }
        // fedco-audit: allow(float-reduction): fixed-order reduction over the per-user gap samples — deterministic by construction
        let mean = self.user_gaps.iter().map(|g| g.gap).sum::<f64>() / n as f64;
        self.user_gaps
            .iter()
            .map(|g| (g.gap - mean).powi(2))
            // fedco-audit: allow(float-reduction): fixed-order reduction over the per-user gap samples — deterministic by construction
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(trace: Vec<TracePoint>, updates: Vec<UpdateEvent>) -> SimResult {
        SimResult {
            policy: PolicySpec::Online { v: None },
            total_energy_j: 5000.0,
            energy_by_component: vec![(EnergyComponent::Idle, 5000.0)],
            total_updates: updates.len() as u64,
            corun_epochs: 0,
            mean_lag: 0.0,
            max_lag: 0,
            final_accuracy: None,
            final_queue: 0.0,
            final_virtual_queue: 0.0,
            mean_queue: 0.0,
            mean_virtual_queue: 0.0,
            trace,
            user_gaps: Vec::new(),
            updates,
        }
    }

    fn point(t: f64, acc: Option<f32>) -> TracePoint {
        TracePoint {
            t_s: t,
            total_energy_j: 0.0,
            queue: 0.0,
            virtual_queue: 0.0,
            mean_gap: 0.0,
            max_gap: 0.0,
            updates: 0,
            accuracy: acc,
        }
    }

    #[test]
    fn energy_conversions() {
        let r = result_with(vec![], vec![]);
        assert_eq!(r.total_energy_kj(), 5.0);
        assert_eq!(r.total_energy(), Joules(5000.0));
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = result_with(
            vec![
                point(0.0, Some(0.1)),
                point(100.0, Some(0.4)),
                point(200.0, Some(0.55)),
                point(300.0, Some(0.5)),
            ],
            vec![],
        );
        assert_eq!(r.time_to_accuracy(0.4), Some(100.0));
        assert_eq!(r.time_to_accuracy(0.5), Some(200.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
        assert_eq!(r.best_accuracy(), Some(0.55));
        let empty = result_with(vec![point(0.0, None)], vec![]);
        assert_eq!(empty.best_accuracy(), None);
    }

    #[test]
    fn lag_gap_correlation_is_positive_for_proportional_data() {
        let updates: Vec<UpdateEvent> = (0..20)
            .map(|i| UpdateEvent {
                t_s: i as f64,
                user_id: 0,
                lag: i,
                gap: 0.5 * i as f64 + 1.0,
                corun: false,
            })
            .collect();
        let r = result_with(vec![], updates);
        assert!(r.lag_gap_correlation() > 0.99);
    }

    #[test]
    fn correlation_of_degenerate_data_is_zero() {
        let updates: Vec<UpdateEvent> = (0..5)
            .map(|i| UpdateEvent {
                t_s: i as f64,
                user_id: 0,
                lag: 3,
                gap: 2.0,
                corun: false,
            })
            .collect();
        let r = result_with(vec![], updates);
        assert_eq!(r.lag_gap_correlation(), 0.0);
        let r2 = result_with(vec![], vec![]);
        assert_eq!(r2.lag_gap_correlation(), 0.0);
    }

    #[test]
    fn user_gap_variance() {
        let mut r = result_with(vec![], vec![]);
        assert_eq!(r.user_gap_variance(), 0.0);
        r.user_gaps = vec![
            UserGapPoint {
                t_s: 0.0,
                user_id: 0,
                gap: 1.0,
            },
            UserGapPoint {
                t_s: 0.0,
                user_id: 1,
                gap: 3.0,
            },
        ];
        assert!((r.user_gap_variance() - 1.0).abs() < 1e-9);
    }
}
