//! The queue dynamics of the Lyapunov formulation, held by
//! [`OnlineScheduler`](crate::online::OnlineScheduler): the task queue `Q(t)`
//! of Eq. (15) and the virtual staleness queue `H(t)` of Eq. (16), advanced
//! by its `end_of_slot`.
#![cfg(test)]

mod tests {
    use crate::config::SchedulerConfig;
    use crate::online::{OnlineScheduler, SlotOutcome};
    use crate::policy::SchedulingPolicy;

    /// A controller whose staleness bound `L_b` is `bound`.
    fn queues(bound: f64) -> OnlineScheduler {
        OnlineScheduler::new(SchedulerConfig {
            staleness_bound: bound,
            ..SchedulerConfig::default()
        })
    }

    /// One slot in which `arrivals` users arrived and `services` were
    /// scheduled, with no gap.
    fn tasks(arrivals: usize, services: usize) -> SlotOutcome {
        SlotOutcome {
            arrivals,
            scheduled: services,
            gap_sum: 0.0,
        }
    }

    /// One slot whose gap sum is `gap_sum`, with no arrival or service.
    fn gaps(gap_sum: f64) -> SlotOutcome {
        SlotOutcome {
            gap_sum,
            ..SlotOutcome::default()
        }
    }

    #[test]
    fn task_queue_follows_eq_15() {
        let mut q = queues(100.0);
        assert_eq!(q.queue_backlog(), 0.0);
        q.end_of_slot(&tasks(3, 0));
        assert_eq!(q.queue_backlog(), 3.0);
        q.end_of_slot(&tasks(1, 2));
        assert_eq!(q.queue_backlog(), 2.0);
        // Service in excess of backlog clamps at zero before arrivals.
        q.end_of_slot(&tasks(5, 100));
        assert_eq!(q.queue_backlog(), 5.0);
    }

    #[test]
    fn task_queue_never_negative() {
        let mut q = queues(100.0);
        for i in 0..100 {
            q.end_of_slot(&tasks(i % 3, (i + 1) % 4));
            assert!(q.queue_backlog() >= 0.0);
        }
        // A negative gap sum, the one signed input, is treated as zero.
        q.end_of_slot(&gaps(-5.0));
        assert!(q.queue_backlog() >= 0.0);
        assert!(q.virtual_backlog() >= 0.0);
    }

    #[test]
    fn virtual_queue_follows_eq_16() {
        let mut h = queues(100.0);
        h.end_of_slot(&gaps(150.0));
        assert_eq!(h.virtual_backlog(), 50.0);
        h.end_of_slot(&gaps(40.0));
        assert_eq!(h.virtual_backlog(), 0.0);
        h.end_of_slot(&gaps(500.0));
        assert_eq!(h.virtual_backlog(), 400.0);
    }

    #[test]
    fn virtual_queue_stays_zero_while_gap_below_bound() {
        let mut h = queues(100.0);
        for _ in 0..100 {
            h.end_of_slot(&gaps(50.0));
            assert_eq!(h.virtual_backlog(), 0.0);
        }
    }

    /// The state `Θ(t) = [Q(t), H(t)]` the Lyapunov function
    /// `L(Θ) = ½(Q² + H²)` of Eq. (17) reads.
    #[test]
    fn lyapunov_function() {
        let lyapunov =
            |s: &OnlineScheduler| 0.5 * (s.queue_backlog().powi(2) + s.virtual_backlog().powi(2));
        let mut s = queues(100.0);
        assert_eq!(lyapunov(&s), 0.0);
        s.end_of_slot(&SlotOutcome {
            arrivals: 3,
            scheduled: 0,
            gap_sum: 200.0,
        });
        // Q = 3, H = 100 -> L = 0.5*(9 + 10000)
        assert!((lyapunov(&s) - 0.5 * (9.0 + 10_000.0)).abs() < 1e-9);
    }
}
