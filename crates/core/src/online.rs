//! The online scheduler (Section V): a Lyapunov drift-plus-penalty controller
//! that only needs the current queue backlogs and application status.
//!
//! Every slot, each user evaluates the two candidate decisions
//! (`schedule` / `idle`) against the objective of Eq. (21),
//!
//! ```text
//! min  V·P_i(t) − Q(t)·b_i(t) + H(t)·g_i(t, t+τ_i)
//! ```
//!
//! where `P_i(t)` is the Eq.-10 power of the resulting state, `b_i(t)` is 1
//! iff training is scheduled, and `g_i` is either the Eq.-4 momentum-predicted
//! gap (when scheduling) or the accumulated gap plus the idle increment `ε`
//! (Eq. 12). At the end of every slot the queues evolve per Eq. (15)/(16).

use fedco_device::power::{AppStatus, SlotDecision};
use fedco_device::profiles::DeviceProfile;
use fedco_fl::staleness::GradientGap;

use crate::config::SchedulerConfig;
use crate::queues::QueueState;

/// Everything the controller needs to know about one user in one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineDecisionInput {
    /// Whether an application is in the foreground, and which.
    pub app_status: AppStatus,
    /// Average co-running power `P_a'` (W) for the current app (ignored when
    /// no app is present).
    pub corun_power_w: f64,
    /// Average app-only power `P_a` (W) for the current app (ignored when no
    /// app is present).
    pub app_power_w: f64,
    /// Background-training power `P_b` (W).
    pub training_power_w: f64,
    /// Idle power `P_d` (W).
    pub idle_power_w: f64,
    /// Gradient gap predicted by Eq. (4) if training is scheduled now.
    pub predicted_gap_if_schedule: GradientGap,
    /// Accumulated gap plus the idle increment `ε` if the user stays idle
    /// (Eq. 12, second case).
    pub accumulated_gap_if_idle: GradientGap,
}

impl OnlineDecisionInput {
    /// Builds the input from a device profile and the staleness estimates.
    #[inline]
    pub fn from_profile(
        profile: &DeviceProfile,
        app_status: AppStatus,
        predicted_gap_if_schedule: GradientGap,
        accumulated_gap_if_idle: GradientGap,
    ) -> Self {
        let (corun_power_w, app_power_w) = match app_status {
            AppStatus::App(app) => (
                profile.corun_power(app).value(),
                profile.app_power(app).value(),
            ),
            AppStatus::NoApp => (
                profile.training_power().value(),
                profile.idle_power().value(),
            ),
        };
        OnlineDecisionInput {
            app_status,
            corun_power_w,
            app_power_w,
            training_power_w: profile.training_power().value(),
            idle_power_w: profile.idle_power().value(),
            predicted_gap_if_schedule,
            accumulated_gap_if_idle,
        }
    }
}

/// The two candidate objective values of Eq. (21) for one user, exposed so
/// tests and traces can inspect the decision margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionObjectives {
    /// Objective value of choosing `schedule`.
    pub schedule: f64,
    /// Objective value of choosing `idle`.
    pub idle: f64,
}

impl DecisionObjectives {
    /// The decision minimising the objective (ties favour `idle`, the
    /// conservative choice).
    pub fn best(&self) -> SlotDecision {
        if self.schedule < self.idle {
            SlotDecision::Schedule
        } else {
            SlotDecision::Idle
        }
    }
}

/// Summary of a completed slot, used to advance the queues.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotOutcome {
    /// Number of users that became ready to train this slot (`A(t)`).
    pub arrivals: usize,
    /// Number of users whose training was scheduled this slot (`b(t)`).
    pub scheduled: usize,
    /// Sum of gradient gaps across users this slot (`Σ_i g_i(t, t+τ)`).
    pub gap_sum: f64,
}

/// The online Lyapunov scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineScheduler {
    config: SchedulerConfig,
    queues: QueueState,
}

impl OnlineScheduler {
    /// Creates a scheduler with empty queues.
    pub fn new(config: SchedulerConfig) -> Self {
        OnlineScheduler {
            config,
            queues: QueueState::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Current task-queue backlog `Q(t)`.
    pub fn queue_backlog(&self) -> f64 {
        self.queues.task.backlog()
    }

    /// Current virtual-queue backlog `H(t)`.
    pub fn virtual_backlog(&self) -> f64 {
        self.queues.staleness.backlog()
    }

    /// Evaluates the Eq.-21 objective for both candidate decisions.
    pub fn objectives(&self, input: &OnlineDecisionInput) -> DecisionObjectives {
        let v = self.config.v;
        let td = self.config.slot_seconds;
        let q = self.queues.task.backlog();
        let h = self.queues.staleness.backlog();
        let (schedule_power, idle_power) = match input.app_status {
            AppStatus::App(_) => (input.corun_power_w, input.app_power_w),
            AppStatus::NoApp => (input.training_power_w, input.idle_power_w),
        };
        let schedule = v * schedule_power * td - q + h * input.predicted_gap_if_schedule.value();
        let idle = v * idle_power * td + h * input.accumulated_gap_if_idle.value();
        DecisionObjectives { schedule, idle }
    }

    /// Makes the control decision for one user (Algorithm 2, line 6).
    pub fn decide(&self, input: &OnlineDecisionInput) -> SlotDecision {
        self.objectives(input).best()
    }

    /// The queue threshold above which a device with an application present
    /// co-runs when the virtual queue is empty (Eq. 22):
    /// `Q(t) ≥ V·t_d·(P_a' − P_a)`.
    pub fn corun_queue_threshold(&self, input: &OnlineDecisionInput) -> f64 {
        self.config.v * self.config.slot_seconds * (input.corun_power_w - input.app_power_w)
    }

    /// The queue threshold above which a device with no application present
    /// starts background training when the virtual queue is empty (Eq. 22):
    /// `Q(t) ≥ V·t_d·(P_b − P_d)`.
    pub fn background_queue_threshold(&self, input: &OnlineDecisionInput) -> f64 {
        self.config.v * self.config.slot_seconds * (input.training_power_w - input.idle_power_w)
    }

    /// Advances the queues at the end of a slot (Eq. 15 and 16).
    pub fn end_of_slot(&mut self, outcome: &SlotOutcome) {
        self.queues.step(
            outcome.arrivals as f64,
            outcome.scheduled as f64,
            outcome.gap_sum,
            self.config.staleness_bound,
        );
    }

    /// The current Lyapunov function value `L(Θ(t))`.
    pub fn lyapunov(&self) -> f64 {
        self.queues.lyapunov()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_device::apps::AppKind;
    use fedco_device::profiles::DeviceKind;

    fn pixel2_input(app: Option<AppKind>, sched_gap: f64, idle_gap: f64) -> OnlineDecisionInput {
        let profile = DeviceKind::Pixel2.profile();
        let status = match app {
            Some(a) => AppStatus::App(a),
            None => AppStatus::NoApp,
        };
        OnlineDecisionInput::from_profile(
            &profile,
            status,
            GradientGap(sched_gap),
            GradientGap(idle_gap),
        )
    }

    #[test]
    fn empty_queues_always_idle() {
        // Section V-B: with Q(t) = H(t) = 0 only the V·P term remains, and
        // since P(schedule) > P(idle) in every status the controller waits
        // for better co-running opportunities.
        let sched = OnlineScheduler::new(SchedulerConfig::default());
        assert_eq!(
            sched.decide(&pixel2_input(None, 1.0, 0.1)),
            SlotDecision::Idle
        );
        assert_eq!(
            sched.decide(&pixel2_input(Some(AppKind::Map), 1.0, 0.1)),
            SlotDecision::Idle
        );
        assert_eq!(sched.queue_backlog(), 0.0);
        assert_eq!(sched.virtual_backlog(), 0.0);
    }

    #[test]
    fn queue_pressure_triggers_scheduling_at_the_eq22_threshold() {
        let config = SchedulerConfig::default().with_v(100.0);
        let mut sched = OnlineScheduler::new(config);
        let input = pixel2_input(Some(AppKind::Map), 0.0, 0.0);
        let threshold = sched.corun_queue_threshold(&input);
        // Pixel2 Map: (2.20 - 1.60) * 100 = 60.
        assert!((threshold - 60.0).abs() < 1e-9);
        // Push the queue just below the threshold: still idle.
        for _ in 0..59 {
            sched.end_of_slot(&SlotOutcome {
                arrivals: 1,
                scheduled: 0,
                gap_sum: 0.0,
            });
        }
        assert_eq!(sched.decide(&input), SlotDecision::Idle);
        // Crossing the threshold flips the decision to co-run.
        sched.end_of_slot(&SlotOutcome {
            arrivals: 2,
            scheduled: 0,
            gap_sum: 0.0,
        });
        assert_eq!(sched.decide(&input), SlotDecision::Schedule);
    }

    #[test]
    fn background_threshold_uses_training_minus_idle_power() {
        let config = SchedulerConfig::default().with_v(1000.0);
        let sched = OnlineScheduler::new(config);
        let input = pixel2_input(None, 0.0, 0.0);
        let th = sched.background_queue_threshold(&input);
        assert!((th - 1000.0 * (1.35 - 0.689)).abs() < 1e-9);
    }

    #[test]
    fn staleness_pressure_favours_scheduling() {
        // When H(t) is large, idling keeps paying H·(g+ε) every slot while
        // scheduling replaces the term with the (smaller) predicted gap, so
        // the controller clears the backlog by scheduling.
        let mut sched = OnlineScheduler::new(SchedulerConfig::default().with_v(1.0));
        // Build a virtual-queue backlog.
        sched.end_of_slot(&SlotOutcome {
            arrivals: 0,
            scheduled: 0,
            gap_sum: 5000.0,
        });
        assert!(sched.virtual_backlog() > 0.0);
        let input = pixel2_input(None, 0.5, 10.0);
        assert_eq!(sched.decide(&input), SlotDecision::Schedule);
    }

    #[test]
    fn larger_v_waits_longer() {
        // The [O(1/V), O(V)] trade-off: a larger V weights energy more, so a
        // given queue backlog that triggers scheduling under small V does not
        // under large V.
        let input = pixel2_input(Some(AppKind::News), 0.2, 0.2);
        let mut small_v = OnlineScheduler::new(SchedulerConfig::default().with_v(10.0));
        let mut large_v = OnlineScheduler::new(SchedulerConfig::default().with_v(100_000.0));
        for _ in 0..20 {
            let o = SlotOutcome {
                arrivals: 1,
                scheduled: 0,
                gap_sum: 0.0,
            };
            small_v.end_of_slot(&o);
            large_v.end_of_slot(&o);
        }
        assert_eq!(small_v.decide(&input), SlotDecision::Schedule);
        assert_eq!(large_v.decide(&input), SlotDecision::Idle);
    }

    #[test]
    fn objectives_match_manual_eq21() {
        let config = SchedulerConfig {
            v: 2.0,
            slot_seconds: 1.0,
            ..SchedulerConfig::default()
        };
        let mut sched = OnlineScheduler::new(config);
        sched.end_of_slot(&SlotOutcome {
            arrivals: 4,
            scheduled: 0,
            gap_sum: 1003.0,
        });
        // Q = 4, H = 3.
        let input = pixel2_input(Some(AppKind::Zoom), 1.5, 2.5);
        let obj = sched.objectives(&input);
        // schedule: 2*3.11*1 - 4 + 3*1.5 = 6.72
        assert!((obj.schedule - (2.0 * 3.11 - 4.0 + 4.5)).abs() < 1e-9);
        // idle: 2*2.57 + 3*2.5 = 12.64
        assert!((obj.idle - (2.0 * 2.57 + 7.5)).abs() < 1e-9);
        assert_eq!(obj.best(), SlotDecision::Schedule);
    }

    #[test]
    fn end_of_slot_advances_queues() {
        let mut sched = OnlineScheduler::new(SchedulerConfig::default());
        sched.end_of_slot(&SlotOutcome {
            arrivals: 3,
            scheduled: 1,
            gap_sum: 1200.0,
        });
        assert_eq!(sched.queue_backlog(), 3.0);
        assert_eq!(sched.virtual_backlog(), 200.0);
        assert!(sched.lyapunov() > 0.0);
        assert!(sched.config().validate().is_ok());
    }

    #[test]
    fn ties_resolve_to_idle() {
        let obj = DecisionObjectives {
            schedule: 1.0,
            idle: 1.0,
        };
        assert_eq!(obj.best(), SlotDecision::Idle);
    }
}
