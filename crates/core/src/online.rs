//! The online scheduler (Section V): a Lyapunov drift-plus-penalty controller
//! that only needs the current queue backlogs and application status.
//!
//! Two queues drive it:
//!
//! * the *task queue* `Q(t)` (Definition 3, Eq. 15) — the number of users
//!   waiting to be scheduled; arrivals are users becoming ready to train,
//!   services are users whose training is scheduled;
//! * the *virtual queue* `H(t)` (Eq. 16) — the accumulated excess of the sum
//!   of gradient gaps over the staleness bound `L_b`, which turns the
//!   time-averaged constraint (14) into a queue-stability requirement.
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
use crate::policy::{SchedulingPolicy, UserSlotContext};

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

/// The online Lyapunov scheduler: the two queue backlogs and the Eq.-21
/// rule over them. It is also the [`SchedulingPolicy`] the engine runs for
/// `PolicySpec::Online`.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineScheduler {
    config: SchedulerConfig,
    /// The task-queue backlog `Q(t)`.
    q: f64,
    /// The virtual-queue backlog `H(t)`.
    h: f64,
}

impl OnlineScheduler {
    /// Creates a scheduler with empty queues (`Q(0) = H(0) = 0`).
    pub fn new(config: SchedulerConfig) -> Self {
        OnlineScheduler {
            config,
            q: 0.0,
            h: 0.0,
        }
    }

    /// Current task-queue backlog `Q(t)`.
    pub fn queue_backlog(&self) -> f64 {
        self.q
    }

    /// Evaluates the Eq.-21 objective for both candidate decisions.
    pub fn objectives(&self, input: &OnlineDecisionInput) -> DecisionObjectives {
        let v = self.config.v;
        let td = self.config.slot_seconds;
        let (q, h) = (self.q, self.h);
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

    /// Advances the queues at the end of a slot, where `A(t)` users arrived
    /// and `b(t)` were scheduled:
    /// `Q(t+1) = max(Q(t) − b(t), 0) + A(t)` (Eq. 15) and
    /// `H(t+1) = max(H(t) + Σ_i g_i(t, t+τ) − L_b, 0)` (Eq. 16).
    pub fn end_of_slot(&mut self, outcome: &SlotOutcome) {
        self.q = (self.q - outcome.scheduled as f64).max(0.0) + outcome.arrivals as f64;
        let bound = self.config.staleness_bound;
        self.h = (self.h + outcome.gap_sum.max(0.0) - bound.max(0.0)).max(0.0);
    }
}

/// The online controller as a policy: decided every slot, charged the full
/// Table III decision-computation power, and decided by class while
/// `H(t) = 0`.
impl SchedulingPolicy for OnlineScheduler {
    fn decide(&mut self, ctx: &UserSlotContext) -> SlotDecision {
        // The inherent rule: `self.decide` here would be this method.
        OnlineScheduler::decide(self, &ctx.input)
    }

    fn end_of_slot(&mut self, outcome: &SlotOutcome) {
        OnlineScheduler::end_of_slot(self, outcome);
    }

    fn queue_backlog(&self) -> f64 {
        self.q
    }

    fn virtual_backlog(&self) -> f64 {
        self.h
    }

    fn decision_energy_overhead(&self) -> f64 {
        // The controller evaluates the Eq.-21 objective every slot; Table III
        // measures the full decision-computation power for it.
        1.0
    }

    /// With `H(t) = 0` the `h·g` terms of Eq. 21 are exact zeros for finite
    /// gaps, so the objectives of a class do not depend on them. Evaluated
    /// as `decide` evaluates them, for the same bits; and Eq. 16 leaves
    /// `H(t + 1) = 0` for any gap sum below `L_b`.
    fn class_decision(&self, input: &OnlineDecisionInput) -> Option<SlotDecision> {
        let finite = input.predicted_gap_if_schedule.value().is_finite()
            && input.accumulated_gap_if_idle.value().is_finite();
        (self.h == 0.0 && finite).then(|| OnlineScheduler::decide(self, input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_device::apps::AppKind;
    use fedco_device::profiles::DeviceKind;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

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

    /// The queue backlog of Eq. 22 at and above which a user whose schedule
    /// and idle powers are these is scheduled while `H(t) = 0`:
    /// `V·t_d·(P_schedule − P_idle)`.
    fn eq22_threshold(config: &SchedulerConfig, schedule_w: f64, idle_w: f64) -> f64 {
        config.v * config.slot_seconds * (schedule_w - idle_w)
    }

    fn arrivals(arrivals: usize) -> SlotOutcome {
        SlotOutcome {
            arrivals,
            scheduled: 0,
            gap_sum: 0.0,
        }
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
        let threshold = eq22_threshold(&config, input.corun_power_w, input.app_power_w);
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
        let mut sched = OnlineScheduler::new(config);
        let input = pixel2_input(None, 0.0, 0.0);
        let th = eq22_threshold(&config, input.training_power_w, input.idle_power_w);
        assert!((th - 1000.0 * (1.35 - 0.689)).abs() < 1e-9);
        // The controller trains in the background above it, not below.
        sched.end_of_slot(&arrivals(660));
        assert_eq!(sched.decide(&input), SlotDecision::Idle);
        sched.end_of_slot(&arrivals(2));
        assert_eq!(sched.decide(&input), SlotDecision::Schedule);
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
    }

    /// Power and `V` enter Eq. 21 only as the product `V·P·t_d`, so every
    /// power ×2ᵏ with `V`×2⁻ᵏ leaves both objectives on the same bits
    /// (scaling by a power of two is exact) and the decision unchanged,
    /// over seeded inputs and queue histories.
    #[test]
    fn powers_times_two_to_the_k_with_v_over_two_to_the_k_decide_alike() {
        let mut rng = SmallRng::seed_from_u64(0x90e4);
        for case in 0..300 {
            let config = SchedulerConfig {
                v: rng.gen_range(0.0..20_000.0),
                staleness_bound: rng.gen_range(0.0..2_000.0),
                slot_seconds: rng.gen_range(0.1..10.0),
                ..SchedulerConfig::default()
            };
            let history: Vec<SlotOutcome> = (0..rng.gen_range(0..60usize))
                .map(|_| SlotOutcome {
                    arrivals: rng.gen_range(0..20),
                    scheduled: rng.gen_range(0..20),
                    gap_sum: rng.gen_range(0.0..4_000.0),
                })
                .collect();
            let app_status = if rng.gen_bool(0.5) {
                AppStatus::App(AppKind::ALL[rng.gen_range(0..AppKind::ALL.len())])
            } else {
                AppStatus::NoApp
            };
            let mut power = || rng.gen_range(0.05..12.0);
            let input = OnlineDecisionInput {
                app_status,
                corun_power_w: power(),
                app_power_w: power(),
                training_power_w: power(),
                idle_power_w: power(),
                predicted_gap_if_schedule: GradientGap(rng.gen_range(0.0..10.0)),
                accumulated_gap_if_idle: GradientGap(rng.gen_range(0.0..10.0)),
            };
            let after_history = |config: SchedulerConfig| {
                let mut sched = OnlineScheduler::new(config);
                for outcome in &history {
                    sched.end_of_slot(outcome);
                }
                sched
            };
            let base = after_history(config);
            let bits = |o: DecisionObjectives| (o.schedule.to_bits(), o.idle.to_bits());
            for k in -4..=4 {
                let scale = 2f64.powi(k);
                let scaled = after_history(SchedulerConfig {
                    v: config.v / scale,
                    ..config
                });
                let scaled_input = OnlineDecisionInput {
                    corun_power_w: input.corun_power_w * scale,
                    app_power_w: input.app_power_w * scale,
                    training_power_w: input.training_power_w * scale,
                    idle_power_w: input.idle_power_w * scale,
                    ..input
                };
                assert_eq!(
                    bits(scaled.objectives(&scaled_input)),
                    bits(base.objectives(&input)),
                    "case {case}, k = {k}"
                );
                assert_eq!(scaled.decide(&scaled_input), base.decide(&input));
            }
        }
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
