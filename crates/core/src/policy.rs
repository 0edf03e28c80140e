//! Scheduling policies: the paper's online controller and the three
//! baselines it is evaluated against (immediate scheduling, Sync-SGD and the
//! offline knapsack). Each is one type:
//! [`OnlineScheduler`](crate::online::OnlineScheduler) implements the trait
//! itself, the others are here.
//!
//! The [`SchedulingPolicy`] trait is deliberately *capability-based*: besides
//! the per-slot decision, a policy declares whether it needs a synchronous
//! aggregation barrier ([`SchedulingPolicy::round_barrier`]), whether it
//! wants a fresh look-ahead plan at a given slot
//! ([`SchedulingPolicy::wants_replanning`] /
//! [`SchedulingPolicy::install_plan`]), and how much decision-computation
//! energy it burns ([`SchedulingPolicy::decision_energy_overhead`]). The
//! simulation engine consumes only these hooks — it never matches on a
//! policy's identity — so user-defined policies registered through
//! [`PolicySpec`](crate::spec::PolicySpec) get exactly the same engine
//! semantics as the built-ins.

use fedco_device::power::SlotDecision;

use crate::online::{OnlineDecisionInput, SlotOutcome};

/// The per-user, per-slot context handed to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserSlotContext {
    /// The user being decided for.
    pub user_id: usize,
    /// The current slot index.
    pub slot: u64,
    /// The Eq.-21 decision input: the device's app status, its powers and
    /// the staleness estimates.
    pub input: OnlineDecisionInput,
}

/// A per-slot scheduling policy deciding, for each *waiting* user, whether to
/// start training this slot.
///
/// Only [`decide`](SchedulingPolicy::decide) and
/// [`end_of_slot`](SchedulingPolicy::end_of_slot) are mandatory; the
/// remaining methods are *capability hooks* with conservative defaults. The
/// engine consumes policies exclusively through this trait, so overriding a
/// hook is all it takes for a custom policy to opt into the corresponding
/// engine behaviour:
///
/// * [`round_barrier`](SchedulingPolicy::round_barrier) — completed epochs
///   are buffered and aggregated synchronously once every user has uploaded
///   (Sync-SGD semantics) instead of being applied asynchronously.
/// * [`wants_replanning`](SchedulingPolicy::wants_replanning) /
///   [`install_plan`](SchedulingPolicy::install_plan) — the engine runs its
///   offline knapsack over the next look-ahead window and hands the plan
///   back (offline-scheduler semantics).
/// * [`decision_energy_overhead`](SchedulingPolicy::decision_energy_overhead)
///   — a fraction of the device's measured decision-computation power
///   (Table III) is charged for every decision the policy makes.
/// * [`quiescent_while_waiting`](SchedulingPolicy::quiescent_while_waiting)
///   — the policy keeps no queues, so the slot loop skips the per-slot gap
///   fold that would feed them.
/// * [`next_decision_slot`](SchedulingPolicy::next_decision_slot) — the
///   first slot at which a waiting user could be scheduled, so the slot loop
///   decides that user only from then on.
/// * [`class_decision`](SchedulingPolicy::class_decision) — one decision for
///   every waiting user of a (device, app status) class, so the slot loop
///   decides once per class and the users a class leaves idle sleep.
///
/// Every slot of a run is stepped. A waiting user is decided in every slot
/// from the one `next_decision_slot` names; the idle slots before it, in
/// which `decide` could only answer `Idle`, are applied without asking. By
/// default that is the current slot, so every waiting user is decided in
/// every slot.
pub trait SchedulingPolicy: std::fmt::Debug + Send {
    /// Decides for one waiting user in the current slot.
    fn decide(&mut self, ctx: &UserSlotContext) -> SlotDecision;

    /// Observes the end of a slot (arrivals, scheduled users, gap sum) so
    /// stateful policies can advance their queues.
    fn end_of_slot(&mut self, outcome: &SlotOutcome);

    /// The task-queue backlog `Q(t)` (zero for stateless policies).
    fn queue_backlog(&self) -> f64 {
        0.0
    }

    /// The virtual-queue backlog `H(t)` (zero for stateless policies).
    fn virtual_backlog(&self) -> f64 {
        0.0
    }

    /// Whether the engine must hold a synchronous aggregation barrier:
    /// completed epochs are buffered and applied as one round once every
    /// user has uploaded. Defaults to `false` (asynchronous aggregation).
    fn round_barrier(&self) -> bool {
        false
    }

    /// Whether the policy wants the engine to compute a fresh look-ahead
    /// plan at `slot`. When it returns `true`, the engine solves its offline
    /// knapsack over the upcoming window and calls
    /// [`install_plan`](SchedulingPolicy::install_plan). Defaults to `false`.
    fn wants_replanning(&self, slot: u64) -> bool {
        let _ = slot;
        false
    }

    /// Receives the look-ahead plan computed by the engine's offline
    /// scheduler for one window: the `(user_id, start_slot)` at which each
    /// planned user should start training, in the engine's order. Policies
    /// that never ask for replanning can ignore it.
    fn install_plan(&mut self, plan: &[(usize, u64)]) {
        let _ = plan;
    }

    /// The fraction (in `[0, 1]`) of the device's measured
    /// decision-computation power (Table III) that each decision of this
    /// policy costs. The engine charges
    /// `fraction × (P_decision − P_idle) × t_d` per decided slot, and reads
    /// the fraction once per slot, before that slot's decisions. Defaults
    /// to `0.0` (free decisions, as for the paper's baselines).
    fn decision_energy_overhead(&self) -> f64 {
        0.0
    }

    /// Declares that this policy keeps no queues: its
    /// [`end_of_slot`](SchedulingPolicy::end_of_slot) is a no-op and both
    /// [`queue_backlog`](SchedulingPolicy::queue_backlog) and
    /// [`virtual_backlog`](SchedulingPolicy::virtual_backlog) are
    /// identically zero. The slot loop then skips the O(users) gap fold
    /// that feeds `end_of_slot` and the two `+= 0.0` backlog accumulations —
    /// exact no-ops, so the result is the same bit for bit.
    ///
    /// Defaults to `false`, which is always correct; a policy with per-slot
    /// queue dynamics (like the online controller) must keep it `false`.
    fn quiescent_while_waiting(&self) -> bool {
        false
    }

    /// The first slot `≥ slot` at which [`decide`](SchedulingPolicy::decide)
    /// could return [`SlotDecision::Schedule`] for the waiting user
    /// `user_id`, or `None` if none could before the next
    /// [`install_plan`](SchedulingPolicy::install_plan).
    ///
    /// The contract: before that slot `decide` would return
    /// [`SlotDecision::Idle`] for the user whatever the context, and calling
    /// it would change nothing. The engine then does not call it there: it
    /// applies those idle slots (their `+ ε` gap steps) itself. It asks when
    /// the user starts waiting and, for every waiting user, after each
    /// `install_plan`; a slot that charges
    /// [`decision_energy_overhead`](SchedulingPolicy::decision_energy_overhead)
    /// decides every waiting user regardless.
    ///
    /// Defaults to `Some(slot)`: the user is decided in every slot, which is
    /// always correct. A policy whose `decide` draws randomness or keeps
    /// state must keep the default.
    fn next_decision_slot(&self, user_id: usize, slot: u64) -> Option<u64> {
        let _ = user_id;
        Some(slot)
    }

    /// The decision [`decide`](SchedulingPolicy::decide) would return in
    /// the current slot for every waiting user whose context has `input`'s
    /// app status and powers and gaps no larger than `input`'s — its
    /// *class* — or `None`.
    ///
    /// The contract: an answer holds for every such user, and asking
    /// `decide` for them would change nothing. The engine then decides by
    /// class, once per class and slot, and a user its class leaves idle
    /// sleeps, owing its `+ ε` steps and decision overhead, until its class
    /// is decided otherwise or its app status changes. In a slot where the
    /// policy answers and [`virtual_backlog`](SchedulingPolicy::virtual_backlog)
    /// is zero, [`end_of_slot`](SchedulingPolicy::end_of_slot) may receive
    /// a proven upper bound on the gap sum that lies below the fleet's
    /// staleness bound instead of the sum itself, and must then act alike.
    ///
    /// Defaults to `None`: every waiting user is decided on its own.
    fn class_decision(&self, input: &OnlineDecisionInput) -> Option<SlotDecision> {
        let _ = input;
        None
    }
}

/// Immediate scheduling: always train as soon as the device is available.
#[derive(Debug, Default, Clone, Copy)]
pub struct ImmediatePolicy;

impl SchedulingPolicy for ImmediatePolicy {
    fn decide(&mut self, _ctx: &UserSlotContext) -> SlotDecision {
        SlotDecision::Schedule
    }

    fn end_of_slot(&mut self, _outcome: &SlotOutcome) {}

    fn quiescent_while_waiting(&self) -> bool {
        true
    }
}

/// Sync-SGD: devices train immediately, but the surrounding simulation holds
/// a barrier until every participant of the round has uploaded. The per-slot
/// decision is therefore identical to [`ImmediatePolicy`]; the round
/// structure is requested through the
/// [`round_barrier`](SchedulingPolicy::round_barrier) capability.
#[derive(Debug, Default, Clone, Copy)]
pub struct SyncSgdPolicy;

impl SchedulingPolicy for SyncSgdPolicy {
    fn decide(&mut self, _ctx: &UserSlotContext) -> SlotDecision {
        SlotDecision::Schedule
    }

    fn end_of_slot(&mut self, _outcome: &SlotOutcome) {}

    fn round_barrier(&self) -> bool {
        true
    }

    fn quiescent_while_waiting(&self) -> bool {
        true
    }
}

/// The offline policy executes a plan computed by the knapsack scheduler for
/// the current look-ahead window: selected users start training at their
/// application arrival (co-run); users whose opportunity was rejected start
/// at the slot recorded in the plan (separate execution); users without an
/// entry keep waiting.
///
/// Built with a window length ([`OfflinePolicy::with_window`]), the policy
/// asks the engine for a fresh plan at every window boundary through the
/// [`wants_replanning`](SchedulingPolicy::wants_replanning) capability; the
/// default policy has no window, never asks, and waits until a plan is
/// installed by hand.
#[derive(Debug, Default, Clone)]
pub struct OfflinePolicy {
    /// The planned start slot of each user, indexed by user id (grown on
    /// demand; `None` = no entry).
    start_of: Vec<Option<u64>>,
    window_slots: u64,
}

impl OfflinePolicy {
    /// Creates a policy that requests a fresh plan every `window_slots`
    /// slots (`0` disables replanning requests, like the default).
    pub fn with_window(window_slots: u64) -> Self {
        OfflinePolicy {
            window_slots,
            ..OfflinePolicy::default()
        }
    }

    /// Installs (or replaces) the start slot planned for a user.
    pub fn set_start_slot(&mut self, user_id: usize, slot: u64) {
        if user_id >= self.start_of.len() {
            self.start_of.resize(user_id + 1, None);
        }
        self.start_of[user_id] = Some(slot);
    }

    /// The planned start slot for a user, if any.
    pub fn planned_slot(&self, user_id: usize) -> Option<u64> {
        self.start_of.get(user_id).copied().flatten()
    }
}

impl SchedulingPolicy for OfflinePolicy {
    /// Schedules a user from its planned start on; the decision that
    /// schedules it spends its plan entry.
    fn decide(&mut self, ctx: &UserSlotContext) -> SlotDecision {
        match self.start_of.get_mut(ctx.user_id) {
            Some(entry) if entry.is_some_and(|start| ctx.slot >= start) => {
                *entry = None;
                SlotDecision::Schedule
            }
            _ => SlotDecision::Idle,
        }
    }

    fn end_of_slot(&mut self, _outcome: &SlotOutcome) {}

    fn wants_replanning(&self, slot: u64) -> bool {
        self.window_slots > 0 && slot % self.window_slots == 0
    }

    fn install_plan(&mut self, plan: &[(usize, u64)]) {
        self.start_of.clear();
        // A user listed twice keeps its last start.
        for &(user_id, slot) in plan {
            self.set_start_slot(user_id, slot);
        }
    }

    fn quiescent_while_waiting(&self) -> bool {
        true
    }

    fn next_decision_slot(&self, user_id: usize, slot: u64) -> Option<u64> {
        self.planned_slot(user_id).map(|start| start.max(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use crate::online::OnlineScheduler;
    use fedco_device::apps::AppKind;
    use fedco_device::power::AppStatus;
    use fedco_device::profiles::DeviceKind;
    use fedco_fl::staleness::GradientGap;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    /// A policy that overrides no hook: what a custom policy inherits.
    #[derive(Debug)]
    struct TraitDefaults;

    impl SchedulingPolicy for TraitDefaults {
        fn decide(&mut self, _ctx: &UserSlotContext) -> SlotDecision {
            SlotDecision::Schedule
        }

        fn end_of_slot(&mut self, _outcome: &SlotOutcome) {}
    }

    fn context(user_id: usize, slot: u64, status: AppStatus) -> UserSlotContext {
        let profile = DeviceKind::Pixel2.profile();
        UserSlotContext {
            user_id,
            slot,
            input: OnlineDecisionInput::from_profile(
                &profile,
                status,
                GradientGap(1.0),
                GradientGap(0.5),
            ),
        }
    }

    fn ctx(user_id: usize, slot: u64) -> UserSlotContext {
        context(user_id, slot, AppStatus::App(AppKind::Map))
    }

    fn idle_ctx(user_id: usize, slot: u64) -> UserSlotContext {
        context(user_id, slot, AppStatus::NoApp)
    }

    #[test]
    fn immediate_always_schedules() {
        let mut p = ImmediatePolicy;
        assert_eq!(p.decide(&ctx(0, 0)), SlotDecision::Schedule);
        p.end_of_slot(&SlotOutcome::default());
        assert_eq!(p.queue_backlog(), 0.0);
        assert_eq!(p.virtual_backlog(), 0.0);
        // Capability defaults: no barrier, no replanning, free decisions.
        assert!(!p.round_barrier());
        assert!(!p.wants_replanning(0));
        assert_eq!(p.decision_energy_overhead(), 0.0);
        p.install_plan(&[]);
    }

    #[test]
    fn sync_policy_schedules_like_immediate_but_requests_barrier() {
        let mut p = SyncSgdPolicy;
        assert_eq!(p.decide(&ctx(1, 5)), SlotDecision::Schedule);
        assert!(p.round_barrier());
        assert!(!p.wants_replanning(0));
        p.end_of_slot(&SlotOutcome::default());
    }

    #[test]
    fn offline_policy_follows_plan() {
        let mut p = OfflinePolicy::default();
        // No plan: wait.
        assert_eq!(p.decide(&ctx(4, 10)), SlotDecision::Idle);
        p.set_start_slot(4, 20);
        assert_eq!(p.planned_slot(4), Some(20));
        assert_eq!(p.decide(&ctx(4, 10)), SlotDecision::Idle);
        assert_eq!(p.clone().decide(&ctx(4, 20)), SlotDecision::Schedule);
        assert_eq!(p.decide(&ctx(4, 30)), SlotDecision::Schedule);
        // Scheduling spent the entry.
        assert_eq!(p.decide(&ctx(4, 30)), SlotDecision::Idle);
        p.set_start_slot(5, 1);
        p.install_plan(&[]);
        assert_eq!(p.decide(&ctx(5, 1)), SlotDecision::Idle);
        p.end_of_slot(&SlotOutcome::default());
    }

    #[test]
    fn offline_policy_replanning_window() {
        let p = OfflinePolicy::with_window(500);
        assert!(p.wants_replanning(0));
        assert!(!p.wants_replanning(1));
        assert!(!p.wants_replanning(499));
        assert!(p.wants_replanning(500));
        assert!(p.wants_replanning(1000));
        // A windowless policy never asks.
        let q = OfflinePolicy::default();
        assert!(!q.wants_replanning(0));
        assert!(!q.wants_replanning(500));
    }

    #[test]
    fn offline_policy_capability_hooks_drive_the_plan() {
        let mut p = OfflinePolicy::with_window(100);
        let plan = [(2, 30), (5, 10)];
        p.install_plan(&plan);
        assert_eq!(p.planned_slot(2), Some(30));
        assert_eq!(p.planned_slot(5), Some(10));
        // Scheduling a user clears their entry.
        assert_eq!(p.decide(&ctx(5, 10)), SlotDecision::Schedule);
        assert_eq!(p.planned_slot(5), None);
        // Installing a new plan replaces the old one wholesale.
        p.install_plan(&[]);
        assert_eq!(p.decide(&ctx(2, 30)), SlotDecision::Idle);
    }

    /// The engine tells the policy nothing after a `Schedule`: an installed
    /// entry is spent by the `decide` that schedules it, and by no other —
    /// not by an `Idle` before its start, not by another user's.
    #[test]
    fn an_installed_plan_entry_is_spent_by_the_decide_that_schedules_it() {
        let mut p = OfflinePolicy::with_window(100);
        p.install_plan(&[(3, 40), (8, 0)]);
        for slot in [0, 20, 39] {
            assert_eq!(p.decide(&idle_ctx(3, slot)), SlotDecision::Idle);
        }
        assert_eq!(p.planned_slot(3), Some(40));
        assert_eq!(p.decide(&ctx(3, 41)), SlotDecision::Schedule);
        assert_eq!(p.planned_slot(3), None);
        assert_eq!(p.next_decision_slot(3, 41), None);
        assert_eq!(p.decide(&ctx(3, 41)), SlotDecision::Idle);
        assert_eq!(p.planned_slot(8), Some(0), "another user's entry stays");
        assert_eq!(p.decide(&idle_ctx(8, 41)), SlotDecision::Schedule);
        assert_eq!(p.decide(&idle_ctx(8, 42)), SlotDecision::Idle);
    }

    #[test]
    fn online_policy_delegates_to_scheduler() {
        let mut online = OnlineScheduler::new(SchedulerConfig::default());
        let p: &mut dyn SchedulingPolicy = &mut online;
        // Empty queues: waits.
        assert_eq!(p.decide(&ctx(0, 0)), SlotDecision::Idle);
        p.end_of_slot(&SlotOutcome {
            arrivals: 5,
            scheduled: 0,
            gap_sum: 2000.0,
        });
        assert_eq!(p.queue_backlog(), 5.0);
        assert!(p.virtual_backlog() > 0.0);
        // The controller pays full decision-computation overhead.
        assert_eq!(p.decision_energy_overhead(), 1.0);
        assert!(!p.round_barrier());
        // The trait's answers are the scheduler's own.
        assert_eq!(online.queue_backlog(), 5.0);
        assert_eq!(online.decide(&ctx(0, 0).input), SlotDecision::Idle);
    }

    /// Online answers for a class only while `H(t) = 0` and both gaps are
    /// finite, and then as `decide` does whatever the gaps; the other
    /// built-ins never answer.
    #[test]
    fn class_decision_is_decide_while_the_virtual_queue_is_empty() {
        let mut online = OnlineScheduler::new(SchedulerConfig::default().with_v(1.0));
        let p: &mut dyn SchedulingPolicy = &mut online;
        let with_gaps = |mut c: UserSlotContext, schedule: f64, idle: f64| {
            c.input.predicted_gap_if_schedule = GradientGap(schedule);
            c.input.accumulated_gap_if_idle = GradientGap(idle);
            c
        };
        for q in [0, 1, 3] {
            p.end_of_slot(&SlotOutcome {
                arrivals: q,
                scheduled: 0,
                gap_sum: 0.0,
            });
            for c in [ctx(0, 0), idle_ctx(1, 0)] {
                let answer = p.class_decision(&c.input);
                assert_eq!(answer, Some(p.decide(&c)), "Q = {}", p.queue_backlog());
                for (schedule, idle) in [(0.0, 0.0), (1e9, 0.0), (0.0, 1e300)] {
                    assert_eq!(p.decide(&with_gaps(c, schedule, idle)), answer.unwrap());
                }
                assert_eq!(
                    p.class_decision(&with_gaps(c, f64::INFINITY, 0.5).input),
                    None
                );
                assert_eq!(p.class_decision(&with_gaps(c, 1.0, f64::NAN).input), None);
            }
        }
        p.end_of_slot(&SlotOutcome {
            arrivals: 0,
            scheduled: 0,
            gap_sum: 2000.0,
        });
        assert_eq!(p.class_decision(&ctx(0, 0).input), None, "H > 0");
        let mut others: Vec<Box<dyn SchedulingPolicy>> = vec![
            Box::new(ImmediatePolicy),
            Box::new(SyncSgdPolicy),
            Box::new(OfflinePolicy::default()),
            Box::new(TraitDefaults),
        ];
        for other in &mut others {
            assert_eq!(other.class_decision(&ctx(0, 0).input), None, "{other:?}");
        }
    }

    #[test]
    fn only_queueless_policies_certify_quiescence() {
        // The certificate lets the slot loop drop the per-slot gap fold, so
        // it is exactly the policies whose `end_of_slot` does nothing.
        assert!(ImmediatePolicy.quiescent_while_waiting());
        assert!(SyncSgdPolicy.quiescent_while_waiting());
        assert!(OfflinePolicy::with_window(500).quiescent_while_waiting());
        assert!(!OnlineScheduler::new(SchedulerConfig::default()).quiescent_while_waiting());
        // The conservative default, which custom policies inherit.
        assert!(!TraitDefaults.quiescent_while_waiting());
    }

    #[test]
    fn offline_plan_survives_replans_clears_and_duplicates() {
        let mut p = OfflinePolicy::default();
        p.set_start_slot(2, 50);
        p.set_start_slot(2, 20); // re-planned: the later call wins
        p.set_start_slot(7, 30);
        assert_eq!(p.planned_slot(2), Some(20));
        // Scheduling clears an entry; deciding a user without one, or one
        // past the end of the plan, changes nothing.
        assert_eq!(p.decide(&ctx(2, 20)), SlotDecision::Schedule);
        assert_eq!(p.decide(&ctx(2, 20)), SlotDecision::Idle);
        assert_eq!(p.decide(&ctx(99, 20)), SlotDecision::Idle);
        assert_eq!(p.decide(&ctx(2, 60)), SlotDecision::Idle);
        assert_eq!(p.planned_slot(7), Some(30));
        assert_eq!(p.clone().decide(&ctx(7, 30)), SlotDecision::Schedule);
        // An installed plan replaces everything; a user listed twice keeps
        // its last start.
        let plan = [(1, 40), (1, 10), (0, 25)];
        p.install_plan(&plan);
        assert_eq!(p.decide(&ctx(7, 30)), SlotDecision::Idle);
        assert_eq!(p.planned_slot(7), None);
        assert_eq!(p.planned_slot(1), Some(10));
        assert_eq!(p.decide(&ctx(1, 10)), SlotDecision::Schedule);
        assert_eq!(p.decide(&ctx(0, 24)), SlotDecision::Idle);
        assert_eq!(p.decide(&ctx(0, 25)), SlotDecision::Schedule);
    }

    #[test]
    fn next_decision_slot_is_where_offline_first_schedules() {
        // Seeded plans over one window, with starts before and after every
        // slot asked from, and users without an entry: from every slot, the
        // hook names the first slot `decide` schedules at — `Idle` before it
        // with or without an application — and `None` exactly when it
        // schedules nowhere in the window. Each slot is decided on a copy of
        // the installed plan, as the first decision of the user there.
        const WINDOW: u64 = 64;
        let mut rng = SmallRng::seed_from_u64(0x51ee9);
        for _ in 0..20 {
            let mut p = OfflinePolicy::with_window(WINDOW);
            let mut plan = Vec::new();
            for user in 0..12 {
                if rng.gen_bool(0.75) {
                    plan.push((user, rng.gen_range(0..WINDOW)));
                }
            }
            p.install_plan(&plan);
            for user in 0..12 {
                for context in [ctx, idle_ctx] {
                    let decisions: Vec<SlotDecision> = (0..WINDOW)
                        .map(|s| p.clone().decide(&context(user, s)))
                        .collect();
                    for slot in 0..WINDOW {
                        let first = (slot..WINDOW)
                            .find(|&s| decisions[s as usize] == SlotDecision::Schedule);
                        assert_eq!(
                            p.next_decision_slot(user, slot),
                            first,
                            "user {user} from slot {slot}: {plan:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_decision_slot_of_every_other_registry_policy_is_the_current_slot() {
        use crate::spec::PolicySpec;
        let config = SchedulerConfig::default();
        for spec in PolicySpec::PAPER {
            if spec == PolicySpec::Offline {
                continue;
            }
            let policy = spec.build(&config);
            for (user, slot) in [(0, 0), (3, 17), (99, 10_799)] {
                assert_eq!(policy.next_decision_slot(user, slot), Some(slot), "{spec}");
            }
        }
    }
}
