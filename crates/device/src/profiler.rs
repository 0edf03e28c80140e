//! Energy profiler: integrates the power model over a recorded schedule.
//!
//! This replaces the Trepn / Snapdragon Profiler / Monsoon power monitor used
//! on the paper's testbed: the simulator records which power state a device
//! occupied in each interval, and the profiler integrates power over time,
//! keeping a per-state breakdown so figures like Fig. 1 (separate vs
//! co-running energy) can be reproduced.

use crate::energy::{repeated_add, repeated_add_pairs, Joules, Seconds};
use crate::power::{PowerModel, PowerState};

/// A label used in energy breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EnergyComponent {
    /// Energy spent co-running training with an application.
    CoRunning,
    /// Energy spent training alone in the background.
    TrainingOnly,
    /// Energy spent running applications without training.
    AppOnly,
    /// Energy spent idling.
    Idle,
    /// Radio energy of model uploads/downloads (recorded as extras by the
    /// simulator when a transport model is configured).
    Radio,
}

impl EnergyComponent {
    /// Every component, in enum (= breakdown) order.
    pub const ALL: [EnergyComponent; 5] = [
        EnergyComponent::CoRunning,
        EnergyComponent::TrainingOnly,
        EnergyComponent::AppOnly,
        EnergyComponent::Idle,
        EnergyComponent::Radio,
    ];

    fn of(state: PowerState) -> Self {
        match state {
            PowerState::CoRunning(_) => EnergyComponent::CoRunning,
            PowerState::TrainingOnly => EnergyComponent::TrainingOnly,
            PowerState::AppOnly(_) => EnergyComponent::AppOnly,
            PowerState::Idle => EnergyComponent::Idle,
        }
    }

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EnergyComponent::CoRunning => "co-running",
            EnergyComponent::TrainingOnly => "training",
            EnergyComponent::AppOnly => "app",
            EnergyComponent::Idle => "idle",
            EnergyComponent::Radio => "radio",
        }
    }
}

/// Accumulates the energy of a single device: a total and a per-component
/// breakdown, in constant memory whatever the horizon.
#[derive(Debug, Clone)]
pub struct EnergyProfiler {
    model: PowerModel,
    total: Joules,
    /// Energy per component, indexed by `EnergyComponent as usize`.
    by_component: [Joules; EnergyComponent::ALL.len()],
    /// Bit `c as usize` is set once anything was recorded under component
    /// `c`: the breakdown lists touched components only, even at zero energy.
    touched: u8,
}

impl EnergyProfiler {
    /// Creates an empty profiler bound to a device power model.
    pub fn lean(model: PowerModel) -> Self {
        EnergyProfiler {
            model,
            total: Joules::ZERO,
            by_component: [Joules::ZERO; EnergyComponent::ALL.len()],
            touched: 0,
        }
    }

    /// The accumulator of `component`, marked as touched.
    fn component_mut(&mut self, component: EnergyComponent) -> &mut Joules {
        self.touched |= 1 << component as usize;
        &mut self.by_component[component as usize]
    }

    /// The underlying power model.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Records a power state held for `duration` and returns the energy it
    /// consumed.
    pub fn record(&mut self, state: PowerState, duration: Seconds) -> Joules {
        let energy = self.model.slot_energy(state, duration);
        self.total += energy;
        *self.component_mut(EnergyComponent::of(state)) += energy;
        energy
    }

    /// Records `slots` consecutive slots of `slot` duration spent in one
    /// power state. Total and per-component energy end on the bits `slots`
    /// calls of [`record`](EnergyProfiler::record) would leave — repeated
    /// addition, in closed form ([`repeated_add`]), never one
    /// `slots × energy` multiply, which would round differently — so an
    /// engine that batches a user's unchanged power state into one span
    /// reproduces per-slot recording's energy exactly.
    ///
    /// Returns the total energy recorded so far (the span's own energy is
    /// not tallied: a third sum from zero would cost a jump per binade).
    pub fn record_span(&mut self, state: PowerState, slot: Seconds, slots: u64) -> Joules {
        self.record_decided_span(state, slot, slots, None)
    }

    /// [`record_span`](EnergyProfiler::record_span) for a device that was
    /// also charged `overhead` under [`EnergyComponent::Idle`] at the start
    /// of every slot of the span: the bits of `slots` turns of
    /// [`record_extra`](EnergyProfiler::record_extra)`(Idle, overhead)` then
    /// [`record`](EnergyProfiler::record), in closed form
    /// ([`repeated_add_pairs`] where the two land on one accumulator).
    /// `None` is a span without charges.
    pub fn record_decided_span(
        &mut self,
        state: PowerState,
        slot: Seconds,
        slots: u64,
        overhead: Option<Joules>,
    ) -> Joules {
        if slots == 0 {
            return self.total;
        }
        let energy = self.model.slot_energy(state, slot).value();
        let component = EnergyComponent::of(state);
        // `−0.0` is the identity of IEEE addition: no charge.
        let charge = overhead.map_or(-0.0, Joules::value);
        self.total = Joules(repeated_add_pairs(
            self.total.value(),
            charge,
            energy,
            slots,
        ));
        if overhead.is_some() && component != EnergyComponent::Idle {
            let idle = self.component_mut(EnergyComponent::Idle);
            *idle = Joules(repeated_add(idle.value(), charge, slots));
        }
        let own_charge = if component == EnergyComponent::Idle {
            charge
        } else {
            -0.0
        };
        let own = self.component_mut(component);
        *own = Joules(repeated_add_pairs(own.value(), own_charge, energy, slots));
        self.total
    }

    /// Records an extra, explicitly-computed energy amount (e.g. the online
    /// controller's decision overhead) under a component label.
    pub fn record_extra(&mut self, component: EnergyComponent, energy: Joules) {
        self.total += energy;
        *self.component_mut(component) += energy;
    }

    /// Total energy recorded so far.
    pub fn total_energy(&self) -> Joules {
        self.total
    }

    /// The touched components and their energy, in component order, without
    /// allocating (what a per-sample fold over many profilers iterates).
    pub fn components(&self) -> impl Iterator<Item = (EnergyComponent, Joules)> + '_ {
        EnergyComponent::ALL
            .into_iter()
            .filter(|&c| self.touched & (1 << c as usize) != 0)
            .map(|c| (c, self.by_component[c as usize]))
    }

    /// The full per-component breakdown, sorted by component.
    pub fn breakdown(&self) -> Vec<(EnergyComponent, Joules)> {
        self.components().collect()
    }
}

/// Compares the energy of the two schedules of the motivating experiment
/// (Fig. 1): running training and an application separately (back to back)
/// versus co-running them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleComparison {
    /// Energy of executing the training task alone (`P_b · t_b`).
    pub training_separate: Joules,
    /// Energy of executing the application alone (`P_a · t_a`).
    pub app_separate: Joules,
    /// Energy of co-running both (`P_a' · t_a`).
    pub corun: Joules,
}

impl ScheduleComparison {
    /// Computes the comparison for one device and application using the
    /// Table II calibration.
    pub fn compute(model: &PowerModel, app: crate::apps::AppKind) -> Self {
        let profile = model.profile();
        let t_train = profile.training_time();
        let t_corun = profile.corun_time(app);
        ScheduleComparison {
            training_separate: profile.training_power() * t_train,
            app_separate: profile.app_power(app) * t_corun,
            corun: profile.corun_power(app) * t_corun,
        }
    }

    /// Total energy of the separate schedule.
    pub fn separate_total(&self) -> Joules {
        self.training_separate + self.app_separate
    }

    /// Fraction of energy saved by co-running (the Table II "saving" column).
    pub fn saving_fraction(&self) -> f64 {
        let sep = self.separate_total().value();
        if sep <= 0.0 {
            return 0.0;
        }
        1.0 - self.corun.value() / sep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppKind;
    use crate::profiles::DeviceKind;

    fn profiler() -> EnergyProfiler {
        EnergyProfiler::lean(PowerModel::new(DeviceKind::Pixel2.profile()))
    }

    /// The energy `components()` lists for `component` (`None` untouched).
    fn energy_of(p: &EnergyProfiler, component: EnergyComponent) -> Option<Joules> {
        p.components()
            .find(|&(c, _)| c == component)
            .map(|(_, energy)| energy)
    }

    #[test]
    fn records_accumulate_energy() {
        let mut p = profiler();
        let e1 = p.record(PowerState::TrainingOnly, Seconds(10.0));
        assert!((e1.value() - 13.5).abs() < 1e-9);
        p.record(PowerState::Idle, Seconds(10.0));
        assert!((p.total_energy().value() - (13.5 + 6.89)).abs() < 1e-9);
        assert_eq!(p.model().profile().kind, DeviceKind::Pixel2);
    }

    #[test]
    fn breakdown_by_component() {
        let mut p = profiler();
        p.record(PowerState::CoRunning(AppKind::Map), Seconds(5.0));
        p.record(PowerState::AppOnly(AppKind::Map), Seconds(5.0));
        p.record(PowerState::TrainingOnly, Seconds(5.0));
        p.record(PowerState::Idle, Seconds(5.0));
        assert_eq!(p.breakdown().len(), 4);
        let corun = energy_of(&p, EnergyComponent::CoRunning).expect("co-running recorded");
        let idle = energy_of(&p, EnergyComponent::Idle).expect("idle recorded");
        assert!(corun.value() > 0.0);
        assert!(corun.value() > idle.value());
        assert_eq!(EnergyComponent::CoRunning.label(), "co-running");
    }

    #[test]
    fn breakdown_lists_touched_components_only_in_enum_order() {
        for (i, c) in EnergyComponent::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "ALL must follow the enum order");
        }
        let mut p = profiler();
        assert!(p.breakdown().is_empty());
        // Recorded out of enum order, one of them at zero energy: a touched
        // component is listed even when it holds nothing.
        p.record_extra(EnergyComponent::Radio, Joules::ZERO);
        p.record_span(PowerState::Idle, Seconds(1.0), 3);
        p.record(PowerState::CoRunning(AppKind::Map), Seconds(1.0));
        let listed: Vec<EnergyComponent> = p.breakdown().into_iter().map(|(c, _)| c).collect();
        assert_eq!(
            listed,
            [
                EnergyComponent::CoRunning,
                EnergyComponent::Idle,
                EnergyComponent::Radio
            ]
        );
        assert_eq!(energy_of(&p, EnergyComponent::Radio), Some(Joules::ZERO));
        assert_eq!(energy_of(&p, EnergyComponent::AppOnly), None);
        // A zero-slot span touches nothing.
        p.record_span(PowerState::TrainingOnly, Seconds(1.0), 0);
        assert_eq!(p.breakdown().len(), 3);
    }

    /// The total and every touched component, as bits.
    fn energy_bits(p: &EnergyProfiler) -> Vec<(Option<EnergyComponent>, u64)> {
        let total = (None, p.total_energy().value().to_bits());
        let parts = p.components().map(|(c, e)| (Some(c), e.value().to_bits()));
        std::iter::once(total).chain(parts).collect()
    }

    /// `record_span` against `slots` calls of `record` (what the engine's
    /// scan reference runs), from a fresh profiler and from one already
    /// holding ~1e9 J, at slot lengths whose per-slot energies are not
    /// representable: repeated addition and `slots × e` differ there.
    #[test]
    fn reference_bits_record_span_equals_repeated_records() {
        let states = [
            PowerState::Idle,
            PowerState::TrainingOnly,
            PowerState::CoRunning(AppKind::Youtube),
            PowerState::Idle,
        ];
        for slot in [1.0, 0.1, 1.0 / 3.0] {
            for preload in [0.0, 1.0e9 + 0.377] {
                for slots in [0u64, 1, 3, 977, 10_800, 100_000] {
                    let mut dense =
                        EnergyProfiler::lean(PowerModel::new(DeviceKind::Pixel2.profile()));
                    dense.record_extra(EnergyComponent::Idle, Joules(preload));
                    let mut span = dense.clone();
                    for state in states {
                        for _ in 0..slots {
                            dense.record(state, Seconds(slot));
                        }
                        let total = span.record_span(state, Seconds(slot), slots);
                        assert_eq!(total, span.total_energy());
                    }
                    let at = format!("slot {slot}, {preload} J before, {slots} slots");
                    assert_eq!(energy_bits(&span), energy_bits(&dense), "{at}");
                }
            }
        }
    }

    /// `record_decided_span` against slot-by-slot `record_extra(Idle, …)`
    /// and `record` — what a waiting device that is decided every slot
    /// receives — on the total and every component, in the idle state
    /// (both amounts on one accumulator), in an app's (on two), at a zero
    /// charge and without charges, from an empty and a loaded profiler.
    #[test]
    fn reference_bits_decided_span_equals_charges_then_records() {
        let states = [
            PowerState::Idle,
            PowerState::AppOnly(AppKind::Map),
            PowerState::Idle,
            PowerState::TrainingOnly,
        ];
        for charge in [0.0, 0.037_9, 1.0 / 3.0] {
            for preload in [0.0, 1.0e9 + 0.377] {
                for slots in [0u64, 1, 3, 977, 10_800, 100_000] {
                    let mut dense =
                        EnergyProfiler::lean(PowerModel::new(DeviceKind::Pixel2.profile()));
                    dense.record_extra(EnergyComponent::AppOnly, Joules(preload));
                    let mut span = dense.clone();
                    for (k, state) in states.into_iter().enumerate() {
                        let overhead = (k != 3).then_some(Joules(charge));
                        for _ in 0..slots {
                            if let Some(extra) = overhead {
                                dense.record_extra(EnergyComponent::Idle, extra);
                            }
                            dense.record(state, Seconds(0.1));
                        }
                        span.record_decided_span(state, Seconds(0.1), slots, overhead);
                    }
                    let at = format!("charge {charge}, {preload} J before, {slots} slots");
                    assert_eq!(energy_bits(&span), energy_bits(&dense), "{at}");
                }
            }
        }
    }

    /// Every energy is a power times a time, summed: on a test-built
    /// profile with every power ×2ᵏ (k ∈ −4..4), each energy `record`,
    /// `record_span` and `record_decided_span` return, and the total and
    /// every component they leave, is exactly ×2ᵏ — scaling by a power of
    /// two commutes with every rounding. The decision charge is built as the
    /// engine builds it, from the profile's decision and idle powers.
    #[test]
    fn energies_scale_exactly_with_every_power() {
        let states = [
            PowerState::Idle,
            PowerState::TrainingOnly,
            PowerState::CoRunning(AppKind::Youtube),
            PowerState::AppOnly(AppKind::Map),
            PowerState::CoRunning(AppKind::CandyCrush),
        ];
        let charge = |p: &EnergyProfiler, slot: f64| {
            let profile = p.model().profile();
            Joules(0.5 * (profile.decision_power_w - profile.idle_power_w) * slot)
        };
        for kind in DeviceKind::ALL {
            for k in -4..=4 {
                let scale = 2f64.powi(k);
                let mut base = EnergyProfiler::lean(PowerModel::new(kind.profile()));
                let scaled_profile = kind.profile().with_powers_scaled(scale);
                let mut scaled = EnergyProfiler::lean(PowerModel::new(scaled_profile));
                let at = |what: &str| format!("{kind:?}, k = {k}: {what}");
                let same = |a: Joules, b: Joules, what: &str| {
                    assert_eq!(
                        (a.value() * scale).to_bits(),
                        b.value().to_bits(),
                        "{}",
                        at(what)
                    );
                };
                for state in states {
                    for slot in [1.0, 0.1, 1.0 / 3.0] {
                        let slot_s = Seconds(slot);
                        same(
                            base.record(state, slot_s),
                            scaled.record(state, slot_s),
                            "record",
                        );
                        for slots in [1, 3, 977, 10_800] {
                            let (a, b) = (
                                base.record_span(state, slot_s, slots),
                                scaled.record_span(state, slot_s, slots),
                            );
                            same(a, b, "record_span");
                            let (ca, cb) = (Some(charge(&base, slot)), Some(charge(&scaled, slot)));
                            let (a, b) = (
                                base.record_decided_span(state, slot_s, slots, ca),
                                scaled.record_decided_span(state, slot_s, slots, cb),
                            );
                            same(a, b, "record_decided_span");
                        }
                    }
                }
                same(base.total_energy(), scaled.total_energy(), "total");
                let (parts, scaled_parts) = (base.breakdown(), scaled.breakdown());
                assert_eq!(parts.len(), scaled_parts.len(), "{}", at("components"));
                for ((c, a), (d, b)) in parts.into_iter().zip(scaled_parts) {
                    assert_eq!(c, d, "{}", at("components"));
                    same(a, b, c.label());
                }
            }
        }
    }

    #[test]
    fn zero_length_spans_record_nothing() {
        let mut p = profiler();
        p.record_span(PowerState::TrainingOnly, Seconds(2.0), 5);
        let before = p.total_energy();
        assert_eq!(p.record_span(PowerState::Idle, Seconds(1.0), 0), before);
        assert_eq!(p.total_energy(), before);
        assert_eq!(p.breakdown().len(), 1);
    }

    #[test]
    fn record_extra_adds_overhead() {
        let mut p = profiler();
        p.record_extra(EnergyComponent::Radio, Joules(1.5));
        assert_eq!(p.total_energy(), Joules(1.5));
        assert_eq!(p.breakdown(), [(EnergyComponent::Radio, Joules(1.5))]);
        assert_eq!(EnergyComponent::Radio.label(), "radio");
    }

    #[test]
    fn schedule_comparison_matches_table_ii_saving() {
        let model = PowerModel::new(DeviceKind::Pixel2.profile());
        let cmp = ScheduleComparison::compute(&model, AppKind::Map);
        assert!((cmp.saving_fraction() - 0.30).abs() < 0.03);
        assert!(cmp.corun.value() < cmp.separate_total().value());
        // Fig. 1 shape: co-running bar is below the stacked separate bars.
        let hikey = PowerModel::new(DeviceKind::Hikey970.profile());
        for app in AppKind::ALL {
            let c = ScheduleComparison::compute(&hikey, app);
            assert!(c.corun.value() < c.separate_total().value(), "{app:?}");
        }
    }

    #[test]
    fn nexus6_candycrush_surges() {
        let model = PowerModel::new(DeviceKind::Nexus6.profile());
        let cmp = ScheduleComparison::compute(&model, AppKind::CandyCrush);
        assert!(cmp.saving_fraction() < 0.0);
    }
}
