//! One function per table and figure of the paper's evaluation.
//!
//! Each function returns the plain data of its artefact — the
//! [`ScheduleComparison`]s of its rows, the FPS traces, the [`SimResult`]s
//! of its runs — and the returned value's `Display` is the text its binary
//! prints, laid out as a template of that text. `tests/paper_claims.rs`
//! asserts on the same values, so a figure and its claim can never describe
//! two different runs.
//!
//! Every simulated run is a [`ScenarioSpec`] string crossed with a policy:
//! Fig. 4 runs `paper-default:slots=3600` and
//! `paper-default:slots=3600:v={v}:lb={lb}`, Fig. 5 [`FIG5_SCENARIO`],
//! Fig. 6 `paper-default:slots=3600:arrival_p={p}` and, for its accuracy
//! panel, `paper-default:slots=3600:arrival_p={p}:users=10:ml=full`.

use std::error::Error;
use std::fmt;

use fedco_core::prelude::*;
use fedco_device::prelude::*;
use fedco_sim::prelude::*;

/// What a figure function returns when one of its scenario strings does not
/// parse or build.
pub type FigureResult<T> = Result<T, Box<dyn Error>>;

/// A scenario string run under each of `policies`, in order. The policies
/// are built-ins without parameters, so building the scenario with its
/// default policy validates every run.
fn runs<const N: usize>(scenario: &str, policies: [PolicySpec; N]) -> FigureResult<[SimResult; N]> {
    let config = scenario.parse::<ScenarioSpec>()?.build()?;
    Ok(policies.map(|policy| run_simulation(config.clone().with_policy(policy))))
}

/// The text `piece` makes of each item, concatenated.
fn text<T>(items: impl IntoIterator<Item = T>, piece: impl FnMut(T) -> String) -> String {
    items.into_iter().map(piece).collect()
}

/// The schedule comparison of every application, in [`AppKind::ALL`]
/// order, on one device: a panel of Fig. 1, a block of Table II.
pub type DeviceComparisons = (DeviceKind, Vec<(AppKind, ScheduleComparison)>);

fn comparisons(devices: &[DeviceKind]) -> Vec<DeviceComparisons> {
    let device = |&kind: &DeviceKind| {
        let model = PowerModel::new(kind.profile());
        let apps = AppKind::ALL.map(|app| (app, ScheduleComparison::compute(&model, app)));
        (kind, apps.to_vec())
    };
    devices.iter().map(device).collect()
}

/// Fig. 1: a panel per device.
#[derive(Debug, Clone)]
pub struct Fig1(pub Vec<DeviceComparisons>);

/// Fig. 1 — the energy of separate-training, separate-app and co-running
/// schedules for the eight applications on Pixel 2 and on HiKey 970.
pub fn fig1() -> Fig1 {
    Fig1(comparisons(&[DeviceKind::Pixel2, DeviceKind::Hikey970]))
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let panels = text(&self.0, |(device, apps)| {
            let rows = text(apps, |(app, c)| {
                let [training, app_alone, separate, corun] = [
                    c.training_separate,
                    c.app_separate,
                    c.separate_total(),
                    c.corun,
                ]
                .map(|j| j.value());
                let saving = c.saving_fraction() * 100.0;
                format!("| {app} | {training:.0} | {app_alone:.0} | {separate:.0} | {corun:.0} | {saving:.0}% |\n")
            });
            format!(
                "## Fig. 1 — Energy of schedules on {device} (J)\n\n\
                 | app | training (separate) | app (separate) | separate total | co-running | saving |\n\
                 |---|---|---|---|---|---|\n{rows}\n"
            )
        });
        write!(
            f,
            "Reproduction of Fig. 1: energy of separate vs co-running schedules.\n\n{panels}\
             Paper reference: co-running gives the system a 35-50% energy discount on\n\
             Pixel2/HiKey970 across the eight applications (Observation 1).\n"
        )
    }
}

/// One application's FPS trace alone and co-running (a panel of Fig. 2).
#[derive(Debug, Clone)]
pub struct FpsRun {
    /// The foreground application.
    pub app: AppKind,
    /// One sample per second, running alone.
    pub alone: Vec<FpsSample>,
    /// One sample per second, co-running with training.
    pub corun: Vec<FpsSample>,
}

impl FpsRun {
    /// The co-running slowdown of the mean FPS, as a fraction of the mean
    /// alone (negative: co-running rendered more frames).
    pub fn slowdown(&self) -> f64 {
        let alone = FpsModel::mean_fps(&self.alone);
        (alone - FpsModel::mean_fps(&self.corun)) / alone
    }
}

/// Fig. 2: Angry Birds over 250 s, then TikTok over 200 s.
#[derive(Debug, Clone)]
pub struct Fig2(pub Vec<FpsRun>);

/// Fig. 2 — the FPS of Angry Birds and TikTok when running alone versus
/// co-running with the background training task (seed 42).
pub fn fig2() -> Fig2 {
    let run = |app, duration| {
        let mut model = FpsModel::new(app, 42);
        let alone = model.trace(duration, false);
        let corun = model.trace(duration, true);
        FpsRun { app, alone, corun }
    };
    Fig2(vec![
        run(AppKind::Angrybird, 250),
        run(AppKind::Tiktok, 200),
    ])
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = |trace: &[FpsSample]| {
            let (fps, mean) = (|| trace.iter().map(|s| s.fps), FpsModel::mean_fps(trace));
            let (min, max) = (
                fps().fold(f64::INFINITY, f64::min),
                fps().fold(0.0, f64::max),
            );
            format!("mean {mean:6.1} FPS   min {min:5.1}   max {max:5.1}")
        };
        let panels = text(&self.0, |run| {
            let (app, duration) = (run.app.name(), run.alone.len());
            let (target, alone, corun) =
                (run.app.target_fps(), stats(&run.alone), stats(&run.corun));
            let slowdown = run.slowdown() * 100.0;
            // A coarse series, so the trace shape is visible.
            let series = text((0..duration).step_by(25), |i| {
                format!(
                    "  {i:>4}   {:>5.1}  {:>5.1}\n",
                    run.alone[i].fps, run.corun[i].fps
                )
            });
            format!(
                "{app} ({duration} s trace, target {target} FPS)\n  \
                 running alone : {alone}\n  \
                 co-running    : {corun}\n  \
                 perceived slowdown of the mean: {slowdown:.1}%\n\n  \
                 t(s)   alone  corun\n{series}\n"
            )
        });
        write!(
            f,
            "Reproduction of Fig. 2: foreground FPS with and without co-running.\n\n{panels}\
             Paper reference (Observation 3): average FPS stays steady around 60 and 30\n\
             frames/s respectively; co-running has no noticeable impact on the foreground app.\n"
        )
    }
}

/// The `V` ladder of Fig. 4.
pub const FIG4_V: [f64; 7] = [0.0, 1000.0, 2000.0, 4000.0, 10_000.0, 40_000.0, 100_000.0];

/// The staleness budgets `L_b` of Fig. 4.
pub const FIG4_LB: [f64; 3] = [100.0, 500.0, 1000.0];

/// Fig. 4: the three baselines and the Online ladder.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// `paper-default:slots=3600` under Immediate, Sync-SGD and Offline
    /// (the first three of [`PolicySpec::PAPER`]).
    pub baselines: [SimResult; 3],
    /// `(L_b, V, result)` of `paper-default:slots=3600:v={V}:lb={L_b}`
    /// under Online, for [`FIG4_V`] at each of [`FIG4_LB`], `L_b` major.
    pub ladder: Vec<(f64, f64, SimResult)>,
}

/// Fig. 4 — the energy–staleness trade-off of the online controller (energy
/// only, 25 users, one simulated hour): (a) energy vs `V` at each `L_b`
/// against the Immediate, Sync-SGD and Offline baselines; (b) `Q(t)` vs `V`;
/// (c) `H(t)` vs `V`; (d) the energy-vs-staleness frontier.
pub fn fig4() -> FigureResult<Fig4> {
    let mut ladder = Vec::new();
    for lb in FIG4_LB {
        for v in FIG4_V {
            let scenario = format!("paper-default:slots=3600:v={v}:lb={lb}");
            let [online] = runs(&scenario, [PolicySpec::Online { v: None }])?;
            ladder.push((lb, v, online));
        }
    }
    let [immediate, sync, offline, _] = PolicySpec::PAPER;
    let baselines = runs("paper-default:slots=3600", [immediate, sync, offline])?;
    Ok(Fig4 { baselines, ladder })
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let baselines = text(&self.baselines, |r| format!("  {}\n", summarize(r)));
        // Fig. 4(a)(b)(c): the V ladder at each staleness bound.
        let ladder = text(self.ladder.chunks(FIG4_V.len()), |rung| {
            let rows = text(rung, |(lb, v, r)| {
                let (e, q, h, n) = (
                    r.total_energy_kj(),
                    r.mean_queue,
                    r.mean_virtual_queue,
                    r.total_updates,
                );
                format!("{lb:>8.0} {v:>8.0} | {e:>13.1} {q:>12.1} {h:>12.1} {n:>9}\n")
            });
            rows + "\n"
        });
        let frontier = text(&self.ladder, |(lb, _, r)| {
            format!(
                "{lb:>8.0} {:>14.1} {:>14.1}\n",
                r.mean_virtual_queue,
                r.total_energy_kj()
            )
        });
        // The headline ratios of Section VII-B.
        let at_1000 = self.ladder.iter().filter(|(lb, _, _)| *lb == 1000.0);
        let best = at_1000
            .map(|(_, _, r)| r.total_energy_kj())
            .fold(f64::INFINITY, f64::min);
        let [immediate, sync, offline] = &self.baselines;
        let [immediate, sync, offline] = [immediate, sync, offline].map(SimResult::total_energy_kj);
        let (vs_immediate, vs_sync) = (
            (1.0 - best / immediate) * 100.0,
            (1.0 - best / sync) * 100.0,
        );
        let factor = best / offline;
        write!(
            f,
            "Reproduction of Fig. 4 (energy-only simulation, 25 users).\n\n\
             Baselines:\n{baselines}\n     \
             L_b        V |   energy (kJ)    mean Q(t)    mean H(t)   updates\n{ladder}\
             Fig. 4(d) — energy vs staleness (virtual queue H) frontier:\n     \
             L_b    staleness H    energy (kJ)\n{frontier}\n\
             Online (best V, L_b=1000) vs Immediate: {vs_immediate:.0}% energy saving (paper: ~66%)\n\
             Online (best V, L_b=1000) vs Sync-SGD : {vs_sync:.0}% energy saving (paper: ~63%)\n\
             Online / Offline approximation factor  : {factor:.2} (paper: ~1.14)\n"
        )
    }
}

/// The run of Fig. 5: the paper's setting over its full 3-hour horizon with
/// the real LeNet workload — also the benchmark's `fig5-ml` run.
pub const FIG5_SCENARIO: &str = "paper-default:ml=full:seed=42";

/// Fig. 5: Online, Offline, Immediate and Sync-SGD (the figure's order) on
/// [`FIG5_SCENARIO`], per-user gaps recorded.
#[derive(Debug, Clone)]
pub struct Fig5(pub [SimResult; 4]);

/// Fig. 5 — convergence and gradient staleness with the real (down-scaled)
/// LeNet workload: (a) gradient-gap traces of Sync-SGD vs ASync-SGD and the
/// lag/gap correlation; (b) test-accuracy curves; (c) wall-clock time to
/// accuracy targets; (d) per-user gradient-gap variance.
pub fn fig5() -> FigureResult<Fig5> {
    let mut config = FIG5_SCENARIO.parse::<ScenarioSpec>()?.build()?;
    config.record_user_gaps = true;
    let [immediate, sync, offline, online] = PolicySpec::PAPER;
    let policies = [online, offline, immediate, sync];
    Ok(Fig5(policies.map(|policy| {
        run_simulation(config.clone().with_policy(policy))
    })))
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [online, _, immediate, sync] = &self.0;
        let summaries = text(&self.0, |r| format!("  {}\n", summarize(r)));
        // Fig. 5(a): gradient-gap trace and lag-gap correlation.
        let gaps = text(online.trace.iter().zip(&sync.trace).step_by(5), |(a, s)| {
            format!("{:>8.0} {:>14.3} {:>14.3}\n", a.t_s, a.mean_gap, s.mean_gap)
        });
        let correlation = immediate.lag_gap_correlation();
        // Fig. 5(b): accuracy curves.
        let len = self.0.iter().map(|r| r.trace.len()).min().unwrap_or(0);
        let accuracy = text((0..len).step_by(5), |i| {
            let cell = |r: &SimResult| {
                r.trace[i]
                    .accuracy
                    .map_or("-".into(), |a| format!("{:.1}%", a * 100.0))
            };
            format!(
                "{:>8.0}{}\n",
                online.trace[i].t_s,
                text(&self.0, |r| format!(" {:>10}", cell(r)))
            )
        });
        // Fig. 5(c): wall-clock time to accuracy objectives. The paper's
        // targets (40–55 %) are for full CIFAR-10; the down-scaled synthetic
        // task peaks lower, so lower targets are printed too.
        let labels = text(&self.0, |r| format!(" {:>11}", r.policy.label()));
        let targets = text([0.15f32, 0.20, 0.25, 0.40, 0.45, 0.50, 0.55], |target| {
            let cell = |r: &SimResult| {
                r.time_to_accuracy(target)
                    .map_or("never".into(), |t| format!("{t:.0}"))
            };
            format!(
                "{:>9.0}%{}\n",
                target * 100.0,
                text(&self.0, |r| format!(" {:>11}", cell(r)))
            )
        });
        // Fig. 5(d): per-user gradient-gap variance.
        let variances = text(&self.0, |r| {
            format!(
                "  {:<10} variance {:>10.3}\n",
                r.policy.label(),
                r.user_gap_variance()
            )
        });
        write!(
            f,
            "Reproduction of Fig. 5 (real LeNet training on synthetic CIFAR-like data).\n\n\
             {summaries}\n\
             Fig. 5(a) — mean gradient gap over time (Online/ASync vs Sync-SGD):\n   \
             t (s)      async gap       sync gap\n{gaps}\n\
             lag vs gradient-gap correlation across applied async updates: {correlation:.2} (paper: positive)\n\n\
             Fig. 5(b) — test accuracy over time:\n   \
             t (s)     online    offline  immediate       sync\n{accuracy}\n\
             Fig. 5(c) — wall-clock time (s) to reach accuracy objectives:\n    \
             target{labels}\n{targets}\n\
             Fig. 5(d) — per-user gradient-gap variance (staleness dispersion):\n{variances}\n\
             Paper reference: Immediate has the smallest variance, Offline the largest,\n\
             Online evolves moderately in between; Online lags Immediate's accuracy by\n\
             ~1000 s while saving ~60% energy, and Sync-SGD/Offline converge much slower.\n"
        )
    }
}

/// The arrival probabilities of Fig. 6(a).
pub const FIG6_ENERGY_P: [f64; 6] = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2];

/// The scarce arrival probabilities of Fig. 6(b).
pub const FIG6_ACCURACY_P: [f64; 3] = [1e-4, 5e-4, 1e-3];

/// Fig. 6: Online, Immediate and Offline, in that order, at each arrival
/// probability `p`.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Fig. 6(a): `paper-default:slots=3600:arrival_p={p}` at every
    /// [`FIG6_ENERGY_P`].
    pub energy: Vec<(f64, [SimResult; 3])>,
    /// Fig. 6(b): `paper-default:slots=3600:arrival_p={p}:users=10:ml=full`
    /// at every [`FIG6_ACCURACY_P`].
    pub accuracy: Vec<(f64, [SimResult; 3])>,
}

/// Fig. 6 — the impact of the application arrival rate: (a) energy of
/// Online / Immediate / Offline across arrival probabilities; (b) test
/// accuracy when arrivals are scarce, with the real ML workload on a
/// 10-device fleet so the sweep stays fast.
pub fn fig6() -> FigureResult<Fig6> {
    let rows = |ps: &[f64], keys: &str| {
        let row = |&p| {
            let [immediate, _, offline, online] = PolicySpec::PAPER;
            let scenario = format!("paper-default:slots=3600:arrival_p={p}{keys}");
            Ok((p, runs(&scenario, [online, immediate, offline])?))
        };
        ps.iter().map(row).collect::<FigureResult<_>>()
    };
    let energy = rows(&FIG6_ENERGY_P, "")?;
    let accuracy = rows(&FIG6_ACCURACY_P, ":users=10:ml=full")?;
    Ok(Fig6 { energy, accuracy })
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = "   arrival p       Online    Immediate      Offline";
        let energy = text(&self.energy, |(p, [online, immediate, offline])| {
            let [online, immediate, offline] =
                [online, immediate, offline].map(SimResult::total_energy_kj);
            format!("{p:>12.4} {online:>12.1} {immediate:>12.1} {offline:>12.1}\n")
        });
        let accuracy = text(&self.accuracy, |(p, [online, immediate, offline])| {
            let best = |r: &SimResult| 100.0 * r.best_accuracy().unwrap_or(0.0);
            let [online, immediate, offline] = [online, immediate, offline].map(best);
            format!("{p:>12.4} {online:>11.1}% {immediate:>11.1}% {offline:>11.1}%\n")
        });
        write!(
            f,
            "Reproduction of Fig. 6.\n\n\
             Fig. 6(a) — energy (kJ) vs application arrival probability:\n{header}\n{energy}\n\
             Fig. 6(b) — test accuracy with scarce application arrivals:\n{header}\n{accuracy}\n\
             Paper reference: energy rises with the arrival rate for all schemes and the\n\
             online scheme degrades into immediate scheduling at high rates; with scarce\n\
             arrivals the online scheme shows no noticeable accuracy degradation while the\n\
             offline scheme's accuracy suffers from too few updates.\n"
        )
    }
}

/// Table II: a block per device, in [`DeviceKind::ALL`] order.
#[derive(Debug, Clone)]
pub struct Table2(pub Vec<DeviceComparisons>);

/// Table II — app-only power, co-running power, co-run execution time and
/// the energy-saving percentage of every (device, application) pair, plus
/// the training-only row.
pub fn table2() -> Table2 {
    Table2(comparisons(&DeviceKind::ALL))
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let blocks = text(&self.0, |(device, apps)| {
            let p = device.profile();
            let (power, time) = (p.training_power_w, p.training_time_s);
            let rows = text(apps, |(app, c)| {
                let m = p.app_measurement(*app);
                let (power, corun, time) = (m.app_power_w, m.corun_power_w, m.corun_time_s);
                let saving = c.saving_fraction() * 100.0;
                format!("| {app} | {power:.2} | {corun:.2} | {time:.0} | {saving:.0}% |\n")
            });
            format!(
                "## Table II — {device}\n\n\
                 | app | app power (W) | co-run power (W) | time (s) | saving |\n\
                 |---|---|---|---|---|\n\
                 | Training | {power:.2} | - | {time:.0} | - |\n{rows}\n"
            )
        });
        write!(
            f,
            "Reproduction of Table II: per-device, per-application calibration.\n\n{blocks}\
             Saving column is recomputed from the power model as 1 - P_a'.t_a / (P_b.t_b + P_a.t_a);\n\
             it should match the percentages printed in the paper's Table II within rounding.\n"
        )
    }
}

/// Table III: the energy overhead of the online optimisation, the extra
/// power of evaluating the Eq.-21 rule each slot relative to idling. The
/// overheads are the device profiles'; `--bench scheduler` times the rule.
#[derive(Debug, Clone, Copy)]
pub struct Table3;

/// Table III — the energy overhead of the online optimisation.
pub fn table3() -> Table3 {
    Table3
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = text(DeviceKind::ALL, |device| {
            let p = device.profile();
            let (idle, decision) = (p.idle_power_w, p.decision_power_w);
            let overhead = p.decision_overhead_fraction() * 100.0;
            format!("| {device} | {idle:.3} | {decision:.3} | {overhead:.1}% |\n")
        });
        write!(
            f,
            "Reproduction of Table III: energy overhead of the online optimisation.\n\n\
             ## Table III — online-controller energy overhead\n\n\
             | device | power idle (W) | power decision (W) | overhead |\n\
             |---|---|---|---|\n{rows}\n\
             Paper reference: overhead below 10% per slot on every device (3.0% Nexus6,\n\
             7.4% Nexus6P, 6.3% Pixel2); the per-slot computation is a handful of flops.\n"
        )
    }
}
