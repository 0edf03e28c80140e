//! Units of power, energy and time used by the device models.
//!
//! Newtypes keep Watts, Joules and seconds from being mixed up in the energy
//! accounting: `Watts * Seconds = Joules` is the only way to produce energy.
//!
//! # Repeated addition in closed form
//!
//! An accumulator that receives the same amount slot after slot must end on
//! the bits of the per-slot additions, not of one `n × step` multiply, which
//! rounds differently. [`repeated_add`] returns those bits in O(binades
//! crossed) instead of O(`n`):
//!
//! * The doubles of one binade `[2^E, 2^(E+1))` are the multiples of its ulp
//!   `u = 2^(E−52)`, and their bit patterns are consecutive integers, so a
//!   difference of bit patterns inside a binade counts ulps.
//! * For a positive `acc` in that binade and a positive `step` whose exact
//!   sum stays below `2^(E+1)`, round-to-nearest picks the multiple of `u`
//!   nearest the sum: `acc + d`, with `d` the multiple of `u` nearest
//!   `step` — the same `d` from every accumulator of the binade, unless
//!   `step` is an odd multiple of `u/2` (a tie, broken towards the even
//!   significand, which depends on `acc`).
//! * So one real step that stays inside the binade shows the increment
//!   `du = bits(next) − bits(acc)` (`= d/u`). The tie test
//!   `|step − d|·2 == u` is exact: `d = next − acc` by Sterbenz's lemma (both
//!   in one binade), and `step − d` too, since `d/2 ≤ step ≤ 2d` once
//!   `du ≥ 1`.
//! * Without a tie `step < (du + ½)·u`, so a step from any `a` of the binade
//!   with `bits(a) + du ≤ top − 1` (`top` = the bits of `2^(E+1)`) has its
//!   exact sum below `2^(E+1)` and adds `du` again. From `next`, the next
//!   `m ≤ (top − 1 − bits(next)) / du` steps land on
//!   `from_bits(bits(next) + m·du)`, which never leaves the binade, so the
//!   `u64` arithmetic cannot overflow.
//! * Everything else takes single real steps: binade crossings, subnormal
//!   accumulators, ties, a step that is not positive and finite, and a
//!   negative or `−0.0` accumulator. A step that leaves the bits unchanged
//!   (an absorbed step, `du == 0`) leaves them unchanged for ever, so the
//!   result is returned at once.
//!
//! Each binade spans twice the one below it, so `n` positive steps from
//! `acc` cross about `log₂((acc + n·step) / acc)` binades, each costing two
//! or three real steps and one jump. A tie binade is the exception: it is
//! walked step by step, and a tie needs the bits of `step` below `u` to be
//! exactly `10…0`. The plain loop lives on as the `reference_bits` oracle of
//! this module's tests.
//!
//! [`repeated_add_pairs`] does the same for an accumulator that receives two
//! amounts by turns, `first` then `then`, as a waiting device's profiler
//! receives a decision's overhead and then its slot's energy. Inside one
//! binade each addend moves the bits by its own increment whatever the
//! accumulator, so a pair moves them by the sum `du` of the two; one real
//! pair shows both increments (`mid` lies between `acc` and `next`, so all
//! three share the binade and both differences are exact), the tie test is
//! made for each addend, and from there the jump is the single step's.
//! Both addends must be non-negative; a zero one has increment 0, and
//! [`repeated_add`] is the pair with `first = −0.0`, which leaves every
//! accumulator's bits alone.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Average electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

/// A duration in seconds (the paper's slot length is one second).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

impl Watts {
    /// The numeric value in watts.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Clamps to a non-negative value.
    pub fn max_zero(self) -> Watts {
        Watts(self.0.max(0.0))
    }
}

impl Joules {
    /// A zero energy amount.
    pub const ZERO: Joules = Joules(0.0);

    /// The numeric value in joules.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The value expressed in kilojoules.
    pub fn kilojoules(self) -> f64 {
        self.0 / 1e3
    }

    /// Clamps to a non-negative value.
    pub fn max_zero(self) -> Joules {
        Joules(self.0.max(0.0))
    }
}

impl Seconds {
    /// The numeric value in seconds.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The value expressed in hours.
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} W", self.0)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1000.0 {
            write!(f, "{:.2} kJ", self.0 / 1000.0)
        } else {
            write!(f, "{:.2} J", self.0)
        }
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} s", self.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Neg for Joules {
    type Output = Joules;
    fn neg(self) -> Joules {
        Joules(-self.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts(if rhs.0 != 0.0 { self.0 / rhs.0 } else { 0.0 })
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

/// Adds `step` to `acc` `times` times and returns the bits
/// `for _ in 0..times { acc += step }` leaves, jumping a binade at a time
/// (see [the module docs](self#repeated-addition-in-closed-form)).
pub fn repeated_add(acc: f64, step: f64, times: u64) -> f64 {
    // `−0.0` is the identity of IEEE addition, `+0.0` and `−0.0` included.
    repeated_add_pairs(acc, -0.0, step, times)
}

/// Adds `first` and then `then` to `acc`, `times` times over, and returns
/// the bits `for _ in 0..times { acc += first; acc += then }` leaves, a
/// binade at a time: inside a binade a pair moves the bits by the sum of the
/// two addends' increments, and the guard holds for each addend (see [the
/// module docs](self#repeated-addition-in-closed-form)).
pub fn repeated_add_pairs(mut acc: f64, first: f64, then: f64, mut times: u64) -> f64 {
    while times > 0 {
        let mid = acc + first;
        let next = mid + then;
        times -= 1;
        let (from, to) = (acc.to_bits(), next.to_bits());
        // Done, or absorbed: a pair that leaves the bits alone always will.
        if times == 0 || to == from {
            return next;
        }
        // Sign and exponent field: 1..0x7ff is a positive normal number,
        // whose ulp `2^E · 2^−52` is exact even where it is subnormal.
        let binade = from >> 52;
        let ulp = f64::from_bits(binade << 52) * f64::EPSILON;
        // Both addends non-negative, so `mid` lies between `acc` and `next`.
        let tie = |step: f64, lo: f64, hi: f64| (step - (hi - lo)).abs() * 2.0 == ulp;
        if first >= 0.0
            && then >= 0.0
            && (1..0x7ff).contains(&binade)
            && to >> 52 == binade
            && !tie(first, acc, mid)
            && !tie(then, mid, next)
        {
            let (du, room) = (to - from, ((binade + 1) << 52) - 1 - to);
            let jump = if times.saturating_mul(du) <= room {
                times
            } else {
                room / du
            };
            acc = f64::from_bits(to + jump * du);
            times -= jump;
        } else {
            acc = next;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts(2.0) * Seconds(10.0);
        assert_eq!(e, Joules(20.0));
        let e2 = Seconds(10.0) * Watts(2.0);
        assert_eq!(e2, Joules(20.0));
    }

    #[test]
    fn energy_divided_by_time_is_power() {
        assert_eq!(Joules(20.0) / Seconds(10.0), Watts(2.0));
        assert_eq!(Joules(20.0) / Seconds(0.0), Watts(0.0));
    }

    #[test]
    fn arithmetic_and_display() {
        assert_eq!(Watts(1.0) + Watts(2.0), Watts(3.0));
        assert_eq!(Watts(5.0) - Watts(2.0), Watts(3.0));
        assert_eq!(Joules(2.0) + Joules(3.0), Joules(5.0));
        assert_eq!(Joules(5.0) - Joules(3.0), Joules(2.0));
        assert_eq!(Joules(5.0) * 2.0, Joules(10.0));
        assert_eq!(Seconds(5.0) + Seconds(1.0), Seconds(6.0));
        assert_eq!(Seconds(5.0) - Seconds(1.0), Seconds(4.0));
        assert_eq!(format!("{}", Watts(1.2345)), "1.234 W");
        assert_eq!(format!("{}", Joules(1500.0)), "1.50 kJ");
        assert_eq!(format!("{}", Joules(15.0)), "15.00 J");
        assert_eq!(format!("{}", Seconds(3.25)), "3.2 s");
    }

    #[test]
    fn accumulation_and_sums() {
        let mut total = Joules::ZERO;
        total += Joules(5.0);
        total += Joules(2.5);
        assert_eq!(total, Joules(7.5));
        let sum: Joules = vec![Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(sum, Joules(3.0));
        let time: Seconds = vec![Seconds(1.0), Seconds(2.0)].into_iter().sum();
        assert_eq!(time, Seconds(3.0));
    }

    #[test]
    fn conversions_and_clamps() {
        assert_eq!(Joules(2500.0).kilojoules(), 2.5);
        assert_eq!(Seconds(7200.0).hours(), 2.0);
        assert_eq!(Watts(-1.0).max_zero(), Watts(0.0));
        assert_eq!(Joules(-1.0).max_zero(), Joules(0.0));
        assert_eq!((-Joules(2.0)).value(), -2.0);
        assert_eq!(Watts(3.0).value(), 3.0);
        assert_eq!(Seconds(3.0).value(), 3.0);
        assert_eq!(Seconds(2.0) * 3.0, Seconds(6.0));
        assert_eq!(Watts(2.0) * 3.0, Watts(6.0));
    }
}

/// [`repeated_add`] against the loop it replaces: every shape the rounding
/// argument tells apart, then a seeded fuzz.
#[cfg(test)]
mod reference_bits {
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    use super::{repeated_add, repeated_add_pairs};

    /// The span body the kernel replaced: one rounded addition per step.
    fn plain_loop(mut acc: f64, step: f64, times: u64) -> f64 {
        for _ in 0..times {
            acc += step;
        }
        acc
    }

    /// The kernel leaves the loop's bits (NaN payloads folded: Rust leaves
    /// them unspecified).
    fn check(acc: f64, step: f64, times: u64) {
        let (got, want) = (repeated_add(acc, step, times), plain_loop(acc, step, times));
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{acc:e} + {step:e} x {times}: {got:e} ({:#x}), the loop {want:e} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    /// After how many steps the loop from `acc` has left `acc`'s binade, if
    /// within `cap` steps.
    fn binade_edge(acc: f64, step: f64, cap: u64) -> Option<u64> {
        let binade = acc.to_bits() >> 52;
        let mut x = acc;
        (1..=cap).find(|_| {
            x += step;
            x.to_bits() >> 52 != binade
        })
    }

    /// `j + ½` ulps of the binade of a positive normal `acc`: an exact tie.
    fn tie(acc: f64, j: u32) -> f64 {
        let floor = f64::from_bits(acc.to_bits() >> 52 << 52);
        (f64::from(j) + 0.5) * (f64::from_bits(floor.to_bits() + 1) - floor)
    }

    /// `0`, `1`, `2`, the binade edge ± 1, and span lengths of a run.
    fn times_for(acc: f64, step: f64) -> Vec<u64> {
        let mut times = vec![0, 1, 2, 977, 10_800];
        if let Some(edge) = binade_edge(acc, step, 100_000) {
            times.extend([edge - 1, edge, edge + 1]);
        }
        times
    }

    #[test]
    fn structured_shapes_match_the_loop() {
        let two_52 = 4_503_599_627_370_496.0;
        let accs = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_fff0),
            f64::MIN_POSITIVE,
            1e-300,
            1e-9,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            1e5,
            1e9 + 0.25,
            1e15,
            two_52,
            two_52 + 1.0,
            2.0 * two_52,
            -7.5,
            f64::MAX / 3.0,
        ];
        for &acc in &accs {
            let mut steps = vec![
                0.689,
                0.1,
                1.0 / 3.0,
                f64::from_bits(1),
                0.0,
                -0.0,
                -0.25,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            if acc != 0.0 {
                let a = acc.abs();
                // Larger than, equal to, a fraction of, and absorbed by it.
                steps.extend([3.7 * a, a, 0.37 * a, 1e-3 * a, a / 2f64.powi(40), 1e-17 * a]);
            }
            if acc >= 1e-300 {
                steps.extend((0..4).map(|j| tie(acc, j)));
            }
            for step in steps {
                for times in times_for(acc, step) {
                    check(acc, step, times);
                }
            }
        }
        // Ties from an even and an odd significand, at several binades.
        for acc in [1.0, 1e-300, 1e5, 1e9, two_52] {
            for acc in [acc, f64::from_bits(acc.to_bits() | 1)] {
                for j in [0, 1, 2, 5, 1000] {
                    for times in times_for(acc, tie(acc, j)) {
                        check(acc, tie(acc, j), times);
                    }
                }
            }
        }
        // A million steps where a run's accumulators live.
        for acc in [0.0, 1e5, 1e9] {
            for step in [0.689, 0.1, 1.0 / 3.0, 2.75 / 3.0] {
                check(acc, step, 1_000_000);
            }
        }
        check(two_52, 1.5, 1_000_000);
    }

    /// A positive normal, subnormal, zero or negative accumulator; a step
    /// from absorbed to larger than it, an exact tie, or any bit pattern at
    /// all; a span length around a binade edge or drawn small and large.
    fn mantissa(rng: &mut SmallRng) -> u64 {
        rng.gen::<u64>() >> 12
    }

    /// A positive normal, subnormal, zero or negative accumulator.
    fn fuzz_acc(rng: &mut SmallRng) -> f64 {
        let exponent = match rng.gen_range(0..10u32) {
            0 => 0,
            1 => rng.gen_range(2030..2047u64),
            _ => rng.gen_range(1..1077u64),
        };
        let acc = f64::from_bits(exponent << 52 | mantissa(rng));
        match rng.gen_range(0..20u32) {
            0 => -acc,
            1 => [0.0, -0.0, 1.0, 4_503_599_627_370_496.0][rng.gen_range(0..4usize)],
            // Just below the top of its binade.
            2 => f64::from_bits(acc.to_bits() | 0x000f_ffff_ffff_ff00),
            _ => acc,
        }
    }

    /// A step from absorbed by `acc` to larger than it, an exact tie, or any
    /// bit pattern at all.
    fn fuzz_step(rng: &mut SmallRng, acc: f64) -> f64 {
        match rng.gen_range(0..16u32) {
            0 => f64::from_bits(rng.gen()),
            1 => [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                -0.689,
            ][rng.gen_range(0..6usize)],
            2 | 3 if acc.is_normal() && acc > 0.0 => tie(acc, rng.gen_range(0..64u32)),
            _ => {
                let scale = (acc.to_bits() >> 52 & 0x7ff) as i64 - rng.gen_range(-3..62i64);
                f64::from_bits((scale.clamp(0, 2046) as u64) << 52 | mantissa(rng))
            }
        }
    }

    #[test]
    fn seeded_fuzz_matches_the_loop() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for _ in 0..212_000 {
            let acc = fuzz_acc(&mut rng);
            let step = fuzz_step(&mut rng, acc);
            let times = match rng.gen_range(0..100u32) {
                0..=69 => rng.gen_range(0..64u64),
                70..=96 => rng.gen_range(0..1024u64),
                _ => match binade_edge(acc, step, 4096) {
                    Some(edge) => edge - 1 + rng.gen_range(0..3u64),
                    None => rng.gen_range(0..16_384u64),
                },
            };
            check(acc, step, times);
        }
    }
    /// The interleaved loop [`repeated_add_pairs`] replaces.
    fn pair_loop(mut acc: f64, first: f64, then: f64, times: u64) -> f64 {
        for _ in 0..times {
            acc += first;
            acc += then;
        }
        acc
    }

    fn check_pairs(acc: f64, first: f64, then: f64, times: u64) {
        let got = repeated_add_pairs(acc, first, then, times);
        let want = pair_loop(acc, first, then, times);
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{acc:e} + ({first:e}, {then:e}) x {times}: {got:e} ({:#x}), the loop {want:e} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    /// `0`, `1`, `2`, span lengths of a run, and the pair that leaves
    /// `acc`'s binade ± 1.
    fn pair_times(acc: f64, first: f64, then: f64) -> Vec<u64> {
        let mut times = vec![0, 1, 2, 977, 10_800];
        let binade = acc.to_bits() >> 52;
        let mut x = acc;
        if let Some(edge) = (1..=20_000u64).find(|_| {
            x = x + first + then;
            x.to_bits() >> 52 != binade
        }) {
            times.extend([edge - 1, edge, edge + 1]);
        }
        times
    }

    /// Every pair of addends from a decision overhead's size to a slot's,
    /// zero of either sign, a half-ulp tie on either side, negative and
    /// non-finite ones, from zero, subnormal, normal and negative
    /// accumulators; and a binade crossed between the two adds.
    #[test]
    fn pairs_match_the_interleaved_loop() {
        let accs = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_fff0),
            1e-300,
            1.0,
            f64::from_bits(1f64.to_bits() | 1),
            1e5,
            1e9 + 0.25,
            4_503_599_627_370_496.0,
            -7.5,
        ];
        for &acc in &accs {
            let mut addends = vec![0.0, -0.0, 0.037_9, 0.689, 1.0 / 3.0, f64::from_bits(1)];
            addends.extend([-0.25, f64::NAN, f64::INFINITY]);
            if acc.is_normal() && acc > 0.0 {
                addends.extend((0..3).map(|j| tie(acc, j)));
                addends.extend([0.37 * acc, acc / 2f64.powi(40)]);
            }
            for &first in &addends {
                for &then in &addends {
                    for times in pair_times(acc, first, then) {
                        check_pairs(acc, first, then, times);
                    }
                }
            }
        }
        // The first add reaches the binade's top, the second leaves from
        // there: `2 − ulp + ulp = 2`, then on in `[2, 4)`.
        let below_two = 2.0 - f64::EPSILON;
        for then in [0.1, 0.689, tie(2.0, 0)] {
            for times in [1, 2, 3, 1_000] {
                check_pairs(below_two, f64::EPSILON, then, times);
                check_pairs(below_two, then, f64::EPSILON, times);
            }
        }
    }

    #[test]
    fn pairs_seeded_fuzz_matches_the_loop() {
        let mut rng = SmallRng::seed_from_u64(0x9a1e);
        for _ in 0..60_000 {
            let acc = fuzz_acc(&mut rng);
            let first = fuzz_step(&mut rng, acc);
            let then = fuzz_step(&mut rng, acc);
            let times = match rng.gen_range(0..10u32) {
                0..=6 => rng.gen_range(0..64u64),
                _ => rng.gen_range(0..2048u64),
            };
            check_pairs(acc, first, then, times);
        }
    }

    /// A billion pairs — the `u64` jump arithmetic at a length no run
    /// reaches — from where an idle profiler starts and from a loaded one.
    /// Release only: the plain loop takes seconds optimised.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a billion-step plain loop; ci.sh runs it in --release"
    )]
    fn a_billion_pairs_match_the_interleaved_loop() {
        check_pairs(0.0, 0.037_9, 0.689, 1_000_000_000);
        check_pairs(1e9 + 0.25, 0.0, 1.0 / 3.0, 1_000_000_000);
    }
}
