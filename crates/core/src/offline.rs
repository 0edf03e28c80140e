//! The offline scheduling problem (Section IV): a knapsack over co-running
//! opportunities solved with dynamic programming (Algorithm 1), using the
//! Lemma-1 bound on the lag of each user.
//!
//! Given all application arrivals inside a look-ahead window, the scheduler
//! decides for every user whether to co-run training with the upcoming
//! application (`x_i = 1`, earning energy saving `s_i`) or to execute
//! training separately (`x_i = 0`, earning nothing), subject to the sum of
//! gradient gaps of the co-runners staying within the staleness budget `L_b`
//! (Eq. 5–7).
//!
//! One window of `n` users costs `O(n log n)` for the items — every Lemma-1
//! bound comes out of one sort-and-sweep, `lag_bounds`, which is held to the
//! per-user definition [`lag_bound`] — plus Algorithm 1's `O(n · L_b)` cell
//! updates on two `L_b`-long rows, with one take-bit per cell
//! (`n · L_b / 64` words) kept for the back-trace. A window whose
//! candidates all fit the budget at once skips the rows altogether.

use fedco_fl::staleness::{Lag, WeightPredictor};

/// One user's scheduling situation inside the look-ahead window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfflineUser {
    /// User identifier.
    pub id: usize,
    /// Time (s, absolute) at which the user became ready to train (`t_i`).
    pub ready_time_s: f64,
    /// Arrival time (s, absolute) of the user's application inside the
    /// window (`t^a_i`), if any.
    pub app_arrival_s: Option<f64>,
    /// Training duration `d_i` in seconds.
    pub duration_s: f64,
    /// Energy saving `s_i` (J) earned if the user co-runs.
    pub energy_saving_j: f64,
}

impl OfflineUser {
    /// The two candidate execution intervals of Lemma 1: `[t_i, t_i + d_i]`
    /// (separate execution) and `[t^a_i, t^a_i + d_i]` (co-running), the
    /// latter only when an application arrival exists.
    fn intervals(&self) -> [(f64, f64); 2] {
        let separate = (self.ready_time_s, self.ready_time_s + self.duration_s);
        match self.app_arrival_s {
            Some(ta) => [separate, (ta, ta + self.duration_s)],
            None => [separate, separate],
        }
    }

    /// The candidate end times of this user's training (Lemma 1): where its
    /// two intervals stop.
    fn end_times(&self) -> [f64; 2] {
        self.intervals().map(|(_, stop)| stop)
    }
}

/// The Lemma-1 upper bound on the lag of user `i`: the number of other users
/// whose training could end inside one of user `i`'s candidate execution
/// intervals, whichever scheduling decisions are taken.
pub fn lag_bound(users: &[OfflineUser], i: usize) -> Lag {
    if i >= users.len() {
        return Lag::ZERO;
    }
    let my_intervals = users[i].intervals();
    let count = users
        .iter()
        .enumerate()
        .filter(|&(j, other)| j != i && ends_inside(&my_intervals, other.end_times()))
        .count();
    Lag(count as u64)
}

/// Whether one of `ends` lies inside one of the closed `intervals`.
fn ends_inside(intervals: &[(f64, f64); 2], ends: [f64; 2]) -> bool {
    ends.iter().any(|&e| {
        intervals
            .iter()
            .any(|&(start, stop)| e >= start && e <= stop)
    })
}

/// [`lag_bound`] of every user of the window, in `O(n log n)`.
///
/// User `i` counts the users with a first end time in `U` plus those with a
/// second end time in `U`, minus those with both (counted twice) and minus
/// itself, where `U` is the union of its two intervals. With the end times
/// sorted once, "in `U`" is at most two disjoint rank ranges per sort order
/// (`partition_point` on the scan's own closed comparisons), so the first
/// two terms are range lengths, and the third is a dominance count over the
/// points `(rank by first end, rank by second end)`: one sweep in first-end
/// order over a Fenwick tree of second-end ranks answers it for everyone.
fn lag_bounds(users: &[OfflineUser]) -> Vec<Lag> {
    let n = users.len();
    // (end time, user) in ascending order; NaN — inside no interval — sorts
    // last, where no partition point below reaches it.
    let ascending = |which: usize| {
        let ends = users.iter().map(|u| u.end_times()[which]);
        let mut order: Vec<(f64, usize)> = ends.zip(0..).collect();
        order.sort_unstable_by(|(x, _), (y, _)| {
            x.partial_cmp(y)
                .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
        });
        order
    };
    let (by_first, by_second) = (ascending(0), ascending(1));
    let mut second_rank = vec![0usize; n];
    for (rank, &(_, j)) in by_second.iter().enumerate() {
        second_rank[j] = rank;
    }

    let mut counts = Vec::with_capacity(n);
    let mut second_ranges = Vec::with_capacity(n);
    // (sweep position, user, lower edge of a range): the users with both end
    // times in `U` are those seen between the edges of a first-end range.
    let mut edges = Vec::new();
    for (i, me) in users.iter().enumerate() {
        let intervals = me.intervals();
        let first = rank_ranges(&by_first, &intervals);
        let second = rank_ranges(&by_second, &intervals);
        let len = |[r, s]: [(usize, usize); 2]| r.1 - r.0 + s.1 - s.0;
        let myself = usize::from(ends_inside(&intervals, me.end_times()));
        counts.push(len(first) + len(second) - myself);
        for (lo, hi) in first {
            if lo < hi {
                edges.push((lo, i, true));
                edges.push((hi, i, false));
            }
        }
        second_ranges.push(second);
    }
    edges.sort_unstable();
    // Fenwick tree over second-end ranks of the users swept so far.
    let mut tree = vec![0usize; n + 1];
    let mut swept = 0;
    for (at, i, lower) in edges {
        for &(_, j) in &by_first[swept..at] {
            let mut node = second_rank[j] + 1;
            while node <= n {
                tree[node] += 1;
                node += node & node.wrapping_neg();
            }
        }
        swept = at;
        let below = |mut node: usize| {
            let mut seen = 0;
            while node > 0 {
                seen += tree[node];
                node &= node - 1;
            }
            seen
        };
        let [r, s] = second_ranges[i];
        let both = below(r.1) - below(r.0) + below(s.1) - below(s.0);
        // A range's lower edge is swept before its upper one, so the count
        // never dips below zero on the way.
        if lower {
            counts[i] += both;
        } else {
            counts[i] -= both;
        }
    }
    counts.into_iter().map(|c| Lag(c as u64)).collect()
}

/// The positions of `sorted` (end times ascending, NaN last) holding a value
/// inside one of the closed `intervals`, as two disjoint half-open ranges
/// either of which may be empty (`lo == hi`).
fn rank_ranges(sorted: &[(f64, usize)], intervals: &[(f64, f64); 2]) -> [(usize, usize); 2] {
    let range = |(start, stop): (f64, f64)| {
        // An interval that ends before it starts, or has a NaN bound, is empty.
        if start <= stop {
            (
                sorted.partition_point(|&(e, _)| e < start),
                sorted.partition_point(|&(e, _)| e <= stop),
            )
        } else {
            (0, 0)
        }
    };
    let a = range(intervals[0]);
    // Without an arrival the two intervals are one: search once.
    let b = if intervals[1] == intervals[0] {
        a
    } else {
        range(intervals[1])
    };
    // Ranges that overlap or touch are one range.
    if a.0.max(b.0) <= a.1.min(b.1) {
        [(a.0.min(b.0), a.1.max(b.1)), (0, 0)]
    } else {
        [a, b]
    }
}

/// A knapsack item: one co-running opportunity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// The user this item belongs to.
    pub user_id: usize,
    /// The value: energy saving `s_i` in joules.
    pub value: f64,
    /// The weight: the estimated gradient gap `g_i(t_i, t_i + τ_i)`.
    pub weight: f64,
}

/// The solution of the offline problem for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineSolution {
    /// Users selected to co-run (`x_i = 1`), by user id, in ascending order
    /// ([`OfflineScheduler::solve`] and [`greedy_solution`] sort it).
    pub selected: Vec<usize>,
    /// Total energy saving of the selected set (J).
    pub total_saving_j: f64,
    /// Total gradient-gap weight of the selected set.
    pub total_gap: f64,
}

impl OfflineSolution {
    /// Whether a user was selected to co-run.
    pub fn is_selected(&self, user_id: usize) -> bool {
        self.selected.binary_search(&user_id).is_ok()
    }
}

/// Gap discretisation step: the DP indexes its row by integer gap units of
/// this size (the paper uses the gap itself, i.e. a step of 1).
const GAP_RESOLUTION: f64 = 1.0;

/// The offline knapsack scheduler (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfflineScheduler {
    /// Staleness budget `L_b`.
    pub staleness_bound: f64,
    /// Weight predictor used to turn lag bounds into gradient gaps (Eq. 4).
    pub predictor: WeightPredictor,
}

impl OfflineScheduler {
    /// Creates a scheduler with the given staleness budget and predictor.
    pub fn new(staleness_bound: f64, predictor: WeightPredictor) -> Self {
        OfflineScheduler {
            staleness_bound: staleness_bound.max(0.0),
            predictor,
        }
    }

    /// Builds the knapsack items for a window: every user with an application
    /// arrival becomes an item whose weight is the Eq.-4 gap estimated from
    /// the Lemma-1 lag bound and whose value is its energy saving.
    pub fn build_items(&self, users: &[OfflineUser], velocity_norm: f32) -> Vec<KnapsackItem> {
        users
            .iter()
            .zip(lag_bounds(users))
            .filter(|(u, _)| u.app_arrival_s.is_some())
            .map(|(u, lag)| KnapsackItem {
                user_id: u.id,
                value: u.energy_saving_j,
                weight: self.predictor.predict_gap(lag, velocity_norm).value(),
            })
            .collect()
    }

    /// Solves the 0-1 knapsack with dynamic programming (Algorithm 1):
    /// maximise total value subject to the total weight staying within
    /// `L_b`. Items with non-positive value are never selected (co-running
    /// them would waste energy — the Nexus 6 / Candy Crush case), nor are
    /// items whose weight is negative or not finite; items with
    /// (numerically) zero weight and positive value are always selected.
    ///
    /// Of Eq. (8)'s `S_k(y)` — the best value over the first `k` candidates
    /// with gap budget `y` — only the rows `k - 1` and `k` are alive at a
    /// time; all that is kept per `(k, y)` is whether taking candidate `k`
    /// changed the cell, which is what the back-trace asks. That is
    /// `O(n · L_b)` time and `n · L_b / 64` words, and neither when the
    /// candidates' units sum to no more than the budget: then every cell
    /// the back-trace visits holds the running value over all candidates so
    /// far, so no row is built and `L_b` can be arbitrarily large.
    pub fn solve(&self, items: &[KnapsackItem]) -> OfflineSolution {
        let capacity_units = (self.staleness_bound / GAP_RESOLUTION).floor() as usize;
        let mut selected_idx: Vec<usize> = Vec::new();
        let mut dp_items: Vec<(usize, f64, usize)> = Vec::new(); // (index, value, weight_units)
        let mut total_units = 0usize;
        for (idx, item) in items.iter().enumerate() {
            if item.value <= 0.0 || !(0.0..f64::INFINITY).contains(&item.weight) {
                continue;
            }
            let units = (item.weight / GAP_RESOLUTION).ceil() as usize;
            if units == 0 {
                selected_idx.push(idx);
            } else if units <= capacity_units {
                dp_items.push((idx, item.value, units));
                total_units = total_units.saturating_add(units);
            }
        }
        if total_units <= capacity_units {
            // Everything fits at once: S_k(y) at the back-trace's `y` is the
            // running value, with the comparison and the test of the DP.
            let mut best = 0.0f64;
            for &(idx, value, _) in &dp_items {
                let without = best;
                best = without.max(without + value);
                if best != without {
                    selected_idx.push(idx);
                }
            }
        } else {
            let width = capacity_units + 1;
            let words = width.div_ceil(64);
            // S_{k-1} and S_k: two rows that swap roles, so the update reads
            // one slice and writes another and the compiler can vectorise it.
            let mut before = vec![0.0f64; width];
            let mut after = before.clone();
            // Bit `y` of candidate `k`'s words: S_k(y) != S_{k-1}(y).
            let mut taken = vec![0u64; dp_items.len() * words];
            for (&(_, value, weight), bits) in dp_items.iter().zip(taken.chunks_exact_mut(words)) {
                let (unreachable, reachable) = after.split_at_mut(weight);
                unreachable.copy_from_slice(&before[..weight]);
                for ((cell, &without), &lighter) in
                    reachable.iter_mut().zip(&before[weight..]).zip(&before)
                {
                    *cell = without.max(lighter + value);
                }
                for ((mask, old), new) in
                    bits.iter_mut().zip(before.chunks(64)).zip(after.chunks(64))
                {
                    for (bit, (a, b)) in old.iter().zip(new).enumerate() {
                        *mask |= u64::from(a != b) << bit;
                    }
                }
                std::mem::swap(&mut before, &mut after);
            }
            let mut y = capacity_units;
            for (&(idx, _, weight), bits) in dp_items.iter().zip(taken.chunks_exact(words)).rev() {
                if bits[y / 64] >> (y % 64) & 1 == 1 {
                    selected_idx.push(idx);
                    y -= weight;
                }
            }
        }
        selected_idx.sort_unstable();
        // fedco-audit: allow(float-reduction): fixed-order reduction over the sorted selection — deterministic by construction
        let total_saving_j: f64 = selected_idx.iter().map(|&i| items[i].value).sum();
        // fedco-audit: allow(float-reduction): fixed-order reduction over the sorted selection — deterministic by construction
        let total_gap: f64 = selected_idx.iter().map(|&i| items[i].weight).sum();
        let mut selected: Vec<usize> = selected_idx.into_iter().map(|i| items[i].user_id).collect();
        selected.sort_unstable();
        OfflineSolution {
            selected,
            total_saving_j,
            total_gap,
        }
    }

    /// Convenience wrapper: builds items from the window description and
    /// solves the knapsack in one call.
    pub fn schedule_window(&self, users: &[OfflineUser], velocity_norm: f32) -> OfflineSolution {
        let items = self.build_items(users, velocity_norm);
        self.solve(&items)
    }
}

/// A greedy value-density heuristic used as a comparison baseline in tests
/// and ablation benches: picks items by value/weight ratio until the budget
/// is exhausted.
pub fn greedy_solution(items: &[KnapsackItem], budget: f64) -> OfflineSolution {
    let mut order: Vec<usize> = (0..items.len()).filter(|&i| items[i].value > 0.0).collect();
    order.sort_by(|&a, &b| {
        let da = items[a].value / items[a].weight.max(1e-12);
        let db = items[b].value / items[b].weight.max(1e-12);
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut used = 0.0;
    let mut selected = Vec::new();
    let mut total_saving_j = 0.0;
    for i in order {
        if used + items[i].weight <= budget {
            used += items[i].weight;
            total_saving_j += items[i].value;
            selected.push(items[i].user_id);
        }
    }
    selected.sort_unstable();
    OfflineSolution {
        selected,
        total_saving_j,
        total_gap: used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    fn predictor() -> WeightPredictor {
        WeightPredictor::new(0.05, 0.9)
    }

    /// `OfflineScheduler::solve` as it was with the full `(n + 1) × width`
    /// table, verbatim: the reference the row + take-bit version is held to.
    fn solve_full_table(sched: &OfflineScheduler, items: &[KnapsackItem]) -> OfflineSolution {
        let capacity_units = (sched.staleness_bound / GAP_RESOLUTION).floor() as usize;
        let mut zero_weight: Vec<usize> = Vec::new();
        let mut dp_items: Vec<(usize, f64, usize)> = Vec::new(); // (index, value, weight_units)
        for (idx, item) in items.iter().enumerate() {
            if item.value <= 0.0 {
                continue;
            }
            let units = (item.weight / GAP_RESOLUTION).ceil() as usize;
            if units == 0 {
                zero_weight.push(idx);
            } else if units <= capacity_units {
                dp_items.push((idx, item.value, units));
            }
        }
        // DP table S_k(y) of Eq. (8): best value over the first k items with
        // gap budget y. Stored row-major as (k, y) -> value.
        let n = dp_items.len();
        let width = capacity_units + 1;
        let mut table = vec![0.0f64; (n + 1) * width];
        for k in 1..=n {
            let (_, value, weight) = dp_items[k - 1];
            for y in 0..=capacity_units {
                let without = table[(k - 1) * width + y];
                let with = if y >= weight {
                    table[(k - 1) * width + (y - weight)] + value
                } else {
                    f64::NEG_INFINITY
                };
                table[k * width + y] = without.max(with);
            }
        }
        // Backtrack through the table to recover the selected set.
        let mut selected_idx: Vec<usize> = zero_weight.clone();
        let mut y = capacity_units;
        for k in (1..=n).rev() {
            if table[k * width + y] != table[(k - 1) * width + y] {
                selected_idx.push(dp_items[k - 1].0);
                y -= dp_items[k - 1].2;
            }
        }
        selected_idx.sort_unstable();
        let total_saving_j: f64 = selected_idx.iter().map(|&i| items[i].value).sum();
        let total_gap: f64 = selected_idx.iter().map(|&i| items[i].weight).sum();
        OfflineSolution {
            selected: selected_idx.into_iter().map(|i| items[i].user_id).collect(),
            total_saving_j,
            total_gap,
        }
    }

    fn user(id: usize, ready: f64, arrival: Option<f64>, dur: f64, saving: f64) -> OfflineUser {
        OfflineUser {
            id,
            ready_time_s: ready,
            app_arrival_s: arrival,
            duration_s: dur,
            energy_saving_j: saving,
        }
    }

    #[test]
    fn lag_bound_counts_overlapping_users() {
        // Three users as in Fig. 3: i waits for its app; j and k train right
        // away and finish inside i's execution window.
        let users = vec![
            user(0, 0.0, Some(100.0), 200.0, 150.0), // i co-runs over [100, 300]
            user(1, 0.0, None, 150.0, 0.0),          // j ends at 150 ∈ [0,200] and [100,300]
            user(2, 50.0, None, 100.0, 0.0),         // k ends at 150 as well
        ];
        assert_eq!(lag_bound(&users, 0), Lag(2));
        // A user far in the future does not count.
        let mut users2 = users.clone();
        users2.push(user(3, 10_000.0, None, 100.0, 0.0));
        assert_eq!(lag_bound(&users2, 0), Lag(2));
        assert_eq!(lag_bound(&users2, 99), Lag::ZERO);
    }

    #[test]
    fn lag_bound_is_at_most_n_minus_1() {
        let users: Vec<OfflineUser> = (0..10)
            .map(|i| user(i, 0.0, Some(10.0), 100.0, 1.0))
            .collect();
        for i in 0..10 {
            assert!(lag_bound(&users, i).value() <= 9);
        }
    }

    #[test]
    fn knapsack_prefers_high_value_within_budget() {
        let sched = OfflineScheduler::new(10.0, predictor());
        let items = vec![
            KnapsackItem {
                user_id: 0,
                value: 100.0,
                weight: 6.0,
            },
            KnapsackItem {
                user_id: 1,
                value: 90.0,
                weight: 5.0,
            },
            KnapsackItem {
                user_id: 2,
                value: 80.0,
                weight: 5.0,
            },
        ];
        // Optimal picks users 1+2 (value 170, weight 10) over user 0 alone.
        let sol = sched.solve(&items);
        assert_eq!(sol.selected, vec![1, 2]);
        assert!((sol.total_saving_j - 170.0).abs() < 1e-9);
        assert!(sol.total_gap <= 10.0 + 1e-9);
    }

    #[test]
    fn knapsack_beats_or_matches_greedy() {
        let sched = OfflineScheduler::new(10.0, predictor());
        let items = vec![
            KnapsackItem {
                user_id: 0,
                value: 60.0,
                weight: 10.0,
            },
            KnapsackItem {
                user_id: 1,
                value: 50.0,
                weight: 6.0,
            },
            KnapsackItem {
                user_id: 2,
                value: 50.0,
                weight: 4.0,
            },
        ];
        let dp = sched.solve(&items);
        let greedy = greedy_solution(&items, 10.0);
        assert!(dp.total_saving_j >= greedy.total_saving_j);
        assert!((dp.total_saving_j - 100.0).abs() < 1e-9);
    }

    #[test]
    fn negative_value_items_are_never_selected() {
        let sched = OfflineScheduler::new(100.0, predictor());
        let items = vec![
            KnapsackItem {
                user_id: 0,
                value: -50.0,
                weight: 1.0,
            },
            KnapsackItem {
                user_id: 1,
                value: 10.0,
                weight: 1.0,
            },
        ];
        let sol = sched.solve(&items);
        assert_eq!(sol.selected, vec![1]);
        assert!(!sol.is_selected(0));
    }

    #[test]
    fn zero_budget_selects_only_zero_weight_items() {
        let sched = OfflineScheduler::new(0.0, predictor());
        let items = vec![
            KnapsackItem {
                user_id: 0,
                value: 10.0,
                weight: 0.0,
            },
            KnapsackItem {
                user_id: 1,
                value: 100.0,
                weight: 1.0,
            },
        ];
        let sol = sched.solve(&items);
        assert_eq!(sol.selected, vec![0]);
    }

    #[test]
    fn build_items_skips_users_without_arrivals() {
        let sched = OfflineScheduler::new(1000.0, predictor());
        let users = vec![
            user(7, 0.0, Some(50.0), 200.0, 300.0),
            user(8, 0.0, None, 200.0, 300.0),
        ];
        let items = sched.build_items(&users, 2.0);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].user_id, 7);
        assert!(items[0].weight > 0.0);
        // Full pipeline.
        let sol = sched.schedule_window(&users, 2.0);
        assert_eq!(sol.selected, vec![7]);
    }

    #[test]
    fn relaxed_budget_acts_greedily_scarce_budget_prunes() {
        // Paper, Fig. 4(a): with relaxed L_b = 1000 the offline solution
        // selects essentially every co-running opportunity; shrinking L_b
        // prunes selections.
        let sched_relaxed = OfflineScheduler::new(1000.0, predictor());
        let sched_tight = OfflineScheduler::new(5.0, predictor());
        let users: Vec<OfflineUser> = (0..20)
            .map(|i| user(i, 0.0, Some(10.0 * i as f64), 200.0, 100.0))
            .collect();
        let relaxed = sched_relaxed.schedule_window(&users, 3.0);
        let tight = sched_tight.schedule_window(&users, 3.0);
        assert_eq!(relaxed.selected.len(), 20);
        assert!(tight.selected.len() < relaxed.selected.len());
        assert!(tight.total_gap <= 5.0 + 1e-9);
    }

    #[test]
    fn batch_lag_bounds_match_the_per_user_scan() {
        // Times on a coarse grid, so ties are the rule: end times equal to
        // interval bounds (closed on both sides), duplicate end times,
        // arrivals before the ready time, zero and negative durations, and
        // now and then an infinite or NaN time — whatever the scan answers
        // is the answer.
        const ODD: [f64; 4] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0];
        let mut rng = SmallRng::seed_from_u64(0x1e44a);
        for n in [0usize, 1, 2, 63, 64, 65, 300] {
            for round in 0..60 {
                let steps = [4i64, 12, 40, 400][round % 4];
                let time = |rng: &mut SmallRng, lowest: i64| {
                    if rng.gen_range(0..24) == 0 {
                        ODD[rng.gen_range(0..ODD.len())]
                    } else {
                        rng.gen_range(lowest..steps) as f64 * 5.0
                    }
                };
                let users: Vec<OfflineUser> = (0..n)
                    .map(|id| {
                        let ready = time(&mut rng, 0);
                        let arrival = rng.gen_bool(0.6).then(|| time(&mut rng, 0));
                        let duration = time(&mut rng, -2);
                        user(id, ready, arrival, duration, 1.0)
                    })
                    .collect();
                let scan: Vec<Lag> = (0..n).map(|i| lag_bound(&users, i)).collect();
                assert_eq!(lag_bounds(&users), scan, "n {n} round {round}: {users:?}");
            }
        }
    }

    #[test]
    fn solve_matches_the_full_table_reference() {
        // Few distinct values (equal values exercise the `!=` back-trace tie
        // rule, 1e-18 is absorbed by any sum it joins), zero-weight,
        // non-positive-value and heavier-than-any-budget items; budgets at
        // 0, just below / at / just above the summed units, and in between.
        const VALUES: [f64; 7] = [-3.0, 0.0, 1e-18, 5.0, 5.0, 7.5, 10.0];
        const WEIGHTS: [f64; 9] = [0.0, 0.3, 1.0, 1.0, 1.5, 2.0, 3.0, 1e9, f64::INFINITY];
        let mut rng = SmallRng::seed_from_u64(0x50_17e);
        for round in 0..300 {
            let items: Vec<KnapsackItem> = (0..rng.gen_range(0..40usize))
                .map(|user_id| KnapsackItem {
                    user_id,
                    value: VALUES[rng.gen_range(0..VALUES.len())],
                    weight: WEIGHTS[rng.gen_range(0..WEIGHTS.len())],
                })
                .collect();
            let total_units: usize = items
                .iter()
                .filter(|item| item.value > 0.0 && item.weight < 1e9)
                .map(|item| (item.weight / GAP_RESOLUTION).ceil() as usize)
                .sum();
            let budgets = [
                0,
                total_units.saturating_sub(1),
                total_units,
                total_units + 1,
                rng.gen_range(0..=total_units),
                rng.gen_range(0..=total_units),
            ];
            for units in budgets {
                let sched = OfflineScheduler::new(units as f64 * GAP_RESOLUTION, predictor());
                let (got, want) = (sched.solve(&items), solve_full_table(&sched, &items));
                let context = format!("round {round} budget {units} units: {items:?}");
                assert_eq!(got.selected, want.selected, "{context}");
                assert_eq!(
                    got.total_saving_j.to_bits(),
                    want.total_saving_j.to_bits(),
                    "{context}"
                );
                assert_eq!(
                    got.total_gap.to_bits(),
                    want.total_gap.to_bits(),
                    "{context}"
                );
            }
        }
    }

    /// The best value over every subset of the candidates `solve` may take
    /// (positive value, finite non-negative weight) whose summed weight
    /// satisfies `fits`, by walking all 2ⁿ of them; sums run in index order.
    fn exhaustive_best(items: &[KnapsackItem], fits: &dyn Fn(f64, usize) -> bool) -> f64 {
        fn walk(
            rest: &[(f64, f64, usize)],
            (value, weight, units): (f64, f64, usize),
            fits: &dyn Fn(f64, usize) -> bool,
        ) -> f64 {
            match rest.split_first() {
                None if fits(weight, units) => value,
                None => f64::NEG_INFINITY,
                Some((&(v, w, u), rest)) => walk(rest, (value, weight, units), fits).max(walk(
                    rest,
                    (value + v, weight + w, units + u),
                    fits,
                )),
            }
        }
        let candidates: Vec<(f64, f64, usize)> = items
            .iter()
            .filter(|item| item.value > 0.0 && (0.0..f64::INFINITY).contains(&item.weight))
            .map(|item| {
                (
                    item.value,
                    item.weight,
                    (item.weight / GAP_RESOLUTION).ceil() as usize,
                )
            })
            .collect();
        walk(&candidates, (0.0, 0.0, 0), fits)
    }

    #[test]
    fn solve_is_the_exhaustive_optimum_of_each_window() {
        // Windows of up to 18 items: values from -50 to 400 J, weights from 0
        // to 40 gap units; budgets from nothing to more than the window
        // weighs.
        let mut rng = SmallRng::seed_from_u64(0x0b7_1a1);
        for round in 0..240 {
            let n = rng.gen_range(0..=18usize);
            let items: Vec<KnapsackItem> = (0..n)
                .map(|user_id| KnapsackItem {
                    user_id,
                    value: rng.gen_range(-50_000..400_000i64) as f64 / 1000.0,
                    weight: if rng.gen_range(0..10) == 0 {
                        0.0
                    } else {
                        rng.gen_range(0..40_000i64) as f64 / 1000.0
                    },
                })
                .collect();
            let budget = rng.gen_range(0..(20 * n + 2) as i64) as f64 / 2.0;
            let sched = OfflineScheduler::new(budget, predictor());
            let dp = sched.solve(&items);
            let context = format!("round {round} budget {budget}: {items:?}");
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);

            // The problem the DP solves: whole gap units within the budget's.
            let capacity = (budget / GAP_RESOLUTION).floor() as usize;
            let in_units = exhaustive_best(&items, &|_, units| units <= capacity);
            assert!(
                close(dp.total_saving_j, in_units),
                "{} != {in_units}, {context}",
                dp.total_saving_j
            );
            // It respects L_b, so the true optimum bounds it from above; a
            // unit of rounding per item bounds it from below.
            assert!(
                dp.total_gap <= budget,
                "gap {} over {budget}, {context}",
                dp.total_gap
            );
            let exact = |slack: f64| exhaustive_best(&items, &|w, _| w <= budget - slack);
            assert!(dp.total_saving_j <= exact(0.0) + 1e-9, "{context}");
            assert!(
                dp.total_saving_j + 1e-9 >= exact(n as f64 * GAP_RESOLUTION),
                "{context}"
            );
            // The greedy baseline, on the same unit-rounded weights, never
            // beats it.
            let rounded: Vec<KnapsackItem> = items
                .iter()
                .map(|item| KnapsackItem {
                    weight: (item.weight / GAP_RESOLUTION).ceil() * GAP_RESOLUTION,
                    ..*item
                })
                .collect();
            let greedy = greedy_solution(&rounded, capacity as f64 * GAP_RESOLUTION);
            assert!(
                greedy.total_saving_j <= dp.total_saving_j + 1e-9,
                "greedy {}, {context}",
                greedy.total_saving_j
            );
        }
    }

    #[test]
    fn negative_and_non_finite_weights_are_never_selected() {
        // NaN and negative weights used to round to zero units — "free",
        // selected under any budget, and NaN poisoned `total_gap`.
        let sched = OfflineScheduler::new(2.0, predictor());
        let weights = [f64::NAN, -1.0, f64::NEG_INFINITY, f64::INFINITY, 1.0];
        let items: Vec<KnapsackItem> = weights
            .iter()
            .enumerate()
            .map(|(user_id, &weight)| KnapsackItem {
                user_id,
                value: 10.0,
                weight,
            })
            .collect();
        let sol = sched.solve(&items);
        assert_eq!(sol.selected, vec![4]);
        assert_eq!(sol.total_gap, 1.0);
        assert_eq!(sol.total_saving_j, 10.0);
    }
}
