//! The event indices of the slot loop: which users are due in a slot, and
//! which users are waiting, without walking the fleet to find out.
//!
//! [`Calendar`] holds the deadlines a device can have — its foreground
//! application leaving, its training epoch completing, its sleep ending —
//! bucketed by the absolute slot at which they fall due. [`UserSet`] is an
//! ascending set of user ids (the waiting users, and the asleep ones among
//! them). The third index, the arrivals of a slot,
//! is the schedule itself in its slot-major order:
//! [`ArrivalSchedule::at_slot`](crate::arrivals::ArrivalSchedule::at_slot).

use fedco_core::experiment::SimConfig;

// The indices store user ids as `u32` (half the calendar's footprint at a
// million users); every fleet fits.
const _: () = assert!(SimConfig::MAX_USERS <= u32::MAX as usize);

/// What a calendar entry announces for its user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Deadline {
    /// The foreground application leaves.
    AppExpiry,
    /// The training epoch is complete.
    EpochDone,
    /// A sleeping waiting user can be scheduled again (see the
    /// [`user`](crate::user) module).
    Wake,
}

/// One calendar entry. Ordered by user, then deadline kind — the order a
/// bucket is handed out in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Due {
    /// The user the deadline belongs to.
    pub user: u32,
    /// Which deadline it is.
    pub what: Deadline,
}

/// Deadlines bucketed by the slot at which they fall due.
///
/// Entries are never removed when the state they announce goes away (a
/// device that goes dark drops its application and aborts its epoch): they
/// turn *stale* instead, and every read filters through a caller-supplied
/// liveness test against the authoritative per-user deadlines. Together
/// with the `(slot, user)` hand-out order and the dropping of duplicates,
/// that makes the calendar report exactly the users a scan of the fleet
/// for "deadline == slot" would find, in the order the scan finds them.
#[derive(Debug, Default)]
pub(crate) struct Calendar {
    /// `buckets[s]` holds the deadlines falling due at slot `s`, in push
    /// order.
    buckets: Vec<Vec<Due>>,
}

impl Calendar {
    /// A calendar for deadlines up to and including slot `horizon`.
    pub(crate) fn new(horizon: u64) -> Self {
        Calendar {
            buckets: vec![Vec::new(); horizon as usize + 1],
        }
    }

    /// Files a deadline of `user` at `slot`. A deadline beyond the horizon
    /// can never fall due and is dropped.
    pub(crate) fn push(&mut self, slot: u64, user: usize, what: Deadline) {
        if let Some(bucket) = self.buckets.get_mut(slot as usize) {
            bucket.push(Due {
                user: user as u32,
                what,
            });
        }
    }

    /// Takes the bucket of `slot`: its live entries, each once, ascending by
    /// user. The bucket is empty afterwards.
    pub(crate) fn take_due(&mut self, slot: u64, is_live: impl Fn(Due) -> bool) -> Vec<Due> {
        let mut due = match self.buckets.get_mut(slot as usize) {
            Some(bucket) => std::mem::take(bucket),
            None => return Vec::new(),
        };
        due.retain(|&d| is_live(d));
        due.sort_unstable();
        due.dedup();
        due
    }
}

/// A set of user ids that iterates in ascending order: one bit per user.
#[derive(Debug, Clone, Default)]
pub(crate) struct UserSet {
    words: Vec<u64>,
    len: usize,
}

impl UserSet {
    /// The set of all users `0..num_users`.
    pub(crate) fn full(num_users: usize) -> Self {
        let mut words = vec![u64::MAX; num_users.div_ceil(64)];
        if let (Some(last), rem @ 1..) = (words.last_mut(), num_users % 64) {
            *last = (1 << rem) - 1;
        }
        UserSet {
            words,
            len: num_users,
        }
    }

    /// The empty set over users `0..num_users`.
    pub(crate) fn empty(num_users: usize) -> Self {
        UserSet {
            words: vec![0; num_users.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of users in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether user `i` is a member.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds user `i` (a no-op if present).
    pub(crate) fn insert(&mut self, i: usize) {
        let bit = 1 << (i % 64);
        self.len += usize::from(self.words[i / 64] & bit == 0);
        self.words[i / 64] |= bit;
    }

    /// Removes user `i` (a no-op if absent).
    pub(crate) fn remove(&mut self, i: usize) {
        let bit = 1 << (i % 64);
        self.len -= usize::from(self.words[i / 64] & bit != 0);
        self.words[i / 64] &= !bit;
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Number of 64-user blocks the set spans.
    pub(crate) fn blocks(&self) -> usize {
        self.words.len()
    }

    /// The members among users `64·b .. 64·(b + 1)`, ascending, as they
    /// stand now: the iterator holds a copy of the block, so members may
    /// leave the set while it is walked (none may join).
    pub(crate) fn block(&self, b: usize) -> impl Iterator<Item = usize> {
        members(b, self.words[b])
    }

    /// The members among users `64·b .. 64·(b + 1)` that are not members of
    /// `other` (a set over as many users), ascending, as they stand now.
    pub(crate) fn block_without(&self, b: usize, other: &UserSet) -> impl Iterator<Item = usize> {
        members(b, self.words[b] & !other.words[b])
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.blocks()).flat_map(|b| self.block(b))
    }
}

/// The users of block `b` whose bits are set in `word`, ascending.
fn members(b: usize, word: u64) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(word), |w| Some(w & w.wrapping_sub(1)))
        .take_while(|&w| w != 0)
        .map(move |w| b * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due(user: u32, what: Deadline) -> Due {
        Due { user, what }
    }

    #[test]
    fn calendar_hands_out_a_bucket_in_user_order_once() {
        let mut c = Calendar::new(10);
        c.push(4, 9, Deadline::EpochDone);
        c.push(4, 2, Deadline::EpochDone);
        c.push(4, 9, Deadline::AppExpiry);
        c.push(4, 2, Deadline::EpochDone); // filed twice: handed out once
        c.push(5, 0, Deadline::AppExpiry);
        assert_eq!(
            c.take_due(4, |_| true),
            [
                due(2, Deadline::EpochDone),
                due(9, Deadline::AppExpiry),
                due(9, Deadline::EpochDone)
            ]
        );
        assert!(c.take_due(4, |_| true).is_empty(), "a bucket is taken once");
        assert_eq!(c.take_due(5, |_| true), [due(0, Deadline::AppExpiry)]);
    }

    #[test]
    fn calendar_filters_stale_entries_through_the_liveness_test() {
        // User 3 went dark after filing both deadlines; user 1 re-filed its
        // expiry for a later slot.
        let mut c = Calendar::new(20);
        c.push(7, 3, Deadline::AppExpiry);
        c.push(7, 3, Deadline::EpochDone);
        c.push(7, 1, Deadline::AppExpiry);
        c.push(12, 1, Deadline::AppExpiry);
        c.push(7, 5, Deadline::EpochDone);
        let app_until = [0u64, 12, 0, 0, 0, 0];
        let epoch_until = [0u64, 0, 0, 0, 0, 7];
        let live = |slot: u64, d: Due| match d.what {
            Deadline::AppExpiry => app_until[d.user as usize] == slot,
            Deadline::EpochDone => epoch_until[d.user as usize] == slot,
            Deadline::Wake => false,
        };
        assert_eq!(c.take_due(7, |d| live(7, d)), [due(5, Deadline::EpochDone)]);
        assert_eq!(
            c.take_due(12, |d| live(12, d)),
            [due(1, Deadline::AppExpiry)]
        );
    }

    #[test]
    fn calendar_is_quiet_when_empty_and_beyond_its_horizon() {
        let mut c = Calendar::new(3);
        assert!((0..=5).all(|s| c.take_due(s, |_| true).is_empty()));
        assert!(c.take_due(2, |_| true).is_empty());
        // A deadline past the horizon never falls due.
        c.push(4, 0, Deadline::EpochDone);
        c.push(3, 0, Deadline::EpochDone);
        assert!(c.take_due(4, |_| true).is_empty());
        assert_eq!(c.take_due(3, |_| true), [due(0, Deadline::EpochDone)]);
        // The default calendar (a dense run's) files nothing.
        let mut none = Calendar::default();
        none.push(0, 0, Deadline::AppExpiry);
        assert!(none.take_due(0, |_| true).is_empty());
    }

    #[test]
    fn user_set_iterates_ascending_across_word_edges() {
        for n in [1usize, 63, 64, 65, 128, 300] {
            let mut set = UserSet::full(n);
            assert_eq!(set.len(), n);
            assert!(set.iter().eq(0..n), "n={n}");
            assert_eq!(set.blocks(), n.div_ceil(64));
            // Keep only the word-edge members.
            for i in 0..n {
                if !(i % 64 == 0 || i % 64 == 63) {
                    set.remove(i);
                    set.remove(i);
                }
            }
            let edges: Vec<usize> = (0..n).filter(|i| i % 64 == 0 || i % 64 == 63).collect();
            assert_eq!(set.len(), edges.len());
            assert!(set.iter().eq(edges.iter().copied()), "n={n}");
            set.insert(n - 1);
            set.insert(n - 1);
            assert_eq!(set.block((n - 1) / 64).last(), Some(n - 1));
        }
        assert_eq!(UserSet::full(0).iter().next(), None);
    }
}
