//! Deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`, where `sequence` is a
//! monotonically increasing tiebreaker assigned at push time. Two events at
//! the same instant therefore pop in insertion order, which keeps whole-system
//! runs bit-for-bit reproducible for a fixed seed. An owner that knows an
//! event's time early but may never need it can take its sequence number
//! with [`EventQueue::reserve_seq`] and store the event only once it comes
//! due ([`EventQueue::push_reserved`]); it then pops exactly where it would
//! have if pushed up front.
//!
//! Storage is a `std` [`BinaryHeap`] of `(time, sequence, payload)`
//! entries: a push or pop sifts O(log n) entries of the tens to hundreds
//! of events a simulator holds pending, and no key repeats, so the heap's
//! order is the `(time, seq)` total order whatever the push history.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A binary heap of timestamped events with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use simcore::{queue::EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(5), 'b');
/// q.push(SimTime::from_micros(5), 'c');
/// q.push(SimTime::from_micros(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

/// One pending event, keyed by `(at, seq)` alone.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` as one integer with the same order. One integer
    /// compare lets a sift pick a child without branching; comparing the
    /// tuple field by field made a push or pop about 1.5× slower at the
    /// few hundred events a 48-core box holds pending.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed `(at, seq)`, so the max-heap's top is the earliest event.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Makes room for `pending` events in total: the queue allocates
    /// nothing more until more than that many are pending at once.
    pub fn reserve_total(&mut self, pending: usize) {
        self.heap
            .reserve_exact(pending.saturating_sub(self.heap.len()));
    }

    /// Schedules `payload` at time `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.heap.push(Entry { at, seq, payload });
    }

    /// Takes the sequence number a [`EventQueue::push`] made now would
    /// take, without storing anything. An event pushed later under it by
    /// [`EventQueue::push_reserved`] pops exactly where it would have,
    /// had it been pushed now.
    ///
    /// ```
    /// use simcore::{queue::EventQueue, SimTime};
    ///
    /// let t = SimTime::from_micros(3);
    /// let mut q = EventQueue::new();
    /// let first = q.reserve_seq();
    /// q.push(t, "second");
    /// // Merged back before the queue pops anything at `t`.
    /// q.push_reserved(t, first, "first");
    /// assert_eq!(q.pop(), Some((t, "first")));
    /// assert_eq!(q.pop(), Some((t, "second")));
    /// ```
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `(at, seq)`, where `seq` came from
    /// [`EventQueue::reserve_seq`] on this queue. Each reserved number is
    /// pushed at most once, and before the queue pops anything that sorts
    /// after `(at, seq)`; pops then follow the `(time, seq)` order of a
    /// queue that held the event from the moment its number was reserved.
    #[inline]
    pub fn push_reserved(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Removes and returns the earliest event if it is due at or before `t`;
    /// leaves the queue untouched otherwise.
    ///
    /// The one-call idiom for advance loops:
    ///
    /// ```
    /// use simcore::{queue::EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_micros(1), "due");
    /// q.push(SimTime::from_micros(9), "later");
    /// let horizon = SimTime::from_micros(5);
    /// while let Some((_at, ev)) = q.pop_before(horizon) {
    ///     assert_eq!(ev, "due");
    /// }
    /// assert_eq!(q.len(), 1);
    /// ```
    #[inline]
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > t {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(5), ());
        q.push(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_respects_bound() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 'a');
        q.push(SimTime::from_millis(3), 'b');
        assert_eq!(q.pop_before(SimTime::from_millis(2)).unwrap().1, 'a');
        assert_eq!(q.pop_before(SimTime::from_millis(2)), None);
        assert_eq!(q.len(), 1);
        // Inclusive bound: an event exactly at `t` is due.
        assert_eq!(q.pop_before(SimTime::from_millis(3)).unwrap().1, 'b');
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    proptest! {
        /// Popping must yield a non-decreasing sequence of timestamps, and
        /// within one timestamp the original insertion order.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }

        /// Events whose number was reserved at push time and that are
        /// merged back only once the clock reaches them pop in exactly the
        /// order of one queue that held every event from its push: the
        /// way a box arms a query deadline only when it comes due.
        #[test]
        fn prop_reserved_events_merge_back_in_place(
            ops in proptest::collection::vec((0u64..40, 0u64..120, any::<bool>()), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut reference = EventQueue::new();
            let mut held: Vec<(SimTime, u64, usize)> = Vec::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            let mut drain = |q: &mut EventQueue<usize>,
                             reference: &mut EventQueue<usize>,
                             held: &mut Vec<(SimTime, u64, usize)>,
                             t: SimTime| {
                // Merge back every held event that is due, newest first:
                // the order of the merge does not matter.
                for i in (0..held.len()).rev() {
                    if held[i].0 <= t {
                        let (at, seq, id) = held.swap_remove(i);
                        q.push_reserved(at, seq, id);
                    }
                }
                while let Some(ev) = q.pop_before(t) {
                    got.push(ev);
                }
                while let Some(ev) = reference.pop_before(t) {
                    want.push(ev);
                }
            };
            for (id, &(step, delay, reserved)) in ops.iter().enumerate() {
                now += SimDuration::from_nanos(step);
                drain(&mut q, &mut reference, &mut held, now);
                let at = now + SimDuration::from_nanos(delay);
                reference.push(at, id);
                if reserved {
                    held.push((at, q.reserve_seq(), id));
                } else {
                    q.push(at, id);
                }
            }
            drain(&mut q, &mut reference, &mut held, SimTime::MAX);
            prop_assert!(held.is_empty() && q.is_empty() && reference.is_empty());
            prop_assert_eq!(got, want);
        }

        /// The queue must return exactly the multiset of pushed payloads.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..50, 0..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
