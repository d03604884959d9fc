//! Deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`, where `sequence` is a
//! monotonically increasing tiebreaker assigned at push time. Two events at
//! the same instant therefore pop in insertion order, which keeps whole-system
//! runs bit-for-bit reproducible for a fixed seed.
//!
//! Storage is a hierarchical timer wheel (the private `wheel` module)
//! rather than a binary heap: pushes and pops are O(1) amortized instead of
//! O(log n), and [`EventQueue::pop_before`] lets advance loops consume due
//! events in a single traversal. The pop order is contractually identical to the
//! `(time, seq)` total order the former heap produced.

use crate::time::SimTime;
use crate::wheel::Wheel;

/// A timer wheel of timestamped events with deterministic FIFO tie-breaking.
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
    wheel: Wheel<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            wheel: Wheel::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Makes room for `pending` events in total: the queue allocates
    /// nothing more until more than that many are pending at once.
    pub fn reserve_total(&mut self, pending: usize) {
        self.wheel.reserve_total(pending);
    }

    /// Schedules `payload` at time `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(at, seq, payload);
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.wheel.pop()
    }

    /// Removes and returns the earliest event if it is due at or before `t`;
    /// leaves the queue untouched otherwise.
    ///
    /// The one-traversal idiom for advance loops:
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
        self.wheel.pop_before(t)
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Costs a scan of the earliest wheel bucket; loops that would peek and
    /// then pop should use [`EventQueue::pop_before`] instead.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Drops all pending events and resets the sequence counter, leaving the
    /// queue observationally identical to a freshly constructed one (only
    /// internal buffer capacities are retained). In particular, FIFO
    /// tie-break order after a `clear` matches a fresh queue's, so runs that
    /// reuse queues stay deterministic.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
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

    /// Regression test: `clear` must reset the FIFO sequence counter, so a
    /// cleared queue that is refilled pops in exactly the order a fresh
    /// queue would (reused queues across runs stay deterministic).
    #[test]
    fn cleared_queue_is_observationally_fresh() {
        let t = SimTime::from_micros(42);
        let mut reused = EventQueue::new();
        for i in 0..10 {
            reused.push(t, i);
        }
        reused.pop();
        reused.clear();

        let mut fresh = EventQueue::new();
        for i in 0..10 {
            reused.push(t, 100 + i);
            fresh.push(t, 100 + i);
        }
        loop {
            let (a, b) = (reused.pop(), fresh.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
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
