//! Dense request ids over a window of in-flight state.
//!
//! A simulated service numbers its requests densely from 0 and keeps
//! per-request state while each one runs. Indexing a `Vec` by id keeps the
//! state of every request since t = 0, so a box's memory grows with the
//! length of the run. [`RequestTable`] hands out the same dense ids but
//! stores state only from the oldest unfinished request on: finishing a
//! request takes its entry out, and once it and every older request are
//! finished the table drops them from the front. Memory then follows the
//! work in flight, and ids (with the thread tags and message tokens built
//! from them) are exactly the ones a `Vec` index would give.

use std::collections::VecDeque;
use std::ops::Range;

/// Per-request state keyed by dense `u64` ids, retired from the front.
///
/// A retired id reads as finished, exactly like an id whose entry is
/// still held but already finished.
///
/// # Examples
///
/// ```
/// use simcore::RequestTable;
///
/// let mut t = RequestTable::new();
/// let a = t.insert("a");
/// let b = t.insert("b");
/// assert_eq!((a, b), (0, 1));
/// // `b` finishes first: `a` still runs, so nothing retires yet.
/// assert_eq!(t.finish(b), Some("b"));
/// assert_eq!(t.window(), 2);
/// // Finishing `a` retires both; the next id stays dense.
/// t.finish(a);
/// assert_eq!(t.window(), 0);
/// assert!(t.is_finished(a) && t.is_finished(b));
/// assert_eq!(t.insert("c"), 2);
/// ```
#[derive(Debug)]
pub struct RequestTable<T> {
    /// Id of `slots[0]`; every smaller id is retired.
    first: u64,
    /// One slot per id from `first` on, `None` once finished. The front
    /// slot is always unfinished.
    slots: VecDeque<Option<T>>,
}

impl<T> Default for RequestTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RequestTable<T> {
    /// An empty table whose first id is 0.
    pub fn new() -> Self {
        RequestTable {
            first: 0,
            slots: VecDeque::new(),
        }
    }

    /// The id the next [`RequestTable::insert`] hands out.
    pub fn next_id(&self) -> u64 {
        self.first + self.slots.len() as u64
    }

    /// Stores a new request's state and returns its id.
    pub fn insert(&mut self, value: T) -> u64 {
        let id = self.next_id();
        self.slots.push_back(Some(value));
        id
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.first)?).ok()
    }

    /// The state of request `id` while it is unfinished; `None` once it
    /// has finished or retired, and for ids not yet handed out.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// Mutable [`RequestTable::get`].
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// True unless `id` is handed out and unfinished.
    pub fn is_finished(&self, id: u64) -> bool {
        self.get(id).is_none()
    }

    /// Marks `id` finished and returns its state (`None` if it already
    /// was), then retires every finished entry at the front.
    pub fn finish(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let value = self.slots.get_mut(i)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first += 1;
        }
        value
    }

    /// The ids not yet retired, oldest first. Every unfinished request is
    /// in this range; callers that sweep it skip the finished ones.
    pub fn unretired(&self) -> Range<u64> {
        self.first..self.next_id()
    }

    /// Entries held: ids from the oldest unfinished request to the newest.
    pub fn window(&self) -> usize {
        self.slots.len()
    }

    /// Entries the table holds without reallocating: at least the largest
    /// window it has had.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_across_retirement() {
        let mut t = RequestTable::new();
        for expect in 0..10u64 {
            let id = t.insert(expect);
            assert_eq!(id, expect);
            // Finish every other request at once; the rest stay open.
            if id % 2 == 0 {
                t.finish(id);
            }
        }
        assert_eq!(t.next_id(), 10);
        for id in 0..10u64 {
            let held = t.get(id).copied();
            assert_eq!(held, (id % 2 == 1).then_some(id), "id {id}");
        }
        for id in (1..10u64).step_by(2) {
            assert_eq!(t.finish(id), Some(id));
        }
        assert_eq!(t.window(), 0);
        assert_eq!(t.unretired(), 10..10);
        assert_eq!(t.insert(10), 10);
        assert_eq!(t.get(10), Some(&10));
    }

    #[test]
    fn retired_id_reads_as_finished() {
        let mut t = RequestTable::new();
        let a = t.insert('a');
        let b = t.insert('b');
        assert!(!t.is_finished(a));
        assert_eq!(t.finish(a), Some('a'));
        assert_eq!(t.unretired(), 1..2, "finishing the oldest retires it");
        assert!(t.is_finished(a));
        assert_eq!(t.get(a), None);
        assert_eq!(t.get_mut(a), None);
        assert_eq!(t.finish(a), None, "a retired id finishes once");
        assert_eq!(t.get(b), Some(&'b'));
        assert!(t.is_finished(7), "an id not yet handed out holds nothing");
    }

    #[test]
    fn retirement_stops_at_the_first_unfinished_entry() {
        let mut t = RequestTable::new();
        let ids: Vec<u64> = (0..6).map(|i| t.insert(i)).collect();
        // Finish 0, 1, 3 and 5: retirement drops 0 and 1, stops at 2.
        for &id in &[1, 3, 5, 0] {
            t.finish(ids[id]);
        }
        assert_eq!(t.unretired(), 2..6);
        assert_eq!(t.window(), 4);
        assert_eq!(t.get(2), Some(&2), "the oldest open entry survives");
        assert_eq!(t.get(4), Some(&4));
        assert!(t.is_finished(3) && t.is_finished(5));
        // Finishing 4 leaves 2 at the front, so nothing retires.
        t.finish(4);
        assert_eq!(t.unretired(), 2..6);
        // Finishing 2 retires it and every finished entry behind it.
        t.finish(2);
        assert_eq!(t.unretired(), 6..6);
    }

    #[test]
    fn window_follows_in_flight_work() {
        // A steady stream where each request finishes when the one 8 ids
        // younger arrives: the window settles at 8 entries.
        let mut t = RequestTable::new();
        let mut high = 0;
        for i in 0..10_000u64 {
            t.insert(i);
            if let Some(old) = i.checked_sub(8) {
                assert_eq!(t.finish(old), Some(old));
            }
            high = high.max(t.window());
        }
        assert_eq!(high, 8);
        assert!(t.capacity() < 64, "capacity {}", t.capacity());
    }
}
