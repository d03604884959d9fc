//! Executable specification of the event queue's pop order.
//!
//! A reference queue — a `BinaryHeap` ordered by `(time, seq)`, written
//! out independently of `EventQueue` — serves as the model, and the queue
//! is driven against it under arbitrary interleaved
//! push/pop/pop_before/peek sequences, including same-instant FIFO bursts,
//! pushes earlier than events already popped, and far-future pushes. Every
//! observable (popped pairs, peeked times, lengths) must be identical,
//! which is exactly the determinism contract the golden-report suite leans
//! on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simcore::{EventQueue, SimTime};

/// One pending event in the reference model.
struct Scheduled {
    at: SimTime,
    seq: u64,
    id: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap pops the earliest `(time, seq)`.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference queue: `(time, seq)` order, FIFO within an instant.
struct HeapModel {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, id: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, id });
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|s| (s.at, s.id))
    }

    fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, u32)> {
        if self.peek_time()? > t {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Push(u64),
    Pop,
    PopBefore(u64),
    Peek,
}

/// Arbitrary operations, biased toward pushes so queues actually build up.
/// Push/bound times mix three regimes: dense sub-microsecond values (many
/// same-instant collisions), a millisecond range like the simulators'
/// slices and polls, and a far-future range up to ten hours out. A push may
/// land before events already popped.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..2_000).prop_map(Op::Push),
        (0u64..2_000).prop_map(Op::Push),
        (0u64..5_000_000).prop_map(Op::Push),
        (0u64..5_000_000).prop_map(Op::Push),
        (0u64..(1 << 45)).prop_map(Op::Push),
        (0u64..(1 << 45)).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
        (0u64..5_000_000).prop_map(Op::PopBefore),
        (0u64..(1 << 45)).prop_map(Op::PopBefore),
        Just(Op::Peek),
    ]
}

proptest! {
    /// The queue is observationally identical to the reference heap under
    /// arbitrary interleavings, and the final drain pops the exact same
    /// `(time, payload)` sequence.
    #[test]
    fn prop_queue_matches_heap_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut queue = EventQueue::new();
        let mut model = HeapModel::new();
        let mut id = 0u32;
        for op in ops {
            match op {
                Op::Push(ns) => {
                    let at = SimTime::from_nanos(ns);
                    queue.push(at, id);
                    model.push(at, id);
                    id += 1;
                }
                Op::Pop => prop_assert_eq!(queue.pop(), model.pop()),
                Op::PopBefore(ns) => {
                    let t = SimTime::from_nanos(ns);
                    prop_assert_eq!(queue.pop_before(t), model.pop_before(t));
                }
                Op::Peek => prop_assert_eq!(queue.peek_time(), model.peek_time()),
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.is_empty(), model.len() == 0);
        }
        loop {
            let (a, b) = (queue.pop(), model.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// A burst of events at one shared instant pops in exact insertion
    /// order, even when interleaved with events elsewhere in time.
    #[test]
    fn prop_same_instant_burst_is_fifo(
        n in 1usize..300,
        t in 0u64..(1 << 40),
        other in proptest::collection::vec(0u64..(1 << 40), 0..50),
    ) {
        let burst = SimTime::from_nanos(t);
        let mut q = EventQueue::new();
        // Interleave the burst with unrelated events.
        for (i, &o) in other.iter().enumerate() {
            q.push(SimTime::from_nanos(o), u32::MAX - i as u32);
        }
        for i in 0..n {
            q.push(burst, i as u32);
        }
        let mut burst_ids = Vec::new();
        while let Some((at, idx)) = q.pop() {
            if at == burst && idx < u32::MAX - 64 {
                burst_ids.push(idx);
            }
        }
        prop_assert_eq!(burst_ids, (0..n as u32).collect::<Vec<_>>());
    }

    /// Times up to 2^52 ns (about 52 days) pop in globally sorted order:
    /// popping with an ascending sweep of `pop_before` horizons yields the
    /// fully sorted `(time, seq)` order.
    #[test]
    fn prop_far_future_times_sorted(times in proptest::collection::vec(0u64..(1 << 52), 1..200)) {
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u32)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i as u32);
            expect.push((t, i as u32));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        // Sweep horizons across the orders of magnitude, then drain.
        for shift in [10u32, 16, 22, 28, 34, 40, 46, 52] {
            let horizon = SimTime::from_nanos(1 << shift);
            while let Some((at, idx)) = q.pop_before(horizon) {
                prop_assert!(at <= horizon);
                got.push((at.as_nanos(), idx));
            }
        }
        while let Some((at, idx)) = q.pop() {
            got.push((at.as_nanos(), idx));
        }
        prop_assert_eq!(got, expect);
    }
}
