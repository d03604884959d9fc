//! Hierarchical timer wheel: the storage engine behind [`EventQueue`].
//!
//! A calendar-queue-style structure replacing the former `BinaryHeap`. The
//! virtual-time axis is divided into *granules* of 2^[`GRANULE_BITS`] ns
//! (~16 µs) and granule indices are hashed into a hierarchy of wheels of
//! [`SLOTS`] slots each: level 0 resolves single granules, and each level
//! above covers [`SLOTS`]× the span of the one below, so nine levels span
//! the full `u64` nanosecond range. An event lands at the lowest level
//! whose current rotation can still distinguish its expiry from the wheel
//! cursor (`floor`); as the cursor advances, higher-level slots *cascade*:
//! their events are re-hashed into the finer levels below.
//!
//! # Storage
//!
//! Events live in one contiguous slab recycled through an internal free
//! list, and each slot is an intrusive singly-linked list threaded through
//! the slab (`next` indices). Every operation relinks indices instead of
//! moving payloads: a push hashes to its slot and prepends in O(1), a
//! cascade relinks one `u32` per event, and a pop min-scans the earliest
//! slot's short list — the few recycled cells stay hot in cache, so the
//! scan is cheaper than heap sifts at the queue sizes the simulators run
//! (tens of pending timers). Each event is touched exactly twice (push,
//! pop) plus at most one relink per level crossed. In steady state the
//! wheel allocates nothing.
//!
//! # Determinism contract
//!
//! Events pop in exactly ascending `(time, seq)` order — bit-identical to
//! the total order the previous `BinaryHeap` core produced. Slot lists are
//! unordered, but every `(time, seq)` key is unique, so the min-scan pop
//! is independent of the path an event took through the levels, and late
//! pushes (behind the cursor, possible only through adversarial queue
//! reuse) keep exact rank through the sorted `overdue` side buffer.
//! Adversarial interleavings of push/pop/clear match the reference heap
//! order (see `tests/prop_wheel.rs`).
//!
//! [`EventQueue`]: crate::queue::EventQueue

use crate::time::SimTime;
use std::cell::Cell;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask selecting a slot index.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// log2 of the level-0 granule width in nanoseconds (2^14 ns ≈ 16 µs).
/// Chosen so the level-0 rotation (64 granules ≈ 1 ms) covers the
/// simulators' common timer horizon — scheduler slice ends, thread wakes,
/// I/O service times — keeping the hot path cascade-free; coarser would
/// funnel events through ever-larger imminent heaps, finer pushes
/// millisecond timers into the cascading levels.
const GRANULE_BITS: u32 = 14;
/// Levels needed so the top level's rotation spans all 2^64 nanoseconds.
const LEVELS: usize = (64 - GRANULE_BITS as usize).div_ceil(SLOT_BITS as usize);

/// Null link / empty slot marker.
const NIL: u32 = u32::MAX;

/// One slab cell: a wheel-resident event threaded into a slot list, or a
/// free-list node awaiting reuse (`payload` is `None` only while free).
struct Node<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    payload: Option<E>,
}

/// The hierarchical timer wheel. See the module docs for the layout.
///
/// `repr(C)` with the per-operation metadata — cursor, free list, level
/// bitmap, length, peek cache, and the level-0 occupancy word — packed at
/// the front, so the bookkeeping of a push or pop touches one cache line
/// plus the slot head and the slab cell.
#[repr(C)]
pub(crate) struct Wheel<E> {
    /// Granule cursor: the base granule of the currently open level-0
    /// slot. Every event in the wheel expires at granule `>= floor`;
    /// anything earlier is in `overdue`.
    floor: u64,
    /// Free-list head into `nodes`, or `NIL`.
    free: u32,
    /// Bit `l` set ⇔ `occupied[l] != 0`; finds the lowest live level in one
    /// `trailing_zeros`.
    live_levels: u32,
    /// Total pending events (wheel + overdue).
    len: usize,
    /// Lazily recomputed earliest pending expiry ([`Wheel::peek_time`]).
    peek_valid: Cell<bool>,
    peek_at: Cell<Option<SimTime>>,
    /// Per-level occupancy bitmaps: bit `s` set ⇔ slot `s` is non-empty.
    occupied: [u64; LEVELS],
    /// Level-0 slot list heads, inline: the open-window slots that nearly
    /// every push and pop touch stay adjacent to the metadata above.
    heads0: [u32; SLOTS],
    /// Far-future event slab; freed cells are chained through `free`.
    nodes: Vec<Node<E>>,
    /// Levels ≥ 1 slot list heads (`(LEVELS-1) * SLOTS`, row-major), `NIL`
    /// when empty — the cold side of the hierarchy, touched only when an
    /// event skips past the level-0 rotation or cascades back down.
    heads_hi: Box<[u32]>,
    /// Events pushed behind the cursor (possible only when a queue is
    /// driven backwards, e.g. the property tests' adversarial reuse):
    /// slab indices sorted by *descending* `(time, seq)`, popped from the
    /// back. Empty in every forward-running simulator.
    overdue: Vec<u32>,
}

/// Granule index of a timestamp.
#[inline]
fn granule(at: SimTime) -> u64 {
    at.as_nanos() >> GRANULE_BITS
}

/// The level whose current rotation distinguishes granule `g` from the
/// cursor `floor`: the highest bit where they differ, divided into 6-bit
/// slot-index groups (the `| SLOT_MASK` folds "no difference" into level 0).
#[inline]
fn level_for(floor: u64, g: u64) -> usize {
    let significant = 63 - ((floor ^ g) | SLOT_MASK).leading_zeros();
    (significant / SLOT_BITS) as usize
}

impl<E> Wheel<E> {
    pub fn new() -> Self {
        Wheel {
            nodes: Vec::new(),
            free: NIL,
            heads0: [NIL; SLOTS],
            heads_hi: vec![NIL; (LEVELS - 1) * SLOTS].into_boxed_slice(),
            occupied: [0; LEVELS],
            live_levels: 0,
            floor: 0,
            overdue: Vec::new(),
            len: 0,
            peek_valid: Cell::new(true),
            peek_at: Cell::new(None),
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        let mut w = Self::new();
        w.nodes.reserve(cap);
        w
    }

    /// Grows the slab to hold `pending` events without further growth.
    pub fn reserve_total(&mut self, pending: usize) {
        self.nodes
            .reserve_exact(pending.saturating_sub(self.nodes.len()));
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an event. `seq` must be unique across all pending events.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, payload: E) {
        self.len += 1;
        if self.peek_valid.get() {
            // A push can only move the earliest expiry down.
            let cache = self.peek_at.get().map_or(at, |c| c.min(at));
            self.peek_at.set(Some(cache));
        }
        let node = self.alloc(at, seq, payload);
        if granule(at) < self.floor {
            // Push behind the cursor: merge into the sorted overdue buffer
            // (descending, so the earliest is at the back). Never taken by
            // the forward-running simulators; required so a cleared-and-
            // reused queue behaves exactly like a fresh one.
            let key = (at, seq);
            let idx = self.overdue.partition_point(|&n| {
                let n = &self.nodes[n as usize];
                (n.at, n.seq) > key
            });
            self.overdue.insert(idx, node);
        } else {
            self.link(node, at);
        }
    }

    /// Takes a slab cell off the free list (or grows the slab).
    #[inline]
    fn alloc(&mut self, at: SimTime, seq: u64, payload: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let cell = &mut self.nodes[idx as usize];
            self.free = cell.next;
            cell.at = at;
            cell.seq = seq;
            cell.next = NIL;
            cell.payload = Some(payload);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "event queue slab overflow");
            self.nodes.push(Node {
                at,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            idx
        }
    }

    /// Threads an at-or-after-`floor` node onto its slot list.
    #[inline]
    fn link(&mut self, node: u32, at: SimTime) {
        let g = granule(at);
        debug_assert!(g >= self.floor);
        let level = level_for(self.floor, g);
        let slot = ((g >> (level as u32 * SLOT_BITS)) & SLOT_MASK) as usize;
        let head = if level == 0 {
            &mut self.heads0[slot]
        } else {
            &mut self.heads_hi[(level - 1) * SLOTS + slot]
        };
        self.nodes[node as usize].next = *head;
        *head = node;
        self.occupied[level] |= 1 << slot;
        self.live_levels |= 1 << level;
    }

    /// The expiry of the earliest pending event, if any.
    ///
    /// Amortized O(1): the answer is cached and only recomputed (a bitmap
    /// probe plus a min-scan of one short slot list) after a pop. Advance
    /// loops should still prefer [`Wheel::pop_before`] over peek-then-pop.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.peek_valid.get() {
            let at = if let Some(&back) = self.overdue.last() {
                Some(self.nodes[back as usize].at)
            } else {
                self.earliest_slot()
                    .map(|(level, slot)| self.slot_min(level, slot))
            };
            self.peek_at.set(at);
            self.peek_valid.set(true);
        }
        self.peek_at.get()
    }

    /// The earliest expiry in one occupied slot's list.
    fn slot_min(&self, level: usize, slot: usize) -> SimTime {
        let mut cur = if level == 0 {
            self.heads0[slot]
        } else {
            self.heads_hi[(level - 1) * SLOTS + slot]
        };
        let mut min = SimTime::MAX;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            min = min.min(n.at);
            cur = n.next;
        }
        min
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it expires at or before
    /// `t`; otherwise leaves the queue untouched and returns `None`.
    ///
    /// This is the single-traversal replacement for peek-then-pop: one
    /// bitmap probe finds the earliest slot and one pass over its short
    /// list decides due-or-not, unlinks the minimum, and refills the peek
    /// cache with the runner-up — so the terminating call of an advance
    /// loop leaves the next `peek_time` free.
    ///
    /// The cursor moves only when an event is due. A miss caches the
    /// earliest expiry and leaves the cursor at or behind the last popped
    /// event, which is at or behind the owner's clock, so the owner's next
    /// push at its own `now` lands in the wheel, not in `overdue`.
    #[inline]
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.peek_valid.get() {
            match self.peek_at.get() {
                None => return None,
                Some(at) if at > t => return None,
                _ => {}
            }
        }
        // The overdue buffer (when non-empty) is earlier than the whole
        // wheel, so its back is the global minimum.
        if let Some(&back) = self.overdue.last() {
            let at = self.nodes[back as usize].at;
            if at > t {
                self.peek_at.set(Some(at));
                self.peek_valid.set(true);
                return None;
            }
            self.overdue.pop();
            match self.overdue.last() {
                Some(&next) => {
                    self.peek_at.set(Some(self.nodes[next as usize].at));
                    self.peek_valid.set(true);
                }
                None => {
                    // Lazily re-scan from the wheel on the next peek.
                    self.peek_at.set(None);
                    self.peek_valid.set(self.len == 1);
                }
            }
            return Some(self.take(back));
        }
        // Fast path: while the open slot (the level-0 slot at the cursor)
        // is non-empty it is the global earliest — pushes behind it go to
        // `overdue` and every other slot or level is later — so repeated
        // pops skip the slot search entirely.
        let slot = (self.floor & SLOT_MASK) as usize;
        if self.occupied[0] & (1 << slot) != 0 {
            return self.pop_open_slot(slot, t);
        }
        // Find the earliest slot. If it is in an upper level, due-check its
        // minimum before cascading, since a cascade moves the cursor.
        let Some((mut level, mut slot)) = self.earliest_slot() else {
            self.peek_at.set(None);
            self.peek_valid.set(true);
            return None;
        };
        if level > 0 {
            let at = self.slot_min(level, slot);
            if at > t {
                self.peek_at.set(Some(at));
                self.peek_valid.set(true);
                return None;
            }
        }
        while level > 0 {
            // Lower levels are empty, so everything pending expires at or
            // after this slot's window: advance the cursor to its start and
            // re-hash the list; each entry lands at least one level down.
            let shift = level as u32 * SLOT_BITS;
            self.floor = ((self.floor >> (shift + SLOT_BITS)) << (shift + SLOT_BITS))
                | ((slot as u64) << shift);
            self.cascade_slot(level, slot);
            let (l, s) = self.earliest_slot().expect("cascade re-linked entries");
            level = l;
            slot = s;
        }
        // Due-check and pop the slot's minimum, and only then open the
        // slot (move the cursor to its base).
        let popped = self.pop_open_slot(slot, t)?;
        let base = (self.floor & !SLOT_MASK) | slot as u64;
        debug_assert!(base >= self.floor);
        self.floor = base;
        Some(popped)
    }

    /// Due-checks and pops the minimum of the earliest non-empty level-0
    /// slot: the open (cursor-resident) slot, or the slot about to open.
    ///
    /// One pass over the slot's short list: find the `(time, seq)`
    /// minimum, its predecessor, and the runner-up expiry. The slot's
    /// remaining minimum is the global next-earliest (later slots and
    /// levels only hold later events, and the overdue buffer is empty).
    fn pop_open_slot(&mut self, slot: usize, t: SimTime) -> Option<(SimTime, E)> {
        let head = self.heads0[slot];
        debug_assert!(head != NIL);
        let first = &self.nodes[head as usize];
        if first.next == NIL {
            // Singleton slot: due-check the head, then close the slot and
            // leave the cache to lazily re-scan the next occupied slot.
            let at = first.at;
            if at > t {
                self.peek_at.set(Some(at));
                self.peek_valid.set(true);
                return None;
            }
            self.heads0[slot] = NIL;
            self.occupied[0] &= !(1 << slot);
            if self.occupied[0] == 0 {
                self.live_levels &= !1;
            }
            self.peek_at.set(None);
            self.peek_valid.set(self.len == 1);
            return Some(self.take(head));
        }
        let (mut min, mut min_prev) = (head, NIL);
        let mut min_key = (first.at, first.seq);
        let mut runner_up = SimTime::MAX;
        let (mut prev, mut cur) = (head, first.next);
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            let key = (n.at, n.seq);
            if key < min_key {
                runner_up = min_key.0;
                min_key = key;
                min = cur;
                min_prev = prev;
            } else {
                runner_up = runner_up.min(n.at);
            }
            prev = cur;
            cur = n.next;
        }
        if min_key.0 > t {
            self.peek_at.set(Some(min_key.0));
            self.peek_valid.set(true);
            return None;
        }
        let after = self.nodes[min as usize].next;
        if min_prev == NIL {
            self.heads0[slot] = after;
        } else {
            self.nodes[min_prev as usize].next = after;
        }
        self.peek_at.set(Some(runner_up));
        self.peek_valid.set(true);
        Some(self.take(min))
    }

    /// Frees a node's slab cell and hands back its `(expiry, payload)`.
    #[inline]
    fn take(&mut self, node: u32) -> (SimTime, E) {
        self.len -= 1;
        let free = self.free;
        let n = &mut self.nodes[node as usize];
        let at = n.at;
        let payload = n.payload.take().expect("pending node is live");
        n.next = free;
        self.free = node;
        (at, payload)
    }

    /// Drops all pending events, resetting the cursor. The slab and heap
    /// capacities are retained.
    pub fn clear(&mut self) {
        self.overdue.clear();
        self.nodes.clear();
        self.free = NIL;
        self.heads0.fill(NIL);
        self.heads_hi.fill(NIL);
        self.occupied = [0; LEVELS];
        self.live_levels = 0;
        self.floor = 0;
        self.len = 0;
        self.peek_valid.set(true);
        self.peek_at.set(None);
    }

    /// The earliest occupied `(level, slot)`, holding the globally earliest
    /// wheel-resident event: levels partition future time, so everything at
    /// a higher level expires after everything below, and within a level
    /// slot order is expiry order.
    #[inline]
    fn earliest_slot(&self) -> Option<(usize, usize)> {
        if self.live_levels == 0 {
            return None;
        }
        let level = self.live_levels.trailing_zeros() as usize;
        Some((level, self.occupied[level].trailing_zeros() as usize))
    }

    /// Clears a slot's occupancy bit (and its level's live bit when the
    /// level empties), returning the detached list head.
    fn detach(&mut self, level: usize, slot: usize) -> u32 {
        debug_assert!(level >= 1);
        let head = std::mem::replace(&mut self.heads_hi[(level - 1) * SLOTS + slot], NIL);
        self.occupied[level] &= !(1 << slot);
        if self.occupied[level] == 0 {
            self.live_levels &= !(1 << level);
        }
        head
    }

    /// Re-hashes one upper-level slot into the levels below (the cursor
    /// must already sit inside or before the slot's window, so every entry
    /// lands strictly lower). Pure index relinking; payloads do not move.
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        debug_assert!(level >= 1);
        let mut cur = self.detach(level, slot);
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            let (at, next) = (n.at, n.next);
            debug_assert!(level_for(self.floor, granule(at)) < level);
            self.link(cur, at);
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_cover_u64() {
        assert_eq!(LEVELS, 9);
        // The top level's slot width times the slot count reaches past the
        // last representable granule.
        let top_shift = GRANULE_BITS + (LEVELS as u32 - 1) * SLOT_BITS;
        assert!(top_shift + SLOT_BITS >= 64);
    }

    #[test]
    fn level_for_picks_lowest_distinguishing_level() {
        assert_eq!(level_for(0, 0), 0);
        assert_eq!(level_for(0, 63), 0);
        assert_eq!(level_for(0, 64), 1);
        assert_eq!(level_for(0, 4095), 1);
        assert_eq!(level_for(0, 4096), 2);
        assert_eq!(level_for(5, 5), 0);
        assert_eq!(level_for(u64::MAX - 1, u64::MAX), 0);
        // The largest representable granule still fits the top level.
        assert_eq!(level_for(0, u64::MAX >> GRANULE_BITS), LEVELS - 1);
    }

    #[test]
    fn cascade_preserves_order_across_levels() {
        let mut w: Wheel<u32> = Wheel::new();
        // One event per level distance, pushed in reverse time order.
        let times: Vec<u64> = (0..LEVELS as u32)
            .map(|l| 1u64 << (GRANULE_BITS + l * SLOT_BITS))
            .rev()
            .collect();
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime::from_nanos(t), i as u64, i as u32);
        }
        let mut popped = Vec::new();
        while let Some((at, _)) = w.pop() {
            popped.push(at.as_nanos());
        }
        let mut expect = times;
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn pop_before_is_exclusive_of_later_events() {
        let mut w: Wheel<&str> = Wheel::new();
        w.push(SimTime::from_micros(100), 0, "a");
        w.push(SimTime::from_micros(200), 1, "b");
        assert!(w.pop_before(SimTime::from_micros(99)).is_none());
        assert_eq!(
            w.pop_before(SimTime::from_micros(100)),
            Some((SimTime::from_micros(100), "a"))
        );
        assert!(w.pop_before(SimTime::from_micros(199)).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.pop_before(SimTime::MAX),
            Some((SimTime::from_micros(200), "b"))
        );
        assert!(w.is_empty());
    }

    #[test]
    fn late_push_pops_first() {
        let mut w: Wheel<u8> = Wheel::new();
        w.push(SimTime::from_millis(5), 0, 1);
        assert_eq!(w.pop(), Some((SimTime::from_millis(5), 1)));
        // The cursor sits past 5 ms now; a push behind it must still pop
        // immediately, and before anything later.
        w.push(SimTime::from_millis(9), 1, 3);
        w.push(SimTime::from_millis(2), 2, 2);
        assert_eq!(w.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(w.pop(), Some((SimTime::from_millis(2), 2)));
        assert_eq!(w.pop(), Some((SimTime::from_millis(9), 3)));
    }

    #[test]
    fn pushes_at_the_owners_clock_after_a_miss_stay_in_the_wheel() {
        // An owner advances as the simulators do: it pops what is due by
        // `t`, sets its clock to `t` once the probe misses, and pushes at
        // `t` and later. Delays up to 200 ms put events in the upper
        // levels, so misses also meet slots that would have to cascade.
        let mut rng = crate::rng::SimRng::seed_from_u64(7);
        let mut w: Wheel<u64> = Wheel::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut seq = 0u64;
        let mut push = |w: &mut Wheel<u64>, at: u64| {
            w.push(SimTime::from_nanos(at), seq, seq);
            reference.insert((at, seq));
            seq += 1;
            assert!(w.overdue.is_empty(), "push at {at} ns went overdue");
        };
        let mut popped = Vec::new();
        let mut now = 0u64;
        for _ in 0..20_000 {
            let t = now + rng.range_u64(0, 3_000_000);
            while let Some((at, s)) = w.pop_before(SimTime::from_nanos(t)) {
                popped.push((at.as_nanos(), s));
                now = at.as_nanos();
                if rng.bernoulli(0.5) {
                    push(&mut w, now + rng.range_u64(0, 1_000_000));
                }
            }
            now = t;
            push(&mut w, now);
            let horizon = [50_000, 1_000_000, 200_000_000][rng.index(3)];
            push(&mut w, now + rng.range_u64(0, horizon));
        }
        while let Some((at, s)) = w.pop() {
            popped.push((at.as_nanos(), s));
        }
        assert_eq!(popped, reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn slab_recycles_cells() {
        let mut w: Wheel<u64> = Wheel::new();
        // A steady pop-one-push-one cycle over wheel-resident delays must
        // not grow the slab beyond the initial population.
        for i in 0..16u64 {
            w.push(SimTime::from_millis(i + 1), i, i);
        }
        let baseline = w.nodes.len();
        for seq in 16u64..1_016 {
            let (at, _) = w.pop().expect("steady population");
            w.push(at + crate::time::SimDuration::from_millis(17), seq, seq);
        }
        assert!(w.nodes.len() <= baseline.max(16));
        assert_eq!(w.len(), 16);
    }
}
