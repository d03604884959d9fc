//! CPU blind isolation (§3.1) — the paper's core contribution.
//!
//! The invariant: the primary must always find `B` *buffer* idle cores to
//! absorb a burst of woken worker threads (Bing measured up to 15 threads
//! becoming ready within 5 µs). PerfIso polls the idle-core count `I` in a
//! tight loop and resizes the secondary's core set `S`:
//!
//! > "if `I < B`, `S` is decreased, and if `I > B`, `S` is increased."
//!
//! Non-work-conserving by design: up to `B` cores are deliberately left
//! idle. The secondary is assumed CPU-hungry (it will occupy every core it
//! is given), so `I` counts cores that neither tenant is using.

use serde::{Deserialize, Serialize};
use simcore::CoreMask;

/// The blind-isolation decision logic.
///
/// Pure state-machine: feed it the polled idle mask, get back the new
/// secondary mask (or `None` when no change is needed — the paper separates
/// continuous polling from on-demand updates, §4.1).
///
/// # Examples
///
/// ```
/// use perfiso::blind::BlindIsolation;
/// use simcore::CoreMask;
///
/// let mut b = BlindIsolation::new(8, 48);
/// // Machine fully idle: the secondary may take 48 - 8 = 40 cores.
/// let m = b.update(CoreMask::all(48)).unwrap();
/// assert_eq!(m.count(), 40);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlindIsolation {
    /// The number of idle cores to keep in reserve for primary bursts.
    buffer_cores: u32,
    /// Total logical cores on the machine.
    total_cores: u32,
    /// The current secondary core set.
    secondary: CoreMask,
}

impl BlindIsolation {
    /// Creates the controller state with an empty secondary set.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_cores >= total_cores` or `total_cores > 64`.
    pub fn new(buffer_cores: u32, total_cores: u32) -> Self {
        assert!(total_cores <= 64, "at most 64 cores: {total_cores}");
        assert!(
            buffer_cores < total_cores,
            "buffer ({buffer_cores}) must leave room on {total_cores} cores"
        );
        BlindIsolation {
            buffer_cores,
            total_cores,
            secondary: CoreMask::EMPTY,
        }
    }

    /// Changes the buffer size at runtime (a PerfIso command).
    ///
    /// # Panics
    ///
    /// Panics if `buffer_cores >= total_cores`.
    pub fn set_buffer_cores(&mut self, buffer_cores: u32) {
        assert!(
            buffer_cores < self.total_cores,
            "buffer too large: {buffer_cores}"
        );
        self.buffer_cores = buffer_cores;
    }

    /// The current secondary core set.
    pub fn secondary(&self) -> CoreMask {
        self.secondary
    }

    /// Restores the secondary set (crash recovery).
    pub fn restore_secondary(&mut self, mask: CoreMask) {
        self.secondary = mask;
    }

    /// One poll step: computes the new secondary set from the idle mask.
    ///
    /// Returns `Some(new_mask)` when the set changed and the actuator should
    /// fire, `None` when the system is in balance.
    pub fn update(&mut self, idle: CoreMask) -> Option<CoreMask> {
        let idle_count = idle.count() as i64;
        let buffer = self.buffer_cores as i64;
        let current = self.secondary.count() as i64;
        // Cap: the secondary may never grow so large that even a fully idle
        // primary would leave fewer than `buffer` free cores.
        let cap = self.total_cores as i64 - buffer;
        let target = (current + (idle_count - buffer)).clamp(0, cap);

        match target.cmp(&current) {
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => {
                // Grow: hand the secondary currently-idle cores (they are
                // provably not running primary work), preferring the
                // highest-numbered ones so the secondary packs away from the
                // primary's natural low-core placement.
                let need = (target - current) as u32;
                let grant = idle.difference(self.secondary).take_highest(need);
                if grant.is_empty() {
                    return None;
                }
                self.secondary = self.secondary.union(grant);
                Some(self.secondary)
            }
            std::cmp::Ordering::Less => {
                // Shrink: revoke the lowest-numbered members first, returning
                // cores nearest the primary's pack.
                let drop = (current - target) as u32;
                let revoked = self.secondary.take_lowest(drop);
                self.secondary = self.secondary.difference(revoked);
                Some(self.secondary)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_machine_grants_all_but_buffer() {
        let mut b = BlindIsolation::new(8, 48);
        let m = b.update(CoreMask::all(48)).unwrap();
        assert_eq!(m.count(), 40);
        // Packs on the high cores.
        assert_eq!(m, CoreMask::range(8, 48));
    }

    #[test]
    fn balanced_state_yields_no_update() {
        let mut b = BlindIsolation::new(4, 8);
        let m = b.update(CoreMask::all(8)).unwrap();
        assert_eq!(m.count(), 4);
        // Now exactly 4 cores idle (the buffer): no change.
        let idle = CoreMask::all(8).difference(m);
        assert_eq!(idle.count(), 4);
        assert_eq!(b.update(idle), None);
    }

    #[test]
    fn primary_burst_shrinks_secondary() {
        // The paper's example (§3.1): 48 cores, primary on 20, buffer 4
        // leaves 24 for the secondary; when the primary grows to 24 cores
        // the secondary is cut to 20.
        let mut b = BlindIsolation::new(4, 48);
        // Step 1: primary uses 20 cores (0..20 busy); the rest idle.
        let idle = CoreMask::range(20, 48);
        let m = b.update(idle).unwrap();
        assert_eq!(m.count(), 24, "48 - 20 - 4 = 24");
        // Step 2: primary expands by 4 cores into the buffer: idle drops to
        // 0 (20+4 primary, 24 secondary, 0 idle).
        let m = b.update(CoreMask::EMPTY).unwrap();
        assert_eq!(m.count(), 20, "secondary gives back the deficit");
    }

    #[test]
    fn shrink_releases_lowest_cores() {
        let mut b = BlindIsolation::new(2, 8);
        let m = b.update(CoreMask::all(8)).unwrap();
        assert_eq!(m, CoreMask::range(2, 8));
        let m = b.update(CoreMask::EMPTY).unwrap();
        // Dropped 2: the lowest members (2,3) go first.
        assert_eq!(m, CoreMask::range(4, 8));
    }

    #[test]
    fn grows_only_with_idle_cores() {
        let mut b = BlindIsolation::new(2, 8);
        // 5 idle cores but 4 of them overlap the (empty) secondary: grant
        // is capped by what is actually idle.
        let idle = CoreMask::range(0, 5);
        let m = b.update(idle).unwrap();
        assert_eq!(m.count(), 3, "grow by idle - buffer = 3");
        assert!(m.intersection(idle) == m, "granted cores were idle");
    }

    #[test]
    fn secondary_never_exceeds_cap() {
        let mut b = BlindIsolation::new(8, 48);
        for _ in 0..100 {
            b.update(CoreMask::all(48));
            assert!(b.secondary().count() <= 40);
        }
    }

    #[test]
    fn buffer_resize_takes_effect() {
        let mut b = BlindIsolation::new(4, 16);
        b.update(CoreMask::all(16)).unwrap();
        assert_eq!(b.secondary().count(), 12);
        b.set_buffer_cores(8);
        // All 4 remaining idle < new buffer 8: shrink by 4.
        let idle = CoreMask::all(16).difference(b.secondary());
        let m = b.update(idle).unwrap();
        assert_eq!(m.count(), 8);
    }

    #[test]
    #[should_panic(expected = "buffer")]
    fn oversized_buffer_rejected() {
        let _ = BlindIsolation::new(48, 48);
    }

    proptest! {
        /// The steady-state invariant: however idle evolves, the secondary
        /// never exceeds total - buffer, and updates are only emitted when
        /// the mask actually changes.
        #[test]
        fn prop_invariants(
            total in 4u32..=64,
            buffer in 1u32..4,
            steps in proptest::collection::vec(any::<u64>(), 1..50),
        ) {
            let mut b = BlindIsolation::new(buffer, total);
            let all = CoreMask::all(total);
            for idle_bits in steps {
                let idle = CoreMask(idle_bits).intersection(all).difference(b.secondary());
                let before = b.secondary();
                let update = b.update(idle);
                prop_assert!(b.secondary().count() <= total - buffer);
                if let Some(m) = update {
                    prop_assert_ne!(m, before, "updates only on change");
                    prop_assert_eq!(m, b.secondary());
                } else {
                    prop_assert_eq!(before, b.secondary());
                }
            }
        }

        /// Monotonicity: more idle cores never shrink the secondary.
        #[test]
        fn prop_monotone_in_idle(extra in 1u32..8) {
            let mut b1 = BlindIsolation::new(4, 32);
            let mut b2 = BlindIsolation::new(4, 32);
            // Same starting state.
            b1.update(CoreMask::range(16, 32));
            b2.update(CoreMask::range(16, 32));
            let idle1 = CoreMask::range(0, 6).difference(b1.secondary());
            let idle2 = CoreMask::range(0, 6 + extra).difference(b2.secondary());
            b1.update(idle1);
            b2.update(idle2);
            prop_assert!(b2.secondary().count() >= b1.secondary().count());
        }
    }
}
