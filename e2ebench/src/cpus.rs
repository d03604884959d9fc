//! Spreads single-threaded repetitions evenly over the CPUs the process
//! may run on.
//!
//! On a shared host the CPUs of one machine can differ in speed by tens of
//! percent for minutes at a time (a busy hyperthread sibling, say), and the
//! scheduler may keep a run on one CPU or move it part-way through. Each
//! timed repetition therefore runs pinned to the next allowed CPU in turn,
//! and a time is reported as the mean over CPUs of that CPU's median
//! ([`per_cpu_median`]), which weighs every CPU equally however the
//! scheduler would have placed the run.

/// glibc's `cpu_set_t`: 1024 bits.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the process started with.
pub struct Cpus {
    mask: [u64; MASK_WORDS],
    ids: Vec<usize>,
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &[u64; MASK_WORDS]) {
    // SAFETY: pid 0 is the calling thread, and `mask` is a readable buffer
    // of exactly the size passed. A failed call leaves the affinity as it
    // was, which only costs the even spread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_: &[u64; MASK_WORDS]) {}

impl Cpus {
    /// Reads the calling thread's CPU mask; where it cannot be read there
    /// is one "CPU" and pinning does nothing.
    pub fn allowed() -> Self {
        let mut mask = [0u64; MASK_WORDS];
        #[cfg(target_os = "linux")]
        // SAFETY: pid 0 is the calling thread, and `mask` is a writable
        // buffer of exactly the size passed.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        #[cfg(not(target_os = "linux"))]
        let ok = false;
        let ids: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|&c| ok && mask[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if ids.is_empty() {
            return Cpus {
                mask: [!0; MASK_WORDS],
                ids: vec![0],
            };
        }
        Cpus { mask, ids }
    }

    /// Number of CPUs repetitions rotate over.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Pins the calling thread to CPU slot `slot % len()`.
    pub fn pin(&self, slot: usize) {
        if self.ids.len() > 1 {
            let cpu = self.ids[slot % self.ids.len()];
            let mut one = [0u64; MASK_WORDS];
            one[cpu / 64] = 1 << (cpu % 64);
            set_mask(&one);
        }
    }

    /// Lets the calling thread (and threads it spawns) use every CPU again.
    pub fn unpin(&self) {
        if self.ids.len() > 1 {
            set_mask(&self.mask);
        }
    }
}

/// Mean over CPU slots of each slot's median value; `samples` holds
/// `(slot, value)` pairs.
pub fn per_cpu_median(samples: &[(usize, f64)]) -> f64 {
    let mut slots: Vec<usize> = samples.iter().map(|s| s.0).collect();
    slots.sort_unstable();
    slots.dedup();
    let medians: Vec<f64> = slots
        .iter()
        .map(|&slot| {
            crate::median(
                samples
                    .iter()
                    .filter(|s| s.0 == slot)
                    .map(|s| s.1)
                    .collect(),
            )
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}
