//! The memory watchdog (§3.2).
//!
//! Primary services "are engineered to have a fixed working set and a
//! stable memory footprint. We cannot compromise on this" — so PerfIso caps
//! the secondary's footprint and, "when memory runs very low, secondary
//! processes are killed."

use serde::{Deserialize, Serialize};

/// The watchdog's verdict for one polling round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryAction {
    /// All limits respected.
    Ok,
    /// The secondary exceeds its configured footprint cap: the controller
    /// kills its processes, as at the kill watermark.
    SecondaryOverLimit,
    /// Machine memory critically low: kill secondary processes now. Takes
    /// precedence over [`MemoryAction::SecondaryOverLimit`].
    KillSecondary,
}

/// Memory policy evaluation.
///
/// # Examples
///
/// ```
/// use perfiso::memory::{MemoryAction, MemoryWatchdog};
///
/// let w = MemoryWatchdog::new(Some(10 << 30), 0.95);
/// let gib = 1u64 << 30;
/// assert_eq!(w.evaluate(128 * gib, 40 * gib, 8 * gib), MemoryAction::Ok);
/// assert_eq!(w.evaluate(128 * gib, 40 * gib, 12 * gib), MemoryAction::SecondaryOverLimit);
/// assert_eq!(w.evaluate(128 * gib, 125 * gib, 12 * gib), MemoryAction::KillSecondary);
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MemoryWatchdog {
    /// Secondary footprint cap in bytes (`None` = uncapped).
    secondary_limit: Option<u64>,
    /// Kill secondaries when used/total exceeds this fraction.
    kill_watermark: f64,
}

impl MemoryWatchdog {
    /// Creates a watchdog.
    ///
    /// # Panics
    ///
    /// Panics unless `kill_watermark` is in `[0, 1]`.
    pub fn new(secondary_limit: Option<u64>, kill_watermark: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&kill_watermark),
            "watermark must be in [0,1]: {kill_watermark}"
        );
        MemoryWatchdog {
            secondary_limit,
            kill_watermark,
        }
    }

    /// Evaluates one polling round.
    pub fn evaluate(&self, total: u64, used: u64, secondary_used: u64) -> MemoryAction {
        if total > 0 && used as f64 / total as f64 >= self.kill_watermark {
            return MemoryAction::KillSecondary;
        }
        if let Some(limit) = self.secondary_limit {
            if secondary_used > limit {
                return MemoryAction::SecondaryOverLimit;
            }
        }
        MemoryAction::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn ok_when_plenty_free() {
        let w = MemoryWatchdog::new(Some(20 * GIB), 0.95);
        assert_eq!(w.evaluate(128 * GIB, 60 * GIB, 10 * GIB), MemoryAction::Ok);
    }

    #[test]
    fn kill_takes_precedence_over_limit() {
        let w = MemoryWatchdog::new(Some(GIB), 0.9);
        // Both violated: kill wins.
        assert_eq!(
            w.evaluate(100 * GIB, 95 * GIB, 50 * GIB),
            MemoryAction::KillSecondary
        );
    }

    #[test]
    fn uncapped_secondary_never_over_limit() {
        let w = MemoryWatchdog::new(None, 0.95);
        assert_eq!(w.evaluate(100 * GIB, 50 * GIB, 49 * GIB), MemoryAction::Ok);
    }

    #[test]
    fn watermark_boundary() {
        let w = MemoryWatchdog::new(None, 0.5);
        assert_eq!(w.evaluate(100, 49, 0), MemoryAction::Ok);
        assert_eq!(w.evaluate(100, 50, 0), MemoryAction::KillSecondary);
    }

    #[test]
    fn zero_total_is_safe() {
        let w = MemoryWatchdog::new(None, 0.95);
        assert_eq!(w.evaluate(0, 0, 0), MemoryAction::Ok);
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn bad_watermark_rejected() {
        let _ = MemoryWatchdog::new(None, 1.5);
    }
}
