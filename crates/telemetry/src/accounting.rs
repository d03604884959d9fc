//! CPU-time accounting: the Primary/Secondary/OS/Idle utilization split.
//!
//! Every CPU-utilization bar chart in the paper (Figs 4b, 5b, 6b, 7b, 8b)
//! breaks machine CPU time into four classes. The scheduler integrates
//! core-occupancy intervals into a [`CpuBreakdown`]; this module owns the
//! class enum and the arithmetic.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;

/// Who is occupying a core (or generating overhead) at a given instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TenantClass {
    /// The latency-sensitive service (unrestricted, revenue-generating).
    Primary,
    /// Best-effort batch work (restricted by PerfIso).
    Secondary,
    /// Operating-system overhead: dispatches, context switches, IPIs,
    /// interrupt handling.
    Os,
}

/// Accumulated core-time per class, plus idle time.
///
/// All values are in core-time (one core busy for one second = one
/// core-second), so on a 48-core machine one wall-second contributes
/// 48 core-seconds of capacity.
///
/// # Examples
///
/// ```
/// use simcore::SimDuration;
/// use telemetry::{CpuBreakdown, TenantClass};
///
/// let mut b = CpuBreakdown::default();
/// b.add(TenantClass::Primary, SimDuration::from_millis(20));
/// b.add_idle(SimDuration::from_millis(80));
/// assert!((b.fraction(TenantClass::Primary) - 0.2).abs() < 1e-9);
/// assert!((b.idle_fraction() - 0.8).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CpuBreakdown {
    /// Core-time consumed by the primary tenant.
    pub primary: SimDuration,
    /// Core-time consumed by secondary tenants.
    pub secondary: SimDuration,
    /// Core-time consumed by OS overhead.
    pub os: SimDuration,
    /// Core-time spent idle.
    pub idle: SimDuration,
}

impl CpuBreakdown {
    /// Adds busy core-time for `class`.
    pub fn add(&mut self, class: TenantClass, d: SimDuration) {
        match class {
            TenantClass::Primary => self.primary += d,
            TenantClass::Secondary => self.secondary += d,
            TenantClass::Os => self.os += d,
        }
    }

    /// Adds idle core-time.
    pub fn add_idle(&mut self, d: SimDuration) {
        self.idle += d;
    }

    /// Total accounted core-time (busy + idle).
    pub fn total(&self) -> SimDuration {
        self.primary + self.secondary + self.os + self.idle
    }

    /// Busy core-time (everything but idle).
    pub fn busy(&self) -> SimDuration {
        self.primary + self.secondary + self.os
    }

    /// Fraction of capacity consumed by `class`, in `[0, 1]`.
    pub fn fraction(&self, class: TenantClass) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        let part = match class {
            TenantClass::Primary => self.primary,
            TenantClass::Secondary => self.secondary,
            TenantClass::Os => self.os,
        };
        part.as_nanos() as f64 / total as f64
    }

    /// Fraction of capacity left idle.
    pub fn idle_fraction(&self) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.idle.as_nanos() as f64 / total as f64
    }

    /// Overall utilization (busy fraction).
    pub fn utilization(&self) -> f64 {
        1.0 - self.idle_fraction()
    }

    /// Element-wise sum, e.g. for aggregating across machines.
    pub fn merge(&mut self, other: &CpuBreakdown) {
        self.primary += other.primary;
        self.secondary += other.secondary;
        self.os += other.os;
        self.idle += other.idle;
    }

    /// Difference between two snapshots (for windowed measurement).
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has more accumulated time in any class.
    pub fn since(&self, earlier: &CpuBreakdown) -> CpuBreakdown {
        CpuBreakdown {
            primary: self.primary - earlier.primary,
            secondary: self.secondary - earlier.secondary,
            os: self.os - earlier.os,
            idle: self.idle - earlier.idle,
        }
    }

    /// Formats the split like the paper's figures: `P/S/OS/Idle` percentages.
    pub fn to_percent_string(&self) -> String {
        format!(
            "P {:4.1}% | S {:4.1}% | OS {:4.1}% | idle {:4.1}%",
            self.fraction(TenantClass::Primary) * 100.0,
            self.fraction(TenantClass::Secondary) * 100.0,
            self.fraction(TenantClass::Os) * 100.0,
            self.idle_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut b = CpuBreakdown::default();
        b.add(TenantClass::Primary, SimDuration::from_millis(10));
        b.add(TenantClass::Secondary, SimDuration::from_millis(30));
        b.add(TenantClass::Os, SimDuration::from_millis(5));
        b.add_idle(SimDuration::from_millis(55));
        let sum = b.fraction(TenantClass::Primary)
            + b.fraction(TenantClass::Secondary)
            + b.fraction(TenantClass::Os)
            + b.idle_fraction();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((b.utilization() - 0.45).abs() < 1e-9);
    }

    #[test]
    fn empty_is_zero() {
        let b = CpuBreakdown::default();
        assert_eq!(b.utilization(), 1.0 - b.idle_fraction());
        assert_eq!(b.fraction(TenantClass::Primary), 0.0);
    }

    #[test]
    fn merge_and_since() {
        let mut a = CpuBreakdown::default();
        a.add(TenantClass::Primary, SimDuration::from_millis(10));
        let snapshot = a;
        a.add(TenantClass::Primary, SimDuration::from_millis(5));
        a.add_idle(SimDuration::from_millis(5));
        let window = a.since(&snapshot);
        assert_eq!(window.primary, SimDuration::from_millis(5));
        assert_eq!(window.idle, SimDuration::from_millis(5));

        let mut m = CpuBreakdown::default();
        m.merge(&a);
        m.merge(&a);
        assert_eq!(m.primary, SimDuration::from_millis(30));
    }

    #[test]
    fn percent_string_formats() {
        let mut b = CpuBreakdown::default();
        b.add(TenantClass::Primary, SimDuration::from_millis(25));
        b.add_idle(SimDuration::from_millis(75));
        let s = b.to_percent_string();
        assert!(s.contains("25.0%"), "{s}");
        assert!(s.contains("75.0%"), "{s}");
    }

    proptest! {
        /// Busy + idle always equals total; fractions always in [0,1].
        #[test]
        fn prop_accounting_invariants(p in 0u64..1_000_000, s in 0u64..1_000_000,
                                      o in 0u64..1_000_000, i in 0u64..1_000_000) {
            let mut b = CpuBreakdown::default();
            b.add(TenantClass::Primary, SimDuration::from_nanos(p));
            b.add(TenantClass::Secondary, SimDuration::from_nanos(s));
            b.add(TenantClass::Os, SimDuration::from_nanos(o));
            b.add_idle(SimDuration::from_nanos(i));
            prop_assert_eq!(b.busy() + b.idle, b.total());
            for c in [TenantClass::Primary, TenantClass::Secondary, TenantClass::Os] {
                let f = b.fraction(c);
                prop_assert!((0.0..=1.0).contains(&f));
            }
            prop_assert!((0.0..=1.0).contains(&b.utilization()));
        }
    }
}
