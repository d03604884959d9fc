//! The OS abstraction PerfIso drives.
//!
//! The paper's framework is a user-mode service that relies only on
//! "features readily-available" in the OS (§2.2): an idle-core mask query,
//! job-object affinity and CPU-rate control, per-device I/O statistics and
//! priorities, and memory counters. [`SystemInterface`] captures exactly
//! those sensors and actuators, so the controller logic is identical whether
//! it drives a simulated machine or a real one. The paper's egress shaper is
//! not modelled: no simulated secondary sends on the fabric.

use serde::{Deserialize, Serialize};
use simcore::CoreMask;

/// An I/O-issuing secondary process (or daemon) PerfIso manages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct IoTenant(pub u32);

/// Windowed I/O statistics for one tenant.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct IoTenantStats {
    /// Completed operations per second over the moving window.
    pub window_iops: f64,
    /// Completed bytes per second over the moving window.
    pub window_bytes_per_sec: f64,
}

/// A static I/O rate limit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IoLimit {
    /// Bandwidth cap in bytes/second.
    pub bytes_per_sec: Option<u64>,
    /// Operations cap in IOPS.
    pub iops: Option<u64>,
}

/// Sensors and actuators of one machine, as exposed to PerfIso.
///
/// Sensor methods take `&mut self` because real implementations advance
/// moving windows or consume `/proc` snapshots when read.
pub trait SystemInterface {
    // --- CPU ---

    /// Number of logical cores.
    fn total_cores(&self) -> u32;

    /// The idle-core bitmask (the tight-loop polled syscall, §3.1.1).
    fn idle_cores(&mut self) -> CoreMask;

    /// Restricts all secondary processes to `mask`.
    fn set_secondary_affinity(&mut self, mask: CoreMask);

    /// The currently applied secondary affinity mask.
    fn secondary_affinity(&self) -> CoreMask;

    /// Applies (or clears) a CPU-cycle cap on the secondary, as a fraction
    /// of total machine CPU in `(0, 1]`.
    fn set_secondary_cycle_cap(&mut self, cap: Option<f64>);

    // --- Memory ---

    /// Total machine memory in bytes.
    fn memory_total(&self) -> u64;

    /// Memory in use machine-wide, in bytes.
    fn memory_used(&self) -> u64;

    /// Memory in use by secondary tenants, in bytes.
    fn secondary_memory_used(&self) -> u64;

    /// Kills all secondary processes (the last-resort memory action, §3.2).
    fn kill_secondary_processes(&mut self);

    // --- Disk I/O ---

    /// The I/O tenants PerfIso currently manages.
    fn io_tenants(&self) -> Vec<IoTenant>;

    /// Windowed stats for one tenant.
    fn io_stats(&mut self, tenant: IoTenant) -> IoTenantStats;

    /// Completed IOPS on the shared (HDD) volume — per-device monitoring,
    /// the only granularity the OS offers (§4.1).
    fn shared_volume_iops(&mut self) -> f64;

    /// Sets a tenant's I/O priority (0 = lowest, 7 = highest).
    fn set_io_priority(&mut self, tenant: IoTenant, priority: u8);

    /// The tenant's current I/O priority.
    fn io_priority(&self, tenant: IoTenant) -> u8;

    /// Installs or clears a static I/O rate limit on a tenant.
    fn set_io_limit(&mut self, tenant: IoTenant, limit: Option<IoLimit>);
}

/// An in-memory fake for unit tests and doctests.
///
/// Records every actuation; sensors return whatever the test sets.
#[derive(Clone, Debug)]
pub struct MockSystem {
    /// Core count reported.
    pub cores: u32,
    /// Idle mask returned by [`SystemInterface::idle_cores`].
    pub idle: CoreMask,
    /// Last applied secondary affinity.
    pub secondary_affinity: CoreMask,
    /// Last applied cycle cap.
    pub cycle_cap: Option<f64>,
    /// Reported memory total.
    pub mem_total: u64,
    /// Reported memory used.
    pub mem_used: u64,
    /// Reported secondary memory used.
    pub sec_mem_used: u64,
    /// Whether the secondary has been killed.
    pub secondary_killed: bool,
    /// Managed I/O tenants with (stats, priority, limit).
    pub tenants: Vec<(IoTenant, IoTenantStats, u8, Option<IoLimit>)>,
    /// Reported shared-volume IOPS.
    pub volume_iops: f64,
    /// Count of affinity actuations (to verify update-on-change).
    pub affinity_updates: u64,
}

impl MockSystem {
    /// Creates a mock machine with `cores` cores, everything idle.
    pub fn new(cores: u32) -> Self {
        MockSystem {
            cores,
            idle: CoreMask::all(cores),
            secondary_affinity: CoreMask::all(cores),
            cycle_cap: None,
            mem_total: 128 << 30,
            mem_used: 0,
            sec_mem_used: 0,
            secondary_killed: false,
            tenants: Vec::new(),
            volume_iops: 0.0,
            affinity_updates: 0,
        }
    }

    /// Registers a mock I/O tenant.
    pub fn add_tenant(&mut self, id: u32, priority: u8) -> IoTenant {
        let t = IoTenant(id);
        self.tenants
            .push((t, IoTenantStats::default(), priority, None));
        t
    }

    fn tenant_mut(&mut self, t: IoTenant) -> &mut (IoTenant, IoTenantStats, u8, Option<IoLimit>) {
        self.tenants
            .iter_mut()
            .find(|x| x.0 == t)
            .expect("unknown tenant")
    }
}

impl SystemInterface for MockSystem {
    fn total_cores(&self) -> u32 {
        self.cores
    }

    fn idle_cores(&mut self) -> CoreMask {
        self.idle
    }

    fn set_secondary_affinity(&mut self, mask: CoreMask) {
        self.secondary_affinity = mask;
        self.affinity_updates += 1;
    }

    fn secondary_affinity(&self) -> CoreMask {
        self.secondary_affinity
    }

    fn set_secondary_cycle_cap(&mut self, cap: Option<f64>) {
        self.cycle_cap = cap;
    }

    fn memory_total(&self) -> u64 {
        self.mem_total
    }

    fn memory_used(&self) -> u64 {
        self.mem_used
    }

    fn secondary_memory_used(&self) -> u64 {
        self.sec_mem_used
    }

    fn kill_secondary_processes(&mut self) {
        self.secondary_killed = true;
    }

    fn io_tenants(&self) -> Vec<IoTenant> {
        self.tenants.iter().map(|x| x.0).collect()
    }

    fn io_stats(&mut self, tenant: IoTenant) -> IoTenantStats {
        self.tenant_mut(tenant).1
    }

    fn shared_volume_iops(&mut self) -> f64 {
        self.volume_iops
    }

    fn set_io_priority(&mut self, tenant: IoTenant, priority: u8) {
        self.tenant_mut(tenant).2 = priority.min(7);
    }

    fn io_priority(&self, tenant: IoTenant) -> u8 {
        self.tenants
            .iter()
            .find(|x| x.0 == tenant)
            .expect("unknown tenant")
            .2
    }

    fn set_io_limit(&mut self, tenant: IoTenant, limit: Option<IoLimit>) {
        self.tenant_mut(tenant).3 = limit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_records_actuations() {
        let mut m = MockSystem::new(8);
        m.set_secondary_affinity(CoreMask::range(0, 4));
        assert_eq!(m.secondary_affinity(), CoreMask::range(0, 4));
        assert_eq!(m.affinity_updates, 1);
        m.set_secondary_cycle_cap(Some(0.05));
        assert_eq!(m.cycle_cap, Some(0.05));
        let t = m.add_tenant(1, 2);
        m.set_io_priority(t, 9);
        assert_eq!(m.io_priority(t), 7, "priority saturates at 7");
        m.kill_secondary_processes();
        assert!(m.secondary_killed);
    }
}
