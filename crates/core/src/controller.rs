//! The PerfIso controller: ties the mechanisms into one user-mode service.
//!
//! Polling and updating are deliberately separated (§4.1): sensors are read
//! on every tick, but actuators fire only when the computed setting
//! actually changes — "constantly updating certain settings can become
//! harmful to the performance of all services."
//!
//! Operationally (§4.2) the controller carries a kill switch (deactivate
//! quickly while debugging a livesite incident), accepts runtime commands,
//! and snapshots its dynamic state for crash recovery under Autopilot.

use simcore::{CoreMask, SimTime};

use crate::blind::BlindIsolation;
use crate::config::{CpuPolicy, PerfIsoConfig};
use crate::dwrr::{DwrrThrottler, PrioAdjust, TenantIoConfig};
use crate::memory::{MemoryAction, MemoryWatchdog};
use crate::recovery::ControllerState;
use crate::system::{IoLimit, IoTenant, SystemInterface};

/// Runtime commands (issued via Autopilot config or the local debug client).
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Change the blind-isolation buffer size.
    SetBufferCores(u32),
    /// Switch the CPU policy altogether.
    SetCpuPolicy(CpuPolicy),
    /// Install or clear a static I/O limit on a tenant.
    SetIoLimit(IoTenant, Option<IoLimit>),
    /// The kill switch: `false` deactivates all isolation instantly.
    SetEnabled(bool),
}

/// The PerfIso service.
///
/// Generic over [`SystemInterface`] so the same controller drives the
/// simulator and the unit tests' mock.
#[derive(Clone, Debug)]
pub struct PerfIso {
    cfg: PerfIsoConfig,
    enabled: bool,
    blind: Option<BlindIsolation>,
    dwrr: DwrrThrottler,
    memwatch: MemoryWatchdog,
    /// Last CPU-actuator value, for update-on-change.
    last_applied_mask: Option<CoreMask>,
    /// Reusable buffer for the DWRR round, so the I/O poll loop does not
    /// allocate.
    dwrr_scratch: Vec<(IoTenant, PrioAdjust)>,
    /// Statistics: polls and actuations.
    pub stats: ControllerStats,
}

/// Controller activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ControllerStats {
    /// CPU poll ticks executed.
    pub cpu_polls: u64,
    /// Affinity actuations issued (should be ≪ polls).
    pub affinity_updates: u64,
    /// I/O controller rounds.
    pub io_rounds: u64,
    /// I/O priority adjustments issued.
    pub io_adjustments: u64,
    /// Secondary kill events from the memory watchdog.
    pub memory_kills: u64,
}

impl PerfIso {
    /// Creates a controller from configuration.
    ///
    /// # Panics
    ///
    /// Panics on an internally inconsistent configuration (see
    /// [`PerfIsoConfig::validate`]; full validation against the machine
    /// happens in [`PerfIso::install`]).
    pub fn new(cfg: PerfIsoConfig) -> Self {
        let memwatch = MemoryWatchdog::new(cfg.secondary_memory_limit, cfg.memory_kill_watermark);
        PerfIso {
            cfg,
            enabled: true,
            blind: None,
            dwrr: DwrrThrottler::default(),
            memwatch,
            last_applied_mask: None,
            dwrr_scratch: Vec::new(),
            stats: ControllerStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PerfIsoConfig {
        &self.cfg
    }

    /// Whether isolation is active (kill switch state).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Applies the configured policy's static part to the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid for this machine.
    pub fn install(&mut self, sys: &mut dyn SystemInterface) {
        let total = sys.total_cores();
        self.cfg
            .validate(total)
            .expect("invalid PerfIso configuration");
        self.apply_cpu_policy(sys);
    }

    fn apply_cpu_policy(&mut self, sys: &mut dyn SystemInterface) {
        let total = sys.total_cores();
        match self.cfg.cpu {
            CpuPolicy::NoIsolation => {
                sys.set_secondary_cycle_cap(None);
                sys.set_secondary_affinity(CoreMask::all(total));
                self.blind = None;
            }
            CpuPolicy::StaticCores(n) => {
                sys.set_secondary_cycle_cap(None);
                // Give the secondary the highest-numbered cores, mirroring
                // blind isolation's packing.
                sys.set_secondary_affinity(CoreMask::all(total).take_highest(n));
                self.blind = None;
            }
            CpuPolicy::CycleCap(frac) => {
                sys.set_secondary_affinity(CoreMask::all(total));
                sys.set_secondary_cycle_cap(Some(frac));
                self.blind = None;
            }
            CpuPolicy::Blind { buffer_cores } => {
                sys.set_secondary_cycle_cap(None);
                let mut blind = BlindIsolation::new(buffer_cores, total);
                // Start closed: the first poll (≤1 ms away) sizes the set.
                sys.set_secondary_affinity(CoreMask::EMPTY);
                blind.restore_secondary(CoreMask::EMPTY);
                self.blind = Some(blind);
                self.last_applied_mask = Some(CoreMask::EMPTY);
            }
        }
    }

    /// One CPU poll tick (the tight loop). Returns the newly applied mask
    /// when an update fired.
    pub fn poll_cpu(&mut self, _now: SimTime, sys: &mut dyn SystemInterface) -> Option<CoreMask> {
        self.stats.cpu_polls += 1;
        if !self.enabled {
            return None;
        }
        let blind = self.blind.as_mut()?;
        let idle = sys.idle_cores();
        let reserved = sys.primary_reserved_cores();
        let new_mask = blind.update(idle, reserved)?;
        if Some(new_mask) == self.last_applied_mask {
            return None;
        }
        sys.set_secondary_affinity(new_mask);
        self.last_applied_mask = Some(new_mask);
        self.stats.affinity_updates += 1;
        Some(new_mask)
    }

    /// Registers an I/O tenant for DWRR management with an optional static
    /// limit and an initial priority.
    pub fn register_io_tenant(
        &mut self,
        sys: &mut dyn SystemInterface,
        tenant: IoTenant,
        cfg: TenantIoConfig,
        static_limit: Option<IoLimit>,
        initial_priority: u8,
    ) {
        self.dwrr.configure_tenant(tenant, cfg);
        sys.set_io_priority(tenant, initial_priority);
        sys.set_io_limit(tenant, static_limit);
    }

    /// One I/O controller round: sample the shared volume, update demand
    /// windows, and nudge priorities by deficit.
    pub fn poll_io(&mut self, _now: SimTime, sys: &mut dyn SystemInterface) {
        self.stats.io_rounds += 1;
        if !self.enabled {
            return;
        }
        let curr = sys.shared_volume_iops();
        self.dwrr.observe(curr);
        let mut round = std::mem::take(&mut self.dwrr_scratch);
        self.dwrr.step_into(&mut round);
        for &(tenant, adj) in &round {
            let prio = sys.io_priority(tenant);
            let new = match adj {
                PrioAdjust::Raise => prio.saturating_add(1).min(7),
                PrioAdjust::Lower => prio.saturating_sub(1),
                PrioAdjust::Hold => prio,
            };
            if new != prio {
                sys.set_io_priority(tenant, new);
                self.stats.io_adjustments += 1;
            }
        }
        self.dwrr_scratch = round;
    }

    /// One memory watchdog round.
    pub fn poll_memory(&mut self, _now: SimTime, sys: &mut dyn SystemInterface) -> MemoryAction {
        if !self.enabled {
            return MemoryAction::Ok;
        }
        let action = self.memwatch.evaluate(
            sys.memory_total(),
            sys.memory_used(),
            sys.secondary_memory_used(),
        );
        if action == MemoryAction::KillSecondary {
            sys.kill_secondary_processes();
            self.stats.memory_kills += 1;
        }
        action
    }

    /// Executes a runtime command.
    pub fn command(&mut self, cmd: Command, sys: &mut dyn SystemInterface) {
        match cmd {
            Command::SetBufferCores(n) => {
                if let CpuPolicy::Blind { .. } = self.cfg.cpu {
                    self.cfg.cpu = CpuPolicy::Blind { buffer_cores: n };
                    if let Some(b) = self.blind.as_mut() {
                        b.set_buffer_cores(n);
                    }
                }
            }
            Command::SetCpuPolicy(p) => {
                self.cfg.cpu = p;
                if self.enabled {
                    self.apply_cpu_policy(sys);
                }
            }
            Command::SetIoLimit(tenant, limit) => {
                sys.set_io_limit(tenant, limit);
            }
            Command::SetEnabled(enabled) => self.set_enabled(enabled, sys),
        }
    }

    /// The kill switch (§4.2): disabling releases every restriction so
    /// PerfIso can be ruled out during livesite debugging; re-enabling
    /// reapplies the policy.
    pub fn set_enabled(&mut self, enabled: bool, sys: &mut dyn SystemInterface) {
        if self.enabled == enabled {
            return;
        }
        self.enabled = enabled;
        if enabled {
            self.install(sys);
        } else {
            let total = sys.total_cores();
            sys.set_secondary_affinity(CoreMask::all(total));
            sys.set_secondary_cycle_cap(None);
            self.last_applied_mask = None;
        }
    }

    /// Snapshots dynamic state for crash recovery.
    pub fn snapshot(&self, sys: &dyn SystemInterface) -> ControllerState {
        ControllerState {
            enabled: self.enabled,
            secondary_mask: self
                .blind
                .as_ref()
                .map(|b| b.secondary())
                .unwrap_or_else(|| sys.secondary_affinity()),
            io_priorities: sys
                .io_tenants()
                .into_iter()
                .map(|t| (t.0, sys.io_priority(t)))
                .collect(),
        }
    }

    /// Restores dynamic state after a crash-restart: the controller resumes
    /// from the persisted secondary mask instead of collapsing it to empty.
    pub fn restore(&mut self, state: &ControllerState, sys: &mut dyn SystemInterface) {
        self.enabled = state.enabled;
        if let Some(b) = self.blind.as_mut() {
            b.restore_secondary(state.secondary_mask);
            if state.enabled {
                sys.set_secondary_affinity(state.secondary_mask);
                self.last_applied_mask = Some(state.secondary_mask);
            }
        }
        for &(t, p) in &state.io_priorities {
            sys.set_io_priority(IoTenant(t), p);
        }
        if !state.enabled {
            self.set_enabled(false, sys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::MockSystem;

    fn blind_controller(buffer: u32) -> PerfIso {
        PerfIso::new(PerfIsoConfig {
            cpu: CpuPolicy::Blind {
                buffer_cores: buffer,
            },
            ..Default::default()
        })
    }

    #[test]
    fn install_blind_starts_closed() {
        let mut sys = MockSystem::new(48);
        let mut ctl = blind_controller(8);
        ctl.install(&mut sys);
        assert_eq!(sys.secondary_affinity, CoreMask::EMPTY);
    }

    #[test]
    fn poll_grows_to_cap_on_idle_machine() {
        let mut sys = MockSystem::new(48);
        let mut ctl = blind_controller(8);
        ctl.install(&mut sys);
        let m = ctl.poll_cpu(SimTime::ZERO, &mut sys).unwrap();
        assert_eq!(m.count(), 40);
        assert_eq!(sys.secondary_affinity.count(), 40);
    }

    #[test]
    fn updates_fire_only_on_change() {
        let mut sys = MockSystem::new(16);
        let mut ctl = blind_controller(4);
        ctl.install(&mut sys);
        ctl.poll_cpu(SimTime::ZERO, &mut sys);
        let updates_after_first = sys.affinity_updates;
        // Steady state: idle = exactly the buffer.
        sys.idle = CoreMask::all(16).difference(sys.secondary_affinity);
        assert_eq!(sys.idle.count(), 4);
        for _ in 0..100 {
            assert!(ctl.poll_cpu(SimTime::ZERO, &mut sys).is_none());
        }
        assert_eq!(
            sys.affinity_updates, updates_after_first,
            "no redundant actuations"
        );
        assert_eq!(ctl.stats.cpu_polls, 101);
        assert_eq!(ctl.stats.affinity_updates, 1);
    }

    #[test]
    fn burst_shrinks_secondary() {
        let mut sys = MockSystem::new(48);
        let mut ctl = blind_controller(8);
        ctl.install(&mut sys);
        ctl.poll_cpu(SimTime::ZERO, &mut sys);
        assert_eq!(sys.secondary_affinity.count(), 40);
        // Primary burst eats all idle cores.
        sys.idle = CoreMask::EMPTY;
        let m = ctl.poll_cpu(SimTime::ZERO, &mut sys).unwrap();
        assert_eq!(m.count(), 32, "shrink by the full buffer deficit");
    }

    #[test]
    fn static_cores_policy_applies_once() {
        let mut sys = MockSystem::new(48);
        let mut ctl = PerfIso::new(PerfIsoConfig {
            cpu: CpuPolicy::StaticCores(8),
            ..Default::default()
        });
        ctl.install(&mut sys);
        assert_eq!(sys.secondary_affinity.count(), 8);
        assert_eq!(sys.secondary_affinity, CoreMask::range(40, 48));
        assert!(
            ctl.poll_cpu(SimTime::ZERO, &mut sys).is_none(),
            "static = no dynamics"
        );
    }

    #[test]
    fn cycle_cap_policy_sets_quota() {
        let mut sys = MockSystem::new(48);
        let mut ctl = PerfIso::new(PerfIsoConfig {
            cpu: CpuPolicy::CycleCap(0.05),
            ..Default::default()
        });
        ctl.install(&mut sys);
        assert_eq!(sys.cycle_cap, Some(0.05));
        assert_eq!(sys.secondary_affinity.count(), 48);
    }

    #[test]
    fn kill_switch_releases_everything() {
        let mut sys = MockSystem::new(48);
        let mut ctl = blind_controller(8);
        ctl.install(&mut sys);
        ctl.poll_cpu(SimTime::ZERO, &mut sys);
        ctl.command(Command::SetEnabled(false), &mut sys);
        assert_eq!(sys.secondary_affinity.count(), 48, "unrestricted");
        assert_eq!(sys.cycle_cap, None);
        // Polls do nothing while disabled.
        sys.idle = CoreMask::EMPTY;
        assert!(ctl.poll_cpu(SimTime::ZERO, &mut sys).is_none());
        // Re-enable: policy reapplies.
        ctl.command(Command::SetEnabled(true), &mut sys);
        assert_eq!(sys.secondary_affinity, CoreMask::EMPTY);
    }

    #[test]
    fn buffer_resize_command() {
        let mut sys = MockSystem::new(48);
        let mut ctl = blind_controller(4);
        ctl.install(&mut sys);
        ctl.poll_cpu(SimTime::ZERO, &mut sys);
        assert_eq!(sys.secondary_affinity.count(), 44);
        ctl.command(Command::SetBufferCores(8), &mut sys);
        sys.idle = CoreMask::all(48).difference(sys.secondary_affinity);
        let m = ctl.poll_cpu(SimTime::ZERO, &mut sys).unwrap();
        assert_eq!(m.count(), 40);
    }

    #[test]
    fn memory_watchdog_kills_on_low_memory() {
        let mut sys = MockSystem::new(16);
        let mut ctl = PerfIso::new(PerfIsoConfig {
            memory_kill_watermark: 0.9,
            ..Default::default()
        });
        ctl.install(&mut sys);
        sys.mem_used = sys.mem_total;
        let action = ctl.poll_memory(SimTime::ZERO, &mut sys);
        assert_eq!(action, MemoryAction::KillSecondary);
        assert!(sys.secondary_killed);
        assert_eq!(ctl.stats.memory_kills, 1);
    }

    #[test]
    fn io_round_adjusts_priorities() {
        let mut sys = MockSystem::new(16);
        let mut ctl = PerfIso::new(PerfIsoConfig::default());
        ctl.install(&mut sys);
        let t = sys.add_tenant(1, 2);
        ctl.register_io_tenant(
            &mut sys,
            t,
            TenantIoConfig {
                weight: 1.0,
                min_iops: 10.0,
            },
            None,
            2,
        );
        // Drive doing 1000 IOPS while the tenant's guarantee is 10: large
        // positive deficit, priority rises.
        sys.volume_iops = 1_000.0;
        for _ in 0..3 {
            ctl.poll_io(SimTime::ZERO, &mut sys);
        }
        assert!(sys.io_priority(t) > 2);
        assert!(ctl.stats.io_adjustments >= 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut sys = MockSystem::new(48);
        let mut ctl = blind_controller(8);
        ctl.install(&mut sys);
        ctl.poll_cpu(SimTime::ZERO, &mut sys);
        let state = ctl.snapshot(&sys);
        assert_eq!(state.secondary_mask.count(), 40);

        // Simulate a crash: fresh controller, fresh install, then restore.
        let mut ctl2 = blind_controller(8);
        ctl2.install(&mut sys);
        assert_eq!(sys.secondary_affinity, CoreMask::EMPTY);
        ctl2.restore(&state, &mut sys);
        assert_eq!(sys.secondary_affinity.count(), 40, "resumed prior mask");
    }

    #[test]
    fn reserved_cores_respected_in_poll() {
        let mut sys = MockSystem::new(16);
        sys.reserved = CoreMask::range(0, 4);
        let mut ctl = blind_controller(4);
        ctl.install(&mut sys);
        let m = ctl.poll_cpu(SimTime::ZERO, &mut sys).unwrap();
        assert!(m.intersection(sys.reserved).is_empty());
        assert_eq!(m.count(), 8, "16 - 4 buffer - 4 reserved");
    }
}
