//! Operational-envelope integration tests (§4.2): the kill switch, crash
//! recovery through the Autopilot substrate, runtime commands, and the
//! memory watchdog — all exercised on a live simulated machine.

use autopilot::{RestartDecision, ServiceManager};
use indexserve::{BoxConfig, BoxSim, SecondaryKind};
use perfiso::recovery::ControllerState;
use perfiso::{Command, CpuPolicy, PerfIsoConfig};
use scenarios::spec::ScenarioSpec;
use scenarios::Policy;
use simcore::{SimDuration, SimTime};
use workloads::BullyIntensity;

/// A machine with a high bully under blind isolation, described by the
/// spec API and embedded as a live simulator.
fn bully_box(seed: u64) -> BoxSim {
    ScenarioSpec::builder("ops")
        .single_box(2_000.0)
        .cpu_bully(BullyIntensity::High)
        .policy(Policy::Blind { buffer_cores: 8 })
        .build()
        .expect("valid spec")
        .box_sim(seed)
        .expect("single-box scenario")
}

#[test]
fn kill_switch_releases_and_reapplies_live() {
    let mut sim = bully_box(3);
    // Let the controller converge: the bully is restricted, idle cores
    // hover near the buffer.
    sim.advance_to(SimTime::from_millis(100));
    let stats = sim.controller_stats().expect("controller installed");
    assert!(stats.cpu_polls > 50, "polling loop must be running");
    assert!(stats.affinity_updates >= 1, "initial grow must have fired");
    assert!(
        stats.affinity_updates < stats.cpu_polls / 2,
        "update-on-change separation"
    );

    // Disable: within a tick the bully may take every core.
    sim.controller_command(Command::SetEnabled(false));
    sim.advance_to(SimTime::from_millis(200));
    let bd = sim.breakdown();
    assert!(
        bd.idle_fraction() < 0.1,
        "bully must saturate the machine while disabled: idle {}",
        bd.idle_fraction()
    );

    // Re-enable: the restriction returns.
    sim.controller_command(Command::SetEnabled(true));
    sim.advance_to(SimTime::from_millis(210));
    let idle_after = 1.0 - sim.breakdown().utilization().min(1.0);
    let _ = idle_after; // Converges over the next polls; checked via snapshot below.
    let snap = sim.controller_snapshot();
    assert!(snap.enabled);
    assert!(
        snap.secondary_mask.count() <= 40,
        "secondary restricted again: {} cores",
        snap.secondary_mask.count()
    );
}

#[test]
fn crash_recovery_resumes_from_snapshot() {
    let dir = std::env::temp_dir().join(format!("perfiso-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("state.json");

    let mut sim = bully_box(5);
    sim.advance_to(SimTime::from_millis(100));
    let before = sim.controller_snapshot();
    assert!(
        before.secondary_mask.count() > 0,
        "bully held some cores before the crash"
    );
    before.save(&path).expect("snapshot saved");

    // Autopilot notices the crash and restarts the service.
    let mut manager = ServiceManager::new(Default::default());
    assert!(matches!(
        manager.report_crash("perfiso"),
        RestartDecision::RestartAfterMs(_)
    ));
    manager.report_started("perfiso");

    // The replacement controller loads the snapshot instead of collapsing
    // the secondary mask to empty.
    let loaded = ControllerState::load(&path).expect("snapshot loaded");
    assert_eq!(loaded, before);
    sim.controller_restart_with(&loaded);
    let after = sim.controller_snapshot();
    assert_eq!(
        after.secondary_mask, before.secondary_mask,
        "mask resumed, not reset"
    );
    assert_eq!(after.enabled, before.enabled);

    // And the box keeps running under the restored controller.
    sim.advance_to(SimTime::from_millis(200));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runtime_buffer_resize_applies_on_live_box() {
    let mut sim = bully_box(7);
    sim.advance_to(SimTime::from_millis(100));
    let before = sim.controller_snapshot().secondary_mask.count();
    // Double the buffer: the secondary must shrink by roughly the delta.
    sim.controller_command(Command::SetBufferCores(16));
    sim.advance_to(SimTime::from_millis(200));
    let after = sim.controller_snapshot().secondary_mask.count();
    assert!(
        after + 6 <= before,
        "doubling the buffer must shrink the secondary: {before} -> {after}"
    );
}

#[test]
fn policy_switch_at_runtime() {
    let mut sim = bully_box(9);
    sim.advance_to(SimTime::from_millis(50));
    // Switch from blind isolation to a static 8-core restriction.
    sim.controller_command(Command::SetCpuPolicy(CpuPolicy::StaticCores(8)));
    sim.advance_to(SimTime::from_millis(150));
    let bd = sim.breakdown();
    // The bully is pinned to 8 of 48 cores from t=50ms on; over the whole
    // run its share must sit well below a blind-isolation run's.
    assert!(
        bd.secondary < SimDuration::from_millis(150 * 30),
        "secondary CPU {} too high for a static-8 restriction",
        bd.secondary
    );
}

// The two watchdog tests below configure controller-internal knobs
// (poll intervals, kill watermark) that sit outside the spec API's policy
// vocabulary, so they assemble their BoxSim directly — deliberately the
// embedding path, not an experiment description.

#[test]
fn memory_watchdog_kills_secondary_on_pressure() {
    // The box's baseline footprint is already large (110 GiB index cache
    // + 6 GiB primary overhead + 2 GiB bully = 92 % of 128 GiB), so the
    // default 95 % watermark leaves headroom for the healthy case.
    let cfg = PerfIsoConfig {
        memory_poll_interval: SimDuration::from_millis(20),
        memory_kill_watermark: 0.95,
        ..PerfIsoConfig::default()
    };
    let mut sim = BoxSim::new(BoxConfig::paper_box(
        SecondaryKind::cpu(BullyIntensity::High),
        Some(cfg),
        11,
    ));
    sim.advance_to(SimTime::from_millis(30));
    assert!(
        !sim.secondary_killed(),
        "healthy footprint must not be killed"
    );

    // The batch job balloons: primary (116 GiB) + secondary now exceed the
    // 95 % watermark of 128 GiB.
    sim.set_secondary_memory(10 << 30);
    sim.advance_to(SimTime::from_millis(100));
    assert!(sim.secondary_killed(), "watchdog must kill the secondary");
    assert_eq!(sim.controller_stats().unwrap().memory_kills, 1);

    // With the bully gone the machine drains back to idle.
    sim.advance_to(SimTime::from_millis(400));
    let idle = 1.0 - sim.breakdown().utilization();
    assert!(
        idle > 0.5,
        "machine should be mostly idle after the kill: {idle}"
    );
}

#[test]
fn disabled_controller_does_not_kill_on_memory_pressure() {
    let cfg = PerfIsoConfig {
        memory_poll_interval: SimDuration::from_millis(20),
        memory_kill_watermark: 0.95,
        ..PerfIsoConfig::default()
    };
    let mut sim = BoxSim::new(BoxConfig::paper_box(
        SecondaryKind::cpu(BullyIntensity::Mid),
        Some(cfg),
        13,
    ));
    sim.controller_command(Command::SetEnabled(false));
    sim.set_secondary_memory(20 << 30);
    sim.advance_to(SimTime::from_millis(200));
    assert!(
        !sim.secondary_killed(),
        "kill switch must suppress watchdog actions"
    );
}
