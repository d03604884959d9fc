//! Scenario: the operational story — kill switch and crash recovery.
//!
//! §4.2: PerfIso ships with a kill switch so it can be ruled out during
//! livesite debugging, and recovers its dynamic state from disk after a
//! crash (Autopilot restarts it). This example exercises both paths on a
//! live simulated machine (obtained from the `quickstart` scenario spec)
//! and with the Autopilot substrate.
//!
//! Run with: `cargo run --release --example ops_killswitch`

use autopilot::{RestartDecision, ServiceManager};
use perfiso::recovery::ControllerState;
use perfiso::Command;
use scenarios::spec;
use simcore::SimTime;

fn main() {
    // A machine with a high bully under blind isolation: the registry's
    // quickstart scenario, embedded as a live simulator.
    let mut sim = spec::named("quickstart")
        .expect("registered scenario")
        .box_sim(9)
        .expect("single-box scenario");
    sim.advance_to(SimTime::from_millis(50));
    println!(
        "t=50ms   controller active:  {:?}",
        sim.controller_stats().map(|s| s.affinity_updates)
    );

    // --- Kill switch ---
    println!("\n[kill switch] operator disables PerfIso for livesite debugging");
    sim.controller_command(Command::SetEnabled(false));
    sim.advance_to(SimTime::from_millis(100));
    println!("t=100ms  secondary unrestricted (bully may use every core)");
    sim.controller_command(Command::SetEnabled(true));
    sim.advance_to(SimTime::from_millis(150));
    println!("t=150ms  PerfIso re-enabled; restriction reapplied within one poll tick");

    // --- Crash recovery via Autopilot ---
    println!("\n[crash recovery] PerfIso snapshots state; Autopilot restarts it");
    let dir = std::env::temp_dir().join("perfiso-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("perfiso-state.json");

    let mut manager = ServiceManager::new(Default::default());

    // Snapshot the (simulated) dynamic state to disk.
    let state = ControllerState {
        enabled: true,
        secondary_mask: simcore::CoreMask::range(8, 48),
        io_priorities: vec![(0, 2), (1, 2), (2, 2)],
    };
    state.save(&path).expect("snapshot written");
    println!("  snapshot written to {}", path.display());

    // Crash + restart decision.
    match manager.report_crash("perfiso") {
        RestartDecision::RestartAfterMs(backoff) => {
            println!("  perfiso crashed; Autopilot restarts after {backoff} ms");
        }
        RestartDecision::GiveUp => unreachable!("first crash never gives up"),
    }
    manager.report_started("perfiso");

    // The restarted daemon resumes from disk.
    let restored = ControllerState::load(&path).expect("snapshot read");
    assert_eq!(restored, state);
    println!(
        "  restarted perfiso resumed: enabled={} secondary={} ({} cores)",
        restored.enabled,
        restored.secondary_mask,
        restored.secondary_mask.count()
    );
    std::fs::remove_dir_all(&dir).ok();
    println!("\nDone: both operational paths work end to end.");
}
