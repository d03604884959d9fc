//! Property-based stress tests: random workloads must preserve the
//! scheduler's global invariants.

use proptest::prelude::*;
use simcore::{SimDuration, SimTime};
use simcpu::programs::Script;
use simcpu::{CoreMask, CpuRateQuota, Machine, MachineConfig, MachineOutput, Step};
use telemetry::TenantClass;

#[derive(Debug, Clone)]
struct SpawnPlan {
    at_us: u64,
    job: usize,
    steps: Vec<Step>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..5_000).prop_map(|us| Step::Compute(SimDuration::from_micros(us))),
        (1u64..2_000).prop_map(|us| Step::Sleep(SimDuration::from_micros(us))),
    ]
}

fn plan_strategy() -> impl Strategy<Value = SpawnPlan> {
    (
        0u64..50_000,
        0usize..3,
        proptest::collection::vec(step_strategy(), 1..6),
    )
        .prop_map(|(at_us, job, steps)| SpawnPlan { at_us, job, steps })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every spawned thread eventually exits; accounting partitions
    /// capacity exactly; no core ever runs a thread outside its job mask.
    #[test]
    fn prop_scheduler_invariants(
        plans in proptest::collection::vec(plan_strategy(), 1..25),
        cores in 1u32..8,
        quota_pct in proptest::option::of(5u32..95),
        mask_bits in 1u64..255,
    ) {
        let cfg = MachineConfig {
            cores,
            quantum: SimDuration::from_millis(5),
            dispatch_cost: SimDuration::from_micros(1),
            ctx_switch_cost: SimDuration::from_micros(2),
            ipi_cost: SimDuration::from_micros(1),
            io_interrupt_cost: SimDuration::from_micros(1),
            memory_bytes: 1 << 30,
        };
        let mut m = Machine::with_seed(cfg, 42);
        let all = CoreMask::all(cores);
        let restricted = CoreMask(mask_bits).intersection(all);
        let restricted = if restricted.is_empty() { all } else { restricted };
        let jobs = [
            m.create_job(TenantClass::Primary, all),
            m.create_job(TenantClass::Secondary, restricted),
            m.create_job(TenantClass::Secondary, all),
        ];
        if let Some(pct) = quota_pct {
            m.set_job_quota(SimTime::ZERO, jobs[2], Some(CpuRateQuota::percent(pct as f64)));
        }

        let mut sorted = plans.clone();
        sorted.sort_by_key(|p| p.at_us);
        let mut spawned = 0u64;
        for p in &sorted {
            m.spawn_thread(
                SimTime::from_micros(p.at_us),
                jobs[p.job],
                Box::new(Script::new(p.steps.clone())),
                spawned,
            );
            spawned += 1;
        }

        // Long horizon: everything must finish (no Block steps used).
        let horizon = SimTime::from_secs(20);
        m.advance_to(horizon);
        let mut outs = Vec::new();
        m.drain_outputs_into(&mut outs);
        let exits = outs
            .iter()
            .filter(|o| matches!(o, MachineOutput::ThreadExited { .. }))
            .count() as u64;
        prop_assert_eq!(exits, spawned, "all threads must exit");
        prop_assert_eq!(m.live_thread_count(), 0);

        // Accounting partitions capacity exactly.
        let b = m.breakdown();
        let capacity = SimDuration::from_nanos(horizon.as_nanos() * cores as u64);
        prop_assert_eq!(b.total(), capacity);

        // All cores idle at the end.
        prop_assert_eq!(m.idle_core_mask().count(), cores);
    }
}
