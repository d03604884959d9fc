//! Behavioural tests for the machine scheduler.
//!
//! These pin the exact semantics PerfIso's CPU blind isolation relies on:
//! immediate dispatch onto idle cores, FIFO waiting when none are allowed,
//! resched-IPI preemption on affinity revocation, duty-cycle quota
//! throttling, and exact CPU-time accounting.

use simcore::{SimDuration, SimTime};
use simcpu::programs::Script;
use simcpu::{
    CoreId, CoreMask, CpuRateQuota, Machine, MachineConfig, MachineOutput, Program, Step,
};
use telemetry::TenantClass;

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

fn us(x: u64) -> SimDuration {
    SimDuration::from_micros(x)
}

/// Takes the machine's pending outputs.
fn outputs(m: &mut Machine) -> Vec<MachineOutput> {
    let mut out = Vec::new();
    m.drain_outputs_into(&mut out);
    out
}

fn zero_cost_config(cores: u32) -> MachineConfig {
    MachineConfig {
        cores,
        quantum: ms(20),
        dispatch_cost: SimDuration::ZERO,
        ctx_switch_cost: SimDuration::ZERO,
        ipi_cost: SimDuration::ZERO,
        io_interrupt_cost: SimDuration::ZERO,
        memory_bytes: 1 << 30,
    }
}

#[test]
fn single_thread_computes_and_exits() {
    let mut m = Machine::new(zero_cost_config(2));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(2));
    let tid = m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(5)), 1);
    assert_eq!(
        m.idle_core_mask().count(),
        1,
        "one core busy right after spawn"
    );
    m.advance_to(SimTime::from_millis(10));
    let out = outputs(&mut m);
    assert!(matches!(
        out.as_slice(),
        [MachineOutput::ThreadExited {
            tag: 1,
            killed: false,
            ..
        }]
    ));
    assert_eq!(m.idle_core_mask().count(), 2);
    assert_eq!(m.job_cpu_time(job), ms(5));
    let _ = tid;
}

#[test]
fn threads_fill_idle_cores_first() {
    let mut m = Machine::new(zero_cost_config(4));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(4));
    for i in 0..4 {
        m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(1)), i);
    }
    assert_eq!(m.idle_core_mask().count(), 0);
    m.advance_to(SimTime::from_millis(2));
    assert_eq!(outputs(&mut m).len(), 4);
    assert_eq!(m.idle_core_mask().count(), 4);
}

#[test]
fn excess_threads_wait_fifo() {
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(1));
    // Three 1ms jobs on one core: they must serialize in spawn order.
    for i in 0..3 {
        m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(1)), i);
    }
    m.advance_to(SimTime::from_millis(10));
    let exits: Vec<u64> = outputs(&mut m)
        .iter()
        .filter_map(|o| match o {
            MachineOutput::ThreadExited { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(exits, vec![0, 1, 2]);
    // Total busy time 3ms on 1 core.
    assert_eq!(m.job_cpu_time(job), ms(3));
}

#[test]
fn no_preemption_on_wake_same_priority() {
    // A long-running thread holds the only core; a newly spawned thread
    // must wait for the quantum to expire, not preempt.
    let mut cfg = zero_cost_config(1);
    cfg.quantum = ms(20);
    let mut m = Machine::new(cfg);
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(100)), 0);
    // At t=1ms a second thread arrives.
    let pjob = m.create_job(TenantClass::Primary, CoreMask::all(1));
    m.spawn_program(
        SimTime::from_millis(1),
        pjob,
        Program::compute_once(ms(1)),
        1,
    );
    // It cannot run before the bully's quantum expires at t=20ms.
    m.advance_to(SimTime::from_millis(19));
    assert!(outputs(&mut m).is_empty(), "primary must still be queued");
    m.advance_to(SimTime::from_millis(25));
    let out = outputs(&mut m);
    assert!(
        out.iter()
            .any(|o| matches!(o, MachineOutput::ThreadExited { tag: 1, .. })),
        "primary runs after quantum expiry"
    );
}

#[test]
fn wake_boost_jumps_the_queue() {
    // One core held by a bully, with a primary spawn already queued. A
    // primary thread that wakes from I/O afterwards must still run FIRST at
    // the next quantum expiry: the wake boost puts it at the queue front.
    let mut cfg = zero_cost_config(1);
    cfg.quantum = ms(20);
    let mut m = Machine::new(cfg);
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(1));
    let tid = m.spawn_thread(
        SimTime::ZERO,
        pri,
        Box::new(Script::new(vec![
            Step::Compute(ms(1)),
            Step::Block { token: 1 },
            Step::Compute(ms(1)),
        ])),
        7,
    );
    m.advance_to(SimTime::from_millis(1));
    assert!(matches!(
        outputs(&mut m).as_slice(),
        [MachineOutput::ThreadBlocked { .. }]
    ));
    // The bully takes the core while the primary thread is blocked.
    m.spawn_program(
        SimTime::from_millis(1),
        sec,
        Program::compute_once(ms(100)),
        0,
    );
    assert_eq!(m.idle_core_mask().count(), 0);
    // A fresh primary spawn queues at the back...
    m.spawn_program(
        SimTime::from_millis(2),
        pri,
        Program::compute_once(ms(1)),
        8,
    );
    // ...then the blocked thread wakes and queues at the front.
    assert!(m.wake(SimTime::from_millis(3), tid));
    // No preemption: nothing primary runs before the quantum expires.
    m.advance_to(SimTime::from_millis(20));
    assert!(
        outputs(&mut m).is_empty(),
        "boost must not preempt the running bully"
    );
    // Quantum expiry at t=21ms: the woken thread (front) runs before the
    // earlier spawn.
    m.advance_to(SimTime::from_millis(22));
    let first: Vec<u64> = outputs(&mut m)
        .iter()
        .filter_map(|o| match o {
            MachineOutput::ThreadExited { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(
        first,
        vec![7],
        "woken thread finishes before the queued spawn"
    );
}

#[test]
fn spawns_queue_fifo_behind_bully_until_quantum_expiry() {
    // The degradation mechanism of Fig 4: fresh fan-out spawns find every
    // core bully-held and wait a full quantum for the first slot.
    let mut cfg = zero_cost_config(2);
    cfg.quantum = ms(40);
    let mut m = Machine::new(cfg);
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(2));
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(2));
    for i in 0..2 {
        m.spawn_program(SimTime::ZERO, sec, Program::compute_once(ms(500)), i);
    }
    m.spawn_program(
        SimTime::from_millis(5),
        pri,
        Program::compute_once(ms(1)),
        10,
    );
    // Nothing until the first quantum expires at t=40ms.
    m.advance_to(SimTime::from_millis(39));
    assert!(outputs(&mut m).is_empty());
    m.advance_to(SimTime::from_millis(45));
    assert!(outputs(&mut m)
        .iter()
        .any(|o| matches!(o, MachineOutput::ThreadExited { tag: 10, .. })));
}

#[test]
fn wake_boost_prefers_idle_core() {
    // With an idle core available the boost must not preempt anyone.
    let mut m = Machine::new(zero_cost_config(2));
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(2));
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(2));
    let tid = m.spawn_thread(
        SimTime::ZERO,
        pri,
        Box::new(Script::new(vec![
            Step::Compute(ms(1)),
            Step::Block { token: 1 },
            Step::Compute(ms(1)),
        ])),
        7,
    );
    m.advance_to(SimTime::from_millis(1));
    outputs(&mut m);
    m.spawn_program(
        SimTime::from_millis(1),
        sec,
        Program::compute_once(ms(50)),
        0,
    );
    let ipis_before = m.stats().ipis;
    assert!(m.wake(SimTime::from_millis(2), tid));
    assert_eq!(
        m.idle_core_mask().count(),
        0,
        "woken thread took the idle core"
    );
    assert_eq!(m.stats().ipis, ipis_before, "no preemption needed");
    m.advance_to(SimTime::from_millis(5));
    assert!(outputs(&mut m)
        .iter()
        .any(|o| matches!(o, MachineOutput::ThreadExited { tag: 7, .. })));
}

#[test]
fn round_robin_shares_the_core() {
    let mut cfg = zero_cost_config(1);
    cfg.quantum = ms(10);
    let mut m = Machine::new(cfg);
    let job = m.create_job(TenantClass::Primary, CoreMask::all(1));
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(30)), 0);
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(30)), 1);
    m.advance_to(SimTime::from_millis(70));
    let exits: Vec<u64> = outputs(&mut m)
        .iter()
        .filter_map(|o| match o {
            MachineOutput::ThreadExited { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(exits.len(), 2);
    // Thread 0 finishes its last 10ms chunk at t=50, thread 1 at t=60.
    assert_eq!(exits, vec![0, 1]);
    assert_eq!(m.job_cpu_time(job), ms(60));
}

#[test]
fn affinity_restricts_dispatch() {
    let mut m = Machine::new(zero_cost_config(4));
    let job = m.create_job(TenantClass::Secondary, CoreMask::range(0, 2));
    for i in 0..4 {
        m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(1)), i);
    }
    // Only cores 0 and 1 may be used.
    let idle = m.idle_core_mask();
    assert!(idle.contains(CoreId(2)) && idle.contains(CoreId(3)));
    m.advance_to(SimTime::from_millis(5));
    assert_eq!(outputs(&mut m).len(), 4);
    // 4 x 1ms on 2 cores takes 2ms, not 1ms.
    let b = m.breakdown();
    assert_eq!(b.secondary, ms(4));
}

#[test]
fn affinity_revocation_preempts_immediately() {
    let mut m = Machine::new(zero_cost_config(2));
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(2));
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(100)), 0);
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(100)), 1);
    assert_eq!(m.idle_core_mask().count(), 0);
    // Revoke core 1 at t=5ms: the thread there must stop instantly.
    m.set_job_affinity(SimTime::from_millis(5), job, CoreMask::range(0, 1));
    assert_eq!(m.idle_core_mask().count(), 1);
    assert!(m.idle_core_mask().contains(CoreId(1)));
    let stats = m.stats();
    assert!(stats.ipis >= 1, "preemption must be an IPI");
    // The preempted thread continues on core 0 round-robin; both finish.
    m.advance_to(SimTime::from_secs(1));
    assert_eq!(outputs(&mut m).len(), 2);
}

#[test]
fn widening_affinity_dispatches_queued_threads() {
    let mut m = Machine::new(zero_cost_config(4));
    let job = m.create_job(TenantClass::Secondary, CoreMask::range(0, 1));
    for i in 0..3 {
        m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(50)), i);
    }
    assert_eq!(m.idle_core_mask().count(), 3);
    m.set_job_affinity(SimTime::from_millis(1), job, CoreMask::all(4));
    // The two queued threads should now be running.
    assert_eq!(m.idle_core_mask().count(), 1);
}

#[test]
fn block_and_wake_roundtrip() {
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(1));
    let tid = m.spawn_thread(
        SimTime::ZERO,
        job,
        Box::new(Script::new(vec![
            Step::Compute(ms(1)),
            Step::Block { token: 42 },
            Step::Compute(ms(1)),
        ])),
        7,
    );
    m.advance_to(SimTime::from_millis(1));
    let out = outputs(&mut m);
    assert!(matches!(
        out.as_slice(),
        [MachineOutput::ThreadBlocked {
            token: 42,
            tag: 7,
            ..
        }]
    ));
    assert_eq!(
        m.idle_core_mask().count(),
        1,
        "blocked thread releases the core"
    );
    // Wake at t=3ms; the thread computes 1ms more and exits at 4ms.
    assert!(m.wake(SimTime::from_millis(3), tid));
    m.advance_to(SimTime::from_millis(10));
    let out = outputs(&mut m);
    assert!(matches!(
        out.as_slice(),
        [MachineOutput::ThreadExited { tag: 7, .. }]
    ));
    assert_eq!(m.job_cpu_time(job), ms(2));
}

#[test]
fn wake_on_stale_handle_is_noop() {
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(1));
    let tid = m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(1)), 0);
    m.advance_to(SimTime::from_millis(5));
    assert!(
        !m.wake(SimTime::from_millis(5), tid),
        "thread already exited"
    );
    assert!(!m.kill_thread(SimTime::from_millis(5), tid));
}

#[test]
fn sleep_releases_core_and_resumes() {
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(1));
    m.spawn_thread(
        SimTime::ZERO,
        job,
        Box::new(Script::new(vec![
            Step::Compute(ms(1)),
            Step::Sleep(ms(5)),
            Step::Compute(ms(1)),
        ])),
        0,
    );
    m.advance_to(SimTime::from_millis(3));
    assert_eq!(
        m.idle_core_mask().count(),
        1,
        "sleeping thread leaves the core"
    );
    m.advance_to(SimTime::from_millis(10));
    let out = outputs(&mut m);
    assert!(out
        .iter()
        .any(|o| matches!(o, MachineOutput::ThreadExited { .. })));
    assert_eq!(m.job_cpu_time(job), ms(2));
}

#[test]
fn kill_running_thread_frees_core() {
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    let tid = m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(100)), 0);
    assert!(m.kill_thread(SimTime::from_millis(10), tid));
    assert_eq!(m.idle_core_mask().count(), 1);
    let out = outputs(&mut m);
    assert!(matches!(
        out.as_slice(),
        [MachineOutput::ThreadExited { killed: true, .. }]
    ));
    // Only the 10ms before the kill are charged.
    assert_eq!(m.job_cpu_time(job), ms(10));
}

#[test]
fn kill_queued_thread_never_runs() {
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(1));
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(10)), 0);
    let queued = m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(10)), 1);
    assert!(m.kill_thread(SimTime::from_millis(1), queued));
    m.advance_to(SimTime::from_millis(30));
    let exits: Vec<(u64, bool)> = outputs(&mut m)
        .iter()
        .filter_map(|o| match o {
            MachineOutput::ThreadExited { tag, killed, .. } => Some((*tag, *killed)),
            _ => None,
        })
        .collect();
    assert!(exits.contains(&(1, true)));
    assert!(exits.contains(&(0, false)));
    assert_eq!(
        m.job_cpu_time(job),
        ms(10),
        "killed thread consumed nothing"
    );
}

#[test]
fn live_threads_lists_handles_and_tags_of_the_living() {
    let mut m = Machine::new(zero_cost_config(2));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(2));
    let tids: Vec<_> = (0..4)
        .map(|tag| m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(10)), tag))
        .collect();
    assert!(m.kill_thread(SimTime::from_millis(1), tids[1]));
    // A recycled slot shows its new thread under the new generation.
    let fresh = m.spawn_program(
        SimTime::from_millis(1),
        job,
        Program::compute_once(ms(1)),
        9,
    );
    assert_eq!(fresh.index, tids[1].index);
    let mut live: Vec<_> = m.live_threads().collect();
    live.sort_unstable_by_key(|&(_, tag)| tag);
    assert_eq!(
        live,
        vec![(tids[0], 0), (tids[2], 2), (tids[3], 3), (fresh, 9)]
    );
    assert_eq!(m.live_thread_count(), 4);
    // Every handle listed is live: killing each succeeds exactly once.
    for (tid, _) in live {
        assert!(m.kill_thread(SimTime::from_millis(1), tid));
        assert!(!m.kill_thread(SimTime::from_millis(1), tid));
    }
    assert_eq!(m.live_threads().count(), 0);
}

fn exit_tags(m: &mut Machine) -> Vec<u64> {
    outputs(m)
        .iter()
        .filter_map(|o| match o {
            MachineOutput::ThreadExited { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect()
}

#[test]
fn ready_order_is_fifo_across_jobs() {
    // A secondary thread queued before a primary spawn runs first when the
    // core frees: the ready order is one FIFO over every job.
    let mut m = Machine::new(zero_cost_config(1));
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(1));
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    m.spawn_program(SimTime::ZERO, pri, Program::compute_once(ms(10)), 0);
    m.spawn_program(
        SimTime::from_millis(1),
        sec,
        Program::compute_once(ms(1)),
        1,
    );
    m.spawn_program(
        SimTime::from_millis(2),
        pri,
        Program::compute_once(ms(1)),
        2,
    );
    m.advance_to(SimTime::from_millis(11));
    assert_eq!(exit_tags(&mut m), vec![0, 1], "secondary runs at t=10ms");
    m.advance_to(SimTime::from_millis(12));
    assert_eq!(exit_tags(&mut m), vec![2]);
}

#[test]
fn wake_boost_jumps_ahead_of_other_jobs() {
    // A boosted wake runs ahead of an earlier-queued thread of another job.
    let mut cfg = zero_cost_config(1);
    cfg.quantum = ms(20);
    let mut m = Machine::new(cfg);
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(1));
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    let tid = m.spawn_thread(
        SimTime::ZERO,
        pri,
        Box::new(Script::new(vec![
            Step::Compute(ms(1)),
            Step::Block { token: 1 },
            Step::Compute(ms(1)),
        ])),
        7,
    );
    m.advance_to(SimTime::from_millis(1));
    outputs(&mut m);
    // The bully takes the core; a secondary spawn queues at the back.
    m.spawn_program(
        SimTime::from_millis(1),
        sec,
        Program::compute_once(ms(100)),
        0,
    );
    m.spawn_program(
        SimTime::from_millis(2),
        sec,
        Program::compute_once(ms(1)),
        1,
    );
    assert!(m.wake(SimTime::from_millis(3), tid));
    // Quantum expiry at t=21ms: the woken primary runs first, then the
    // secondary spawn queued before the bully's requeue.
    m.advance_to(SimTime::from_millis(22));
    assert_eq!(exit_tags(&mut m), vec![7]);
    m.advance_to(SimTime::from_millis(23));
    assert_eq!(exit_tags(&mut m), vec![1]);
}

#[test]
fn throttled_job_head_is_skipped_for_other_jobs() {
    // 2 cores, 5% quota: the secondary may use 10ms of core-time per 100ms.
    let mut m = Machine::new(zero_cost_config(2));
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(2));
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(2));
    m.spawn_program(SimTime::ZERO, sec, Program::compute_once(ms(500)), 0);
    m.set_job_quota(SimTime::ZERO, sec, Some(CpuRateQuota::percent(5.0)));
    m.spawn_program(SimTime::ZERO, pri, Program::compute_once(ms(50)), 1);
    // Both cores are busy: a secondary spawn heads the queue, a primary
    // spawn follows it.
    m.spawn_program(
        SimTime::from_millis(1),
        sec,
        Program::compute_once(ms(1)),
        2,
    );
    m.spawn_program(
        SimTime::from_millis(2),
        pri,
        Program::compute_once(ms(1)),
        3,
    );
    // The secondary throttles at t=10ms; the freed core skips its queued
    // thread and runs the later primary spawn.
    m.advance_to(SimTime::from_millis(12));
    assert_eq!(exit_tags(&mut m), vec![3]);
    assert_eq!(m.job_cpu_time(sec), ms(10));
    // The throttled secondary spawn waits for the refill at t=100ms.
    m.advance_to(SimTime::from_millis(99));
    assert_eq!(exit_tags(&mut m), vec![1]);
    m.advance_to(SimTime::from_millis(102));
    assert_eq!(exit_tags(&mut m), vec![2]);
}

#[test]
fn killed_ready_threads_never_dispatch_across_prune() {
    // One core held for 10ms while 100 one-millisecond threads of two jobs
    // queue behind it. Killing 70 of them leaves more than 64 stale queue
    // entries, which the next core fill prunes.
    let mut m = Machine::new(zero_cost_config(1));
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(1));
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    m.spawn_program(SimTime::ZERO, pri, Program::compute_once(ms(10)), 0);
    let queued: Vec<_> = (1..=100u64)
        .map(|tag| {
            let job = if tag % 2 == 0 { pri } else { sec };
            let tid = m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(1)), tag);
            (tag, tid)
        })
        .collect();
    let doomed = |tag: u64| tag % 10 < 7;
    for &(tag, tid) in &queued {
        if doomed(tag) {
            assert!(m.kill_thread(SimTime::from_millis(1), tid));
        }
    }
    // A survivor killed after the prune is skipped too.
    m.advance_to(SimTime::from_millis(11));
    let late = queued
        .iter()
        .filter(|&&(tag, _)| !doomed(tag))
        .nth(5)
        .copied()
        .expect("30 survivors");
    assert!(m.kill_thread(SimTime::from_millis(11), late.1));
    m.advance_to(SimTime::from_millis(100));
    let mut completed = Vec::new();
    let mut killed = Vec::new();
    for o in outputs(&mut m) {
        if let MachineOutput::ThreadExited { tag, killed: k, .. } = o {
            if k {
                killed.push(tag);
            } else {
                completed.push(tag);
            }
        }
    }
    let mut want_killed: Vec<u64> = (1..=100).filter(|&t| doomed(t)).collect();
    want_killed.push(late.0);
    assert_eq!(killed, want_killed, "each kill exits exactly once");
    let want_completed: Vec<u64> = std::iter::once(0)
        .chain((1..=100).filter(|&t| !doomed(t) && t != late.0))
        .collect();
    assert_eq!(completed, want_completed, "survivors run in queue order");
    assert_eq!(
        m.job_cpu_time(pri) + m.job_cpu_time(sec),
        ms(10) + ms(want_completed.len() as u64 - 1),
        "killed threads consumed nothing"
    );
}

#[test]
fn reinstalled_quota_keeps_one_refill_per_period() {
    // One core, 10% quota over 100ms, removed at 40ms and re-installed at
    // 50ms: the job must still get 10ms per period, not one refill from
    // each installation.
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    m.spawn_program(SimTime::ZERO, job, Program::compute_loop(ms(1)), 0);
    let quota = Some(CpuRateQuota::percent(10.0));
    m.set_job_quota(SimTime::ZERO, job, quota);
    m.set_job_quota(SimTime::from_millis(40), job, None);
    m.set_job_quota(SimTime::from_millis(50), job, quota);
    m.advance_to(SimTime::from_millis(200));
    let before = m.job_cpu_time(job);
    m.advance_to(SimTime::from_millis(1_200));
    assert_eq!(m.job_cpu_time(job) - before, ms(100));
}

#[test]
fn quota_throttles_whole_job_mid_period() {
    // One core, 10% quota over 100ms: the job may run 10ms per period.
    let mut m = Machine::new(zero_cost_config(1));
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(1));
    m.spawn_program(SimTime::ZERO, job, Program::compute_loop(ms(1)), 0);
    m.set_job_quota(SimTime::ZERO, job, Some(CpuRateQuota::percent(10.0)));
    m.advance_to(SimTime::from_millis(99));
    // 10ms of the first period were usable.
    assert_eq!(m.job_cpu_time(job), ms(10));
    assert_eq!(m.idle_core_mask().count(), 1, "job throttled, core idle");
    // After the refill at t=100ms the job runs again.
    m.advance_to(SimTime::from_millis(115));
    assert_eq!(m.job_cpu_time(job), ms(20));
}

#[test]
fn quota_budget_scales_with_parallelism() {
    // 4 cores, 50% quota: 200ms core-time per 100ms period; 4 threads burn
    // it in 50ms wall time.
    let mut m = Machine::new(zero_cost_config(4));
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(4));
    for i in 0..4 {
        m.spawn_program(SimTime::ZERO, job, Program::compute_loop(ms(1)), i);
    }
    m.set_job_quota(SimTime::ZERO, job, Some(CpuRateQuota::percent(50.0)));
    m.advance_to(SimTime::from_millis(60));
    assert_eq!(m.idle_core_mask().count(), 4, "all throttled by 50ms");
    assert_eq!(m.job_cpu_time(job), ms(200));
    m.advance_to(SimTime::from_millis(160));
    assert_eq!(m.job_cpu_time(job), ms(400));
}

#[test]
fn quota_with_indivisible_budget_makes_progress() {
    // Regression: a budget that does not divide evenly by the running
    // thread count used to leave a sub-nanosecond-per-thread remainder;
    // the exhaustion projection then truncated to `now` and the timer
    // re-fired forever, livelocking the simulation.
    let mut m = Machine::new(zero_cost_config(2));
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(2));
    for i in 0..2 {
        m.spawn_program(SimTime::ZERO, job, Program::compute_loop(ms(1)), i);
    }
    // Budget per 100ms period: 100ms * (1/3) * 2 cores = 66,666,667 ns,
    // which is odd, so two parallel threads always strand a remainder.
    let quota = CpuRateQuota::new(1.0 / 3.0, ms(100));
    m.set_job_quota(SimTime::ZERO, job, Some(quota));
    m.advance_to(SimTime::from_millis(350));
    // Two threads burn each period's budget in its first ~33ms, so by
    // t=350ms all four periods' budgets are fully consumed. The job must
    // have been throttled and refilled repeatedly without hanging.
    let got = m.job_cpu_time(job).as_nanos() as f64;
    let expect = 66_666_667.0 * 4.0;
    assert!(
        (got - expect).abs() / expect < 0.05,
        "expected ~{expect}ns of throttled progress, got {got}ns"
    );
}

#[test]
fn quota_leaves_other_jobs_unaffected() {
    let mut m = Machine::new(zero_cost_config(2));
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(2));
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(2));
    m.spawn_program(SimTime::ZERO, sec, Program::compute_loop(ms(1)), 0);
    m.set_job_quota(SimTime::ZERO, sec, Some(CpuRateQuota::percent(5.0)));
    m.spawn_program(SimTime::ZERO, pri, Program::compute_once(ms(80)), 1);
    m.advance_to(SimTime::from_millis(100));
    assert!(outputs(&mut m)
        .iter()
        .any(|o| matches!(o, MachineOutput::ThreadExited { tag: 1, .. })));
    assert_eq!(m.job_cpu_time(pri), ms(80));
    // Secondary got 5% * 2 cores * 100ms = 10ms.
    assert_eq!(m.job_cpu_time(sec), ms(10));
}

#[test]
fn accounting_partitions_capacity() {
    let mut cfg = zero_cost_config(4);
    cfg.dispatch_cost = us(2);
    cfg.ctx_switch_cost = us(5);
    let mut m = Machine::with_seed(cfg, 1);
    let pri = m.create_job(TenantClass::Primary, CoreMask::all(4));
    let sec = m.create_job(TenantClass::Secondary, CoreMask::all(4));
    for i in 0..3 {
        m.spawn_program(SimTime::ZERO, pri, Program::compute_once(ms(7)), i);
    }
    for i in 0..5 {
        m.spawn_program(
            SimTime::from_millis(1),
            sec,
            Program::compute_loop(ms(3)),
            100 + i,
        );
    }
    let horizon = SimTime::from_millis(200);
    m.advance_to(horizon);
    let b = m.breakdown();
    let capacity = SimDuration::from_nanos(horizon.as_nanos() * 4);
    let total = b.total();
    assert_eq!(
        total, capacity,
        "accounting must partition capacity exactly: {total} vs {capacity}"
    );
    assert!(b.os > SimDuration::ZERO, "overhead must be visible");
}

#[test]
fn idle_mask_matches_breakdown_under_load() {
    let mut m = Machine::new(zero_cost_config(8));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(8));
    for i in 0..5 {
        m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(10)), i);
    }
    m.advance_to(SimTime::from_millis(5));
    assert_eq!(m.idle_core_mask().count(), 3);
    m.advance_to(SimTime::from_millis(20));
    assert_eq!(m.idle_core_mask().count(), 8);
    let b = m.breakdown();
    assert_eq!(b.primary, ms(50));
}

#[test]
fn outputs_preserve_order() {
    let mut m = Machine::new(zero_cost_config(2));
    let job = m.create_job(TenantClass::Primary, CoreMask::all(2));
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(1)), 0);
    m.spawn_program(SimTime::ZERO, job, Program::compute_once(ms(2)), 1);
    m.advance_to(SimTime::from_millis(5));
    let tags: Vec<u64> = outputs(&mut m)
        .iter()
        .filter_map(|o| match o {
            MachineOutput::ThreadExited { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(tags, vec![0, 1]);
}

#[test]
fn time_cannot_go_backwards() {
    let mut m = Machine::new(zero_cost_config(1));
    m.advance_to(SimTime::from_millis(10));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.advance_to(SimTime::from_millis(5));
    }));
    assert!(r.is_err());
}
