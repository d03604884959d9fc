//! The machine: cores, threads, jobs, and the scheduler.
//!
//! # Scheduling model
//!
//! - Work-conserving, per-core quantum, one FIFO ready order over every
//!   job. It is stored as one queue per job, each entry stamped with a
//!   sequence number (back pushes count up, boosted front pushes count
//!   down), and a dispatch takes the lowest-numbered eligible entry across
//!   the queues: exactly the thread a single shared queue would yield,
//!   found in O(jobs) instead of a scan over every queued thread.
//! - A *freshly spawned* thread dispatches immediately onto an idle core
//!   inside its job's affinity mask; otherwise it queues FIFO behind
//!   everything else — fan-out worker bursts arriving while secondary
//!   threads hold all cores wait for quantum expiries. This is the
//!   "short-lived worker threads end up queued for execution instead of
//!   being launched right away" cascade of the paper's §6.1.4.
//! - A thread *woken* from a blocking operation or sleep carries a wake
//!   boost (Windows grants woken threads a temporary priority boost): if no
//!   allowed core is idle it enters the ready queue at the *front*, so it is
//!   served by the next core that frees up, ahead of every queued spawn.
//!   The boost never preempts a running thread — that conservative softening
//!   of the Windows boost keeps mid-sized colocation mild (matching Fig 4's
//!   mid bars) while fan-out spawns still starve under a full bully.
//! - Quantum expiry preempts only if another eligible thread is waiting
//!   (round-robin); otherwise the quantum is renewed free of charge. The
//!   quantum is therefore how long a CPU-bound secondary holds a core
//!   against queued primary spawns — the calibrated stand-in for Windows
//!   Server's long quanta.
//! - Affinity revocation and quota exhaustion preempt immediately (resched
//!   IPI), which is what makes blind isolation's *shrink* operation fast.
//! - Dispatch / context-switch / IPI costs occupy the core as OS time before
//!   the incoming thread starts, so overhead is visible in the utilization
//!   breakdown exactly like the "OS" bars in the paper's figures.
//!
//! # Time discipline
//!
//! All mutators take the current virtual time and internally process every
//! internal timer due up to that instant, so callers can never observe a
//! machine that is behind its own timers.

use std::collections::VecDeque;

use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use telemetry::{CpuBreakdown, TenantClass};

use crate::arena::{ArenaStats, Program, StepArena};
use crate::config::MachineConfig;
use crate::program::{Step, ThreadProgram};
use crate::quota::{CpuRateQuota, QuotaState};
use simcore::ids::{CoreId, JobId, ThreadId};
use simcore::mask::CoreMask;

/// Events the machine reports to its driver.
#[derive(Debug)]
pub enum MachineOutput {
    /// A thread issued a blocking operation and left its core.
    ThreadBlocked {
        /// The blocked thread.
        tid: ThreadId,
        /// The thread's user tag.
        tag: u64,
        /// The opaque token from [`Step::Block`].
        token: u64,
    },
    /// A thread exited (voluntarily or killed).
    ThreadExited {
        /// The exited thread.
        tid: ThreadId,
        /// The thread's user tag.
        tag: u64,
        /// True when the exit came from [`Machine::kill_thread`].
        killed: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Ready,
    Running(CoreId),
    Blocked,
    Sleeping,
}

struct ThreadBody {
    job: JobId,
    tag: u64,
    state: ThreadState,
    program: Program,
    seg_remaining: SimDuration,
    quantum_left: SimDuration,
}

struct ThreadSlot {
    gen: u32,
    body: Option<ThreadBody>,
}

struct CoreState {
    running: Option<ThreadId>,
    slice_start: SimTime,
    slice_os_cost: SimDuration,
    slice_gen: u64,
    idle_since: SimTime,
}

struct JobBody {
    class: TenantClass,
    affinity: CoreMask,
    quota: Option<QuotaState>,
    /// Bumped by every [`Machine::set_job_quota`]; a refill timer left by
    /// an earlier installation carries an older epoch and is dropped.
    quota_epoch: u64,
    cpu_time: SimDuration,
    memory_bytes: u64,
    /// This job's share of the ready order, strictly ascending by `seq`.
    ready: VecDeque<ReadyEntry>,
}

#[derive(Clone, Copy)]
struct ReadyEntry {
    seq: i64,
    tid: ThreadId,
}

/// A ready entry located by [`Machine::first_eligible_ready`]: the job's
/// index and the entry's position in that job's queue.
type ReadyPos = (usize, usize);

#[derive(Debug)]
enum Timer {
    SliceEnd { core: CoreId, gen: u64 },
    ThreadWake { tid: ThreadId },
    QuotaExhaust { job: JobId, gen: u64 },
    QuotaRefill { job: JobId, epoch: u64 },
}

/// Aggregate scheduler activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MachineStats {
    /// Threads dispatched onto idle cores.
    pub dispatches: u64,
    /// Involuntary context switches at quantum expiry.
    pub ctx_switches: u64,
    /// Immediate preemptions (affinity revocation, throttling, kill).
    pub ipis: u64,
    /// Threads spawned.
    pub spawns: u64,
    /// Threads exited.
    pub exits: u64,
}

/// A simulated multicore machine.
///
/// See the [crate docs](crate) for the model and an example.
pub struct Machine {
    cfg: MachineConfig,
    now: SimTime,
    cores: Vec<CoreState>,
    threads: Vec<ThreadSlot>,
    free_slots: Vec<u32>,
    jobs: Vec<JobBody>,
    /// Cores with no running thread: set when a slice is settled, cleared
    /// when one starts.
    idle: CoreMask,
    /// Sequence number the next back push takes; counts up from 0.
    back_seq: i64,
    /// Sequence number the next front push takes; counts down from -1.
    front_seq: i64,
    /// Count of ready entries whose thread has since exited; drives
    /// amortized pruning.
    ready_stale: usize,
    timers: EventQueue<Timer>,
    outputs: Vec<MachineOutput>,
    breakdown: CpuBreakdown,
    rng: SimRng,
    stats: MachineStats,
    /// Reusable buffer for preemption sweeps (affinity revocation, quota
    /// throttling); avoids a fresh `Vec` per controller action on the hot
    /// path.
    victims_scratch: Vec<CoreId>,
    /// Scripted-program storage: one slab of four-step blocks shared by
    /// every scripted thread, each script's blocks recycled on exit/kill.
    arena: StepArena,
    /// Staging buffer for [`Machine::spawn_scripted`]: steps are streamed
    /// here, then copied into the arena in one shot at `finish`.
    script_staging: Vec<Step>,
}

const MAX_ZERO_STEPS: u32 = 64;

/// Ready-queue entries pre-sized per job and core, so steady-state queueing
/// never grows a queue.
const READY_PER_JOB_PER_CORE: usize = 2;

/// Timer cells pre-sized per core. A core holds its slice end, plus the
/// stale ones preemptions leave queued, and sleeping threads hold wake
/// timers; the benchmark's 48-core boxes peak at 85–271 pending timers,
/// at most 5.7 per core.
const TIMERS_PER_CORE: usize = 8;

/// Output slots pre-sized per machine. The benchmark's boxes queue at most
/// 2 outputs between drains; a kill sweep that queues more grows the
/// buffer once.
const OUTPUTS_RESERVED: usize = 8;

impl Machine {
    /// Creates a machine with a default RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine::with_seed(cfg, 0x5EED)
    }

    /// Creates a machine with an explicit RNG seed (used by thread programs).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_seed(cfg: MachineConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid machine config");
        let idle = CoreMask::all(cfg.cores);
        let cores = (0..cfg.cores)
            .map(|_| CoreState {
                running: None,
                slice_start: SimTime::ZERO,
                slice_os_cost: SimDuration::ZERO,
                slice_gen: 0,
                idle_since: SimTime::ZERO,
            })
            .collect();
        // Pre-size everything the spawn path touches: with recycled thread
        // slots and arena ranges, steady-state spawning then never grows a
        // container.
        let cores_hint = cfg.cores as usize;
        Machine {
            cfg,
            now: SimTime::ZERO,
            cores,
            threads: Vec::with_capacity(4 * cores_hint),
            free_slots: Vec::with_capacity(4 * cores_hint),
            jobs: Vec::new(),
            idle,
            back_seq: 0,
            front_seq: -1,
            ready_stale: 0,
            timers: EventQueue::with_capacity(TIMERS_PER_CORE * cores_hint),
            outputs: Vec::with_capacity(OUTPUTS_RESERVED),
            breakdown: CpuBreakdown::default(),
            rng: SimRng::seed_from_u64(seed),
            stats: MachineStats::default(),
            victims_scratch: Vec::with_capacity(cores_hint),
            arena: StepArena::with_capacity(16 * cores_hint),
            script_staging: Vec::with_capacity(64),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Scheduler activity counters.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Creates a job (process group) of the given tenant class, restricted
    /// to `affinity`.
    pub fn create_job(&mut self, class: TenantClass, affinity: CoreMask) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(JobBody {
            class,
            affinity,
            quota: None,
            quota_epoch: 0,
            cpu_time: SimDuration::ZERO,
            memory_bytes: 0,
            ready: VecDeque::with_capacity(READY_PER_JOB_PER_CORE * self.cfg.cores as usize),
        });
        id
    }

    /// The job's current affinity mask.
    pub fn job_affinity(&self, job: JobId) -> CoreMask {
        self.jobs[job.0 as usize].affinity
    }

    /// Accumulated CPU time of a job (its "progress" for CPU-bound jobs).
    pub fn job_cpu_time(&self, job: JobId) -> SimDuration {
        self.jobs[job.0 as usize].cpu_time
    }

    /// Sets the declared memory footprint of a job.
    pub fn set_job_memory(&mut self, job: JobId, bytes: u64) {
        self.jobs[job.0 as usize].memory_bytes = bytes;
    }

    /// The declared memory footprint of a job.
    pub fn job_memory(&self, job: JobId) -> u64 {
        self.jobs[job.0 as usize].memory_bytes
    }

    /// Sum of declared memory footprints.
    pub fn memory_used(&self) -> u64 {
        self.jobs.iter().map(|j| j.memory_bytes).sum()
    }

    /// Total machine memory.
    pub fn memory_total(&self) -> u64 {
        self.cfg.memory_bytes
    }

    /// The idle-core bitmask: the system call blind isolation polls.
    ///
    /// A core is idle when no thread occupies it (the "idle thread" runs
    /// there, in the paper's terms).
    pub fn idle_core_mask(&self) -> CoreMask {
        self.idle
    }

    /// Number of live (not exited) threads.
    pub fn live_thread_count(&self) -> usize {
        self.live_threads().count()
    }

    /// Every live (not exited) thread with its user tag, in thread-table
    /// order: a read-only scan, for owners that find their threads by tag
    /// rather than keep handles.
    pub fn live_threads(&self) -> impl Iterator<Item = (ThreadId, u64)> + '_ {
        self.threads.iter().enumerate().filter_map(|(index, slot)| {
            let body = slot.body.as_ref()?;
            let tid = ThreadId {
                index: index as u32,
                gen: slot.gen,
            };
            Some((tid, body.tag))
        })
    }

    /// Time of the next internal timer, if any.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.timers.peek_time()
    }

    /// Moves all pending outputs into `buf` (appending), leaving the
    /// internal buffer empty but with its capacity intact, so callers keep
    /// one scratch `Vec` alive across the whole run instead of allocating
    /// per step.
    pub fn drain_outputs_into(&mut self, buf: &mut Vec<MachineOutput>) {
        buf.append(&mut self.outputs);
    }

    /// True when outputs are pending (cheaper than draining to check).
    pub fn has_outputs(&self) -> bool {
        !self.outputs.is_empty()
    }

    /// The CPU-time breakdown up to the current instant, including partial
    /// in-flight slices and idle intervals.
    pub fn breakdown(&self) -> CpuBreakdown {
        let mut b = self.breakdown;
        for core in &self.cores {
            match core.running {
                Some(tid) => {
                    let elapsed = self.now.since(core.slice_start);
                    let os_part = core.slice_os_cost.min(elapsed);
                    let busy = elapsed - os_part;
                    b.add(TenantClass::Os, os_part);
                    let job = self.thread(tid).map(|t| t.job);
                    if let Some(job) = job {
                        b.add(self.jobs[job.0 as usize].class, busy);
                    }
                }
                None => b.add_idle(self.now.since(core.idle_since)),
            }
        }
        b
    }

    // ------------------------------------------------------------------
    // Thread lifecycle
    // ------------------------------------------------------------------

    /// Spawns a thread in `job` with the given boxed program and user tag.
    ///
    /// Returns a handle that may already be stale if the program exited
    /// immediately. Hot spawn paths should prefer [`Machine::spawn_program`]
    /// (inline program variants) or [`Machine::spawn_scripted`] (arena
    /// scripts), which skip the per-spawn `Box`.
    pub fn spawn_thread(
        &mut self,
        now: SimTime,
        job: JobId,
        program: Box<dyn ThreadProgram>,
        tag: u64,
    ) -> ThreadId {
        self.spawn_program_with(now, job, Program::Dyn(program), tag, false)
    }

    /// Spawns a thread from an internal [`Program`] representation: the
    /// allocation-free spawn path for the inline variants.
    pub fn spawn_program(
        &mut self,
        now: SimTime,
        job: JobId,
        program: Program,
        tag: u64,
    ) -> ThreadId {
        self.spawn_program_with(now, job, program, tag, false)
    }

    /// Spawns a [`Program`], optionally carrying the wake boost.
    ///
    /// A boosted spawn models a *continuation*: a pool thread woken by a
    /// completion port to carry on work already in flight. It enters the
    /// ready queue at the front like any other wake. A plain spawn models
    /// fresh work and queues at the back.
    pub fn spawn_program_with(
        &mut self,
        now: SimTime,
        job: JobId,
        program: Program,
        tag: u64,
        boosted: bool,
    ) -> ThreadId {
        self.advance_to(now);
        let idx = match self.free_slots.pop() {
            Some(i) => i,
            None => {
                self.threads.push(ThreadSlot { gen: 0, body: None });
                (self.threads.len() - 1) as u32
            }
        };
        let gen = self.threads[idx as usize].gen;
        let tid = ThreadId { index: idx, gen };
        self.threads[idx as usize].body = Some(ThreadBody {
            job,
            tag,
            state: ThreadState::Ready,
            program,
            seg_remaining: SimDuration::ZERO,
            quantum_left: SimDuration::ZERO,
        });
        self.stats.spawns += 1;
        // Fresh spawns carry no wake boost: a fan-out burst finding every
        // core busy queues FIFO, which is the paper's degradation cascade.
        // Continuations (boosted) jump the queue like wakes.
        self.advance_program(tid, SimDuration::ZERO, boosted);
        tid
    }

    /// Starts an arena-backed scripted spawn: stream steps into the returned
    /// writer, then call [`ScriptWriter::finish`] to launch the thread.
    ///
    /// The steps land directly in recycled arena memory, so in steady state
    /// the whole spawn touches the allocator not at all — this is the spawn
    /// path for IndexServe's parse/fan-out/rank/aggregate stages.
    pub fn spawn_scripted(&mut self, now: SimTime, job: JobId, tag: u64) -> ScriptWriter<'_> {
        self.script_staging.clear();
        ScriptWriter {
            machine: self,
            now,
            job,
            tag,
            boosted: false,
        }
    }

    /// Arena occupancy and range-recycling counters.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Wakes a blocked thread (I/O completion). Returns false on a stale
    /// handle or a thread that is not blocked/sleeping.
    ///
    /// The woken thread carries a wake boost: if no core in its job's mask
    /// is idle, it queues at the front of the ready order (see the module
    /// docs).
    pub fn wake(&mut self, now: SimTime, tid: ThreadId) -> bool {
        self.advance_to(now);
        let Some(t) = self.thread(tid) else {
            return false;
        };
        if t.state != ThreadState::Blocked && t.state != ThreadState::Sleeping {
            return false;
        }
        let cost = self.cfg.io_interrupt_cost;
        self.advance_program(tid, cost, true);
        true
    }

    /// Kills a thread. Returns false on a stale handle.
    pub fn kill_thread(&mut self, now: SimTime, tid: ThreadId) -> bool {
        self.advance_to(now);
        let Some(t) = self.thread(tid) else {
            return false;
        };
        let state = t.state;
        match state {
            ThreadState::Running(core) => {
                self.preempt_core_no_requeue(core);
                self.stats.ipis += 1;
                self.finish_thread(tid, true);
                self.fill_core(core, self.cfg.ctx_switch_cost);
            }
            _ => {
                // Ready-queue entries and wake timers become stale once the
                // slot generation is bumped.
                self.finish_thread(tid, true);
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Job controls (the PerfIso actuators)
    // ------------------------------------------------------------------

    /// Restricts a job to `mask`. Running threads outside the mask are
    /// preempted immediately (resched IPI); a widened mask is exploited
    /// immediately by dispatching queued threads.
    pub fn set_job_affinity(&mut self, now: SimTime, job: JobId, mask: CoreMask) {
        self.advance_to(now);
        self.jobs[job.0 as usize].affinity = mask;
        let mut victims = std::mem::take(&mut self.victims_scratch);
        victims.clear();
        victims.extend(self.cores.iter().enumerate().filter_map(|(i, c)| {
            let core = CoreId(i as u16);
            let tid = c.running?;
            let t = self.thread(tid)?;
            (t.job == job && !mask.contains(core)).then_some(core)
        }));
        for &core in &victims {
            self.preempt_core(core);
            self.stats.ipis += 1;
            self.fill_core(core, self.cfg.ipi_cost);
        }
        self.victims_scratch = victims;
        self.dispatch_sweep();
    }

    /// Installs or removes a CPU-rate quota on a job.
    ///
    /// Each call starts a new refill chain and retires the previous one, so
    /// a quota removed and re-installed still refills once per period.
    pub fn set_job_quota(&mut self, now: SimTime, job: JobId, quota: Option<CpuRateQuota>) {
        self.advance_to(now);
        self.jobs[job.0 as usize].quota_epoch += 1;
        match quota {
            Some(q) => {
                let mut state = QuotaState::new(q, self.cfg.cores, self.now);
                state.running = self.count_running_threads_of(job);
                let body = &mut self.jobs[job.0 as usize];
                body.quota = Some(state);
                let epoch = body.quota_epoch;
                self.timers
                    .push(self.now + q.period, Timer::QuotaRefill { job, epoch });
                self.reschedule_exhaust(job);
            }
            None => {
                self.jobs[job.0 as usize].quota = None;
                self.dispatch_sweep();
            }
        }
    }

    // ------------------------------------------------------------------
    // Time advancement
    // ------------------------------------------------------------------

    /// Advances virtual time to `t`, processing all internal timers due at
    /// or before `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "time went backwards: {:?} -> {:?}",
            self.now,
            t
        );
        while let Some((at, timer)) = self.timers.pop_before(t) {
            debug_assert!(at >= self.now);
            self.now = at;
            self.handle_timer(timer);
        }
        self.now = t;
        debug_assert_eq!(
            self.idle,
            self.cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.running.is_none())
                .fold(CoreMask::EMPTY, |m, (i, _)| m.with(CoreId(i as u16))),
            "kept idle mask differs from the cores with no running thread"
        );
        // `first_eligible_ready` relies on both: ascending queues, and no
        // live entry that is not a Ready thread of its job.
        debug_assert!(
            self.jobs.iter().enumerate().all(|(j, job)| {
                job.ready
                    .iter()
                    .zip(job.ready.iter().skip(1))
                    .all(|(a, b)| a.seq < b.seq)
                    && job.ready.iter().all(|e| {
                        self.thread(e.tid)
                            .is_none_or(|t| t.job.0 as usize == j && t.state == ThreadState::Ready)
                    })
            }),
            "a job's ready queue is out of sequence order or holds a non-ready thread"
        );
    }

    fn handle_timer(&mut self, timer: Timer) {
        match timer {
            Timer::SliceEnd { core, gen } => {
                if self.cores[core.0 as usize].slice_gen != gen {
                    return;
                }
                self.on_slice_end(core);
            }
            Timer::ThreadWake { tid } => {
                let Some(t) = self.thread(tid) else { return };
                if t.state != ThreadState::Sleeping {
                    return;
                }
                // Timer-wait satisfaction boosts like an I/O completion.
                self.advance_program(tid, SimDuration::ZERO, true);
            }
            Timer::QuotaExhaust { job, gen } => self.on_quota_exhaust(job, gen),
            Timer::QuotaRefill { job, epoch } => self.on_quota_refill(job, epoch),
        }
    }

    // ------------------------------------------------------------------
    // Internals: thread table helpers
    // ------------------------------------------------------------------

    fn thread(&self, tid: ThreadId) -> Option<&ThreadBody> {
        let slot = self.threads.get(tid.index as usize)?;
        if slot.gen != tid.gen {
            return None;
        }
        slot.body.as_ref()
    }

    fn thread_mut(&mut self, tid: ThreadId) -> Option<&mut ThreadBody> {
        let slot = self.threads.get_mut(tid.index as usize)?;
        if slot.gen != tid.gen {
            return None;
        }
        slot.body.as_mut()
    }

    fn count_running_threads_of(&self, job: JobId) -> u32 {
        self.cores
            .iter()
            .filter_map(|c| {
                let t = self.thread(c.running?)?;
                (t.job == job).then_some(())
            })
            .count() as u32
    }

    /// Removes the thread's body, bumps the slot generation, and emits the
    /// exit output.
    fn finish_thread(&mut self, tid: ThreadId, killed: bool) {
        let slot = &mut self.threads[tid.index as usize];
        let body = slot.body.take().expect("finishing a live thread");
        if let Some(range) = body.program.owned_range() {
            self.arena.free(range);
        }
        if body.state == ThreadState::Ready {
            // Its ready-queue entry is now stale; it is skipped on dispatch
            // and physically removed by the amortized prune.
            self.ready_stale += 1;
        }
        slot.gen = slot.gen.wrapping_add(1);
        self.free_slots.push(tid.index);
        self.stats.exits += 1;
        self.outputs.push(MachineOutput::ThreadExited {
            tid,
            tag: body.tag,
            killed,
        });
    }

    // ------------------------------------------------------------------
    // Internals: program driving
    // ------------------------------------------------------------------

    /// Pulls the thread's next program step in place. The program lives in
    /// the thread table and resolves against the arena and RNG — three
    /// disjoint machine fields, so no temporary move is needed.
    fn pull_step(&mut self, tid: ThreadId) -> Step {
        let Machine {
            threads,
            arena,
            rng,
            ..
        } = self;
        let body = threads[tid.index as usize]
            .body
            .as_mut()
            .expect("live thread");
        body.program.next_step(arena, rng)
    }

    /// Pulls the program's next step after the previous one completed, and
    /// acts on it. `extra_os_cost` is charged at the next dispatch (e.g. the
    /// I/O interrupt that woke the thread). `boosted` marks a wake-boosted
    /// transition (I/O completion or timer satisfaction).
    fn advance_program(&mut self, tid: ThreadId, extra_os_cost: SimDuration, boosted: bool) {
        for _guard in 0..MAX_ZERO_STEPS {
            if self.thread(tid).is_none() {
                return;
            }
            let step = self.pull_step(tid);
            match step {
                Step::Compute(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    let t = self.thread_mut(tid).expect("live");
                    t.seg_remaining = d;
                    self.make_ready(tid, extra_os_cost, boosted);
                    return;
                }
                Step::Block { token } => {
                    let t = self.thread_mut(tid).expect("live");
                    t.state = ThreadState::Blocked;
                    let tag = t.tag;
                    self.outputs
                        .push(MachineOutput::ThreadBlocked { tid, tag, token });
                    return;
                }
                Step::Sleep(d) => {
                    let t = self.thread_mut(tid).expect("live");
                    t.state = ThreadState::Sleeping;
                    let wake_at = self.now + d.max(SimDuration::from_nanos(1));
                    self.timers.push(wake_at, Timer::ThreadWake { tid });
                    return;
                }
                Step::Exit => {
                    self.finish_thread(tid, false);
                    return;
                }
            }
        }
        // A program that yields zero-length computes forever is broken; kill
        // it rather than hang the simulation.
        self.finish_thread(tid, true);
    }

    /// Marks a thread ready: dispatches onto an idle allowed core if
    /// possible; otherwise queues — at the front with the wake boost, at
    /// the back without.
    fn make_ready(&mut self, tid: ThreadId, extra_os_cost: SimDuration, boosted: bool) {
        let t = self.thread_mut(tid).expect("live");
        t.state = ThreadState::Ready;
        let j = t.job.0 as usize;
        let job = &self.jobs[j];
        if !job.quota.as_ref().is_some_and(|q| q.throttled) {
            if let Some(core) = self.idle.intersection(job.affinity).lowest() {
                self.dispatch(core, tid, self.cfg.dispatch_cost + extra_os_cost);
                return;
            }
        }
        self.enqueue(tid, boosted);
    }

    /// Queues a Ready thread on its job's queue: first in the ready order
    /// with the wake boost, last without.
    fn enqueue(&mut self, tid: ThreadId, front: bool) {
        let job = self.thread(tid).expect("live").job;
        let queue = &mut self.jobs[job.0 as usize].ready;
        if front {
            queue.push_front(ReadyEntry {
                seq: self.front_seq,
                tid,
            });
            self.front_seq -= 1;
        } else {
            queue.push_back(ReadyEntry {
                seq: self.back_seq,
                tid,
            });
            self.back_seq += 1;
        }
    }

    /// Marks a thread that just left its core Ready and queues it last.
    fn requeue(&mut self, tid: ThreadId) {
        self.thread_mut(tid).expect("live").state = ThreadState::Ready;
        self.enqueue(tid, false);
    }

    // ------------------------------------------------------------------
    // Internals: core slices
    // ------------------------------------------------------------------

    /// Puts `tid` on `core`, charging `os_cost` ahead of the thread's
    /// compute. The thread must be Ready and eligible.
    fn dispatch(&mut self, core: CoreId, tid: ThreadId, os_cost: SimDuration) {
        debug_assert!(self.cores[core.0 as usize].running.is_none());
        // Close the idle interval.
        let idle_since = self.cores[core.0 as usize].idle_since;
        self.breakdown.add_idle(self.now.since(idle_since));
        let quantum = self.cfg.quantum;
        {
            let t = self.thread_mut(tid).expect("live");
            t.quantum_left = quantum;
        }
        self.stats.dispatches += 1;
        self.quota_running_changed(tid, 1);
        self.start_slice(core, tid, os_cost);
    }

    /// Begins (or continues) a slice for a thread already accounted as
    /// running on this core.
    fn start_slice(&mut self, core: CoreId, tid: ThreadId, os_cost: SimDuration) {
        let (seg, quantum_left) = {
            let t = self.thread_mut(tid).expect("live");
            t.state = ThreadState::Running(core);
            (t.seg_remaining, t.quantum_left)
        };
        let run = seg.min(quantum_left).max(SimDuration::from_nanos(1));
        self.idle = self.idle.without(core);
        let c = &mut self.cores[core.0 as usize];
        c.running = Some(tid);
        c.slice_start = self.now;
        c.slice_os_cost = os_cost;
        c.slice_gen += 1;
        let gen = c.slice_gen;
        self.timers
            .push(self.now + os_cost + run, Timer::SliceEnd { core, gen });
    }

    /// Settles accounting for the current (possibly partial) slice on
    /// `core`. Leaves the core empty and the thread's state unspecified —
    /// callers decide what happens to the thread.
    fn settle_slice(&mut self, core: CoreId) -> ThreadId {
        let c = &mut self.cores[core.0 as usize];
        let tid = c.running.take().expect("settling an occupied core");
        self.idle = self.idle.with(core);
        let elapsed = self.now.since(c.slice_start);
        let os_part = c.slice_os_cost.min(elapsed);
        let busy = elapsed - os_part;
        c.slice_gen += 1;
        c.idle_since = self.now;
        self.breakdown.add(TenantClass::Os, os_part);
        let job = self.thread(tid).expect("live").job;
        let class = self.jobs[job.0 as usize].class;
        self.breakdown.add(class, busy);
        self.jobs[job.0 as usize].cpu_time += busy;
        {
            let t = self.thread_mut(tid).expect("live");
            t.seg_remaining = t.seg_remaining.saturating_sub(busy);
            t.quantum_left = t.quantum_left.saturating_sub(busy);
        }
        self.quota_running_changed(tid, -1);
        tid
    }

    /// Quantum/segment timer fired: the slice ran to its planned end.
    fn on_slice_end(&mut self, core: CoreId) {
        let tid = self.settle_slice(core);
        let (seg_remaining, quantum_left) = {
            let t = self.thread(tid).expect("live");
            (t.seg_remaining, t.quantum_left)
        };
        if seg_remaining.is_zero() {
            // Segment complete: pull the next step.
            // Keep the core warm for this thread if its quantum allows and
            // the next step is compute; otherwise the core is refilled.
            self.continue_or_release(core, tid, quantum_left);
        } else {
            // Quantum expired mid-segment: round-robin if anyone waits.
            if let Some(at) = self.first_eligible_ready(core) {
                self.switch_to_waiter(core, tid, at);
            } else {
                // Nobody waits: renew the quantum in place.
                let quantum = self.cfg.quantum;
                let t = self.thread_mut(tid).expect("live");
                t.quantum_left = quantum;
                self.quota_running_changed(tid, 1);
                self.start_slice(core, tid, SimDuration::ZERO);
            }
        }
    }

    /// After a completed segment: continue the same thread on this core when
    /// its next step is compute and quantum remains; otherwise release.
    fn continue_or_release(&mut self, core: CoreId, tid: ThreadId, quantum_left: SimDuration) {
        for _guard in 0..MAX_ZERO_STEPS {
            if self.thread(tid).is_none() {
                self.fill_core(core, self.cfg.ctx_switch_cost);
                return;
            }
            let step = self.pull_step(tid);
            match step {
                Step::Compute(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    let waiter = self.first_eligible_ready(core);
                    let t = self.thread_mut(tid).expect("live");
                    t.seg_remaining = d;
                    if !quantum_left.is_zero() && waiter.is_none() {
                        // Keep running: no dispatch cost, same quantum.
                        self.quota_running_changed(tid, 1);
                        self.start_slice(core, tid, SimDuration::ZERO);
                    } else if let Some(at) = waiter {
                        // Quantum exhausted or someone waits: round-robin.
                        self.switch_to_waiter(core, tid, at);
                    } else {
                        // Quantum exhausted but nobody waits: renew in place.
                        let quantum = self.cfg.quantum;
                        let t = self.thread_mut(tid).expect("live");
                        t.quantum_left = quantum;
                        self.quota_running_changed(tid, 1);
                        self.start_slice(core, tid, SimDuration::ZERO);
                    }
                    return;
                }
                Step::Block { token } => {
                    let t = self.thread_mut(tid).expect("live");
                    t.state = ThreadState::Blocked;
                    let tag = t.tag;
                    self.outputs
                        .push(MachineOutput::ThreadBlocked { tid, tag, token });
                    self.fill_core(core, self.cfg.ctx_switch_cost);
                    return;
                }
                Step::Sleep(d) => {
                    let t = self.thread_mut(tid).expect("live");
                    t.state = ThreadState::Sleeping;
                    let wake_at = self.now + d.max(SimDuration::from_nanos(1));
                    self.timers.push(wake_at, Timer::ThreadWake { tid });
                    self.fill_core(core, self.cfg.ctx_switch_cost);
                    return;
                }
                Step::Exit => {
                    self.finish_thread(tid, false);
                    self.fill_core(core, self.cfg.ctx_switch_cost);
                    return;
                }
            }
        }
        self.finish_thread(tid, true);
        self.fill_core(core, self.cfg.ctx_switch_cost);
    }

    /// Round-robin on `core`: requeues `tid`, which just left it, and
    /// dispatches the waiter found at `at`.
    fn switch_to_waiter(&mut self, core: CoreId, tid: ThreadId, at: ReadyPos) {
        let next = self.take_ready(at);
        self.requeue(tid);
        self.stats.ctx_switches += 1;
        self.dispatch(core, next, self.cfg.ctx_switch_cost);
    }

    /// Preempts the thread on `core` (resched IPI) and requeues it.
    fn preempt_core(&mut self, core: CoreId) {
        let tid = self.settle_slice(core);
        self.requeue(tid);
    }

    /// Preempts the thread on `core` without requeueing (it is about to be
    /// killed).
    fn preempt_core_no_requeue(&mut self, core: CoreId) {
        let _ = self.settle_slice(core);
    }

    /// The first thread in the ready order eligible to run on `core`: the
    /// lowest-sequence entry of a live thread, over the unthrottled jobs
    /// whose mask contains `core`. A job's scan stops at its first live
    /// entry, or once it passes the best sequence number found so far, so
    /// it walks only the stale entries of killed threads.
    fn first_eligible_ready(&self, core: CoreId) -> Option<ReadyPos> {
        let mut best: Option<(i64, ReadyPos)> = None;
        for (j, job) in self.jobs.iter().enumerate() {
            if !job.affinity.contains(core) || job.quota.as_ref().is_some_and(|q| q.throttled) {
                continue;
            }
            for (pos, e) in job.ready.iter().enumerate() {
                if best.is_some_and(|(seq, _)| e.seq > seq) {
                    break;
                }
                if self.thread(e.tid).is_some() {
                    best = Some((e.seq, (j, pos)));
                    break;
                }
            }
        }
        best.map(|(_, at)| at)
    }

    /// Removes the ready entry at `at` and returns its thread.
    fn take_ready(&mut self, (job, pos): ReadyPos) -> ThreadId {
        self.jobs[job].ready.remove(pos).expect("located entry").tid
    }

    /// Compacts stale entries out of the ready queues once enough have
    /// accumulated, so the cost is amortized O(1) per exit rather than
    /// O(queue) per dispatch.
    fn prune_ready(&mut self) {
        if self.ready_stale > 64 {
            let Machine { jobs, threads, .. } = self;
            for job in jobs.iter_mut() {
                job.ready.retain(|e| {
                    threads
                        .get(e.tid.index as usize)
                        .is_some_and(|s| s.gen == e.tid.gen && s.body.is_some())
                });
            }
            self.ready_stale = 0;
        }
    }

    /// Fills an empty core from the ready queue, charging `os_cost` ahead of
    /// the incoming thread. If nobody is eligible the core goes idle and the
    /// cost is not charged (an idle core absorbs it).
    fn fill_core(&mut self, core: CoreId, os_cost: SimDuration) {
        debug_assert!(self.cores[core.0 as usize].running.is_none());
        if let Some(at) = self.first_eligible_ready(core) {
            let next = self.take_ready(at);
            self.dispatch(core, next, os_cost);
        }
        self.prune_ready();
    }

    /// Tries to place queued threads on every idle core (after a mask widen,
    /// quota refill, etc.).
    fn dispatch_sweep(&mut self) {
        // Filling a core never changes another core's occupancy, so the
        // idle set taken up front is what a core-by-core check would find.
        for core in self.idle.iter() {
            self.fill_core(core, self.cfg.dispatch_cost);
        }
    }

    // ------------------------------------------------------------------
    // Internals: quota enforcement
    // ------------------------------------------------------------------

    /// Settles quota consumption and adjusts the running-thread count of the
    /// thread's job by `delta`, rescheduling the exhaustion timer.
    fn quota_running_changed(&mut self, tid: ThreadId, delta: i32) {
        let job = self.thread(tid).expect("live").job;
        let now = self.now;
        let Some(q) = self.jobs[job.0 as usize].quota.as_mut() else {
            return;
        };
        q.settle(now);
        q.running = (q.running as i64 + delta as i64).max(0) as u32;
        self.reschedule_exhaust(job);
    }

    fn reschedule_exhaust(&mut self, job: JobId) {
        let now = self.now;
        let Some(q) = self.jobs[job.0 as usize].quota.as_mut() else {
            return;
        };
        q.exhaust_gen += 1;
        let gen = q.exhaust_gen;
        if let Some(at) = q.projected_exhaustion(now) {
            self.timers
                .push(at.max(now), Timer::QuotaExhaust { job, gen });
        }
    }

    fn on_quota_exhaust(&mut self, job: JobId, gen: u64) {
        let now = self.now;
        enum Decision {
            Stale,
            Reproject,
            Throttle,
        }
        let decision = match self.jobs[job.0 as usize].quota.as_mut() {
            None => Decision::Stale,
            Some(q) if q.exhaust_gen != gen || q.throttled => Decision::Stale,
            Some(q) => {
                q.settle(now);
                if !q.effectively_exhausted() {
                    // Parallelism dropped since the projection; re-project.
                    Decision::Reproject
                } else {
                    q.throttled = true;
                    Decision::Throttle
                }
            }
        };
        match decision {
            Decision::Stale => {}
            Decision::Reproject => self.reschedule_exhaust(job),
            Decision::Throttle => {
                // Deschedule every running thread of the job.
                let mut victims = std::mem::take(&mut self.victims_scratch);
                victims.clear();
                victims.extend(self.cores.iter().enumerate().filter_map(|(i, c)| {
                    let t = self.thread(c.running?)?;
                    (t.job == job).then_some(CoreId(i as u16))
                }));
                for &core in &victims {
                    self.preempt_core(core);
                    self.stats.ipis += 1;
                    self.fill_core(core, self.cfg.ipi_cost);
                }
                self.victims_scratch = victims;
            }
        }
    }

    fn on_quota_refill(&mut self, job: JobId, epoch: u64) {
        let now = self.now;
        let cores = self.cfg.cores;
        let period = {
            let body = &mut self.jobs[job.0 as usize];
            if body.quota_epoch != epoch {
                return;
            }
            let Some(q) = body.quota.as_mut() else {
                return;
            };
            q.settle(now);
            q.refill(cores, now);
            q.quota.period
        };
        self.timers
            .push(now + period, Timer::QuotaRefill { job, epoch });
        self.reschedule_exhaust(job);
        self.dispatch_sweep();
    }
}

/// An in-flight scripted spawn: streams steps straight into the machine's
/// staging buffer, then copies them into recycled arena memory and launches
/// the thread on [`ScriptWriter::finish`].
///
/// Dropping the writer without calling `finish` abandons the spawn (the
/// staging buffer is simply cleared by the next scripted spawn).
pub struct ScriptWriter<'m> {
    machine: &'m mut Machine,
    now: SimTime,
    job: JobId,
    tag: u64,
    boosted: bool,
}

impl ScriptWriter<'_> {
    /// Marks the spawn as a wake-boosted continuation (see
    /// [`Machine::spawn_program_with`]).
    pub fn boosted(mut self, boosted: bool) -> Self {
        self.boosted = boosted;
        self
    }

    /// Appends one step to the script.
    pub fn push(&mut self, step: Step) {
        self.machine.script_staging.push(step);
    }

    /// Appends a compute segment.
    pub fn compute(&mut self, d: SimDuration) {
        self.push(Step::Compute(d));
    }

    /// Appends a blocking operation carrying `token`.
    pub fn block(&mut self, token: u64) {
        self.push(Step::Block { token });
    }

    /// Appends a sleep.
    pub fn sleep(&mut self, d: SimDuration) {
        self.push(Step::Sleep(d));
    }

    /// Steps written so far.
    pub fn len(&self) -> usize {
        self.machine.script_staging.len()
    }

    /// True when no steps were written yet.
    pub fn is_empty(&self) -> bool {
        self.machine.script_staging.is_empty()
    }

    /// Allocates the script in the arena and spawns the thread, replaying
    /// the written steps in order and exiting at the end — exactly a
    /// [`crate::programs::Script`], minus the per-spawn `Box` and `Vec`.
    pub fn finish(self) -> ThreadId {
        let ScriptWriter {
            machine,
            now,
            job,
            tag,
            boosted,
        } = self;
        let range = machine.arena.alloc(&machine.script_staging);
        machine.spawn_program_with(now, job, Program::scripted(range), tag, boosted)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("cores", &self.cfg.cores)
            .field("live_threads", &self.live_thread_count())
            .field(
                "ready",
                &self.jobs.iter().map(|j| j.ready.len()).sum::<usize>(),
            )
            .finish()
    }
}
