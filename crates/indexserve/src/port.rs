//! The generic service interface a box hosts.
//!
//! [`crate::boxsim::BoxSim`] historically drove exactly one hard-wired
//! [`IndexServe`] primary. [`ServicePort`] abstracts what the box driver
//! actually needs from a hosted latency-sensitive service — arrival
//! admission, thread-event routing, deadline handling, completion
//! draining, and the chaos restart hooks — so one box can host up to
//! [`crate::tags::MAX_SERVICES`] heterogeneous services, each on its own
//! machine job with its own declared working set.
//!
//! Routing contract: every thread a service spawns must carry
//! [`crate::tags::PRIMARY_BIT`] plus its slot's
//! [`crate::tags::service_bits`] in the tag; the box driver dispatches
//! machine outputs back to the owning slot by those bits. Service 0 of a
//! single-service box produces tags bit-identical to the pre-refactor
//! encoding, which is what keeps the golden fixtures byte-stable.

use qtrace::QuerySpec;
use simcore::{SimDuration, SimTime};
use simcpu::{Machine, ThreadId};
use telemetry::ResilienceStats;
use workloads::service_graph::{GraphEngine, GraphOutcome};

use crate::service::{IndexServe, QueryOutcome};
use crate::tags::parse_stage_tag;

/// What the box driver should do with a blocked service thread.
#[derive(Clone, Copy, Debug)]
pub enum BlockedAction {
    /// Submit a random read of `bytes` on the box's exclusive SSD volume
    /// and wake the thread on completion (IndexServe's index reads).
    IndexRead {
        /// Read size in bytes.
        bytes: u64,
    },
    /// Wake the thread immediately (the block is not an I/O wait the box
    /// models, or the service handles it internally).
    Wake,
}

/// A latency-sensitive service hosted on one box.
///
/// Implementations are driven entirely by the box: arrivals come from
/// [`ServicePort::on_arrival`], machine outputs are routed back through
/// the `on_thread_*` hooks, and deadlines through [`ServicePort::on_timeout`].
/// Services with internal timers (e.g. a service graph pumping its own
/// fabric) expose them via [`ServicePort::next_timer_at`] /
/// [`ServicePort::advance_to`].
pub trait ServicePort {
    /// Display name (per-service report rows).
    fn name(&self) -> &str;

    /// Declared working-set bytes registered against the service's job.
    fn working_set(&self) -> u64;

    /// Per-request deadline; the box schedules a timeout event at
    /// `arrival + timeout()` for every admitted arrival.
    fn timeout(&self) -> SimDuration;

    /// Per-completion log write on the shared HDD volume (0 = none).
    fn log_write_bytes(&self) -> u64;

    /// Handles a request arrival; returns the service-local dense index.
    fn on_arrival(&mut self, now: SimTime, spec: QuerySpec, machine: &mut Machine) -> u64;

    /// Records an arrival refused at the connection level (the process is
    /// restarting): dropped immediately, never touches the machine.
    fn refuse_arrival(&mut self, now: SimTime, spec: QuerySpec) -> u64;

    /// Handles the request's deadline firing.
    fn on_timeout(&mut self, now: SimTime, qidx: u64, machine: &mut Machine);

    /// Handles one of this service's threads exiting (tag carries this
    /// slot's service bits).
    fn on_thread_exited(&mut self, now: SimTime, tag: u64, tid: ThreadId, machine: &mut Machine);

    /// Classifies one of this service's threads blocking.
    fn on_thread_blocked(&mut self, now: SimTime, tag: u64, tid: ThreadId) -> BlockedAction;

    /// Fails every unfinished request at once (the process died).
    fn fail_all(&mut self, now: SimTime, machine: &mut Machine);

    /// True when completions are pending.
    fn has_outcomes(&self) -> bool;

    /// Moves accumulated completions into `buf` (appending).
    fn drain_outcomes_into(&mut self, buf: &mut Vec<QueryOutcome>);

    /// Total worker/stage threads spawned (fan-out statistics).
    fn workers_spawned(&self) -> u64;

    /// Requests currently outstanding (admitted plus queued) — the load
    /// signal box-level admission control sheds against.
    fn in_flight(&self) -> u64;

    /// Resilience counters, for services executing a policy internally
    /// (retries, hedges, breakers); `None` for services without one.
    fn resilience_stats(&self) -> Option<&ResilienceStats> {
        None
    }

    /// Next internal timer, if the service keeps its own event source.
    fn next_timer_at(&self) -> Option<SimTime> {
        None
    }

    /// Advances internal state to `now` (services with their own event
    /// sources; a no-op for purely reactive services).
    fn advance_to(&mut self, _now: SimTime, _machine: &mut Machine) {}
}

impl ServicePort for IndexServe {
    fn name(&self) -> &str {
        "indexserve"
    }

    fn working_set(&self) -> u64 {
        self.config().working_set()
    }

    fn timeout(&self) -> SimDuration {
        self.config().timeout
    }

    fn log_write_bytes(&self) -> u64 {
        self.config().log_write_bytes
    }

    fn on_arrival(&mut self, now: SimTime, spec: QuerySpec, machine: &mut Machine) -> u64 {
        IndexServe::on_arrival(self, now, spec, machine)
    }

    fn refuse_arrival(&mut self, now: SimTime, spec: QuerySpec) -> u64 {
        IndexServe::refuse_arrival(self, now, spec)
    }

    fn on_timeout(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) {
        IndexServe::on_timeout(self, now, qidx, machine);
    }

    fn on_thread_exited(&mut self, now: SimTime, tag: u64, _tid: ThreadId, machine: &mut Machine) {
        if let Some((stage, qidx, _)) = parse_stage_tag(tag) {
            IndexServe::on_stage_exited(self, now, stage, qidx, machine);
        }
    }

    fn on_thread_blocked(&mut self, _now: SimTime, tag: u64, _tid: ThreadId) -> BlockedAction {
        if parse_stage_tag(tag).is_some() {
            // Primary index read on the exclusive SSD volume.
            BlockedAction::IndexRead {
                bytes: self.config().index_read_bytes,
            }
        } else {
            BlockedAction::Wake
        }
    }

    fn fail_all(&mut self, now: SimTime, machine: &mut Machine) {
        IndexServe::fail_all(self, now, machine);
    }

    fn has_outcomes(&self) -> bool {
        IndexServe::has_outcomes(self)
    }

    fn drain_outcomes_into(&mut self, buf: &mut Vec<QueryOutcome>) {
        IndexServe::drain_outcomes_into(self, buf);
    }

    fn workers_spawned(&self) -> u64 {
        self.workers_spawned
    }

    fn in_flight(&self) -> u64 {
        u64::from(IndexServe::in_flight(self)) + self.admission_queue_len() as u64
    }
}

/// Adapter hosting a [`GraphEngine`] (the `workloads::service_graph`
/// execution engine) as a box service: converts engine completions into
/// [`QueryOutcome`]s stamped with the slot index.
pub struct GraphPort {
    name: String,
    engine: GraphEngine,
    service: u8,
    scratch: Vec<GraphOutcome>,
}

impl GraphPort {
    /// Wraps an engine serving as slot `service` under `name`.
    pub fn new(name: String, engine: GraphEngine, service: u8) -> Self {
        GraphPort {
            name,
            engine,
            service,
            scratch: Vec::new(),
        }
    }

    /// The wrapped engine (for inspection).
    pub fn engine(&self) -> &GraphEngine {
        &self.engine
    }
}

impl ServicePort for GraphPort {
    fn name(&self) -> &str {
        &self.name
    }

    fn working_set(&self) -> u64 {
        self.engine.graph().working_set()
    }

    fn timeout(&self) -> SimDuration {
        self.engine.graph().timeout
    }

    fn log_write_bytes(&self) -> u64 {
        0
    }

    fn on_arrival(&mut self, now: SimTime, _spec: QuerySpec, machine: &mut Machine) -> u64 {
        self.engine.on_arrival(now, machine)
    }

    fn refuse_arrival(&mut self, now: SimTime, _spec: QuerySpec) -> u64 {
        self.engine.refuse_arrival(now)
    }

    fn on_timeout(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) {
        self.engine.on_timeout(now, qidx, machine);
    }

    fn on_thread_exited(&mut self, now: SimTime, tag: u64, tid: ThreadId, machine: &mut Machine) {
        self.engine.on_thread_exited(now, tag, tid, machine);
    }

    fn on_thread_blocked(&mut self, _now: SimTime, _tag: u64, _tid: ThreadId) -> BlockedAction {
        // Graph stages are pure compute; any block is spurious.
        BlockedAction::Wake
    }

    fn fail_all(&mut self, now: SimTime, machine: &mut Machine) {
        self.engine.fail_all(now, machine);
    }

    fn has_outcomes(&self) -> bool {
        self.engine.has_outcomes()
    }

    fn drain_outcomes_into(&mut self, buf: &mut Vec<QueryOutcome>) {
        self.scratch.clear();
        self.engine.drain_outcomes_into(&mut self.scratch);
        for o in self.scratch.drain(..) {
            buf.push(QueryOutcome {
                qidx: o.ridx,
                arrival: o.arrival,
                latency: o.latency,
                dropped: o.dropped,
                service: self.service,
            });
        }
    }

    fn workers_spawned(&self) -> u64 {
        self.engine.workers_spawned
    }

    fn in_flight(&self) -> u64 {
        self.engine.in_flight() as u64
    }

    fn resilience_stats(&self) -> Option<&ResilienceStats> {
        Some(self.engine.resilience_stats())
    }

    fn next_timer_at(&self) -> Option<SimTime> {
        self.engine.next_timer_at()
    }

    fn advance_to(&mut self, now: SimTime, machine: &mut Machine) {
        self.engine.advance_to(now, machine);
    }
}
