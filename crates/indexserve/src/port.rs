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
use simcore::{RequestTable, SimDuration, SimTime};
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
/// The box keeps no per-request deadline state beyond each admitted
/// arrival's instant: the service holds the sequence number of a request's
/// deadline event while the request is unfinished and hands it back through
/// [`ServicePort::live_deadlines`] when the deadline comes due.
/// Services with internal timers (e.g. a service graph pumping its own
/// fabric) expose them via [`ServicePort::next_timer_at`] /
/// [`ServicePort::advance_to`].
pub trait ServicePort {
    /// Display name (per-service report rows).
    fn name(&self) -> &str;

    /// Declared working-set bytes registered against the service's job.
    fn working_set(&self) -> u64;

    /// Per-request deadline, positive and constant over the run; the box
    /// fires [`ServicePort::on_timeout`] at `arrival + timeout()` for every
    /// admitted arrival still unfinished then.
    fn timeout(&self) -> SimDuration;

    /// Per-completion log write on the shared HDD volume (0 = none).
    fn log_write_bytes(&self) -> u64;

    /// Handles a request arrival; returns the service-local dense index.
    /// `deadline_seq` is the box's sequence number for the request's
    /// deadline event, kept until the request finishes or the deadline
    /// fires.
    fn on_arrival(
        &mut self,
        now: SimTime,
        spec: QuerySpec,
        deadline_seq: u64,
        machine: &mut Machine,
    ) -> u64;

    /// Appends `(index, deadline_seq)` for each request that arrived at
    /// `arrival`, is unfinished, and has not had its deadline fire, oldest
    /// first. The box asks once `arrival + timeout()` comes due. Listing a
    /// request that finished since is harmless: its
    /// [`ServicePort::on_timeout`] is a no-op.
    fn live_deadlines(&self, arrival: SimTime, out: &mut Vec<(u64, u64)>);

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

    fn on_arrival(
        &mut self,
        now: SimTime,
        spec: QuerySpec,
        deadline_seq: u64,
        machine: &mut Machine,
    ) -> u64 {
        IndexServe::on_arrival(self, now, spec, deadline_seq, machine)
    }

    fn live_deadlines(&self, arrival: SimTime, out: &mut Vec<(u64, u64)>) {
        IndexServe::live_deadlines(self, arrival, out);
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

/// Appends `(index, deadline_seq)` for each request in `table` that
/// arrived at `arrival`, where `key` reads a request's arrival and deadline
/// sequence number. The scan runs over unfinished requests oldest first
/// and stops at the first later arrival: once `arrival + timeout()` is
/// due, every earlier deadline has fired, so it usually ends at once.
pub(crate) fn arrived_at<T>(
    table: &RequestTable<T>,
    arrival: SimTime,
    key: impl Fn(&T) -> (SimTime, u64),
    out: &mut Vec<(u64, u64)>,
) {
    for index in table.unretired() {
        let Some((at, seq)) = table.get(index).map(&key) else {
            continue;
        };
        if at > arrival {
            break;
        }
        if at == arrival {
            out.push((index, seq));
        }
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
    /// `(arrival, deadline_seq)` by request index, from arrival until the
    /// request reports an outcome or its host deadline fires: the engine
    /// keeps its own request state, so the port holds what a firing
    /// deadline needs beside it, under the same dense ids.
    deadlines: RequestTable<(SimTime, u64)>,
}

impl GraphPort {
    /// Wraps an engine serving as slot `service` under `name`.
    pub fn new(name: String, engine: GraphEngine, service: u8) -> Self {
        GraphPort {
            name,
            engine,
            service,
            scratch: Vec::new(),
            deadlines: RequestTable::new(),
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

    fn on_arrival(
        &mut self,
        now: SimTime,
        _spec: QuerySpec,
        deadline_seq: u64,
        machine: &mut Machine,
    ) -> u64 {
        let ridx = self.deadlines.insert((now, deadline_seq));
        let engine_ridx = self.engine.on_arrival(now, machine);
        debug_assert_eq!(ridx, engine_ridx, "port and engine ids agree");
        engine_ridx
    }

    fn live_deadlines(&self, arrival: SimTime, out: &mut Vec<(u64, u64)>) {
        arrived_at(&self.deadlines, arrival, |&deadline| deadline, out);
    }

    fn refuse_arrival(&mut self, now: SimTime, _spec: QuerySpec) -> u64 {
        let ridx = self.deadlines.insert((now, 0));
        self.deadlines.finish(ridx);
        self.engine.refuse_arrival(now)
    }

    fn on_timeout(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) {
        self.deadlines.finish(qidx);
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
            self.deadlines.finish(o.ridx);
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
