//! Microservice-chain workload: a DAG of compute stages connected by
//! simnet hops.
//!
//! [`GraphWorkload`] describes the topology — each stage is a fan-out of
//! arena-backed compute threads with a log-normal service-time
//! distribution and a declared memory footprint; each edge is a network
//! hop with a payload size and an extra propagation latency. The
//! [`GraphEngine`] executes requests against a [`Machine`]: every root
//! stage activates on arrival, a stage completes when all its workers
//! exit, completion pushes one message per out-edge through an internal
//! [`NetSim`] (one node per stage), and a downstream stage activates once
//! every in-edge has delivered. A request completes when all sink stages
//! have finished.
//!
//! With a [`ResiliencePolicy`] attached (see [`GraphEngine::with_policy`])
//! the engine additionally executes retries with deterministic backoff,
//! per-stage hedging, per-edge circuit breakers, and deadline
//! propagation. Every mechanism is gated on the policy being present: an
//! engine built without one performs the exact same RNG draws, spawns,
//! and sends as before the resilience layer existed.
//!
//! The engine is workload-layer only: it knows nothing about boxes,
//! controllers, or tenants. The hosting driver supplies the `tag_base`
//! ORed into every thread tag (primary/service routing bits), pumps
//! [`GraphEngine::advance_to`] alongside its other event sources, and
//! routes thread exits back via [`GraphEngine::on_thread_exited`].

use std::sync::Arc;

use simcore::dist::{LogNormal, Sample};
use simcore::{EventQueue, RequestTable, SimDuration, SimRng, SimTime};
use simcpu::{JobId, Machine, Program, ThreadId};
use simnet::{NetConfig, NetSim, NodeId};
use telemetry::ResilienceStats;

use crate::resilience::{CircuitBreaker, ResiliencePolicy, RetryPolicy};

/// Worker index bits in a stage-thread tag (fan-out ≤ 1024).
const WORKER_BITS: u32 = 10;
/// Stage index bits (≤ 64 stages).
const STAGE_BITS: u32 = 6;
const STAGE_SHIFT: u32 = WORKER_BITS;
const REQUEST_SHIFT: u32 = WORKER_BITS + STAGE_BITS;
/// Request index bits (dense per-run indices; 40 bits is plenty).
const REQUEST_BITS: u32 = 40;

/// Largest per-stage fan-out the tag encoding supports.
pub const MAX_FAN_OUT: u32 = 1 << WORKER_BITS;
/// Largest stage count the tag encoding supports.
pub const MAX_STAGES: usize = 1 << STAGE_BITS;
/// Largest edge count the net-token encoding supports.
pub const MAX_EDGES: usize = 256;

/// Worker-field bit marking a hedge duplicate. Hedged graphs give up the
/// top worker bit, so their per-stage fan-out is capped at
/// [`MAX_HEDGED_FAN_OUT`].
const HEDGE_BIT: u32 = 1 << (WORKER_BITS - 1);
/// Largest per-stage fan-out a hedging-enabled engine supports.
pub const MAX_HEDGED_FAN_OUT: u32 = HEDGE_BIT;

/// One compute stage of a service graph.
#[derive(Clone, Debug)]
pub struct GraphStage {
    /// Stage name (diagnostics; uniqueness enforced by the spec layer).
    pub name: String,
    /// Number of parallel worker threads spawned per activation.
    pub fan_out: u32,
    /// Median per-worker compute time in microseconds.
    pub compute_us: f64,
    /// Log-normal shape of the compute-time distribution.
    pub sigma: f64,
    /// Resident memory this stage contributes to the service working set.
    pub memory_bytes: u64,
}

/// A directed network hop between two stages.
#[derive(Clone, Debug)]
pub struct GraphEdge {
    /// Source stage index.
    pub from: u32,
    /// Destination stage index.
    pub to: u32,
    /// Message payload in bytes (serialization cost on the fabric).
    pub bytes: u64,
    /// Extra propagation latency added before the message enters the
    /// fabric (models an RPC hop longer than the base NIC latency).
    pub latency: SimDuration,
}

/// A validated service-graph workload description.
#[derive(Clone, Debug)]
pub struct GraphWorkload {
    /// The stages, indexed by `GraphEdge::{from,to}`.
    pub stages: Vec<GraphStage>,
    /// The hops; an empty list means every stage is both root and sink.
    pub edges: Vec<GraphEdge>,
    /// Per-request deadline.
    pub timeout: SimDuration,
}

impl GraphWorkload {
    /// Total declared resident memory across all stages.
    pub fn working_set(&self) -> u64 {
        self.stages.iter().map(|s| s.memory_bytes).sum()
    }

    /// Checks structural soundness: stage/edge bounds, index validity,
    /// no self-edges or duplicate edges, and acyclicity (iterative
    /// Kahn's algorithm — never recurses, never panics on bad input).
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("graph has no stages".into());
        }
        if self.stages.len() > MAX_STAGES {
            return Err(format!(
                "too many stages: {} > {MAX_STAGES}",
                self.stages.len()
            ));
        }
        if self.edges.len() > MAX_EDGES {
            return Err(format!(
                "too many edges: {} > {MAX_EDGES}",
                self.edges.len()
            ));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.fan_out == 0 || s.fan_out > MAX_FAN_OUT {
                return Err(format!(
                    "stage {i} ({}) fan_out {} out of range 1..={MAX_FAN_OUT}",
                    s.name, s.fan_out
                ));
            }
            if !s.compute_us.is_finite() || s.compute_us <= 0.0 {
                return Err(format!(
                    "stage {i} ({}) compute_us must be positive and finite",
                    s.name
                ));
            }
            if !s.sigma.is_finite() || s.sigma < 0.0 || s.sigma > 4.0 {
                return Err(format!("stage {i} ({}) sigma must be in [0, 4]", s.name));
            }
        }
        let n = self.stages.len() as u32;
        let mut seen = std::collections::BTreeSet::new();
        let mut in_degree = vec![0u32; n as usize];
        for (i, e) in self.edges.iter().enumerate() {
            if e.from >= n || e.to >= n {
                return Err(format!("edge {i} references a missing stage"));
            }
            if e.from == e.to {
                return Err(format!("edge {i} is a self-loop on stage {}", e.from));
            }
            if !seen.insert((e.from, e.to)) {
                return Err(format!("duplicate edge {} -> {}", e.from, e.to));
            }
            in_degree[e.to as usize] += 1;
        }
        // Kahn's algorithm: all stages must drain, else a cycle remains.
        let mut ready: Vec<u32> = (0..n).filter(|&i| in_degree[i as usize] == 0).collect();
        let mut drained = 0u32;
        while let Some(s) = ready.pop() {
            drained += 1;
            for e in self.edges.iter().filter(|e| e.from == s) {
                in_degree[e.to as usize] -= 1;
                if in_degree[e.to as usize] == 0 {
                    ready.push(e.to);
                }
            }
        }
        if drained != n {
            return Err("graph contains a cycle".into());
        }
        if self.timeout <= SimDuration::ZERO {
            return Err("timeout must be positive".into());
        }
        Ok(())
    }
}

/// A finished (or dropped) request.
#[derive(Clone, Copy, Debug)]
pub struct GraphOutcome {
    /// Dense request index assigned at arrival.
    pub ridx: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// End-to-end latency (valid when not dropped).
    pub latency: SimDuration,
    /// True when the request timed out, was refused, or was failed.
    pub dropped: bool,
}

/// Per-request execution state, held while the request is unfinished.
/// Vectors are recycled through a pool when the request retires, keeping
/// the steady-state arrival path allocation-free.
#[derive(Debug, Default)]
struct RequestState {
    arrival: SimTime,
    /// Retry attempt counter (0 = the original attempt).
    attempt: u32,
    /// True between an attempt failing and its retry starting.
    waiting_retry: bool,
    /// Current attempt's deadline (deadline-propagation cutoff).
    deadline: SimTime,
    /// Sink stages still to finish before the request completes.
    pending_sinks: u32,
    /// Per-stage live worker count (0 = inactive or finished).
    pending_workers: Vec<u32>,
    /// Per-stage live hedge-duplicate count.
    hedge_workers: Vec<u32>,
    /// Per-stage input edges still undelivered.
    pending_inputs: Vec<u32>,
    /// Threads currently running for this request, with their tags
    /// (killed on failure; tags identify hedge sets for cancellation).
    live_tids: Vec<(ThreadId, u64)>,
}

/// An engine-internal timer (retry backoff, attempt deadlines, hedge
/// fire points).
#[derive(Clone, Copy, Debug)]
enum TimerKind {
    /// Launch retry `attempt` of `ridx` (backoff elapsed).
    RetryStart { ridx: u64, attempt: u32 },
    /// Per-attempt deadline for retries (attempt 0 is the host's timer).
    AttemptTimeout { ridx: u64, attempt: u32 },
    /// Hedge-delay elapsed for `stage` of `ridx`'s attempt `attempt`.
    HedgeFire { ridx: u64, stage: u32, attempt: u32 },
}

/// Executes [`GraphWorkload`] requests against a machine.
pub struct GraphEngine {
    graph: Arc<GraphWorkload>,
    job: JobId,
    /// Routing bits ORed into every thread tag (supplied by the host).
    tag_base: u64,
    net: NetSim,
    rng: SimRng,
    /// Per-stage compute-time distributions (same order as stages).
    dists: Vec<LogNormal>,
    /// Root stages (no in-edges), activated on arrival.
    roots: Vec<u32>,
    /// Per-stage in-degree template copied into each request.
    in_degree: Vec<u32>,
    /// Sink count (stages with no out-edges).
    n_sinks: u32,
    /// Unfinished requests by dense index; retired ones read as finished.
    requests: RequestTable<RequestState>,
    /// Retired request-state vectors awaiting reuse.
    pool: Vec<RequestState>,
    outcomes: Vec<GraphOutcome>,
    deliveries: Vec<simnet::Delivery>,
    /// Resilience policy; `None` disables every mechanism and keeps the
    /// engine bit-identical to the pre-resilience implementation.
    policy: Option<Arc<ResiliencePolicy>>,
    /// Engine seed, kept for hash-derived retry jitter.
    seed: u64,
    stats: ResilienceStats,
    /// Admitted-but-not-retired request count (O(1) `in_flight`).
    live: u64,
    /// One breaker per edge (empty without a breaker policy).
    breakers: Vec<CircuitBreaker>,
    /// Per-stage hedge delays (empty without a hedge policy).
    hedge_delays: Vec<SimDuration>,
    /// Resilience timers, popped in `(time, push order)`.
    timers: EventQueue<TimerKind>,
    /// Total stage worker threads spawned (fan-out statistics).
    pub workers_spawned: u64,
}

impl GraphEngine {
    /// Builds an engine for a validated graph with no resilience policy.
    ///
    /// `tag_base` is ORed into every spawned thread's tag — the host uses
    /// it to route machine outputs back to this engine. The low
    /// `REQUEST_SHIFT + REQUEST_BITS` bits must be zero.
    ///
    /// # Panics
    ///
    /// Panics when the graph fails [`GraphWorkload::validate`].
    pub fn new(graph: Arc<GraphWorkload>, job: JobId, tag_base: u64, seed: u64) -> Self {
        Self::with_policy(graph, job, tag_base, seed, None)
    }

    /// Builds an engine executing `policy` on top of the graph.
    ///
    /// # Panics
    ///
    /// Panics when the graph fails [`GraphWorkload::validate`], or when a
    /// hedge policy is combined with a stage fan-out above
    /// [`MAX_HEDGED_FAN_OUT`] (hedging claims the top worker-tag bit).
    pub fn with_policy(
        graph: Arc<GraphWorkload>,
        job: JobId,
        tag_base: u64,
        seed: u64,
        policy: Option<Arc<ResiliencePolicy>>,
    ) -> Self {
        if let Err(e) = graph.validate() {
            panic!("invalid service graph: {e}");
        }
        debug_assert_eq!(tag_base & ((1 << (REQUEST_SHIFT + REQUEST_BITS)) - 1), 0);
        let n = graph.stages.len();
        let dists: Vec<LogNormal> = graph
            .stages
            .iter()
            .map(|s| LogNormal::from_median(s.compute_us, s.sigma))
            .collect();
        let mut in_degree = vec![0u32; n];
        let mut has_out = vec![false; n];
        for e in &graph.edges {
            in_degree[e.to as usize] += 1;
            has_out[e.from as usize] = true;
        }
        let roots = (0..n as u32)
            .filter(|&i| in_degree[i as usize] == 0)
            .collect();
        let n_sinks = has_out.iter().filter(|o| !**o).count() as u32;
        let mut breakers = Vec::new();
        let mut hedge_delays = Vec::new();
        if let Some(p) = policy.as_deref() {
            if let Some(bp) = &p.breaker {
                breakers = vec![CircuitBreaker::new(bp); graph.edges.len()];
            }
            if let Some(hp) = &p.hedge {
                for s in &graph.stages {
                    if s.fan_out > MAX_HEDGED_FAN_OUT {
                        panic!(
                            "hedging requires fan_out <= {MAX_HEDGED_FAN_OUT}, stage {} has {}",
                            s.name, s.fan_out
                        );
                    }
                    hedge_delays.push(hp.stage_delay(s.compute_us, s.sigma));
                }
            }
        }
        GraphEngine {
            net: NetSim::new(NetConfig::default(), n as u32, seed ^ 0x6E7),
            graph,
            job,
            tag_base,
            rng: SimRng::seed_from_u64(seed),
            dists,
            roots,
            in_degree,
            n_sinks,
            requests: RequestTable::new(),
            pool: Vec::new(),
            outcomes: Vec::new(),
            deliveries: Vec::new(),
            policy,
            seed,
            stats: ResilienceStats::default(),
            live: 0,
            breakers,
            hedge_delays,
            timers: EventQueue::new(),
            workers_spawned: 0,
        }
    }

    /// The workload this engine executes.
    pub fn graph(&self) -> &Arc<GraphWorkload> {
        &self.graph
    }

    /// Requests admitted but not yet retired.
    pub fn in_flight(&self) -> usize {
        self.live as usize
    }

    /// True once request `ridx` has retired (completed or dropped).
    pub fn is_finished(&self, ridx: u64) -> bool {
        self.requests.is_finished(ridx)
    }

    /// Counters for the resilience mechanisms this engine executed.
    pub fn resilience_stats(&self) -> &ResilienceStats {
        &self.stats
    }

    fn tag(&self, ridx: u64, stage: u32, worker: u32) -> u64 {
        self.tag_base
            | ((ridx & ((1 << REQUEST_BITS) - 1)) << REQUEST_SHIFT)
            | ((stage as u64) << STAGE_SHIFT)
            | worker as u64
    }

    /// Splits a thread tag into (request, stage) indices.
    fn parse_tag(tag: u64) -> (u64, u32) {
        (
            (tag >> REQUEST_SHIFT) & ((1 << REQUEST_BITS) - 1),
            ((tag >> STAGE_SHIFT) & ((1 << STAGE_BITS) as u64 - 1)) as u32,
        )
    }

    /// Packs a (request, edge, attempt) triple into a net token. Attempt
    /// 0 (the only attempt without a retry policy) encodes identically to
    /// the pre-resilience `(ridx << 8) | eidx` layout.
    fn net_token(ridx: u64, eidx: usize, attempt: u32) -> u64 {
        ((attempt as u64) << (8 + REQUEST_BITS)) | (ridx << 8) | eidx as u64
    }

    fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.policy.as_deref().and_then(|p| p.retry.as_ref())
    }

    /// The state of a request the caller knows is unfinished.
    fn req(&self, ridx: u64) -> &RequestState {
        self.requests.get(ridx).expect("request is unfinished")
    }

    /// Mutable [`GraphEngine::req`].
    fn req_mut(&mut self, ridx: u64) -> &mut RequestState {
        self.requests.get_mut(ridx).expect("request is unfinished")
    }

    fn fresh_request(&mut self, arrival: SimTime) -> u64 {
        let mut st = self.pool.pop().unwrap_or_default();
        st.arrival = arrival;
        st.attempt = 0;
        st.waiting_retry = false;
        st.deadline = arrival + self.graph.timeout;
        st.pending_sinks = self.n_sinks;
        st.pending_workers.clear();
        st.pending_workers.resize(self.graph.stages.len(), 0);
        st.hedge_workers.clear();
        st.hedge_workers.resize(self.graph.stages.len(), 0);
        st.pending_inputs.clear();
        st.pending_inputs.extend_from_slice(&self.in_degree);
        st.live_tids.clear();
        self.live += 1;
        self.requests.insert(st)
    }

    /// Admits a request: every root stage activates immediately.
    /// Returns the dense request index.
    pub fn on_arrival(&mut self, now: SimTime, machine: &mut Machine) -> u64 {
        let ridx = self.fresh_request(now);
        for i in 0..self.roots.len() {
            let stage = self.roots[i];
            if self.requests.is_finished(ridx) {
                break;
            }
            self.activate_stage(now, ridx, stage, machine);
        }
        ridx
    }

    /// Records a refused request (the hosting process is down, or
    /// admission control shed the arrival): dropped immediately without
    /// touching the machine.
    pub fn refuse_arrival(&mut self, now: SimTime) -> u64 {
        let ridx = self.fresh_request(now);
        self.retire(now, ridx, true);
        ridx
    }

    fn activate_stage(&mut self, now: SimTime, ridx: u64, stage: u32, machine: &mut Machine) {
        // Deadline propagation: the stage inherits the attempt's remaining
        // budget; activations that cannot finish in time are cancelled
        // before they spawn anything.
        if self
            .policy
            .as_deref()
            .is_some_and(|p| p.propagate_deadlines)
        {
            let est = SimDuration::from_micros_f64(self.graph.stages[stage as usize].compute_us);
            if now + est > self.req(ridx).deadline {
                self.stats.deadline_cancels += 1;
                self.fail_attempt(now, ridx, machine);
                return;
            }
        }
        let fan_out = self.graph.stages[stage as usize].fan_out;
        self.req_mut(ridx).pending_workers[stage as usize] = fan_out;
        self.spawn_set(now, ridx, stage, false, machine);
        if !self.hedge_delays.is_empty() {
            let attempt = self.req(ridx).attempt;
            let at = now + self.hedge_delays[stage as usize];
            self.timers.push(
                at,
                TimerKind::HedgeFire {
                    ridx,
                    stage,
                    attempt,
                },
            );
        }
    }

    /// Spawns one worker set (primary or hedge) for a stage.
    fn spawn_set(
        &mut self,
        now: SimTime,
        ridx: u64,
        stage: u32,
        hedged: bool,
        machine: &mut Machine,
    ) {
        let spec = &self.graph.stages[stage as usize];
        let fan_out = spec.fan_out;
        let dist = self.dists[stage as usize];
        // Continuation stages carry the wake boost: they resume a request
        // that already queued once, exactly like a woken index worker.
        let boosted = self.in_degree[stage as usize] > 0;
        for w in 0..fan_out {
            let d = SimDuration::from_micros_f64(dist.sample(&mut self.rng));
            let w = if hedged { w | HEDGE_BIT } else { w };
            let tag = self.tag(ridx, stage, w);
            let tid =
                machine.spawn_program_with(now, self.job, Program::compute_once(d), tag, boosted);
            self.req_mut(ridx).live_tids.push((tid, tag));
            self.workers_spawned += 1;
        }
    }

    /// Kills every live thread of one stage's primary or hedge set (the
    /// losing side of a hedge race). Their later exit reports are ignored
    /// because the tids leave the live list here.
    fn cancel_set(
        req: &mut RequestState,
        now: SimTime,
        stage: u32,
        hedged: bool,
        machine: &mut Machine,
    ) {
        let mut i = 0;
        while i < req.live_tids.len() {
            let (tid, tag) = req.live_tids[i];
            let (_, s) = Self::parse_tag(tag);
            if s == stage && ((tag & HEDGE_BIT as u64) != 0) == hedged {
                req.live_tids.swap_remove(i);
                machine.kill_thread(now, tid);
            } else {
                i += 1;
            }
        }
    }

    /// Routes one of this engine's threads exiting back into the graph.
    pub fn on_thread_exited(
        &mut self,
        now: SimTime,
        tag: u64,
        tid: ThreadId,
        machine: &mut Machine,
    ) {
        let (ridx, stage) = Self::parse_tag(tag);
        let Some(req) = self.requests.get_mut(ridx) else {
            // The request already finished.
            return;
        };
        let Some(pos) = req.live_tids.iter().position(|(t, _)| *t == tid) else {
            // Administratively killed (failed attempt or hedge loser):
            // already accounted for when it left the live list.
            return;
        };
        req.live_tids.swap_remove(pos);
        let hedged = !self.hedge_delays.is_empty() && (tag & HEDGE_BIT as u64) != 0;
        if hedged {
            let hw = &mut req.hedge_workers[stage as usize];
            debug_assert!(*hw > 0, "hedge exit for inactive stage {stage}");
            *hw -= 1;
            if *hw > 0 {
                return;
            }
            // The hedge set finished first: cancel the original workers.
            if req.pending_workers[stage as usize] > 0 {
                req.pending_workers[stage as usize] = 0;
                self.stats.hedges_won += 1;
                Self::cancel_set(req, now, stage, false, machine);
            }
        } else {
            let workers = &mut req.pending_workers[stage as usize];
            debug_assert!(*workers > 0, "exit for inactive stage {stage}");
            *workers -= 1;
            if *workers > 0 {
                return;
            }
            // The original set finished first: cancel any live hedge.
            if req.hedge_workers[stage as usize] > 0 {
                req.hedge_workers[stage as usize] = 0;
                self.stats.hedges_lost += 1;
                Self::cancel_set(req, now, stage, true, machine);
            }
        }
        self.stage_complete(now, ridx, stage);
    }

    fn stage_complete(&mut self, now: SimTime, ridx: u64, stage: u32) {
        if !self.breakers.is_empty() && self.in_degree[stage as usize] > 0 {
            for (eidx, e) in self.graph.edges.iter().enumerate() {
                if e.to == stage {
                    self.breakers[eidx].on_success();
                }
            }
        }
        let attempt = self.req(ridx).attempt;
        let mut sent = false;
        for (eidx, e) in self.graph.edges.iter().enumerate() {
            if e.from != stage {
                continue;
            }
            sent = true;
            self.net.send(
                now + e.latency,
                NodeId(e.from),
                NodeId(e.to),
                e.bytes,
                Self::net_token(ridx, eidx, attempt),
            );
        }
        if !sent {
            // Sink stage: the request completes when every sink is done.
            let req = self.req_mut(ridx);
            req.pending_sinks -= 1;
            if req.pending_sinks == 0 {
                self.retire(now, ridx, false);
            }
        }
    }

    /// Handles the host's deadline timer for a request: fails the attempt
    /// (which may schedule a retry) or retires it as dropped. With
    /// retries active the host timer only covers attempt 0 — later
    /// attempts run on the engine's own deadline timers.
    pub fn on_timeout(&mut self, now: SimTime, ridx: u64, machine: &mut Machine) {
        let Some(req) = self.requests.get(ridx) else {
            return;
        };
        if req.attempt > 0 {
            return;
        }
        self.fail_attempt(now, ridx, machine);
    }

    /// Fails the request's current attempt: records breaker failures for
    /// running stages, kills its threads, and either schedules a retry
    /// (budget remaining) or retires the request as dropped.
    fn fail_attempt(&mut self, now: SimTime, ridx: u64, machine: &mut Machine) {
        if !self.breakers.is_empty() {
            let mut opened = 0u64;
            {
                let req = self.requests.get(ridx).expect("request is unfinished");
                for (eidx, e) in self.graph.edges.iter().enumerate() {
                    if req.pending_workers[e.to as usize] > 0 && self.breakers[eidx].on_failure(now)
                    {
                        opened += 1;
                    }
                }
            }
            self.stats.breaker_opens += opened;
        }
        // kill_thread reports the exit back through on_thread_exited;
        // emptying live_tids first makes those exits no-ops.
        let req = self.req_mut(ridx);
        let mut tids = std::mem::take(&mut req.live_tids);
        for (tid, _) in tids.drain(..) {
            machine.kill_thread(now, tid);
        }
        self.req_mut(ridx).live_tids = tids;
        let budget = self
            .retry_policy()
            .map(|r| r.budget.min(RetryPolicy::MAX_BUDGET));
        let attempt = self.req(ridx).attempt;
        match budget {
            Some(budget) if attempt < budget => {
                let delay = {
                    let r = self.retry_policy().expect("budget implies policy");
                    r.delay(self.seed, ridx, attempt + 1)
                };
                let req = self.req_mut(ridx);
                req.attempt += 1;
                req.waiting_retry = true;
                // Clear stage state so stale deliveries of the dead
                // attempt cannot activate anything while we wait.
                req.pending_workers.iter_mut().for_each(|w| *w = 0);
                req.hedge_workers.iter_mut().for_each(|w| *w = 0);
                self.stats.retries += 1;
                self.timers.push(
                    now + delay,
                    TimerKind::RetryStart {
                        ridx,
                        attempt: attempt + 1,
                    },
                );
            }
            _ => self.retire(now, ridx, true),
        }
    }

    /// Fails every unfinished request (the hosting process died).
    /// Requests already waiting out a retry backoff keep waiting — the
    /// retry models the client's resubmission, which the crash does not
    /// cancel. The sweep covers only the ids the table has not retired.
    pub fn fail_all(&mut self, now: SimTime, machine: &mut Machine) {
        for ridx in self.requests.unretired() {
            if self.requests.get(ridx).is_none_or(|r| r.waiting_retry) {
                continue;
            }
            self.fail_attempt(now, ridx, machine);
        }
    }

    /// Records the request's outcome and recycles its state. The finished
    /// id reads as finished from now on, so late thread exits and fabric
    /// deliveries are ignored safely.
    fn retire(&mut self, now: SimTime, ridx: u64, dropped: bool) {
        let st = self.requests.finish(ridx);
        debug_assert!(st.is_some(), "double retire of request {ridx}");
        let Some(st) = st else {
            return;
        };
        self.live = self.live.saturating_sub(1);
        self.outcomes.push(GraphOutcome {
            ridx,
            arrival: st.arrival,
            latency: now.since(st.arrival),
            dropped,
        });
        self.pool.push(st);
    }

    /// Next internal event: the earlier of the fabric and the engine's
    /// own resilience timers.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        let net = self.net.next_timer_at();
        let timer = self.timers.peek_time();
        match (net, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pumps the fabric and resilience timers to `now`, activating stages
    /// whose inputs have all delivered, firing hedges, and starting
    /// retries.
    pub fn advance_to(&mut self, now: SimTime, machine: &mut Machine) {
        loop {
            let tnet = self.net.next_timer_at().filter(|&t| t <= now);
            let ttimer = self.timers.peek_time().filter(|&t| t <= now);
            match (tnet, ttimer) {
                (None, None) => break,
                (Some(tn), None) => self.pump_net(tn, machine),
                (None, Some(_)) => self.fire_timer(machine),
                (Some(tn), Some(tt)) => {
                    if tn <= tt {
                        self.pump_net(tn, machine);
                    } else {
                        self.fire_timer(machine);
                    }
                }
            }
        }
    }

    fn pump_net(&mut self, t: SimTime, machine: &mut Machine) {
        self.net.advance_to(t);
        self.net.drain_deliveries_into(&mut self.deliveries);
        while let Some(d) = self.deliveries.pop() {
            let ridx = (d.token >> 8) & ((1u64 << REQUEST_BITS) - 1);
            let attempt = (d.token >> (8 + REQUEST_BITS)) as u32;
            let stage = d.to.0;
            // A host that overshoots the fabric timer (machine already
            // advanced past d.at) still activates in machine time.
            let at = d.at.max(machine.now());
            let Some(req) = self.requests.get_mut(ridx) else {
                continue;
            };
            if req.waiting_retry || req.attempt != attempt {
                continue;
            }
            let inputs = &mut req.pending_inputs[stage as usize];
            debug_assert!(*inputs > 0, "delivery for saturated stage {stage}");
            *inputs -= 1;
            if *inputs > 0 {
                continue;
            }
            // All inputs delivered: consult the in-edge breakers before
            // activating (an open breaker fails the attempt fast instead
            // of burning its deadline).
            if !self.breakers.is_empty() {
                let mut blocked = false;
                for (eidx, e) in self.graph.edges.iter().enumerate() {
                    if e.to == stage && !self.breakers[eidx].allow(at) {
                        blocked = true;
                    }
                }
                if blocked {
                    self.stats.breaker_fast_fails += 1;
                    self.fail_attempt(at, ridx, machine);
                    continue;
                }
            }
            self.activate_stage(at, ridx, stage, machine);
        }
    }

    fn fire_timer(&mut self, machine: &mut Machine) {
        let Some((due, kind)) = self.timers.pop() else {
            return;
        };
        // Hosts that overshoot the timer still act in machine time.
        let at = due.max(machine.now());
        match kind {
            TimerKind::RetryStart { ridx, attempt } => {
                let valid = self
                    .requests
                    .get(ridx)
                    .is_some_and(|r| r.attempt == attempt && r.waiting_retry);
                if !valid {
                    return;
                }
                let deadline = at + self.graph.timeout;
                {
                    let n_sinks = self.n_sinks;
                    let req = self.req_mut(ridx);
                    req.waiting_retry = false;
                    req.deadline = deadline;
                    req.pending_sinks = n_sinks;
                    req.pending_inputs.clear();
                }
                let in_degree = std::mem::take(&mut self.in_degree);
                self.req_mut(ridx)
                    .pending_inputs
                    .extend_from_slice(&in_degree);
                self.in_degree = in_degree;
                self.timers
                    .push(deadline, TimerKind::AttemptTimeout { ridx, attempt });
                for i in 0..self.roots.len() {
                    let stage = self.roots[i];
                    if self.requests.is_finished(ridx) {
                        break;
                    }
                    self.activate_stage(at, ridx, stage, machine);
                }
            }
            TimerKind::AttemptTimeout { ridx, attempt } => {
                let valid = self
                    .requests
                    .get(ridx)
                    .is_some_and(|r| r.attempt == attempt && !r.waiting_retry);
                if valid {
                    self.fail_attempt(at, ridx, machine);
                }
            }
            TimerKind::HedgeFire {
                ridx,
                stage,
                attempt,
            } => {
                let eligible = self.requests.get(ridx).is_some_and(|r| {
                    !r.waiting_retry
                        && r.attempt == attempt
                        && r.pending_workers[stage as usize] > 0
                        && r.hedge_workers[stage as usize] == 0
                });
                if !eligible {
                    return;
                }
                let fan_out = self.graph.stages[stage as usize].fan_out;
                self.req_mut(ridx).hedge_workers[stage as usize] = fan_out;
                self.stats.hedges_launched += 1;
                self.spawn_set(at, ridx, stage, true, machine);
            }
        }
    }

    /// True when completions are pending.
    pub fn has_outcomes(&self) -> bool {
        !self.outcomes.is_empty()
    }

    /// Moves accumulated completions into `buf` (appending).
    pub fn drain_outcomes_into(&mut self, buf: &mut Vec<GraphOutcome>) {
        buf.append(&mut self.outcomes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{BreakerPolicy, HedgePolicy, RetryPolicy};
    use simcore::SimTime;
    use simcpu::MachineConfig;
    use telemetry::TenantClass;

    fn chain(n: usize) -> GraphWorkload {
        GraphWorkload {
            stages: (0..n)
                .map(|i| GraphStage {
                    name: format!("s{i}"),
                    fan_out: if i == 1 { 4 } else { 1 },
                    compute_us: 500.0,
                    sigma: 0.3,
                    memory_bytes: 1 << 30,
                })
                .collect(),
            edges: (1..n)
                .map(|i| GraphEdge {
                    from: (i - 1) as u32,
                    to: i as u32,
                    bytes: 16 << 10,
                    latency: SimDuration::from_micros(50),
                })
                .collect(),
            timeout: SimDuration::from_millis(500),
        }
    }

    fn setup(
        g: Arc<GraphWorkload>,
        policy: Option<Arc<ResiliencePolicy>>,
    ) -> (Machine, GraphEngine) {
        let mut machine = Machine::with_seed(MachineConfig::small(8), 1);
        let job = machine.create_job(TenantClass::Primary, simcpu::CoreMask::all(8));
        let engine = GraphEngine::with_policy(g, job, 0, 7, policy);
        (machine, engine)
    }

    fn drive(engine: &mut GraphEngine, machine: &mut Machine, until: SimTime) {
        let mut now = SimTime::ZERO;
        while now < until {
            let mut next = until;
            if let Some(t) = machine.next_timer_at() {
                next = next.min(t);
            }
            if let Some(t) = engine.next_timer_at() {
                next = next.min(t);
            }
            now = next.max(now + SimDuration::from_micros(1));
            machine.advance_to(now);
            engine.advance_to(now, machine);
            let mut outs = Vec::new();
            machine.drain_outputs_into(&mut outs);
            for out in outs {
                if let simcpu::MachineOutput::ThreadExited { tid, tag, .. } = out {
                    engine.on_thread_exited(now, tag, tid, machine);
                }
            }
        }
    }

    #[test]
    fn chain_completes_requests() {
        let g = Arc::new(chain(4));
        assert!(g.validate().is_ok());
        let (mut machine, mut engine) = setup(Arc::clone(&g), None);
        for i in 0..10 {
            let at = SimTime::ZERO + SimDuration::from_millis(i * 2);
            machine.advance_to(at);
            engine.on_arrival(at, &mut machine);
        }
        drive(
            &mut engine,
            &mut machine,
            SimTime::ZERO + SimDuration::from_secs(1),
        );
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(outs.len(), 10);
        assert!(outs.iter().all(|o| !o.dropped));
        // 4-stage chain with one fan-out-4 stage = 7 workers per request.
        assert_eq!(engine.workers_spawned, 70);
        // Latency covers 4 stages of ~500us compute plus 3 net hops.
        assert!(outs
            .iter()
            .all(|o| o.latency >= SimDuration::from_millis(2)));
        assert!(engine.resilience_stats().is_empty());
    }

    /// Runs the machine and the engine's fabric up to `until`, routing
    /// thread exits back into the engine.
    fn run_until(engine: &mut GraphEngine, machine: &mut Machine, until: SimTime) {
        let mut outs = Vec::new();
        loop {
            let next = [machine.next_timer_at(), engine.next_timer_at()]
                .into_iter()
                .flatten()
                .min()
                .filter(|&t| t <= until);
            let now = next.unwrap_or(until);
            machine.advance_to(now);
            engine.advance_to(now, machine);
            machine.drain_outputs_into(&mut outs);
            for out in outs.drain(..) {
                if let simcpu::MachineOutput::ThreadExited { tid, tag, .. } = out {
                    engine.on_thread_exited(now, tag, tid, machine);
                }
            }
            if next.is_none() {
                break;
            }
        }
    }

    #[test]
    fn request_table_retires_finished_requests() {
        let g = Arc::new(chain(4));
        let timeout = g.timeout;
        let (mut machine, mut engine) = setup(g, None);
        // 5 000 requests at 1 000 QPS, each deadline fired on time.
        let n = 5_000u64;
        let gap = SimDuration::from_millis(1);
        let mut deadlines = std::collections::VecDeque::new();
        let mut reported = vec![false; n as usize];
        let mut outs = Vec::new();
        let (mut high, mut completed) = (0, 0);
        for i in 0..n {
            let at = SimTime::from_millis(i);
            while let Some(&(due, r)) = deadlines.front().filter(|(due, _)| *due <= at) {
                deadlines.pop_front();
                run_until(&mut engine, &mut machine, due);
                engine.on_timeout(due, r, &mut machine);
            }
            run_until(&mut engine, &mut machine, at);
            assert_eq!(engine.on_arrival(at, &mut machine), i, "ids stay dense");
            deadlines.push_back((at + timeout, i));
            engine.drain_outcomes_into(&mut outs);
            for o in outs.drain(..) {
                let seen = std::mem::replace(&mut reported[o.ridx as usize], true);
                assert!(!seen, "request {} reported twice", o.ridx);
                completed += usize::from(!o.dropped);
            }
            high = high.max(engine.requests.window());
        }
        assert!(completed + 16 > n as usize, "{completed} completed");
        // No more than one deadline's worth of arrivals is unretired, and
        // requests here take a few milliseconds.
        let bound = (timeout.as_micros() / gap.as_micros()) as usize + 1;
        assert!(high <= bound, "window {high} above {bound}");
        assert!(high <= 32, "window {high}");
        assert!(engine.requests.unretired().start > 0);
        // The process dies: exactly the unreported requests drop.
        let open: Vec<u64> = (0..n).filter(|&r| !reported[r as usize]).collect();
        assert!(!open.is_empty(), "requests in flight");
        let now = machine.now();
        engine.fail_all(now, &mut machine);
        engine.drain_outcomes_into(&mut outs);
        assert!(outs.iter().all(|o| o.dropped));
        let mut dropped: Vec<u64> = outs.iter().map(|o| o.ridx).collect();
        dropped.sort_unstable();
        assert_eq!(dropped, open);
        assert_eq!(engine.requests.window(), 0);
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn validate_rejects_cycles_and_bad_indices() {
        let mut g = chain(3);
        g.edges.push(GraphEdge {
            from: 2,
            to: 0,
            bytes: 1,
            latency: SimDuration::ZERO,
        });
        assert!(g.validate().unwrap_err().contains("cycle"));

        let mut g = chain(2);
        g.edges[0].to = 9;
        assert!(g.validate().unwrap_err().contains("missing stage"));

        let g = GraphWorkload {
            stages: vec![],
            edges: vec![],
            timeout: SimDuration::from_millis(1),
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn timeout_kills_and_drops() {
        let mut g = chain(3);
        g.timeout = SimDuration::from_micros(100);
        let g = Arc::new(g);
        let (mut machine, mut engine) = setup(g, None);
        let ridx = engine.on_arrival(SimTime::ZERO, &mut machine);
        let deadline = SimTime::ZERO + SimDuration::from_micros(100);
        machine.advance_to(deadline);
        engine.on_timeout(deadline, ridx, &mut machine);
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(outs.len(), 1);
        assert!(outs[0].dropped);
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn retry_recovers_a_failed_attempt() {
        let policy = Arc::new(ResiliencePolicy {
            retry: Some(RetryPolicy {
                base_backoff: SimDuration::from_millis(1),
                multiplier: 2,
                budget: 2,
                jitter: SimDuration::from_micros(100),
            }),
            ..Default::default()
        });
        let g = Arc::new(chain(3));
        let (mut machine, mut engine) = setup(g, Some(policy));
        let ridx = engine.on_arrival(SimTime::ZERO, &mut machine);
        // Simulate a crash window killing the first attempt mid-flight.
        let crash = SimTime::ZERO + SimDuration::from_micros(200);
        machine.advance_to(crash);
        engine.fail_all(crash, &mut machine);
        assert_eq!(engine.in_flight(), 1, "failed attempt waits for retry");
        drive(
            &mut engine,
            &mut machine,
            SimTime::ZERO + SimDuration::from_millis(100),
        );
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(outs.len(), 1);
        assert!(!outs[0].dropped, "retry completed the request");
        assert_eq!(outs[0].ridx, ridx);
        assert_eq!(engine.resilience_stats().retries, 1);
        // End-to-end latency spans the backoff plus the rerun.
        assert!(outs[0].latency >= SimDuration::from_millis(1));
    }

    #[test]
    fn retry_budget_exhausts_to_a_drop() {
        let policy = Arc::new(ResiliencePolicy {
            retry: Some(RetryPolicy {
                base_backoff: SimDuration::from_micros(10),
                multiplier: 1,
                budget: 2,
                jitter: SimDuration::ZERO,
            }),
            ..Default::default()
        });
        let mut g = chain(2);
        g.timeout = SimDuration::from_micros(50); // attempts always time out
        let (mut machine, mut engine) = setup(Arc::new(g), Some(policy));
        let ridx = engine.on_arrival(SimTime::ZERO, &mut machine);
        let t = SimTime::ZERO + SimDuration::from_micros(50);
        machine.advance_to(t);
        engine.on_timeout(t, ridx, &mut machine);
        drive(
            &mut engine,
            &mut machine,
            SimTime::ZERO + SimDuration::from_millis(5),
        );
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(outs.len(), 1);
        assert!(outs[0].dropped, "budget exhausted: request drops");
        assert_eq!(engine.resilience_stats().retries, 2);
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn hedge_races_and_settles_every_launch() {
        let policy = Arc::new(ResiliencePolicy {
            hedge: Some(HedgePolicy { percentile: 0.50 }),
            ..Default::default()
        });
        let mut g = chain(3);
        g.stages[1].sigma = 1.0; // heavy tail: hedges fire at the median
        let (mut machine, mut engine) = setup(Arc::new(g), Some(policy));
        for i in 0..20 {
            let at = SimTime::ZERO + SimDuration::from_millis(i * 3);
            machine.advance_to(at);
            engine.advance_to(at, &mut machine);
            engine.on_arrival(at, &mut machine);
        }
        drive(
            &mut engine,
            &mut machine,
            SimTime::ZERO + SimDuration::from_secs(1),
        );
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(outs.len(), 20);
        assert!(outs.iter().all(|o| !o.dropped));
        let s = engine.resilience_stats();
        assert!(s.hedges_launched > 0, "median hedge delay must fire");
        assert_eq!(
            s.hedges_won + s.hedges_lost,
            s.hedges_launched,
            "every hedge race settles"
        );
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn breaker_opens_and_fast_fails_downstream_stages() {
        let policy = Arc::new(ResiliencePolicy {
            breaker: Some(BreakerPolicy {
                threshold: 2,
                cooldown: SimDuration::from_millis(10),
            }),
            ..Default::default()
        });
        let mut g = chain(2);
        g.stages.iter_mut().for_each(|s| s.sigma = 0.0); // deterministic
        let (mut machine, mut engine) = setup(Arc::new(g), Some(policy));
        // Two requests failed while stage 1 runs: the 0->1 breaker opens.
        for i in 0..2u64 {
            let at = SimTime::ZERO + SimDuration::from_millis(i * 2);
            machine.advance_to(at);
            engine.advance_to(at, &mut machine);
            let ridx = engine.on_arrival(at, &mut machine);
            let fail = at + SimDuration::from_micros(800); // stage 1 active
            drive(&mut engine, &mut machine, fail);
            engine.on_timeout(fail, ridx, &mut machine);
        }
        assert_eq!(engine.resilience_stats().breaker_opens, 1);
        // The next request fast-fails at the 0->1 hand-off.
        let at = SimTime::ZERO + SimDuration::from_millis(5);
        machine.advance_to(at);
        engine.advance_to(at, &mut machine);
        engine.on_arrival(at, &mut machine);
        drive(
            &mut engine,
            &mut machine,
            SimTime::ZERO + SimDuration::from_millis(8),
        );
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(engine.resilience_stats().breaker_fast_fails, 1);
        assert!(outs.iter().filter(|o| o.dropped).count() >= 3);
        // After the cooldown a probe goes through and closes the breaker.
        let at = SimTime::ZERO + SimDuration::from_millis(15);
        machine.advance_to(at);
        engine.advance_to(at, &mut machine);
        engine.on_arrival(at, &mut machine);
        drive(
            &mut engine,
            &mut machine,
            SimTime::ZERO + SimDuration::from_millis(30),
        );
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(outs.len(), 1);
        assert!(!outs[0].dropped, "half-open probe succeeds");
        assert_eq!(engine.resilience_stats().breaker_fast_fails, 1);
    }

    #[test]
    fn deadline_propagation_cancels_hopeless_stages() {
        let policy = Arc::new(ResiliencePolicy {
            propagate_deadlines: true,
            ..Default::default()
        });
        let mut g = chain(3);
        // Budget covers stage 0 but leaves stage 1 (4x500us) hopeless.
        g.timeout = SimDuration::from_micros(700);
        g.stages.iter_mut().for_each(|s| s.sigma = 0.0);
        let (mut machine, mut engine) = setup(Arc::new(g), Some(policy));
        engine.on_arrival(SimTime::ZERO, &mut machine);
        drive(
            &mut engine,
            &mut machine,
            SimTime::ZERO + SimDuration::from_millis(2),
        );
        let mut outs = Vec::new();
        engine.drain_outcomes_into(&mut outs);
        assert_eq!(outs.len(), 1);
        assert!(outs[0].dropped);
        assert_eq!(engine.resilience_stats().deadline_cancels, 1);
        // The cancel happened at the 0->1 hand-off, well before the
        // deadline would have fired.
        assert!(outs[0].latency < SimDuration::from_micros(700));
    }
}
