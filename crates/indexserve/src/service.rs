//! The IndexServe query state machine.
//!
//! The service is passive: the machine driver ([`crate::boxsim::BoxSim`] or
//! the cluster simulator) feeds it arrivals, thread-exit notifications and
//! timeout events; it spawns stage threads on the simulated machine and
//! emits query outcomes.

use std::collections::VecDeque;
use std::sync::Arc;

use qtrace::QuerySpec;
use serde::{Deserialize, Serialize};
use simcore::dist::{LogNormal, Sample};
use simcore::{RequestTable, SimDuration, SimRng, SimTime};
use simcpu::{JobId, Machine, Program, ThreadId};

use crate::cache::CacheModel;
use crate::tags::{service_bits, stage_tag, Stage};

/// Service-model parameters (calibrated to the paper's standalone profile).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Query deadline; exceeding it drops the query (the paper reports
    /// 11–32 % timeouts under an unrestricted bully).
    pub timeout: SimDuration,
    /// Median parse-stage CPU burst (µs).
    pub parse_cost_us: f64,
    /// Lognormal sigma multiplying each worker round's trace burst.
    pub worker_jitter_sigma: f64,
    /// Rank-stage rounds (CPU burst + index read each).
    pub rank_rounds: u8,
    /// Median rank-stage burst per round (µs).
    pub rank_burst_us: f64,
    /// Median aggregation burst (µs).
    pub agg_cost_us: f64,
    /// Lognormal sigma for parse/rank/agg bursts.
    pub stage_sigma: f64,
    /// Index read size per SSD access.
    pub index_read_bytes: u64,
    /// Admission bound on concurrently processed queries.
    pub max_concurrent: u32,
    /// Minimum remaining deadline budget required to *start* a query.
    ///
    /// A query that spent most of its deadline waiting for admission is
    /// shed instead of started: it would almost surely time out anyway,
    /// and starting it would steal CPU from queries that can still make
    /// it. This is what keeps an overloaded server completing the
    /// fraction of queries it has capacity for (the paper's 11–32 %
    /// timeout band, §6.1.2) instead of missing every deadline by a hair.
    pub min_start_budget: SimDuration,
    /// Admission-queue length above which parallelism compensation starts.
    pub comp_threshold: u32,
    /// Extra fan-out fraction per queued query of excess pressure.
    pub comp_scale: f64,
    /// Maximum fan-out multiplier.
    pub comp_max: f64,
    /// The cache model.
    pub cache: CacheModel,
    /// Per-query log write to the shared HDD volume.
    pub log_write_bytes: u64,
    /// Declared working-set size registered against the primary job.
    ///
    /// `None` means the paper's production footprint
    /// ([`ServiceConfig::PAPER_WORKING_SET`]); multi-primary boxes set an
    /// explicit per-service value so two services fit one machine.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub working_set_bytes: Option<u64>,
}

impl ServiceConfig {
    /// The paper's IndexServe footprint: 110 GiB index cache plus 6 GiB
    /// process overhead.
    pub const PAPER_WORKING_SET: u64 = 110 * (1 << 30) + (6 << 30);

    /// The effective working set registered with the machine.
    pub fn working_set(&self) -> u64 {
        self.working_set_bytes.unwrap_or(Self::PAPER_WORKING_SET)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        // Calibrated against the paper's standalone profile (p50 ≈ 4 ms,
        // p99 ≈ 12 ms, idle ≈ 80 %/60 % at 2 000/4 000 QPS) and its
        // colocation shapes. The timeout is set just above the 349/354 ms
        // p99 the paper reports for the unrestricted high bully: those runs
        // are shed-stabilized saturation, so completed-query p99 pins just
        // below the drop deadline.
        ServiceConfig {
            timeout: SimDuration::from_millis(360),
            parse_cost_us: 120.0,
            worker_jitter_sigma: 0.30,
            rank_rounds: 6,
            rank_burst_us: 200.0,
            agg_cost_us: 400.0,
            stage_sigma: 0.50,
            index_read_bytes: 64 << 10,
            max_concurrent: 128,
            min_start_budget: SimDuration::from_millis(120),
            comp_threshold: 4,
            comp_scale: 0.05,
            comp_max: 1.5,
            cache: CacheModel::paper_default(200_000),
            log_write_bytes: 4 << 10,
            working_set_bytes: None,
        }
    }
}

/// The outcome of one query.
#[derive(Clone, Copy, Debug)]
pub struct QueryOutcome {
    /// Dense query index assigned at arrival.
    pub qidx: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// End-to-end latency (valid when not dropped).
    pub latency: SimDuration,
    /// True when the query timed out.
    pub dropped: bool,
    /// Index of the hosting service on its box (0 on single-service boxes).
    pub service: u8,
}

/// An unfinished query; the table drops it when the query finishes.
#[derive(Debug)]
struct QueryState {
    spec: QuerySpec,
    arrival: SimTime,
    started: bool,
    pending_workers: u32,
    live_tids: Vec<ThreadId>,
}

/// The per-machine IndexServe instance.
#[derive(Debug)]
pub struct IndexServe {
    cfg: Arc<ServiceConfig>,
    job: JobId,
    /// Unfinished queries by dense index; finished ones read as finished.
    queries: RequestTable<QueryState>,
    admission_queue: VecDeque<u64>,
    in_flight: u32,
    outcomes: Vec<QueryOutcome>,
    rng: SimRng,
    /// Total fan-out workers spawned (for burst statistics).
    pub workers_spawned: u64,
    /// Index of this service on its box; ORed into every stage tag (as
    /// [`crate::tags::service_bits`]) and stamped on outcomes. Zero for the
    /// classic single-service box, so tags stay bit-identical there.
    service: u8,
    /// Recycled `live_tids` vectors: finished queries return their vector
    /// here so steady-state arrivals never allocate one.
    tid_pool: Vec<Vec<ThreadId>>,
    /// Stage cost distributions, prebuilt from the config once: the spawn
    /// paths sample them per stage, and `LogNormal::from_median` costs a
    /// runtime `ln` that has no place in the per-query hot loop.
    parse_dist: LogNormal,
    worker_jitter: LogNormal,
    rank_dist: LogNormal,
    agg_dist: LogNormal,
}

impl IndexServe {
    /// Creates a service bound to the primary `job` on the machine.
    ///
    /// The configuration is shared: cluster and fleet drivers instantiate
    /// hundreds of services from one `Arc` without cloning the config.
    pub fn new(cfg: Arc<ServiceConfig>, job: JobId, seed: u64) -> Self {
        Self::for_service(cfg, job, seed, 0)
    }

    /// Creates a service bound to slot `service` of a multi-service box:
    /// its stage tags carry the service index so the box driver can route
    /// machine outputs back to it.
    pub fn for_service(cfg: Arc<ServiceConfig>, job: JobId, seed: u64, service: u8) -> Self {
        let parse_dist = LogNormal::from_median(cfg.parse_cost_us, cfg.stage_sigma);
        let worker_jitter = LogNormal::unit_median(cfg.worker_jitter_sigma);
        let rank_dist = LogNormal::from_median(cfg.rank_burst_us, cfg.stage_sigma);
        let agg_dist = LogNormal::from_median(cfg.agg_cost_us, cfg.stage_sigma);
        IndexServe {
            cfg,
            job,
            queries: RequestTable::new(),
            admission_queue: VecDeque::new(),
            in_flight: 0,
            outcomes: Vec::new(),
            rng: SimRng::seed_from_u64(seed ^ 0x1D5),
            workers_spawned: 0,
            service,
            tid_pool: Vec::new(),
            parse_dist,
            worker_jitter,
            rank_dist,
            agg_dist,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// A stage tag carrying this service's index bits.
    fn tag(&self, stage: Stage, qidx: u64, worker: u16) -> u64 {
        stage_tag(stage, qidx, worker) | service_bits(self.service)
    }

    /// Queries currently being processed (admitted, not finished).
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Arrivals waiting for admission.
    pub fn admission_queue_len(&self) -> usize {
        self.admission_queue.len()
    }

    /// Takes accumulated outcomes.
    ///
    /// Allocation-free callers should prefer
    /// [`IndexServe::drain_outcomes_into`].
    pub fn drain_outcomes(&mut self) -> Vec<QueryOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Moves accumulated outcomes into `buf` (appending), keeping the
    /// internal buffer's capacity for reuse on the hot path.
    pub fn drain_outcomes_into(&mut self, buf: &mut Vec<QueryOutcome>) {
        buf.append(&mut self.outcomes);
    }

    /// True when outcomes are pending.
    pub fn has_outcomes(&self) -> bool {
        !self.outcomes.is_empty()
    }

    /// Handles a query arrival; returns the dense query index (schedule the
    /// timeout for `arrival + cfg.timeout` against it).
    pub fn on_arrival(&mut self, now: SimTime, spec: QuerySpec, machine: &mut Machine) -> u64 {
        let qidx = self.queries.insert(QueryState {
            spec,
            arrival: now,
            started: false,
            pending_workers: 0,
            live_tids: self.tid_pool.pop().unwrap_or_default(),
        });
        if self.in_flight < self.cfg.max_concurrent {
            self.start_query(now, qidx, machine);
        } else {
            self.admission_queue.push_back(qidx);
        }
        qidx
    }

    /// The state of a query the caller knows is unfinished.
    fn query(&self, qidx: u64) -> &QueryState {
        self.queries.get(qidx).expect("query is unfinished")
    }

    /// Mutable [`IndexServe::query`].
    fn query_mut(&mut self, qidx: u64) -> &mut QueryState {
        self.queries.get_mut(qidx).expect("query is unfinished")
    }

    fn start_query(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) {
        self.in_flight += 1;
        self.query_mut(qidx).started = true;
        // Stage 1: parse. A single compute burst is the inline one-shot
        // program — no box, no script, no arena traffic.
        let burst = self.parse_dist.sample(&mut self.rng);
        let tid = machine.spawn_program(
            now,
            self.job,
            Program::compute_once(SimDuration::from_micros_f64(burst)),
            self.tag(Stage::Parse, qidx, 0),
        );
        self.query_mut(qidx).live_tids.push(tid);
    }

    /// The compensation multiplier at current pressure.
    ///
    /// "IndexServe tries to compensate for the increase in pending queries
    /// by starting more workers" (§6.1.2). Pending means *queued for
    /// admission*: a backlog only forms once the in-flight cap is hit, so
    /// ordinary load changes (2 000 → 4 000 QPS standalone) never trigger
    /// compensation, while genuine overload raises per-query parallelism —
    /// which is exactly what "ultimately aggravates CPU contention".
    fn compensation(&self) -> f64 {
        let excess = self.admission_queue.len() as f64 - self.cfg.comp_threshold as f64;
        if excess <= 0.0 {
            1.0
        } else {
            (1.0 + excess * self.cfg.comp_scale).min(self.cfg.comp_max)
        }
    }

    /// Handles a primary-stage thread exit. Returns `Some(outcome)` when
    /// the query completed.
    pub fn on_stage_exited(
        &mut self,
        now: SimTime,
        stage: Stage,
        qidx: u64,
        machine: &mut Machine,
    ) -> Option<QueryOutcome> {
        if self.queries.is_finished(qidx) {
            return None;
        }
        match stage {
            Stage::Parse => {
                self.spawn_fanout(now, qidx, machine);
                None
            }
            Stage::Worker => {
                let q = self.query_mut(qidx);
                q.pending_workers = q.pending_workers.saturating_sub(1);
                if q.pending_workers == 0 {
                    self.spawn_rank(now, qidx, machine);
                }
                None
            }
            Stage::Rank => {
                self.spawn_agg(now, qidx, machine);
                None
            }
            Stage::Aggregate => self.complete(now, qidx, machine),
        }
    }

    fn spawn_fanout(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) {
        // Compensation re-partitions the query across more workers: the
        // total work is conserved (per-worker bursts shrink by the same
        // factor), shortening the critical path at the cost of a burstier
        // thread fan-out — "starting more workers... ultimately aggravates
        // CPU contention" (§6.1.2).
        let comp = self.compensation();
        let (fanout, rounds, base_burst_ns, miss_prob) = {
            let q = &self.query(qidx).spec;
            (
                ((q.fanout as f64 * comp).round() as u32).max(1),
                q.rounds,
                q.burst_ns as f64 / comp,
                self.cfg.cache.miss_prob(q.doc_rank),
            )
        };
        self.query_mut(qidx).pending_workers = fanout;
        self.workers_spawned += fanout as u64;
        let jitter = self.worker_jitter;
        for w in 0..fanout {
            // Pre-sample the worker's whole script — per-round burst jitter
            // and cache misses — streaming the steps straight into recycled
            // arena memory.
            let mut writer =
                machine.spawn_scripted(now, self.job, self.tag(Stage::Worker, qidx, w as u16));
            for round in 0..rounds {
                let burst = base_burst_ns * jitter.sample(&mut self.rng);
                writer.compute(SimDuration::from_nanos(burst as u64));
                if self.rng.bernoulli(miss_prob) {
                    writer.block(round as u64);
                }
            }
            let tid = writer.finish();
            self.query_mut(qidx).live_tids.push(tid);
        }
    }

    fn spawn_rank(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) {
        let heavy = self.query(qidx).spec.heavy;
        let rounds = if heavy {
            self.cfg.rank_rounds * 3
        } else {
            self.cfg.rank_rounds
        };
        let dist = self.rank_dist;
        // Rank is a continuation of in-flight work (a pool thread woken by
        // the last worker's completion), so it carries the wake boost —
        // only the initial fan-out pays the back-of-queue price.
        let mut writer = machine
            .spawn_scripted(now, self.job, self.tag(Stage::Rank, qidx, 0))
            .boosted(true);
        for round in 0..rounds {
            let burst = dist.sample(&mut self.rng);
            writer.compute(SimDuration::from_micros_f64(burst));
            writer.block(round as u64);
        }
        let tid = writer.finish();
        self.query_mut(qidx).live_tids.push(tid);
    }

    fn spawn_agg(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) {
        let burst = self.agg_dist.sample(&mut self.rng);
        // A continuation, like rank.
        let tid = machine.spawn_program_with(
            now,
            self.job,
            Program::compute_once(SimDuration::from_micros_f64(burst)),
            self.tag(Stage::Aggregate, qidx, 0),
            true,
        );
        self.query_mut(qidx).live_tids.push(tid);
    }

    fn complete(&mut self, now: SimTime, qidx: u64, machine: &mut Machine) -> Option<QueryOutcome> {
        let q = self.queries.finish(qidx)?;
        let outcome = QueryOutcome {
            qidx,
            arrival: q.arrival,
            latency: now.since(q.arrival),
            dropped: false,
            service: self.service,
        };
        self.recycle_tids(q.live_tids);
        self.release_slot(now, machine);
        self.outcomes.push(outcome);
        Some(outcome)
    }

    /// Handles the query's deadline. Returns an outcome when the query was
    /// actually dropped (still live at the deadline).
    pub fn on_timeout(
        &mut self,
        now: SimTime,
        qidx: u64,
        machine: &mut Machine,
    ) -> Option<QueryOutcome> {
        let q = self.queries.finish(qidx)?;
        // Abandon: kill whatever is still running for this query.
        for &tid in &q.live_tids {
            machine.kill_thread(now, tid);
        }
        self.recycle_tids(q.live_tids);
        if q.started {
            self.release_slot(now, machine);
        } else {
            // Still waiting for admission: remove from the queue.
            self.admission_queue.retain(|&x| x != qidx);
        }
        let outcome = QueryOutcome {
            qidx,
            arrival: q.arrival,
            latency: now.since(q.arrival),
            dropped: true,
            service: self.service,
        };
        self.outcomes.push(outcome);
        Some(outcome)
    }

    /// Fails every unfinished query at once (the process died): each one is
    /// killed and reported dropped, exactly as if its deadline fired now.
    /// The sweep covers only the ids the table has not retired.
    pub fn fail_all(&mut self, now: SimTime, machine: &mut Machine) {
        for qidx in self.queries.unretired() {
            self.on_timeout(now, qidx, machine);
        }
    }

    /// Records an arrival refused at the connection level (the process is
    /// restarting): the query is dropped immediately with zero latency and
    /// never touches the machine. Returns the dense query index.
    pub fn refuse_arrival(&mut self, now: SimTime, spec: QuerySpec) -> u64 {
        let qidx = self.queries.insert(QueryState {
            spec,
            arrival: now,
            started: false,
            pending_workers: 0,
            live_tids: Vec::new(),
        });
        self.queries.finish(qidx);
        self.outcomes.push(QueryOutcome {
            qidx,
            arrival: now,
            latency: SimDuration::ZERO,
            dropped: true,
            service: self.service,
        });
        qidx
    }

    /// True when a query that arrived at `arrival` has burned too much of
    /// its deadline waiting to be worth starting.
    fn past_start_budget(&self, now: SimTime, arrival: SimTime) -> bool {
        now.since(arrival) + self.cfg.min_start_budget > self.cfg.timeout
    }

    /// Sheds an unstarted query: emits the dropped outcome immediately and
    /// lets the (stale) timeout event no-op later.
    fn shed(&mut self, now: SimTime, qidx: u64) {
        let Some(q) = self.queries.finish(qidx) else {
            return;
        };
        debug_assert!(!q.started);
        self.recycle_tids(q.live_tids);
        self.outcomes.push(QueryOutcome {
            qidx,
            arrival: q.arrival,
            latency: now.since(q.arrival),
            dropped: true,
            service: self.service,
        });
    }

    /// Returns a finished query's `live_tids` vector to the pool (bounded
    /// by the admission cap so the pool cannot grow without limit).
    fn recycle_tids(&mut self, mut v: Vec<ThreadId>) {
        if self.tid_pool.len() < self.cfg.max_concurrent as usize + 8 {
            v.clear();
            self.tid_pool.push(v);
        }
    }

    /// Releases a finished started query's admission slot and starts the
    /// next queued arrival that still has deadline budget, shedding the
    /// rest.
    fn release_slot(&mut self, now: SimTime, machine: &mut Machine) {
        self.in_flight = self.in_flight.saturating_sub(1);
        while let Some(next) = self.admission_queue.pop_front() {
            let Some(arrival) = self.queries.get(next).map(|q| q.arrival) else {
                continue;
            };
            if self.past_start_budget(now, arrival) {
                self.shed(now, next);
                continue;
            }
            self.start_query(now, next, machine);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::CoreMask;
    use simcpu::{MachineConfig, MachineOutput};
    use telemetry::TenantClass;

    use crate::tags::parse_stage_tag;

    fn spec(id: u64) -> QuerySpec {
        QuerySpec {
            id,
            fanout: 10,
            rounds: 4,
            burst_ns: 90_000,
            doc_rank: 1,
            heavy: false,
        }
    }

    /// Drives machine outputs back into the service until quiescent,
    /// waking blocked threads immediately (zero-latency "disk").
    fn settle(m: &mut Machine, s: &mut IndexServe, upto: SimTime) {
        loop {
            // Drain everything pending at the current instant first, so
            // outputs produced by wakes are handled at the right time.
            let now = m.now();
            let outs = m.drain_outputs();
            if !outs.is_empty() {
                for o in outs {
                    match o {
                        MachineOutput::ThreadBlocked { tid, .. } => {
                            m.wake(now, tid);
                        }
                        MachineOutput::ThreadExited { tag, .. } => {
                            if let Some((stage, q, _)) = parse_stage_tag(tag) {
                                s.on_stage_exited(now, stage, q, m);
                            }
                        }
                    }
                }
                continue;
            }
            match m.next_timer_at().filter(|&t| t <= upto) {
                Some(t) => m.advance_to(t),
                None => {
                    // No pending outputs and no timers in range: quiescent.
                    m.advance_to(upto);
                    break;
                }
            }
        }
    }

    #[test]
    fn query_completes_through_all_stages() {
        let mut m = Machine::new(MachineConfig::small(16));
        let job = m.create_job(TenantClass::Primary, CoreMask::all(16));
        let mut s = IndexServe::new(Arc::new(ServiceConfig::default()), job, 1);
        s.on_arrival(SimTime::ZERO, spec(0), &mut m);
        settle(&mut m, &mut s, SimTime::from_millis(100));
        let outcomes = s.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].dropped);
        assert!(outcomes[0].latency > SimDuration::from_micros(300));
        assert!(outcomes[0].latency < SimDuration::from_millis(20));
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.workers_spawned, 10);
    }

    #[test]
    fn fanout_workers_spawn_together() {
        let mut m = Machine::new(MachineConfig::small(16));
        let job = m.create_job(TenantClass::Primary, CoreMask::all(16));
        let mut s = IndexServe::new(Arc::new(ServiceConfig::default()), job, 2);
        s.on_arrival(SimTime::ZERO, spec(0), &mut m);
        // Run just past the parse stage.
        let t = m.next_timer_at().unwrap();
        m.advance_to(t);
        for o in m.drain_outputs() {
            if let MachineOutput::ThreadExited { tag, .. } = o {
                let (stage, q, _) = parse_stage_tag(tag).unwrap();
                assert_eq!(stage, Stage::Parse);
                s.on_stage_exited(t, stage, q, &mut m);
            }
        }
        // All 10 workers are now live simultaneously: the burst.
        assert_eq!(m.idle_core_mask().count(), 16 - 10);
    }

    #[test]
    fn admission_control_queues_excess() {
        let mut m = Machine::new(MachineConfig::small(4));
        let job = m.create_job(TenantClass::Primary, CoreMask::all(4));
        let cfg = ServiceConfig {
            max_concurrent: 2,
            ..Default::default()
        };
        let mut s = IndexServe::new(Arc::new(cfg), job, 3);
        for i in 0..5 {
            s.on_arrival(SimTime::ZERO, spec(i), &mut m);
        }
        assert_eq!(s.in_flight(), 2);
        assert_eq!(s.admission_queue_len(), 3);
        settle(&mut m, &mut s, SimTime::from_secs(1));
        assert_eq!(s.drain_outcomes().len(), 5);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn compensation_raises_fanout_under_pressure() {
        let mut m = Machine::new(MachineConfig::small(4));
        let job = m.create_job(TenantClass::Primary, CoreMask::all(4));
        let cfg = ServiceConfig {
            max_concurrent: 2,
            comp_threshold: 2,
            comp_scale: 0.25,
            ..Default::default()
        };
        let comp_max = cfg.comp_max;
        let mut s = IndexServe::new(Arc::new(cfg), job, 4);
        // Pile up arrivals past the admission cap without driving the
        // machine: the backlog builds until the multiplier saturates.
        for i in 0..12 {
            s.on_arrival(SimTime::ZERO, spec(i), &mut m);
        }
        assert_eq!(s.admission_queue_len(), 10);
        assert!(s.compensation() > 1.2, "compensation {}", s.compensation());
        assert!(
            (s.compensation() - comp_max).abs() < 1e-9,
            "10 queued past threshold 2 at scale 0.25 saturates the cap"
        );
    }

    #[test]
    fn timeout_drops_and_kills() {
        let mut m = Machine::new(MachineConfig::small(2));
        let job = m.create_job(TenantClass::Primary, CoreMask::all(2));
        let mut s = IndexServe::new(Arc::new(ServiceConfig::default()), job, 5);
        let q = s.on_arrival(SimTime::ZERO, spec(0), &mut m);
        // Fire the deadline while the query is still mid-flight.
        m.advance_to(SimTime::from_micros(200));
        let out = s.on_timeout(SimTime::from_micros(200), q, &mut m).unwrap();
        assert!(out.dropped);
        // Machine drains without the query ever completing.
        m.advance_to(SimTime::from_millis(50));
        assert_eq!(s.in_flight(), 0);
        let dropped: Vec<_> = s.drain_outcomes();
        assert_eq!(dropped.len(), 1);
    }

    /// A query with 8–15 workers; every tenth is heavy.
    fn varied_spec(id: u64) -> QuerySpec {
        QuerySpec {
            id,
            fanout: 8 + (id % 8) as u8,
            rounds: 4,
            burst_ns: 90_000,
            doc_rank: 1 + (id % 997) as u32,
            heavy: id.is_multiple_of(10),
        }
    }

    /// The gap between arrivals at 2 000 QPS.
    const GAP_US: u64 = 500;

    /// Offers `n` queries at 2 000 QPS to a 48-core machine and fires each
    /// deadline on time. Returns the machine and service stopped at the
    /// last arrival (the newest queries still in flight), which query ids
    /// have reported an outcome, and the largest window the query table
    /// held.
    fn stream_at_2000_qps(n: u64) -> (Machine, IndexServe, Vec<bool>, usize) {
        let mut m = Machine::new(MachineConfig::small(48));
        let job = m.create_job(TenantClass::Primary, CoreMask::all(48));
        let mut s = IndexServe::new(Arc::new(ServiceConfig::default()), job, 7);
        let timeout = s.config().timeout;
        let mut deadlines: VecDeque<(SimTime, u64)> = VecDeque::new();
        let mut reported = vec![false; n as usize];
        let mut high = 0;
        for i in 0..n {
            let at = SimTime::from_micros(GAP_US * i);
            while let Some(&(due, q)) = deadlines.front().filter(|(due, _)| *due <= at) {
                deadlines.pop_front();
                settle(&mut m, &mut s, due);
                s.on_timeout(due, q, &mut m);
            }
            settle(&mut m, &mut s, at);
            let q = s.on_arrival(at, varied_spec(i), &mut m);
            assert_eq!(q, i, "ids stay dense");
            deadlines.push_back((at + timeout, q));
            for o in s.drain_outcomes() {
                let seen = std::mem::replace(&mut reported[o.qidx as usize], true);
                assert!(!seen, "query {} reported twice", o.qidx);
            }
            high = high.max(s.queries.window());
        }
        (m, s, reported, high)
    }

    #[test]
    fn query_table_window_follows_in_flight_work() {
        let n = 10_000;
        let (_, s, reported, high) = stream_at_2000_qps(n);
        // Each query finishes by its deadline, so no more than one
        // deadline's worth of arrivals is ever unretired.
        let bound = (s.config().timeout.as_micros() / GAP_US) as usize + 1;
        assert!(high <= bound, "window {high} above {bound}");
        // Queries take a few milliseconds here, and the table's storage
        // stays at a small multiple of the queries in flight.
        assert!(high <= 64, "window {high}");
        assert!(s.queries.capacity() <= 128, "{}", s.queries.capacity());
        let open = reported.iter().filter(|r| !**r).count();
        assert!(open > 0 && open < high, "{open} queries in flight");
        assert_eq!(s.queries.next_id(), n);
    }

    #[test]
    fn retired_query_ids_are_no_ops() {
        let (mut m, mut s, reported, _) = stream_at_2000_qps(10_000);
        let now = m.now();
        assert!(reported[0] && s.queries.is_finished(0));
        assert!(s.queries.unretired().start > 0, "query 0 retired");
        let spawns = m.stats().spawns;
        let load = (s.in_flight(), s.admission_queue_len());
        assert!(s.on_timeout(now, 0, &mut m).is_none());
        for stage in [Stage::Parse, Stage::Worker, Stage::Rank, Stage::Aggregate] {
            assert!(s.on_stage_exited(now, stage, 0, &mut m).is_none());
        }
        assert!(!s.has_outcomes());
        assert_eq!(m.stats().spawns, spawns, "nothing spawned for query 0");
        assert_eq!((s.in_flight(), s.admission_queue_len()), load);
    }

    #[test]
    fn fail_all_after_retirement_drops_exactly_the_unfinished() {
        let n = 10_000;
        let (mut m, mut s, mut reported, _) = stream_at_2000_qps(n);
        let now = m.now();
        // A burst past the admission cap leaves queries queued as well as
        // running when the process dies.
        let burst = 200;
        for i in n..n + burst {
            s.on_arrival(now, varied_spec(i), &mut m);
        }
        reported.resize((n + burst) as usize, false);
        assert!(s.admission_queue_len() > 0);
        let open: Vec<u64> = (0..n + burst).filter(|&q| !reported[q as usize]).collect();
        assert!(open.len() > burst as usize, "streamed queries in flight");
        assert!(s.queries.unretired().start > 0, "finished queries retired");
        s.fail_all(now, &mut m);
        let mut dropped: Vec<u64> = s
            .drain_outcomes()
            .iter()
            .inspect(|o| assert!(o.dropped, "query {} not dropped", o.qidx))
            .map(|o| o.qidx)
            .collect();
        dropped.sort_unstable();
        assert_eq!(dropped, open);
        assert_eq!(s.queries.window(), 0);
        assert_eq!((s.in_flight(), s.admission_queue_len()), (0, 0));
    }

    #[test]
    fn timeout_after_completion_is_noop() {
        let mut m = Machine::new(MachineConfig::small(16));
        let job = m.create_job(TenantClass::Primary, CoreMask::all(16));
        let mut s = IndexServe::new(Arc::new(ServiceConfig::default()), job, 6);
        let q = s.on_arrival(SimTime::ZERO, spec(0), &mut m);
        settle(&mut m, &mut s, SimTime::from_millis(100));
        assert_eq!(s.drain_outcomes().len(), 1);
        assert!(s.on_timeout(SimTime::from_millis(500), q, &mut m).is_none());
    }
}
