//! The single-machine simulation driver.
//!
//! Composes one production server exactly as §5.2–5.3 describes it: a
//! 48-logical-core machine, a striped SSD volume exclusive to IndexServe, a
//! striped HDD volume shared between primary logging and secondary batch
//! I/O, the IndexServe service, optional secondary tenants (CPU bully, disk
//! bully, HDFS traffic), and the PerfIso controller polling on its own
//! timers.
//!
//! [`BoxSim`] is an embeddable component (the cluster simulator runs 44 of
//! them); [`run_multi`] wraps it with one open-loop client per hosted
//! service and produces the per-figure measurements.

use std::sync::Arc;

use autopilot::{
    ConfigStore, RestartDecision, ServiceKind, ServiceManager, ServiceRegistry, ServiceState,
};
use perfiso::controller::ControllerStats;
use perfiso::recovery::ControllerState;
use perfiso::system::{IoLimit, IoTenant, IoTenantStats, SystemInterface};
use perfiso::{PerfIso, PerfIsoConfig};
use qtrace::{OpenLoopClient, QuerySpec, TraceConfig, TraceGenerator};
use simcore::{CoreMask, EventQueue, SimDuration, SimRng, SimTime};
use simcpu::machine::MachineStats;
use simcpu::{
    ArenaStats, CpuRateQuota, JobId, Machine, MachineConfig, MachineOutput, Program, ThreadId,
};
use simdisk::{
    AccessPattern, DiskSim, IoKind, IoPriority, OwnerId, RateLimit, VolumeId, VolumeSpec,
};
use telemetry::recorder::PercentileSummary;
use telemetry::{
    CpuBreakdown, LatencyRecorder, ResilienceStats, SketchSummary, TelemetryMode, TenantClass,
};
use workloads::cpu_bully::{CpuBully, CpuBullyHandle};
use workloads::disk_bully::{DiskBully, DISK_BULLY_TAG_BASE};
use workloads::hdfs::{HdfsCpuProgram, HdfsNode, HDFS_TAG_BASE};
use workloads::service_graph::{GraphEngine, GraphWorkload};
use workloads::{BullyIntensity, ResiliencePolicy};

use crate::chaos::{FaultPlan, FaultRecord, PlannedFaultKind};
use crate::port::{BlockedAction, GraphPort, ServicePort};
use crate::service::{IndexServe, QueryOutcome, ServiceConfig};
use crate::tags::{
    parse_wake_token, service_bits, tag_service, wake_token, FIRE_AND_FORGET, MAX_SERVICES,
    PRIMARY_BIT,
};

/// Which secondary tenants run on the box.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SecondaryKind {
    /// A CPU bully with the given intensity.
    pub cpu_bully: Option<BullyIntensity>,
    /// A DiskSPD-style disk bully on the shared HDD volume.
    pub disk_bully: Option<DiskBully>,
    /// HDFS DataNode + client traffic (always present on cluster machines).
    pub hdfs: bool,
}

impl SecondaryKind {
    /// No secondary at all (the standalone baseline).
    pub fn none() -> Self {
        SecondaryKind::default()
    }

    /// Just a CPU bully.
    pub fn cpu(intensity: BullyIntensity) -> Self {
        SecondaryKind {
            cpu_bully: Some(intensity),
            ..Default::default()
        }
    }

    /// Just a disk bully.
    pub fn disk(bully: DiskBully) -> Self {
        SecondaryKind {
            disk_bully: Some(bully),
            ..Default::default()
        }
    }
}

/// One service hosted on a box (the multi-service roster entry).
///
/// Configs sit behind `Arc` for the same stamp-out-cheaply reason as
/// [`BoxConfig::service`].
#[derive(Clone, Debug)]
pub enum HostedSpec {
    /// A classic IndexServe primary under a per-slot display name.
    IndexServe {
        /// Display name (per-service report rows).
        name: String,
        /// Service-model parameters.
        service: Arc<ServiceConfig>,
    },
    /// A microservice-graph workload executed by
    /// [`workloads::service_graph::GraphEngine`].
    Graph {
        /// Display name (per-service report rows).
        name: String,
        /// The validated stage DAG.
        graph: Arc<GraphWorkload>,
    },
}

impl HostedSpec {
    /// Display name of the hosted service.
    pub fn name(&self) -> &str {
        match self {
            HostedSpec::IndexServe { name, .. } | HostedSpec::Graph { name, .. } => name,
        }
    }

    /// Declared working-set bytes, registered against the service's job.
    pub fn working_set(&self) -> u64 {
        match self {
            HostedSpec::IndexServe { service, .. } => service.working_set(),
            HostedSpec::Graph { graph, .. } => graph.working_set(),
        }
    }
}

/// Full configuration of one simulated box.
///
/// The service and controller configurations are behind `Arc` so that
/// cluster and fleet drivers can stamp out hundreds of boxes per run
/// without cloning config payloads — only the reference counts move.
#[derive(Clone, Debug)]
pub struct BoxConfig {
    /// Machine parameters.
    pub machine: MachineConfig,
    /// Service-model parameters (shared, immutable). Used by the default
    /// single-service roster; ignored when `hosted` is non-empty.
    pub service: Arc<ServiceConfig>,
    /// The service roster. Empty (the default everywhere predating
    /// multi-service boxes) hosts exactly one IndexServe primary built
    /// from `service` — bit-identical to the pre-roster behaviour.
    /// Non-empty hosts one primary job per entry, capped at
    /// [`MAX_SERVICES`].
    pub hosted: Vec<HostedSpec>,
    /// Secondary tenants.
    pub secondary: SecondaryKind,
    /// PerfIso configuration (`None` = controller absent; note that
    /// "no isolation" is expressed as a *policy*, not by omitting the
    /// controller, so kill-switch experiments can toggle it).
    pub perfiso: Option<Arc<PerfIsoConfig>>,
    /// Injected-fault timeline (`None` = steady state). Shared so cluster
    /// drivers can stamp the same plan across boxes.
    pub fault: Option<Arc<FaultPlan>>,
    /// Latency-recording backend. `Exact` (the default) keeps every
    /// sample; `Sketch` bounds memory for production-scale runs and adds
    /// a `latency_sketch` summary (with its error bound) to the report.
    pub telemetry: TelemetryMode,
    /// Overload-resilience policy (`None` = no admission control, no
    /// retries/hedging, no breakers — bit-identical to the pre-resilience
    /// box). Shared so cluster drivers stamp one policy across boxes.
    pub resilience: Option<Arc<ResiliencePolicy>>,
    /// RNG seed.
    pub seed: u64,
}

impl BoxConfig {
    /// The paper's server with the given secondary and PerfIso config.
    pub fn paper_box(secondary: SecondaryKind, perfiso: Option<PerfIsoConfig>, seed: u64) -> Self {
        BoxConfig {
            machine: MachineConfig::paper_server(),
            service: Arc::new(ServiceConfig::default()),
            hosted: Vec::new(),
            secondary,
            perfiso: perfiso.map(Arc::new),
            fault: None,
            telemetry: TelemetryMode::Exact,
            resilience: None,
            seed,
        }
    }
}

/// Events a [`BoxSim`] reports to its embedder.
#[derive(Clone, Copy, Debug)]
pub enum BoxEvent {
    /// A query finished (successfully or dropped).
    QueryDone(QueryOutcome),
    /// An auxiliary primary thread (see [`BoxSim::spawn_primary_aux`])
    /// finished; carries the user value from [`crate::tags::aux_tag`].
    AuxDone(u64),
}

#[derive(Debug)]
enum AppEvent {
    /// A query deadline: service index in the top byte, service-local
    /// query index below (service 0 packs to the bare index, so
    /// single-service timelines are unchanged).
    Timeout(u64),
    CpuPoll,
    IoPoll,
    MemPoll,
    HdfsReplication,
    HdfsClient,
    /// A planned fault fires (index into the fault plan).
    Fault(u32),
    /// Autopilot's restart backoff elapsed: the controller comes back.
    ControllerUp,
    /// The secondary workload respawns after a restart fault.
    SecondaryUp,
    /// The IndexServe process finishes restarting.
    PrimaryUp,
    /// One synthetic arrival of an in-flight connection flood.
    FloodTick,
}

/// Service names (as configured through `PerfIsoConfig::tenant_limits`)
/// of the batch I/O tenants every box registers, in [`IoTenant`] index
/// order. Spec-level validation rejects limits for any other name, so a
/// typo'd service cannot silently run uncapped.
pub const IO_TENANT_SERVICES: [&str; 3] = ["disk-bully", "hdfs-replication", "hdfs-client"];

/// I/O owner table for the shared HDD volume.
#[derive(Clone, Copy, Debug)]
struct Owners {
    primary_log: OwnerId,
    disk_bully: OwnerId,
    hdfs_repl: OwnerId,
    hdfs_client: OwnerId,
}

/// Caps how long the recovery watch counts polls after a controller
/// restart before declaring convergence anyway.
const RECOVERY_POLL_CAP: u32 = 64;
/// Completed/dropped-query latency samples required before the rollout
/// watchdog judges a new configuration.
const ROLLBACK_MIN_SAMPLES: usize = 50;
/// Samples after which a rollout that never breached is accepted for good.
const ROLLBACK_ACCEPT_SAMPLES: usize = 400;

/// A config rollout under observation by the tail-latency watchdog.
struct RolloutWatch {
    /// Index of this rollout's [`FaultRecord`].
    record: usize,
    /// The configuration to return to on breach.
    prev: Arc<PerfIsoConfig>,
    /// Rollback trigger: observed P99 above this reverts the rollout.
    threshold: SimDuration,
    /// Query latencies (dropped queries contribute their timeout) observed
    /// since the rollout applied.
    samples: Vec<SimDuration>,
}

/// A rollout published to the config store but not yet seen by the
/// controller's poll loop.
struct PendingRollout {
    key: String,
    record: usize,
    rollback: Option<SimDuration>,
}

/// Autopilot-side state of a fault-injected box: the service registry and
/// restart manager, the versioned config store the controller polls, the
/// crash checkpoint, and the per-fault records for the report.
struct ChaosState {
    plan: Arc<FaultPlan>,
    manager: ServiceManager,
    registry: ServiceRegistry,
    store: ConfigStore,
    records: Vec<FaultRecord>,
    /// Deterministic PID source for restarted services.
    next_pid: u32,
    /// Controller state at the last poll — what `load`-from-disk returns.
    checkpoint: Option<ControllerState>,
    /// Cumulative controller counters carried across restarts.
    saved_stats: Option<ControllerStats>,
    /// In-flight controller downtime (record index); `None` when up.
    crash_record: Option<usize>,
    /// Autopilot gave up on the controller; it never comes back.
    controller_gave_up: bool,
    /// Post-restart convergence tracking `(record, polls so far)`.
    recovery_watch: Option<(usize, u32)>,
    /// Restart pending its stability window before the failure counter
    /// resets (a crash inside the window keeps accumulating).
    restarted_at: Option<SimTime>,
    /// Rollouts published but not yet picked up by a controller poll.
    pending_rollouts: Vec<PendingRollout>,
    /// The active rollout watchdog, when a rollout set `rollback_on`.
    rollout: Option<RolloutWatch>,
    /// In-flight secondary downtime (record index).
    secondary_record: Option<usize>,
    /// While `Some`, the IndexServe process is down and refuses arrivals.
    primary_down_until: Option<SimTime>,
    /// In-flight primary downtime (record index).
    primary_record: Option<usize>,
    /// While `Some`, a connection flood injects synthetic arrivals.
    flood_until: Option<SimTime>,
    /// Inter-arrival gap of the active flood's synthetic load.
    flood_interval: SimDuration,
    /// An in-flight quota-exhaustion episode, when one is active.
    io_surge: Option<IoSurge>,
}

/// A quota-exhaustion episode: one batch I/O tenant's operations are
/// inflated until `until`, driving it into its throttle.
struct IoSurge {
    until: SimTime,
    /// [`IoTenant`] index (0 = disk-bully, 1 = hdfs-replication,
    /// 2 = hdfs-client).
    tenant: u8,
    multiplier: f64,
}

impl ChaosState {
    fn new(plan: Arc<FaultPlan>) -> Self {
        ChaosState {
            manager: ServiceManager::new(plan.restart),
            plan,
            registry: ServiceRegistry::new(),
            store: ConfigStore::new(),
            records: Vec::new(),
            next_pid: 100,
            checkpoint: None,
            saved_stats: None,
            crash_record: None,
            controller_gave_up: false,
            recovery_watch: None,
            restarted_at: None,
            pending_rollouts: Vec::new(),
            rollout: None,
            secondary_record: None,
            primary_down_until: None,
            primary_record: None,
            flood_until: None,
            flood_interval: SimDuration::ZERO,
            io_surge: None,
        }
    }

    fn fresh_pid(&mut self) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }
}

/// Shift packing a service index into a [`AppEvent::Timeout`] payload.
const TIMEOUT_SVC_SHIFT: u32 = 56;

/// One hosted service and its machine job.
struct ServiceSlot {
    name: String,
    port: Box<dyn ServicePort>,
    job: JobId,
}

/// One simulated production server.
pub struct BoxSim {
    cfg: BoxConfig,
    machine: Machine,
    disk: DiskSim,
    ssd: VolumeId,
    hdd: VolumeId,
    /// Hosted latency-sensitive services; slot 0 is "the primary" for
    /// single-service accessors. Thread tags route back by their
    /// [`service_bits`].
    services: Vec<ServiceSlot>,
    primary_job: JobId,
    secondary_job: JobId,
    owners: Owners,
    controller: Option<PerfIso>,
    /// The *active* controller configuration: starts as `cfg.perfiso` and
    /// moves when a config rollout applies (or rolls back).
    perfiso_cfg: Option<Arc<PerfIsoConfig>>,
    /// Fault-injection state, when the box runs a chaos timeline.
    chaos: Option<Box<ChaosState>>,
    app: EventQueue<AppEvent>,
    bully: Option<CpuBullyHandle>,
    hdfs_repl: HdfsNode,
    hdfs_client: HdfsNode,
    rng: SimRng,
    events: Vec<BoxEvent>,
    now: SimTime,
    secondary_killed: bool,
    /// Box-level resilience counters (admission sheds); per-service
    /// engine counters merge in at report time.
    resilience: ResilienceStats,
    /// The arrival spec a connection flood replays as synthetic load:
    /// the first externally injected slot-0 spec (chaos runs only).
    flood_spec: Option<QuerySpec>,
    /// Tracks secondary threads for kill-on-memory-pressure.
    secondary_tids: Vec<ThreadId>,
    /// Reusable buffers for the settle loop (machine outputs, disk
    /// completions, service outcomes). Kept across the whole run so the
    /// per-step event routing allocates nothing in steady state.
    scratch_outputs: Vec<MachineOutput>,
    scratch_completions: Vec<simdisk::IoCompletion>,
    scratch_outcomes: Vec<QueryOutcome>,
}

impl BoxSim {
    /// Builds the box, spawns secondaries, installs PerfIso, and arms the
    /// poll timers.
    pub fn new(cfg: BoxConfig) -> Self {
        let mut machine = Machine::with_seed(cfg.machine, cfg.seed);
        let mut disk = DiskSim::new(cfg.seed ^ 0xD15C);
        let ssd = disk.add_volume(VolumeSpec::paper_ssd_volume());
        let hdd = disk.add_volume(VolumeSpec::paper_hdd_volume());
        let total = CoreMask::all(cfg.machine.cores);
        // The service roster: the (default) empty `hosted` list means one
        // IndexServe primary built from `cfg.service`, reproducing the
        // single-service box bit for bit (job ids, seeds, tags).
        let roster: Vec<HostedSpec> = if cfg.hosted.is_empty() {
            vec![HostedSpec::IndexServe {
                name: "indexserve".to_string(),
                service: cfg.service.clone(),
            }]
        } else {
            assert!(
                cfg.hosted.len() <= MAX_SERVICES,
                "a box hosts at most {MAX_SERVICES} services, got {}",
                cfg.hosted.len()
            );
            cfg.hosted.clone()
        };
        let service_jobs: Vec<JobId> = roster
            .iter()
            .map(|_| machine.create_job(TenantClass::Primary, total))
            .collect();
        let secondary_job = machine.create_job(TenantClass::Secondary, total);
        // Per-service working sets (satellite of the multi-service
        // refactor: the 110 GiB + 6 GiB literal now lives in
        // `ServiceConfig::PAPER_WORKING_SET` as the default).
        for (h, job) in roster.iter().zip(&service_jobs) {
            machine.set_job_memory(*job, h.working_set());
        }
        let primary_job = service_jobs[0];

        let owners = Owners {
            primary_log: disk.register_owner(IoPriority::HIGH),
            disk_bully: disk.register_owner(IoPriority::LOW),
            hdfs_repl: disk.register_owner(IoPriority::LOW),
            hdfs_client: disk.register_owner(IoPriority::LOW),
        };
        let services: Vec<ServiceSlot> = roster
            .into_iter()
            .zip(service_jobs)
            .enumerate()
            .map(|(i, (h, job))| {
                // Per-slot seed stream; slot 0 collapses to the classic
                // IndexServe seed.
                let seed = cfg.seed ^ 0x5E47 ^ ((i as u64) * 0x9E37_79B9);
                let name = h.name().to_string();
                let port: Box<dyn ServicePort> = match h {
                    HostedSpec::IndexServe { service, .. } => {
                        Box::new(IndexServe::for_service(service, job, seed, i as u8))
                    }
                    HostedSpec::Graph { graph, .. } => Box::new(GraphPort::new(
                        name.clone(),
                        GraphEngine::with_policy(
                            graph,
                            job,
                            PRIMARY_BIT | service_bits(i as u8),
                            seed,
                            cfg.resilience.clone(),
                        ),
                        i as u8,
                    )),
                };
                ServiceSlot { name, port, job }
            })
            .collect();
        let rng = SimRng::seed_from_u64(cfg.seed ^ 0xB0);
        let app = EventQueue::with_capacity(256);
        let hdfs_repl = HdfsNode::replication();
        let hdfs_client = HdfsNode::client();

        let perfiso_cfg = cfg.perfiso.clone();
        let mut sim = BoxSim {
            cfg,
            machine,
            disk,
            ssd,
            hdd,
            services,
            primary_job,
            secondary_job,
            owners,
            controller: None,
            perfiso_cfg,
            chaos: None,
            app,
            bully: None,
            hdfs_repl,
            hdfs_client,
            rng,
            events: Vec::new(),
            now: SimTime::ZERO,
            secondary_killed: false,
            resilience: ResilienceStats::default(),
            flood_spec: None,
            secondary_tids: Vec::new(),
            scratch_outputs: Vec::with_capacity(64),
            scratch_completions: Vec::with_capacity(64),
            scratch_outcomes: Vec::with_capacity(64),
        };

        // Secondary tenants.
        sim.spawn_secondaries(SimTime::ZERO, true);

        // PerfIso.
        if let Some(pcfg) = sim.perfiso_cfg.clone() {
            sim.install_controller(&pcfg, None, None);
            sim.app
                .push(SimTime::ZERO + pcfg.cpu_poll_interval, AppEvent::CpuPoll);
            sim.app
                .push(SimTime::ZERO + pcfg.io_poll_interval, AppEvent::IoPoll);
            sim.app
                .push(SimTime::ZERO + pcfg.memory_poll_interval, AppEvent::MemPoll);
        }

        // Fault timeline: register the box's services with Autopilot and
        // schedule every planned fault up front (pure simulation time — no
        // RNG draws — so chaos runs stay bit-identical across threads).
        if let Some(plan) = sim.cfg.fault.clone() {
            let mut ch = Box::new(ChaosState::new(plan));
            let pid = ch.fresh_pid();
            ch.registry
                .register("indexserve", ServiceKind::Primary, vec![pid]);
            let has_secondary = sim.cfg.secondary.cpu_bully.is_some()
                || sim.cfg.secondary.disk_bully.is_some()
                || sim.cfg.secondary.hdfs;
            if has_secondary {
                let pid = ch.fresh_pid();
                ch.registry
                    .register("secondary", ServiceKind::Secondary, vec![pid]);
            }
            if sim.controller.is_some() {
                let pid = ch.fresh_pid();
                ch.registry
                    .register("perfiso", ServiceKind::Infrastructure, vec![pid]);
            }
            for (i, f) in ch.plan.faults.iter().enumerate() {
                sim.app.push(f.at, AppEvent::Fault(i as u32));
            }
            sim.chaos = Some(ch);
            // Initial checkpoint: install itself persists a snapshot, so a
            // crash before the first poll still has state to load (§4.2).
            if sim.controller.is_some() {
                let state = sim.controller_snapshot();
                sim.chaos.as_mut().expect("just set").checkpoint = Some(state);
            }
        }
        sim
    }

    /// Spawns the configured secondary tenants at `now`. `initial` also
    /// primes the HDFS traffic generators; respawns after a
    /// secondary-restart fault leave the (remote-driven) disk traffic
    /// timeline untouched and only recreate the local processes.
    fn spawn_secondaries(&mut self, now: SimTime, initial: bool) {
        if let Some(intensity) = self.cfg.secondary.cpu_bully {
            let b = CpuBully::new(intensity, self.cfg.machine.cores);
            let handle = b.spawn(&mut self.machine, self.secondary_job, now);
            self.secondary_tids.extend(handle.tids.iter().copied());
            self.bully = Some(handle);
            self.machine.set_job_memory(self.secondary_job, 2 << 30);
        }
        if let Some(db) = &self.cfg.secondary.disk_bully {
            for i in 0..db.depth {
                let tid = self.machine.spawn_program(
                    now,
                    self.secondary_job,
                    Program::from(db.worker_program(i)),
                    DISK_BULLY_TAG_BASE + i as u64,
                );
                self.secondary_tids.push(tid);
            }
        }
        if self.cfg.secondary.hdfs {
            // Daemon CPU footprint: two duty-cycle threads ≈ a few percent.
            for i in 0..2 {
                let tid = self.machine.spawn_program(
                    now,
                    self.secondary_job,
                    Program::from(HdfsCpuProgram::new(0.6)),
                    HDFS_TAG_BASE + i,
                );
                self.secondary_tids.push(tid);
            }
            if initial {
                let (t1, _) = self.hdfs_repl.next_submission(now, &mut self.rng);
                let (t2, _) = self.hdfs_client.next_submission(now, &mut self.rng);
                self.app.push(t1, AppEvent::HdfsReplication);
                self.app.push(t2, AppEvent::HdfsClient);
            }
        }
    }

    /// Constructs and installs a controller from `pcfg`, registering the
    /// batch I/O tenants, then optionally restores dynamic `state` (crash
    /// recovery, §4.2) and cumulative `stats` (counters survive restarts).
    fn install_controller(
        &mut self,
        pcfg: &Arc<PerfIsoConfig>,
        state: Option<&ControllerState>,
        stats: Option<ControllerStats>,
    ) {
        let mut ctl = PerfIso::new(pcfg.as_ref().clone());
        {
            let mut sys = SysAdapter {
                now: self.now,
                machine: &mut self.machine,
                disk: &mut self.disk,
                hdd: self.hdd,
                secondary_job: self.secondary_job,
                owners: self.owners,
                secondary_tids: &mut self.secondary_tids,
                secondary_killed: &mut self.secondary_killed,
            };
            ctl.install(&mut sys);
            // Register the batch I/O tenants for DWRR + static caps.
            // Caps come from the configuration's per-service
            // `tenant_limits` (how production configures them through
            // Autopilot, §5.3) — e.g. `PerfIsoConfig::paper_cluster`
            // caps "hdfs-replication" at 20 MB/s and "hdfs-client" at
            // 60 MB/s; an absent entry means uncapped.
            let limit_for = |service: &str| -> Option<IoLimit> {
                pcfg.tenant_limits
                    .iter()
                    .find(|t| t.service == service)
                    .map(|t| t.limit)
            };
            ctl.register_io_tenant(
                &mut sys,
                IoTenant(0),
                perfiso::TenantIoConfig {
                    weight: 1.0,
                    min_iops: 50.0,
                },
                limit_for(IO_TENANT_SERVICES[0]),
                IoPriority::LOW.0,
            );
            ctl.register_io_tenant(
                &mut sys,
                IoTenant(1),
                perfiso::TenantIoConfig {
                    weight: 1.0,
                    min_iops: 20.0,
                },
                limit_for(IO_TENANT_SERVICES[1]),
                IoPriority::LOW.0,
            );
            ctl.register_io_tenant(
                &mut sys,
                IoTenant(2),
                perfiso::TenantIoConfig {
                    weight: 2.0,
                    min_iops: 40.0,
                },
                limit_for(IO_TENANT_SERVICES[2]),
                IoPriority::LOW.0,
            );
            if let Some(s) = state {
                ctl.restore(s, &mut sys);
            }
        }
        if let Some(s) = stats {
            ctl.stats = s;
        }
        self.controller = Some(ctl);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of hosted services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Display name of service slot `i`.
    pub fn service_name(&self, i: usize) -> &str {
        &self.services[i].name
    }

    /// CPU time consumed by service slot `i`.
    pub fn service_cpu_time(&self, i: usize) -> SimDuration {
        self.machine.job_cpu_time(self.services[i].job)
    }

    /// Total worker/stage threads spawned across all hosted services.
    pub fn workers_spawned(&self) -> u64 {
        self.services.iter().map(|s| s.port.workers_spawned()).sum()
    }

    /// The longest per-request deadline across hosted services (tail
    /// drain horizon).
    pub fn max_timeout(&self) -> SimDuration {
        self.services
            .iter()
            .map(|s| s.port.timeout())
            .max()
            .expect("at least one service")
    }

    /// Requests outstanding (admitted plus queued) across every hosted
    /// service — zero once all stragglers have retired.
    pub fn services_in_flight(&self) -> u64 {
        self.services.iter().map(|s| s.port.in_flight()).sum()
    }

    /// The primary tenant's job id on the machine.
    pub fn primary_job(&self) -> JobId {
        self.primary_job
    }

    /// The secondary tenants' job id on the machine.
    pub fn secondary_job(&self) -> JobId {
        self.secondary_job
    }

    /// Progress handle of the colocated CPU bully, when one is configured
    /// (for inspecting how much best-effort work got through).
    pub fn cpu_bully(&self) -> Option<&CpuBullyHandle> {
        self.bully.as_ref()
    }

    /// CPU breakdown so far (including in-flight slices).
    pub fn breakdown(&self) -> CpuBreakdown {
        self.machine.breakdown()
    }

    /// Secondary job CPU time (covers every secondary workload).
    pub fn secondary_cpu_time(&self) -> SimDuration {
        self.machine.job_cpu_time(self.secondary_job)
    }

    /// Machine scheduler counters.
    pub fn machine_stats(&self) -> MachineStats {
        self.machine.stats()
    }

    /// Thread-program arena occupancy and recycling counters.
    pub fn arena_stats(&self) -> ArenaStats {
        self.machine.arena_stats()
    }

    /// Controller counters, when PerfIso runs (or ran before a crash that
    /// Autopilot gave up on).
    pub fn controller_stats(&self) -> Option<ControllerStats> {
        self.controller
            .as_ref()
            .map(|c| c.stats)
            .or_else(|| self.chaos.as_ref().and_then(|ch| ch.saved_stats))
    }

    /// Issues a runtime command to the controller (kill switch etc.).
    ///
    /// # Panics
    ///
    /// Panics if no controller is installed.
    pub fn controller_command(&mut self, cmd: perfiso::Command) {
        let mut ctl = self.controller.take().expect("no controller installed");
        {
            let mut sys = SysAdapter {
                now: self.now,
                machine: &mut self.machine,
                disk: &mut self.disk,
                hdd: self.hdd,
                secondary_job: self.secondary_job,
                owners: self.owners,
                secondary_tids: &mut self.secondary_tids,
                secondary_killed: &mut self.secondary_killed,
            };
            ctl.command(cmd, &mut sys);
        }
        self.controller = Some(ctl);
    }

    /// Whether the memory watchdog killed the secondary.
    pub fn secondary_killed(&self) -> bool {
        self.secondary_killed
    }

    /// Snapshots the controller's dynamic state for crash recovery (§4.2).
    ///
    /// # Panics
    ///
    /// Panics if no controller is installed.
    pub fn controller_snapshot(&mut self) -> perfiso::recovery::ControllerState {
        let ctl = self.controller.take().expect("no controller installed");
        let state = {
            let sys = SysAdapter {
                now: self.now,
                machine: &mut self.machine,
                disk: &mut self.disk,
                hdd: self.hdd,
                secondary_job: self.secondary_job,
                owners: self.owners,
                secondary_tids: &mut self.secondary_tids,
                secondary_killed: &mut self.secondary_killed,
            };
            ctl.snapshot(&sys)
        };
        self.controller = Some(ctl);
        state
    }

    /// Replaces the controller with a freshly constructed one (simulating a
    /// crash-restart under Autopilot) and restores the given dynamic state.
    /// The batch I/O tenants re-register from the static configuration,
    /// exactly as on first install.
    ///
    /// # Panics
    ///
    /// Panics if the box was built without a PerfIso configuration.
    pub fn controller_restart_with(&mut self, state: &perfiso::recovery::ControllerState) {
        let pcfg = self.perfiso_cfg.clone().expect("no PerfIso configuration");
        self.install_controller(&pcfg, Some(state), None);
    }

    /// Per-fault records accumulated so far (empty without a fault plan).
    pub fn take_fault_records(&mut self) -> Vec<FaultRecord> {
        self.chaos
            .as_mut()
            .map(|c| std::mem::take(&mut c.records))
            .unwrap_or_default()
    }

    /// Mutable access to the machine plus the secondary job id, for
    /// spawning custom secondary workloads (e.g. the fleet experiment's ML
    /// trainer).
    pub fn secondary_spawn_access(&mut self) -> (&mut Machine, JobId) {
        (&mut self.machine, self.secondary_job)
    }

    /// Registers externally spawned secondary threads so kill actions
    /// (memory watchdog) cover them.
    pub fn track_secondary_threads(&mut self, tids: &[ThreadId]) {
        self.secondary_tids.extend_from_slice(tids);
    }

    /// Declares the secondary job's memory footprint (for watchdog tests).
    pub fn set_secondary_memory(&mut self, bytes: u64) {
        self.machine.set_job_memory(self.secondary_job, bytes);
    }

    /// Injects a query arriving now at service slot 0; schedules its
    /// deadline. Returns the service-local query index echoed in
    /// [`BoxEvent::QueryDone`].
    pub fn inject_query(&mut self, now: SimTime, spec: QuerySpec) -> u64 {
        self.inject_query_for(0, now, spec)
    }

    /// Injects a query arriving now at service slot `service`.
    pub fn inject_query_for(&mut self, service: usize, now: SimTime, spec: QuerySpec) -> u64 {
        self.advance_to(now);
        if service == 0 && self.flood_spec.is_none() && self.chaos.is_some() {
            // Remember one representative arrival for a connection flood
            // to replay as synthetic load.
            self.flood_spec = Some(spec.clone());
        }
        if self
            .chaos
            .as_ref()
            .is_some_and(|c| c.primary_down_until.is_some())
        {
            // The primary process is restarting: the connection is
            // refused and the query counts as dropped immediately.
            let qidx = self.services[service].port.refuse_arrival(now, spec);
            self.settle();
            return qidx;
        }
        if self.admission_sheds(service) {
            // Box-level load shedding: the service is already holding its
            // configured concurrency plus queue depth, so the arrival is
            // refused deterministically and counted as a dropped query.
            self.resilience.sheds += 1;
            let qidx = self.services[service].port.refuse_arrival(now, spec);
            self.settle();
            return qidx;
        }
        let qidx = self.services[service]
            .port
            .on_arrival(now, spec, &mut self.machine);
        let deadline = now + self.services[service].port.timeout();
        self.app.push(
            deadline,
            AppEvent::Timeout(((service as u64) << TIMEOUT_SVC_SHIFT) | qidx),
        );
        self.settle();
        qidx
    }

    /// True when the box-level admission policy sheds an arrival at slot
    /// `service` (its outstanding load already covers the configured
    /// concurrency plus queue depth).
    fn admission_sheds(&self, service: usize) -> bool {
        self.cfg
            .resilience
            .as_ref()
            .and_then(|p| p.admission)
            .is_some_and(|adm| !adm.admits(self.services[service].port.in_flight()))
    }

    /// Merged resilience counters: box-level admission sheds plus every
    /// hosted service's engine counters. `None` when nothing ever fired,
    /// so policy-free reports serialize byte-identically to before the
    /// subsystem existed.
    pub fn resilience_report(&self) -> Option<ResilienceStats> {
        let mut total = self.resilience;
        for s in &self.services {
            if let Some(st) = s.port.resilience_stats() {
                total.merge(st);
            }
        }
        (!total.is_empty()).then_some(total)
    }

    /// Spawns an auxiliary primary-tenant compute thread (MLA aggregation
    /// work); [`BoxEvent::AuxDone`] fires with `user` when it completes.
    ///
    /// The thread contends for CPU exactly like IndexServe's own threads,
    /// so colocated bullies degrade aggregation latency too — the effect
    /// the paper measures at the MLA layer (Fig 9).
    pub fn spawn_primary_aux(&mut self, now: SimTime, compute: SimDuration, user: u64) {
        self.advance_to(now);
        self.machine.spawn_program(
            now,
            self.primary_job,
            Program::compute_once(compute),
            crate::tags::aux_tag(user),
        );
        self.settle();
    }

    /// Takes accumulated events.
    ///
    /// Allocation-free callers should prefer [`BoxSim::drain_events_into`].
    pub fn drain_events(&mut self) -> Vec<BoxEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves accumulated events into `buf` (appending), keeping the
    /// internal buffer's capacity for reuse on the hot path.
    pub fn drain_events_into(&mut self, buf: &mut Vec<BoxEvent>) {
        buf.append(&mut self.events);
    }

    /// True when events are pending.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Time of the next internal event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for c in [
            self.machine.next_timer_at(),
            self.disk.next_timer_at(),
            self.app.peek_time(),
        ]
        .into_iter()
        .flatten()
        .chain(self.services.iter().filter_map(|s| s.port.next_timer_at()))
        {
            next = Some(next.map_or(c, |n: SimTime| n.min(c)));
        }
        next
    }

    /// Advances virtual time to `t`, processing everything due.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "time went backwards");
        while let Some(next) = self.next_event_time().filter(|&n| n <= t) {
            self.process_instant(next);
        }
        self.now = t;
        self.machine.advance_to(t);
        self.disk.advance_to(t);
        self.advance_services(t);
        self.settle();
    }

    /// Processes this box's own events in time order up to and including
    /// `horizon`, stopping after the first instant that leaves
    /// [`BoxEvent`]s to drain (and doing nothing while events from an
    /// earlier instant are still held).
    ///
    /// Unlike [`BoxSim::advance_to`], the clock stays at the last instant
    /// processed instead of moving on to `horizon`, so a run-ahead box is
    /// in the same state as one advanced to each of its event instants in
    /// turn: a later `advance_to` or injection at any instant up to
    /// `horizon` continues exactly as it would have.
    pub fn run_ahead(&mut self, horizon: SimTime) {
        while let Some(next) = self.next_event_time().filter(|&n| n <= horizon) {
            if next > self.now && self.has_events() {
                break;
            }
            self.process_instant(next);
        }
    }

    /// One pass over everything due at `at`, which must be this box's
    /// next event time (the body shared by `advance_to` and `run_ahead`).
    fn process_instant(&mut self, at: SimTime) {
        self.now = at;
        self.machine.advance_to(at);
        self.disk.advance_to(at);
        self.advance_services(at);
        while let Some((_, ev)) = self.app.pop_before(at) {
            self.handle_app_event(ev);
        }
        self.settle();
    }

    /// Pumps services with internal event sources (graph fabrics) to `t`.
    fn advance_services(&mut self, t: SimTime) {
        for i in 0..self.services.len() {
            self.services[i].port.advance_to(t, &mut self.machine);
        }
    }

    /// Routes machine outputs and disk completions until quiescent at the
    /// current instant.
    ///
    /// Runs entirely on reusable scratch buffers: in steady state one
    /// settle pass allocates nothing, which matters because this is the
    /// innermost loop of every experiment in the workspace.
    fn settle(&mut self) {
        loop {
            if !self.machine.has_outputs() && !self.disk.has_completions() {
                break;
            }
            let mut outs = std::mem::take(&mut self.scratch_outputs);
            let mut comps = std::mem::take(&mut self.scratch_completions);
            outs.clear();
            comps.clear();
            self.machine.drain_outputs_into(&mut outs);
            self.disk.drain_completions_into(&mut comps);
            for o in outs.drain(..) {
                self.route_machine_output(o);
            }
            for c in comps.drain(..) {
                if let Some(tid) = parse_wake_token(c.token) {
                    self.machine.wake(self.now, tid);
                }
            }
            self.scratch_outputs = outs;
            self.scratch_completions = comps;
            // Collect service outcomes produced by routing, slot order.
            for i in 0..self.services.len() {
                if !self.services[i].port.has_outcomes() {
                    continue;
                }
                let log_write_bytes = self.services[i].port.log_write_bytes();
                let mut outcomes = std::mem::take(&mut self.scratch_outcomes);
                outcomes.clear();
                self.services[i].port.drain_outcomes_into(&mut outcomes);
                for outcome in outcomes.drain(..) {
                    // Feed the rollout watchdog (dropped queries contribute
                    // their full deadline as the observed latency).
                    if let Some(w) = self.chaos.as_mut().and_then(|ch| ch.rollout.as_mut()) {
                        w.samples.push(outcome.latency);
                    }
                    if !outcome.dropped && log_write_bytes > 0 {
                        // Asynchronous query log on the shared HDD volume.
                        self.disk.submit(
                            self.now,
                            self.hdd,
                            self.owners.primary_log,
                            IoKind::Write,
                            log_write_bytes,
                            AccessPattern::Sequential,
                            FIRE_AND_FORGET,
                        );
                    }
                    self.events.push(BoxEvent::QueryDone(outcome));
                }
                self.scratch_outcomes = outcomes;
            }
        }
    }

    fn route_machine_output(&mut self, out: MachineOutput) {
        match out {
            MachineOutput::ThreadBlocked { tid, tag, .. } => {
                if tag & PRIMARY_BIT != 0 {
                    // A hosted service's thread: the owning slot decides
                    // whether this is an index read or a spurious block.
                    let svc = tag_service(tag) as usize;
                    let action = match self.services.get_mut(svc) {
                        Some(slot) => slot.port.on_thread_blocked(self.now, tag, tid),
                        None => BlockedAction::Wake,
                    };
                    match action {
                        BlockedAction::IndexRead { bytes } => {
                            // Primary index read on the exclusive SSD volume.
                            self.disk.submit(
                                self.now,
                                self.ssd,
                                self.owners.primary_log, // same process identity
                                IoKind::Read,
                                bytes,
                                AccessPattern::Random,
                                wake_token(tid),
                            );
                        }
                        BlockedAction::Wake => {
                            self.machine.wake(self.now, tid);
                        }
                    }
                } else if (DISK_BULLY_TAG_BASE..DISK_BULLY_TAG_BASE + (1 << 16)).contains(&tag) {
                    let op = self
                        .cfg
                        .secondary
                        .disk_bully
                        .as_ref()
                        .expect("disk bully configured")
                        .sample_op(&mut self.rng);
                    let bytes = self.surge_bytes(0, op.bytes);
                    self.disk.submit(
                        self.now,
                        self.hdd,
                        self.owners.disk_bully,
                        op.kind,
                        bytes,
                        op.access,
                        wake_token(tid),
                    );
                } else {
                    // Unknown blocker: wake immediately rather than hang.
                    self.machine.wake(self.now, tid);
                }
            }
            MachineOutput::ThreadExited { tid, tag, .. } => {
                if tag & PRIMARY_BIT != 0 {
                    let svc = tag_service(tag) as usize;
                    if svc < self.services.len() {
                        self.services[svc].port.on_thread_exited(
                            self.now,
                            tag,
                            tid,
                            &mut self.machine,
                        );
                    }
                } else if let Some(user) = crate::tags::parse_aux_tag(tag) {
                    self.events.push(BoxEvent::AuxDone(user));
                }
                // Secondary exits need no routing.
            }
        }
    }

    fn handle_app_event(&mut self, ev: AppEvent) {
        match ev {
            AppEvent::Timeout(packed) => {
                let svc = (packed >> TIMEOUT_SVC_SHIFT) as usize;
                let qidx = packed & ((1 << TIMEOUT_SVC_SHIFT) - 1);
                if svc < self.services.len() {
                    self.services[svc]
                        .port
                        .on_timeout(self.now, qidx, &mut self.machine);
                }
            }
            AppEvent::CpuPoll => {
                // The controller's poll loop also checks the Autopilot
                // config store for rollouts (and the rollback watchdog).
                if self.chaos.is_some() {
                    self.chaos_config_poll();
                }
                let updates_before = self.controller.as_ref().map(|c| c.stats.affinity_updates);
                self.with_controller(|ctl, sys, now| {
                    ctl.poll_cpu(now, sys);
                });
                if self.chaos.is_some() {
                    self.chaos_after_cpu_poll(updates_before);
                }
                if let Some(p) = self.perfiso_cfg.as_ref() {
                    self.app
                        .push(self.now + p.cpu_poll_interval, AppEvent::CpuPoll);
                }
            }
            AppEvent::IoPoll => {
                self.with_controller(|ctl, sys, now| {
                    ctl.poll_io(now, sys);
                });
                if let Some(p) = self.perfiso_cfg.as_ref() {
                    self.app
                        .push(self.now + p.io_poll_interval, AppEvent::IoPoll);
                }
            }
            AppEvent::MemPoll => {
                self.with_controller(|ctl, sys, now| {
                    ctl.poll_memory(now, sys);
                });
                if let Some(p) = self.perfiso_cfg.as_ref() {
                    self.app
                        .push(self.now + p.memory_poll_interval, AppEvent::MemPoll);
                }
            }
            AppEvent::Fault(i) => self.fire_fault(i as usize),
            AppEvent::ControllerUp => self.controller_up(),
            AppEvent::SecondaryUp => self.secondary_up(),
            AppEvent::PrimaryUp => self.primary_up(),
            AppEvent::FloodTick => self.flood_tick(),
            AppEvent::HdfsReplication => {
                let (next, op) = self.hdfs_repl.next_submission(self.now, &mut self.rng);
                let bytes = self.surge_bytes(1, op.bytes);
                self.disk.submit(
                    self.now,
                    self.hdd,
                    self.owners.hdfs_repl,
                    op.kind,
                    bytes,
                    op.access,
                    FIRE_AND_FORGET,
                );
                self.app.push(next, AppEvent::HdfsReplication);
            }
            AppEvent::HdfsClient => {
                let (next, op) = self.hdfs_client.next_submission(self.now, &mut self.rng);
                let bytes = self.surge_bytes(2, op.bytes);
                self.disk.submit(
                    self.now,
                    self.hdd,
                    self.owners.hdfs_client,
                    op.kind,
                    bytes,
                    op.access,
                    FIRE_AND_FORGET,
                );
                self.app.push(next, AppEvent::HdfsClient);
            }
        }
    }

    /// One synthetic arrival of a connection flood, re-armed until the
    /// flood window closes. Runs inside `handle_app_event` — already at
    /// `self.now`, mid-`advance_to` — so the arrival is inlined here
    /// rather than re-entering `inject_query_for`.
    fn flood_tick(&mut self) {
        let (until, interval) = match self.chaos.as_ref() {
            Some(ch) => match ch.flood_until {
                Some(u) => (u, ch.flood_interval),
                None => return,
            },
            None => return,
        };
        if self.now >= until {
            self.chaos.as_mut().expect("checked above").flood_until = None;
            return;
        }
        if let Some(spec) = self.flood_spec.clone() {
            let down = self
                .chaos
                .as_ref()
                .is_some_and(|c| c.primary_down_until.is_some());
            if down || self.admission_sheds(0) {
                if !down {
                    self.resilience.sheds += 1;
                }
                self.services[0].port.refuse_arrival(self.now, spec);
            } else {
                let qidx = self.services[0]
                    .port
                    .on_arrival(self.now, spec, &mut self.machine);
                let deadline = self.now + self.services[0].port.timeout();
                self.app.push(deadline, AppEvent::Timeout(qidx));
            }
        }
        self.app.push(self.now + interval, AppEvent::FloodTick);
    }

    /// Applies an active quota-exhaustion surge to I/O tenant `tenant`'s
    /// operation size. The inflation happens *after* sampling, so the RNG
    /// stream is untouched and surge-free runs stay bit-identical.
    fn surge_bytes(&self, tenant: u8, bytes: u64) -> u64 {
        match self.chaos.as_ref().and_then(|c| c.io_surge.as_ref()) {
            Some(s) if s.tenant == tenant && self.now < s.until => {
                ((bytes as f64) * s.multiplier).round() as u64
            }
            _ => bytes,
        }
    }

    fn with_controller(&mut self, f: impl FnOnce(&mut PerfIso, &mut SysAdapter<'_>, SimTime)) {
        let Some(mut ctl) = self.controller.take() else {
            return;
        };
        {
            let mut sys = SysAdapter {
                now: self.now,
                machine: &mut self.machine,
                disk: &mut self.disk,
                hdd: self.hdd,
                secondary_job: self.secondary_job,
                owners: self.owners,
                secondary_tids: &mut self.secondary_tids,
                secondary_killed: &mut self.secondary_killed,
            };
            f(&mut ctl, &mut sys, self.now);
        }
        self.controller = Some(ctl);
    }

    /// Fires planned fault `idx` from the chaos timeline.
    fn fire_fault(&mut self, idx: usize) {
        let Some(mut ch) = self.chaos.take() else {
            return;
        };
        let fault = ch.plan.faults[idx].clone();
        match &fault.kind {
            PlannedFaultKind::ControllerCrash { downtime_polls } => {
                // A crash while the controller is already down (or after
                // Autopilot gave up) is absorbed by the outage in flight.
                if self.controller.is_some() && ch.crash_record.is_none() {
                    ch.records.push(FaultRecord::fired(&fault.kind, self.now));
                    let ridx = ch.records.len() - 1;
                    let ctl = self.controller.take().expect("checked above");
                    ch.saved_stats = Some(ctl.stats);
                    drop(ctl);
                    // The dying controller's cleanup releases the
                    // secondaries: the box degrades to the Fig. 4
                    // no-isolation regime until the restart.
                    let all = CoreMask::all(self.cfg.machine.cores);
                    self.machine
                        .set_job_affinity(self.now, self.secondary_job, all);
                    self.machine
                        .set_job_quota(self.now, self.secondary_job, None);
                    ch.recovery_watch = None;
                    ch.restarted_at = None;
                    match ch.manager.report_crash(&mut ch.registry, "perfiso") {
                        RestartDecision::RestartAfterMs(ms) => {
                            let poll = self
                                .perfiso_cfg
                                .as_ref()
                                .expect("controller was running")
                                .cpu_poll_interval;
                            let floor = SimDuration::from_nanos(
                                poll.as_nanos().saturating_mul(u64::from(*downtime_polls)),
                            );
                            let downtime = SimDuration::from_millis(ms).max(floor);
                            ch.crash_record = Some(ridx);
                            self.app.push(self.now + downtime, AppEvent::ControllerUp);
                        }
                        RestartDecision::GiveUp => {
                            ch.records[ridx].gave_up = true;
                            ch.crash_record = Some(ridx);
                            ch.controller_gave_up = true;
                        }
                    }
                }
            }
            PlannedFaultKind::SecondaryRestart { downtime }
            | PlannedFaultKind::ServiceChurn { downtime } => {
                if ch.registry.get("secondary").is_some()
                    && ch.secondary_record.is_none()
                    && !self.secondary_killed
                {
                    ch.records.push(FaultRecord::fired(&fault.kind, self.now));
                    let ridx = ch.records.len() - 1;
                    // Kill the local processes; remote-driven HDFS disk
                    // traffic continues (the DataNode's peers don't know).
                    for tid in self.secondary_tids.drain(..) {
                        self.machine.kill_thread(self.now, tid);
                    }
                    self.machine.set_job_memory(self.secondary_job, 0);
                    self.bully = None;
                    match ch.manager.report_crash(&mut ch.registry, "secondary") {
                        RestartDecision::RestartAfterMs(ms) => {
                            let dt = (*downtime).max(SimDuration::from_millis(ms));
                            ch.secondary_record = Some(ridx);
                            self.app.push(self.now + dt, AppEvent::SecondaryUp);
                        }
                        RestartDecision::GiveUp => ch.records[ridx].gave_up = true,
                    }
                }
            }
            PlannedFaultKind::BoxRestart { downtime } => {
                if ch.primary_record.is_none() {
                    ch.records.push(FaultRecord::fired(&fault.kind, self.now));
                    let ridx = ch.records.len() - 1;
                    // Every in-flight request on every service dies with
                    // the box.
                    for i in 0..self.services.len() {
                        self.services[i].port.fail_all(self.now, &mut self.machine);
                    }
                    match ch.manager.report_crash(&mut ch.registry, "indexserve") {
                        RestartDecision::RestartAfterMs(ms) => {
                            let dt = (*downtime).max(SimDuration::from_millis(ms));
                            ch.primary_down_until = Some(self.now + dt);
                            ch.primary_record = Some(ridx);
                            self.app.push(self.now + dt, AppEvent::PrimaryUp);
                        }
                        RestartDecision::GiveUp => {
                            ch.records[ridx].gave_up = true;
                            ch.primary_down_until = Some(SimTime::MAX);
                        }
                    }
                }
            }
            PlannedFaultKind::ConfigRollout {
                key,
                config,
                rollback_p99,
                ..
            } => {
                ch.records.push(FaultRecord::fired(&fault.kind, self.now));
                let ridx = ch.records.len() - 1;
                ch.store
                    .put(key, config.as_ref())
                    .expect("PerfIsoConfig serializes");
                ch.pending_rollouts.push(PendingRollout {
                    key: key.clone(),
                    record: ridx,
                    rollback: *rollback_p99,
                });
            }
            PlannedFaultKind::ConnectionFlood {
                duration,
                extra_qps,
            } => {
                ch.records.push(FaultRecord::fired(&fault.kind, self.now));
                let ridx = ch.records.len() - 1;
                ch.records[ridx].downtime_ms = duration.as_millis_f64();
                ch.flood_until = Some(self.now + *duration);
                ch.flood_interval =
                    SimDuration::from_nanos(1_000_000_000 / u64::from((*extra_qps).max(1)));
                self.app
                    .push(self.now + ch.flood_interval, AppEvent::FloodTick);
            }
            PlannedFaultKind::QuotaExhaustion {
                duration,
                tenant,
                multiplier,
            } => {
                ch.records.push(FaultRecord::fired(&fault.kind, self.now));
                let ridx = ch.records.len() - 1;
                ch.records[ridx].downtime_ms = duration.as_millis_f64();
                let t = match tenant.as_str() {
                    "disk-bully" => 0u8,
                    "hdfs-replication" => 1,
                    _ => 2,
                };
                ch.io_surge = Some(IoSurge {
                    until: self.now + *duration,
                    tenant: t,
                    multiplier: *multiplier,
                });
            }
        }
        self.chaos = Some(ch);
    }

    /// Autopilot's restart backoff elapsed: reconstruct the controller and
    /// resume from the checkpoint (the paper's §4.2 recovery path).
    fn controller_up(&mut self) {
        let Some(mut ch) = self.chaos.take() else {
            return;
        };
        if let Some(ridx) = ch.crash_record.take() {
            let pcfg = self.perfiso_cfg.clone().expect("controller configured");
            let state = ch.checkpoint.clone();
            let stats = ch.saved_stats.take();
            self.install_controller(&pcfg, state.as_ref(), stats);
            let pid = ch.fresh_pid();
            ch.registry.update_pids("perfiso", vec![pid]);
            ch.registry.set_state("perfiso", ServiceState::Running);
            ch.records[ridx].downtime_ms =
                self.now.since(SimTime::ZERO).as_millis_f64() - ch.records[ridx].fired_at_ms;
            ch.recovery_watch = Some((ridx, 0));
            ch.restarted_at = Some(self.now);
        }
        self.chaos = Some(ch);
    }

    /// The secondary workload respawns after its restart downtime.
    fn secondary_up(&mut self) {
        let Some(mut ch) = self.chaos.take() else {
            return;
        };
        if let Some(ridx) = ch.secondary_record.take() {
            self.spawn_secondaries(self.now, false);
            let pid = ch.fresh_pid();
            ch.manager
                .report_started(&mut ch.registry, "secondary", vec![pid]);
            ch.records[ridx].downtime_ms =
                self.now.since(SimTime::ZERO).as_millis_f64() - ch.records[ridx].fired_at_ms;
        }
        self.chaos = Some(ch);
    }

    /// The IndexServe process finishes restarting and accepts queries again.
    fn primary_up(&mut self) {
        let Some(mut ch) = self.chaos.take() else {
            return;
        };
        if let Some(ridx) = ch.primary_record.take() {
            ch.primary_down_until = None;
            let pid = ch.fresh_pid();
            ch.manager
                .report_started(&mut ch.registry, "indexserve", vec![pid]);
            ch.records[ridx].downtime_ms =
                self.now.since(SimTime::ZERO).as_millis_f64() - ch.records[ridx].fired_at_ms;
        }
        self.chaos = Some(ch);
    }

    /// The config-store side of a controller poll: evaluate the rollback
    /// watchdog, then pick up newly published configuration documents.
    fn chaos_config_poll(&mut self) {
        if self.controller.is_none() {
            return;
        }
        let Some(mut ch) = self.chaos.take() else {
            return;
        };
        // Rollback watchdog: judge the active rollout on observed tail
        // latency (dropped queries contribute their full deadline).
        let mut revert: Option<(usize, Arc<PerfIsoConfig>)> = None;
        if let Some(w) = ch.rollout.as_mut() {
            if w.samples.len() >= ROLLBACK_MIN_SAMPLES {
                let mut sorted = w.samples.clone();
                sorted.sort_unstable();
                let idx = ((sorted.len() as f64) * 0.99).ceil() as usize;
                let p99 = sorted[idx.saturating_sub(1).min(sorted.len() - 1)];
                if p99 > w.threshold {
                    revert = Some((w.record, w.prev.clone()));
                } else if w.samples.len() >= ROLLBACK_ACCEPT_SAMPLES {
                    ch.rollout = None;
                }
            }
        }
        if let Some((record, prev)) = revert {
            ch.rollout = None;
            let state = self.controller_snapshot();
            let stats = self.controller.as_ref().expect("present").stats;
            self.install_controller(&prev, Some(&state), Some(stats));
            self.perfiso_cfg = Some(prev);
            ch.records[record].rolled_back = true;
        }
        // Newly published documents (versioned ConfigStore): re-install
        // the controller under the new configuration, carrying its
        // dynamic state and counters across.
        while !ch.pending_rollouts.is_empty() {
            let p = ch.pending_rollouts.remove(0);
            let Some((_, cfg)) = ch.store.get::<PerfIsoConfig>(&p.key) else {
                continue;
            };
            let state = self.controller_snapshot();
            let stats = self.controller.as_ref().expect("present").stats;
            let prev = self.perfiso_cfg.clone().expect("controller configured");
            let next = Arc::new(cfg);
            self.install_controller(&next, Some(&state), Some(stats));
            self.perfiso_cfg = Some(next);
            if let Some(threshold) = p.rollback {
                ch.rollout = Some(RolloutWatch {
                    record: p.record,
                    prev,
                    threshold,
                    samples: Vec::new(),
                });
            }
        }
        self.chaos = Some(ch);
    }

    /// Post-CPU-poll chaos bookkeeping: recovery convergence, the
    /// crash-loop stability window, and the §4.2 checkpoint.
    fn chaos_after_cpu_poll(&mut self, updates_before: Option<u64>) {
        if self.controller.is_none() {
            return;
        }
        let Some(mut ch) = self.chaos.take() else {
            return;
        };
        // Recovery watch: converged at the first poll that changed nothing.
        if let (Some((ridx, polls)), Some(before)) = (ch.recovery_watch, updates_before) {
            let after = self
                .controller
                .as_ref()
                .expect("present")
                .stats
                .affinity_updates;
            let polls = polls + 1;
            if after == before || polls >= RECOVERY_POLL_CAP {
                ch.records[ridx].recovery_polls = polls;
                ch.recovery_watch = None;
            } else {
                ch.recovery_watch = Some((ridx, polls));
            }
        }
        // Crash-loop stability window: only a controller that survives one
        // base-backoff period counts as successfully (re)started — a crash
        // inside the window keeps the consecutive-failure counter growing.
        if let Some(at) = ch.restarted_at {
            if self.now.since(at) >= SimDuration::from_millis(ch.plan.restart.base_backoff_ms) {
                let pids = ch
                    .registry
                    .get("perfiso")
                    .map(|s| s.pids.clone())
                    .unwrap_or_default();
                ch.manager.report_started(&mut ch.registry, "perfiso", pids);
                ch.restarted_at = None;
            }
        }
        // Checkpoint the dynamic state at this poll — what loading "its
        // state from disk" returns after the next crash.
        ch.checkpoint = Some(self.controller_snapshot());
        self.chaos = Some(ch);
    }
}

/// The [`SystemInterface`] over a simulated box.
struct SysAdapter<'a> {
    now: SimTime,
    machine: &'a mut Machine,
    disk: &'a mut DiskSim,
    hdd: VolumeId,
    secondary_job: JobId,
    owners: Owners,
    secondary_tids: &'a mut Vec<ThreadId>,
    secondary_killed: &'a mut bool,
}

impl SysAdapter<'_> {
    fn owner_of(&self, tenant: IoTenant) -> OwnerId {
        match tenant.0 {
            0 => self.owners.disk_bully,
            1 => self.owners.hdfs_repl,
            _ => self.owners.hdfs_client,
        }
    }
}

impl SystemInterface for SysAdapter<'_> {
    fn total_cores(&self) -> u32 {
        self.machine.config().cores
    }

    fn idle_cores(&mut self) -> CoreMask {
        self.machine.idle_core_mask()
    }

    fn set_secondary_affinity(&mut self, mask: CoreMask) {
        self.machine
            .set_job_affinity(self.now, self.secondary_job, mask);
    }

    fn secondary_affinity(&self) -> CoreMask {
        self.machine.job_affinity(self.secondary_job)
    }

    fn set_secondary_cycle_cap(&mut self, cap: Option<f64>) {
        let quota = cap.map(|c| CpuRateQuota::percent(c * 100.0));
        self.machine
            .set_job_quota(self.now, self.secondary_job, quota);
    }

    fn memory_total(&self) -> u64 {
        self.machine.memory_total()
    }

    fn memory_used(&self) -> u64 {
        self.machine.memory_used()
    }

    fn secondary_memory_used(&self) -> u64 {
        self.machine.job_memory(self.secondary_job)
    }

    fn kill_secondary_processes(&mut self) {
        for tid in self.secondary_tids.drain(..) {
            self.machine.kill_thread(self.now, tid);
        }
        self.machine.set_job_memory(self.secondary_job, 0);
        *self.secondary_killed = true;
    }

    fn io_tenants(&self) -> Vec<IoTenant> {
        vec![IoTenant(0), IoTenant(1), IoTenant(2)]
    }

    fn io_stats(&mut self, tenant: IoTenant) -> IoTenantStats {
        let owner = self.owner_of(tenant);
        let s = self.disk.owner_stats(self.now, owner);
        IoTenantStats {
            window_iops: s.window_iops,
            window_bytes_per_sec: s.window_bytes_per_sec,
        }
    }

    fn shared_volume_iops(&mut self) -> f64 {
        self.disk.volume_iops(self.now, self.hdd)
    }

    fn set_io_priority(&mut self, tenant: IoTenant, priority: u8) {
        let owner = self.owner_of(tenant);
        self.disk
            .set_owner_priority(owner, IoPriority(priority.min(7)));
    }

    fn io_priority(&self, tenant: IoTenant) -> u8 {
        self.disk.owner_priority(self.owner_of(tenant)).0
    }

    fn set_io_limit(&mut self, tenant: IoTenant, limit: Option<IoLimit>) {
        let owner = self.owner_of(tenant);
        self.disk.set_owner_limit(
            self.now,
            owner,
            limit.map(|l| RateLimit {
                bytes_per_sec: l.bytes_per_sec,
                iops: l.iops,
            }),
        );
    }
}

/// The replay plan for a single-service box run: one service's load plus
/// the measurement window [`run_multi`] takes.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Offered load in queries/second.
    pub qps: f64,
    /// Warm-up period excluded from statistics.
    pub warmup: SimDuration,
    /// Measured period.
    pub measure: SimDuration,
    /// Trace-generation parameters (the query count is derived).
    pub trace: TraceConfig,
}

/// Per-service measurement row of a multi-service box run.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServiceReport {
    /// Service display name (roster order).
    pub name: String,
    /// Offered load for this service, queries/second.
    pub qps: f64,
    /// Completed-request latency statistics (measured window only).
    pub latency: PercentileSummary,
    /// CPU time the service's job consumed over the whole run.
    pub cpu_time: SimDuration,
}

/// What a standalone run measured (one bar group of a paper figure).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BoxReport {
    /// Offered load.
    pub qps: f64,
    /// Completed-query latency statistics (measured window only).
    pub latency: PercentileSummary,
    /// CPU breakdown over the measured window.
    pub breakdown: CpuBreakdown,
    /// Secondary CPU time over the measured window — the "absolute
    /// progress" of the batch job (a pure-compute bully's progress is
    /// proportional to its CPU time).
    pub secondary_cpu: SimDuration,
    /// Fan-out workers spawned per query on average.
    pub avg_fanout: f64,
    /// Machine scheduler counters (whole run).
    pub machine: MachineStats,
    /// Controller counters, when PerfIso ran.
    pub controller: Option<ControllerStats>,
    /// Executed fault-injection timeline, when a chaos plan ran.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<FaultRecord>,
    /// Per-service breakdown. Populated only for boxes with an explicit
    /// service roster; empty (and absent from JSON) on classic
    /// single-service runs, so pre-roster reports parse unchanged.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub services: Vec<ServiceReport>,
    /// The sketch estimate of the latency distribution plus its error
    /// bound. Present only when the box ran with
    /// [`TelemetryMode::Sketch`]; exact-mode reports (every pre-sketch
    /// fixture) omit the key, so their JSON is unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency_sketch: Option<SketchSummary>,
    /// Resilience-mechanism counters (admission sheds, retries, hedges,
    /// breaker trips, deadline cancels). Present only when a mechanism
    /// actually fired, so pre-resilience reports serialize unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceStats>,
}

impl BoxReport {
    /// Drop ratio over the measured window.
    pub fn drop_ratio(&self) -> f64 {
        self.latency.drop_ratio()
    }
}

/// Per-service offered load for a multi-primary run (see [`run_multi`]).
#[derive(Clone, Debug)]
pub struct ServicePlan {
    /// Offered load in queries/second.
    pub qps: f64,
    /// Trace-generation parameters (the query count is derived).
    pub trace: TraceConfig,
}

impl ServicePlan {
    /// A plan offering `qps` with default trace parameters.
    pub fn at_qps(qps: f64) -> Self {
        ServicePlan {
            qps,
            trace: TraceConfig::default(),
        }
    }
}

/// Latency recorders for one box run: the merged stream plus, on a box
/// with an explicit roster, one recorder per hosted service.
struct RunRecorders {
    overall: LatencyRecorder,
    /// Empty on a classic box, whose report has no per-service rows.
    per_service: Vec<LatencyRecorder>,
    warmup_end: SimTime,
}

impl RunRecorders {
    fn new(sim: &BoxSim, warmup_end: SimTime) -> Self {
        let mode = sim.cfg.telemetry;
        let rows = if sim.cfg.hosted.is_empty() {
            0
        } else {
            sim.service_count()
        };
        RunRecorders {
            overall: mode.recorder(),
            per_service: (0..rows).map(|_| mode.recorder()).collect(),
            warmup_end,
        }
    }

    /// Drains box events, recording measured-window completions into the
    /// merged and per-service recorders.
    fn drain(&mut self, sim: &mut BoxSim, events: &mut Vec<BoxEvent>) {
        sim.drain_events_into(events);
        for ev in events.drain(..) {
            if let BoxEvent::QueryDone(out) = ev {
                if out.arrival >= self.warmup_end {
                    let svc = self.per_service.get_mut(out.service as usize);
                    for r in std::iter::once(&mut self.overall).chain(svc) {
                        if out.dropped {
                            r.record_dropped();
                        } else {
                            r.record(out.latency);
                        }
                    }
                }
            }
        }
    }
}

/// Builds the per-service report rows; empty unless the box was
/// configured with an explicit roster (so classic reports are unchanged).
fn service_rows(sim: &BoxSim, rec: &mut RunRecorders, plans: &[ServicePlan]) -> Vec<ServiceReport> {
    rec.per_service
        .iter_mut()
        .enumerate()
        .map(|(i, r)| ServiceReport {
            name: sim.service_name(i).to_string(),
            qps: plans[i].qps,
            latency: r.summary(),
            cpu_time: sim.service_cpu_time(i),
        })
        .collect()
}

/// Runs one box experiment: every hosted service gets its own open-loop
/// client at its own offered load, arrivals are merged in time order
/// (ties break toward the lower slot), and the report carries both the
/// merged and the per-service latency views — the measurement surface for
/// PerfIso arbitrating between colocated latency-sensitive services. A
/// classic single-service box takes one plan.
///
/// # Panics
///
/// Panics unless `plans` has exactly one entry per hosted service.
pub fn run_multi(
    cfg: BoxConfig,
    plans: &[ServicePlan],
    warmup: SimDuration,
    measure: SimDuration,
) -> BoxReport {
    let seed = cfg.seed;
    let mut sim = BoxSim::new(cfg);
    assert_eq!(
        plans.len(),
        sim.service_count(),
        "one ServicePlan per hosted service"
    );
    let total = warmup + measure;
    let warmup_end = SimTime::ZERO + warmup;
    let end = SimTime::ZERO + total;
    // Per-service trace/client seed streams, salted by slot so no two
    // services replay correlated arrival processes.
    let mut clients: Vec<OpenLoopClient> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let n_queries = (p.qps * total.as_secs_f64() * 1.05) as usize + 16;
            let trace = TraceGenerator::new(TraceConfig {
                queries: n_queries,
                ..p.trace.clone()
            })
            .generate(seed ^ 0x7ACE ^ ((i as u64) << 16));
            OpenLoopClient::new(trace, p.qps, seed ^ 0xC1 ^ ((i as u64) << 16))
        })
        .collect();

    let mut rec = RunRecorders::new(&sim, warmup_end);
    let mut warm_snapshot: Option<(CpuBreakdown, SimDuration)> = None;
    let mut queries_measured = 0u64;
    let mut workers_at_warm = 0u64;
    let mut events: Vec<BoxEvent> = Vec::with_capacity(64);

    loop {
        // Earliest next arrival across services (strict `<`: ties go to
        // the lowest slot, keeping the merge deterministic).
        let mut best: Option<(usize, SimTime)> = None;
        for (i, c) in clients.iter_mut().enumerate() {
            if let Some(at) = c.next_arrival_time() {
                if at <= end && best.is_none_or(|(_, b)| at < b) {
                    best = Some((i, at));
                }
            }
        }
        let Some((svc, at)) = best else {
            break;
        };
        if warm_snapshot.is_none() && at >= warmup_end {
            sim.advance_to(warmup_end);
            rec.drain(&mut sim, &mut events);
            warm_snapshot = Some((sim.breakdown(), sim.secondary_cpu_time()));
            workers_at_warm = sim.workers_spawned();
        }
        let (_, spec) = clients[svc].pop().expect("peeked");
        sim.inject_query_for(svc, at, spec);
        rec.drain(&mut sim, &mut events);
        if at >= warmup_end {
            queries_measured += 1;
        }
    }
    if warm_snapshot.is_none() {
        sim.advance_to(warmup_end);
        rec.drain(&mut sim, &mut events);
        warm_snapshot = Some((sim.breakdown(), sim.secondary_cpu_time()));
        workers_at_warm = sim.workers_spawned();
    }
    sim.advance_to(end + sim.max_timeout());
    rec.drain(&mut sim, &mut events);

    let (warm_bd, warm_sec_cpu) = warm_snapshot.expect("snapshot taken");
    let final_bd = sim.breakdown();
    let services = service_rows(&sim, &mut rec, plans);
    BoxReport {
        qps: plans.iter().map(|p| p.qps).sum(),
        latency: rec.overall.summary(),
        latency_sketch: rec.overall.sketch_summary(),
        breakdown: final_bd.since(&warm_bd),
        secondary_cpu: sim.secondary_cpu_time().saturating_sub(warm_sec_cpu),
        avg_fanout: if queries_measured == 0 {
            0.0
        } else {
            (sim.workers_spawned() - workers_at_warm) as f64 / queries_measured as f64
        },
        machine: sim.machine_stats(),
        controller: sim.controller_stats(),
        faults: sim.take_fault_records(),
        services,
        resilience: sim.resilience_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One service at `qps` on a 300 + 1,500 ms window.
    fn quick_run(cfg: BoxConfig, qps: f64) -> BoxReport {
        run_multi(
            cfg,
            &[ServicePlan::at_qps(qps)],
            SimDuration::from_millis(300),
            SimDuration::from_millis(1_500),
        )
    }

    /// Everything observable about a box's end state, for exact
    /// comparison (`Debug` prints floats in round-trip form).
    fn end_state(b: &BoxSim) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {} {:?}",
            b.now(),
            b.breakdown(),
            b.machine_stats(),
            b.controller_stats(),
            b.secondary_cpu_time(),
            b.workers_spawned(),
            b.resilience_report(),
        )
    }

    /// `run_ahead` plus drains must replay `advance_to` at every event
    /// instant exactly: the same events at the same instants, the clock
    /// at the last instant processed after every call, and a
    /// bit-identical end state. Horizons mix injection instants (the
    /// cluster's deliveries), window cuts, and output instants hit
    /// exactly.
    #[test]
    fn run_ahead_matches_advance_to_at_every_event_instant() {
        let cfg = || {
            BoxConfig::paper_box(
                SecondaryKind {
                    cpu_bully: Some(BullyIntensity::High),
                    disk_bully: None,
                    hdfs: true,
                },
                Some(PerfIsoConfig::paper_cluster()),
                11,
            )
        };
        let end = SimTime::from_millis(40);
        let arrivals: Vec<(SimTime, QuerySpec)> = {
            let trace = TraceGenerator::new(TraceConfig {
                queries: 200,
                ..TraceConfig::default()
            })
            .generate(5);
            let mut client = OpenLoopClient::new(trace, 2_000.0, 6);
            std::iter::from_fn(|| client.pop())
                .take_while(|(at, _)| *at <= end)
                .collect()
        };
        assert!(arrivals.len() > 40, "{} arrivals", arrivals.len());

        // Reference: advance to each of the box's event instants in turn,
        // injecting at arrivals, and drain after every call.
        let mut a = BoxSim::new(cfg());
        let mut want: Vec<(SimTime, String)> = Vec::new();
        let mut event_instants = std::collections::BTreeSet::new();
        let mut pending = arrivals.iter().peekable();
        loop {
            let t_box = a.next_event_time().unwrap_or(SimTime::MAX);
            let t_arr = pending.peek().map_or(SimTime::MAX, |(at, _)| *at);
            let t = t_box.min(t_arr);
            if t > end {
                break;
            }
            if t_box == t {
                event_instants.insert(t);
            }
            if t_arr == t {
                let (at, spec) = pending.next().expect("peeked");
                a.inject_query(*at, spec.clone());
            } else {
                a.advance_to(t);
            }
            assert_eq!(a.now(), t);
            want.extend(a.drain_events().iter().map(|ev| (t, format!("{ev:?}"))));
        }
        let outputs: Vec<SimTime> = want.iter().map(|(t, _)| *t).collect();
        assert!(outputs.len() > 40, "{} outputs", outputs.len());

        let mut horizons: Vec<SimTime> = arrivals
            .iter()
            .map(|(at, _)| *at)
            .chain((1..=end.as_micros() / 170).map(|k| SimTime::from_micros(170 * k)))
            .chain(outputs.iter().copied().step_by(5))
            .chain([end])
            .collect();
        horizons.sort_unstable();
        horizons.dedup();
        assert!(horizons.iter().any(|h| outputs.contains(h)));

        let mut b = BoxSim::new(cfg());
        let mut got: Vec<(SimTime, String)> = Vec::new();
        let mut pending = arrivals.iter().peekable();
        let mut injected_at = SimTime::ZERO;
        for h in horizons {
            loop {
                b.run_ahead(h);
                assert!(b.now() <= h, "clock {} passed horizon {h}", b.now());
                if !b.has_events() {
                    // Every event instant up to `h` is processed and the
                    // clock sits at the last one (or the last injection).
                    assert!(b.next_event_time().is_none_or(|n| n > h));
                    let last_event = event_instants.range(..=h).next_back().copied();
                    assert_eq!(
                        b.now(),
                        last_event.map_or(injected_at, |e| e.max(injected_at))
                    );
                    break;
                }
                // Held output: the clock stops at that event instant, with
                // everything due there processed.
                assert!(event_instants.contains(&b.now()));
                assert!(b.next_event_time().is_none_or(|n| n > b.now()));
                let t = b.now();
                got.extend(b.drain_events().iter().map(|ev| (t, format!("{ev:?}"))));
            }
            while pending.peek().is_some_and(|(at, _)| *at == h) {
                let (at, spec) = pending.next().expect("peeked");
                b.inject_query(*at, spec.clone());
                injected_at = h;
                got.extend(b.drain_events().iter().map(|ev| (h, format!("{ev:?}"))));
            }
        }
        assert_eq!(got, want, "event sequences differ");
        assert_eq!(end_state(&b), end_state(&a));
        // Both continue identically from there.
        let tail = end + SimDuration::from_millis(30);
        a.advance_to(tail);
        b.advance_to(tail);
        assert_eq!(
            format!("{:?}", b.drain_events()),
            format!("{:?}", a.drain_events())
        );
        assert_eq!(end_state(&b), end_state(&a));
    }

    #[test]
    fn standalone_box_completes_queries() {
        let cfg = BoxConfig::paper_box(SecondaryKind::none(), None, 42);
        let r = quick_run(cfg, 2_000.0);
        assert!(r.latency.count > 2_000, "completed {}", r.latency.count);
        assert!(r.drop_ratio() < 0.005, "drops {}", r.drop_ratio());
        // Standalone at 2000 QPS: mostly idle machine.
        assert!(
            r.breakdown.idle_fraction() > 0.6,
            "{}",
            r.breakdown.to_percent_string()
        );
        assert!(r.latency.p50 > SimDuration::from_micros(500));
        assert!(r.latency.p50 < SimDuration::from_millis(10));
    }

    #[test]
    fn bully_without_isolation_hurts_tail() {
        let base = quick_run(
            BoxConfig::paper_box(SecondaryKind::none(), None, 7),
            2_000.0,
        );
        let colo = quick_run(
            BoxConfig::paper_box(SecondaryKind::cpu(BullyIntensity::High), None, 7),
            2_000.0,
        );
        assert!(
            colo.latency.p99 > base.latency.p99 + SimDuration::from_millis(3),
            "colocated p99 {} vs standalone {}",
            colo.latency.p99,
            base.latency.p99
        );
        assert!(colo.secondary_cpu > SimDuration::ZERO);
    }

    #[test]
    fn blind_isolation_protects_tail() {
        let base = quick_run(
            BoxConfig::paper_box(SecondaryKind::none(), None, 9),
            2_000.0,
        );
        let iso = quick_run(
            BoxConfig::paper_box(
                SecondaryKind::cpu(BullyIntensity::High),
                Some(PerfIsoConfig::default()),
                9,
            ),
            2_000.0,
        );
        let degradation = iso.latency.p99.saturating_sub(base.latency.p99);
        assert!(
            degradation < SimDuration::from_millis(2),
            "blind isolation degradation {degradation} (iso {} base {})",
            iso.latency.p99,
            base.latency.p99
        );
        // And the secondary still makes progress: with B=8 on a mostly-idle
        // 48-core machine it should soak tens of core-seconds per second.
        assert!(
            iso.secondary_cpu > SimDuration::from_secs(10),
            "secondary cpu {}",
            iso.secondary_cpu
        );
    }

    #[test]
    fn disk_bully_box_runs() {
        let cfg = BoxConfig::paper_box(
            SecondaryKind::disk(DiskBully::default()),
            Some(PerfIsoConfig::paper_cluster()),
            11,
        );
        let r = quick_run(cfg, 1_000.0);
        assert!(r.latency.count > 1_000);
        assert!(r.drop_ratio() < 0.01);
    }
}
