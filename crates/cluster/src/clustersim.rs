//! The 75-machine cluster simulation (Fig 9).
//!
//! The main loop is a conservative sequential DES over lookahead windows.
//! Every cross-machine message spends at least
//! [`NetConfig::base_latency`] (40 µs) on the fabric, so a window that
//! opens at the earliest pending event `t0` and ends before
//! `t0 + base_latency` can only deliver messages that are already
//! scheduled when it opens, plus the 2 µs loopbacks a box sends itself.
//! Each box therefore first runs ahead through its own events
//! ([`BoxSim::run_ahead`]) up to the earlier of the window's last instant
//! and its earliest scheduled inbound delivery, stopping at the first
//! instant that leaves output to route. The loop then takes global steps
//! only at fabric timers, client arrivals and those held-output instants:
//! it routes the deliveries landing at the step in fabric order and
//! drains the boxes holding output there in index order, exactly the
//! order a one-step-per-event loop would use, and re-runs only the boxes
//! whose horizon moved (every delivery destination and every drained
//! box). A box clock only moves to instants that box processes, and
//! windows stop short of warm-up end until the warm-up snapshot is
//! taken, so reports are byte-identical to stepping every box event
//! globally. At seed 1 the benchmark's `cluster-fig09` workload takes
//! 109,699 global steps instead of 1,454,386, and its median wall time
//! on a 2-core Xeon VM fell from 1.44 s to 0.81 s.
//!
//! The loop runs on one thread. A window opens with about 21 box
//! run-aheads of 60–80 µs in total, about as long as waking a parked
//! thread, so handing them to helper threads did not pay on 2 cores.

use std::collections::HashMap;

use indexserve::{BoxConfig, BoxEvent, BoxSim, FaultPlan, SecondaryKind, ServiceConfig};
use perfiso::PerfIsoConfig;
use qtrace::{OpenLoopClient, QuerySpec, TraceConfig, TraceGenerator};
use simcore::dist::{LogNormal, Sample};
use simcore::{RequestTable, SimDuration, SimRng, SimTime};
use simcpu::MachineConfig;
use simnet::{Delivery, NetConfig, NetSim, NodeId};
use telemetry::{CpuBreakdown, LatencyRecorder, TelemetryMode};

use crate::report::{ClusterReport, LayerStats};
use crate::topology::Topology;

/// Cluster experiment configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Cluster shape.
    pub topology: Topology,
    /// Per-index-machine hardware.
    pub machine: MachineConfig,
    /// Service model on each index machine.
    pub service: ServiceConfig,
    /// Secondary tenants on each index machine.
    pub secondary: SecondaryKind,
    /// PerfIso configuration per index machine.
    pub perfiso: Option<PerfIsoConfig>,
    /// Total offered load across the cluster (the paper uses 8 000 QPS,
    /// landing ~4 000 QPS on each machine of each row).
    pub qps_total: f64,
    /// Warm-up excluded from statistics.
    pub warmup: SimDuration,
    /// Measured window.
    pub measure: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Cluster-wide fault timeline; each index box receives its slice
    /// (staged config rollouts reach only the leading boxes).
    pub fault: Option<std::sync::Arc<FaultPlan>>,
    /// Latency-recording backend for the boxes and the three layer
    /// recorders. `Exact` (the default) keeps every sample; `Sketch`
    /// bounds memory and adds a TLA sketch summary to the report.
    pub telemetry: TelemetryMode,
    /// Overload-resilience policy stamped onto every index box (`None` =
    /// the classic cluster with no admission control or retries).
    pub resilience: Option<std::sync::Arc<workloads::ResiliencePolicy>>,
}

impl ClusterConfig {
    /// The paper's §5.3 setup with the given secondary.
    pub fn paper_cluster(secondary: SecondaryKind, seed: u64) -> Self {
        ClusterConfig {
            topology: Topology::paper_cluster(),
            machine: MachineConfig::paper_server(),
            service: ServiceConfig::default(),
            secondary,
            perfiso: Some(PerfIsoConfig::paper_cluster()),
            qps_total: 8_000.0,
            warmup: SimDuration::from_millis(400),
            measure: SimDuration::from_millis(1_200),
            seed,
            fault: None,
            telemetry: TelemetryMode::Exact,
            resilience: None,
        }
    }
}

/// Median MLA aggregation cost in microseconds (runs on the MLA's machine
/// and contends with its colocated secondary).
const MLA_AGG_COST_US: f64 = 260.0;
/// Fixed TLA processing cost per request (TLA machines run clean).
const TLA_COST: SimDuration = SimDuration::from_micros(80);

const KIND_SHIFT: u32 = 60;
const REQ_SHIFT: u32 = 16;
const DROP_FLAG: u64 = 0x8000;
// Every column index must fit the aux field below the request id.
const _: () = assert!(Topology::MAX_COLUMNS as u64 == 1 << REQ_SHIFT);

fn msg_token(kind: u64, req: u64, aux: u64) -> u64 {
    (kind << KIND_SHIFT) | (req << REQ_SHIFT) | aux
}

fn parse_token(token: u64) -> (u64, u64, u64) {
    (
        token >> KIND_SHIFT,
        (token >> REQ_SHIFT) & ((1 << (KIND_SHIFT - REQ_SHIFT)) - 1),
        token & 0xFFFF,
    )
}

/// A request between its TLA arrival and its response reaching the TLA.
#[derive(Debug)]
struct RequestState {
    tla: u32,
    tla_arrival: SimTime,
    mla_arrival: SimTime,
    row: u32,
    mla_col: u32,
    pending_cols: u32,
    degraded: bool,
    measured: bool,
}

/// The cluster simulator.
pub struct ClusterSim {
    cfg: ClusterConfig,
    boxes: Vec<BoxSim>,
    /// `next_at[i]` is `boxes[i]`'s next event time (`SimTime::MAX` when
    /// it has none), refreshed after every call that mutates the box.
    next_at: Vec<SimTime>,
    /// The boxes holding undrained output; each waits at its own clock.
    held: Vec<usize>,
    net: NetSim,
    /// Unfinished requests by dense id; the id rides in every message
    /// token.
    requests: RequestTable<RequestState>,
    /// Per-box map from local query index to request id.
    qmap: Vec<HashMap<u64, u64>>,
    /// Specs awaiting fan-out deliveries, with a remaining-use count.
    specs: HashMap<u64, (QuerySpec, u32)>,
    rr_tla: u32,
    rr_row: u32,
    rr_mla: Vec<u32>,
    agg_dist: LogNormal,
    rng: SimRng,
    local_lat: LatencyRecorder,
    mla_lat: LatencyRecorder,
    tla_lat: LatencyRecorder,
    completed: u64,
    degraded: u64,
    /// Reusable buffers: the boxes one step touches, fabric deliveries
    /// and box events.
    scratch_boxes: Vec<usize>,
    scratch_deliveries: Vec<Delivery>,
    scratch_events: Vec<BoxEvent>,
}

/// A box's next event time, `SimTime::MAX` when it has none.
fn next_event_or_max(b: &BoxSim) -> SimTime {
    b.next_event_time().unwrap_or(SimTime::MAX)
}

/// The client's next arrival if it is due by `end` (`SimTime::MAX`
/// otherwise: arrivals after the measured window are never injected).
fn next_arrival(client: &OpenLoopClient, end: SimTime) -> SimTime {
    client
        .next_arrival_time()
        .filter(|&a| a <= end)
        .unwrap_or(SimTime::MAX)
}

impl ClusterSim {
    /// Builds all machines and the fabric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid topology.
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.topology.validate().expect("valid topology");
        let n_index = cfg.topology.index_machines();
        // One Arc per run: the 44 index boxes share the service and
        // controller configs instead of cloning them per machine.
        let service = std::sync::Arc::new(cfg.service.clone());
        let perfiso = cfg.perfiso.clone().map(std::sync::Arc::new);
        let boxes: Vec<BoxSim> = (0..n_index)
            .map(|i| {
                BoxSim::new(BoxConfig {
                    machine: cfg.machine,
                    service: std::sync::Arc::clone(&service),
                    hosted: Vec::new(),
                    secondary: cfg.secondary.clone(),
                    perfiso: perfiso.clone(),
                    fault: cfg
                        .fault
                        .as_ref()
                        .and_then(|p| p.slice_for_box(i as usize, n_index as usize))
                        .map(std::sync::Arc::new),
                    telemetry: cfg.telemetry,
                    resilience: cfg.resilience.clone(),
                    seed: cfg.seed ^ (0x9E37 * (i as u64 + 1)),
                })
            })
            .collect();
        let net = NetSim::new(
            NetConfig::default(),
            cfg.topology.total_machines(),
            cfg.seed ^ 0x7E7,
        );
        let qmap = (0..n_index).map(|_| HashMap::new()).collect();
        let next_at = boxes.iter().map(next_event_or_max).collect();
        ClusterSim {
            agg_dist: LogNormal::from_median(MLA_AGG_COST_US, 0.4),
            rr_mla: vec![0; cfg.topology.rows as usize],
            boxes,
            next_at,
            held: Vec::with_capacity(n_index as usize),
            net,
            requests: RequestTable::new(),
            qmap,
            specs: HashMap::new(),
            rr_tla: 0,
            rr_row: 0,
            rng: SimRng::seed_from_u64(cfg.seed ^ 0xC1B5),
            local_lat: cfg.telemetry.recorder(),
            mla_lat: cfg.telemetry.recorder(),
            tla_lat: cfg.telemetry.recorder(),
            completed: 0,
            degraded: 0,
            scratch_boxes: Vec::with_capacity(n_index as usize),
            scratch_deliveries: Vec::with_capacity(64),
            scratch_events: Vec::with_capacity(64),
            cfg,
        }
    }

    /// Runs the experiment and produces the Fig 9-style report.
    pub fn run(mut self) -> ClusterReport {
        self.run_impl()
    }

    fn run_impl(&mut self) -> ClusterReport {
        let total = self.cfg.warmup + self.cfg.measure;
        let end = SimTime::ZERO + total;
        let n_queries = (self.cfg.qps_total * total.as_secs_f64() * 1.02) as usize + 8;
        let trace = TraceGenerator::new(TraceConfig {
            queries: n_queries,
            ..TraceConfig::default()
        })
        .generate(self.cfg.seed ^ 0x7ACE);
        let mut client = OpenLoopClient::new(trace, self.cfg.qps_total, self.cfg.seed ^ 0xC1);

        let mut warm_bd: Option<Vec<CpuBreakdown>> = None;
        let warmup_end = SimTime::ZERO + self.cfg.warmup;
        // Arrivals stop at `end`; requests still in flight resolve within
        // one timeout, so box and fabric events run until `drain_until`.
        let drain_until = end + self.cfg.service.timeout + SimDuration::from_millis(50);
        let lookahead = self.net.config().base_latency;
        debug_assert!(
            !lookahead.is_zero(),
            "lookahead windows need a fabric latency"
        );

        loop {
            let t0 = next_arrival(&client, end).min(self.next_any_event());
            if t0 > drain_until {
                break;
            }
            // Nothing lands before `t0 + lookahead` unless it is already
            // scheduled or a box's loopback to itself.
            let mut last = (t0 + lookahead - SimDuration::from_nanos(1)).min(drain_until);
            // The warm-up snapshot must see every box as the last instant
            // before warm-up end left it, so windows stop short of it.
            if warm_bd.is_none() && t0 <= end {
                if t0 >= warmup_end {
                    warm_bd = Some(self.boxes.iter().map(|b| b.breakdown()).collect());
                } else {
                    last = last.min(warmup_end - SimDuration::from_nanos(1));
                }
            }
            self.start_window(last);
            loop {
                let t = next_arrival(&client, end)
                    .min(self.net.next_timer_at().unwrap_or(SimTime::MAX))
                    .min(self.earliest_held());
                if t > last {
                    break;
                }
                if t <= end {
                    while client.next_arrival_time() == Some(t) {
                        let (_, spec) = client.pop().expect("peeked");
                        self.on_client_arrival(t, spec);
                    }
                }
                self.step(t, last);
            }
            debug_assert!(
                self.held.is_empty() && self.boxes.iter().all(|b| !b.has_events()),
                "a box holds undrained events at a window end"
            );
            debug_assert!(
                self.boxes
                    .iter()
                    .zip(&self.next_at)
                    .all(|(b, &n)| next_event_or_max(b) == n),
                "cached next-event time out of date"
            );
        }

        let warm = warm_bd.unwrap_or_else(|| self.boxes.iter().map(|b| b.breakdown()).collect());
        let mut agg = CpuBreakdown::default();
        for (b, w) in self.boxes.iter().zip(warm.iter()) {
            agg.merge(&b.breakdown().since(w));
        }
        let mut faults = Vec::new();
        let mut resilience = telemetry::ResilienceStats::default();
        for (i, b) in self.boxes.iter_mut().enumerate() {
            let records = b.take_fault_records();
            if !records.is_empty() {
                faults.push(crate::report::BoxFaults {
                    box_index: i as u32,
                    faults: records,
                });
            }
            if let Some(r) = b.resilience_report() {
                resilience.merge(&r);
            }
        }
        ClusterReport {
            local: LayerStats::from_recorder(&mut self.local_lat),
            mla: LayerStats::from_recorder(&mut self.mla_lat),
            tla: LayerStats::from_recorder(&mut self.tla_lat),
            latency_sketch: self.tla_lat.sketch_summary(),
            completed: self.completed,
            degraded: self.degraded,
            mean_utilization: agg.utilization(),
            breakdown: agg,
            faults,
            resilience: (!resilience.is_empty()).then_some(resilience),
        }
    }

    /// Box `i`'s run-ahead horizon: the window's `last` instant or its
    /// earliest scheduled inbound delivery, whichever comes first.
    fn horizon(&self, i: usize, last: SimTime) -> SimTime {
        self.net
            .next_delivery_to(NodeId(i as u32))
            .map_or(last, |d| d.min(last))
    }

    /// Runs every box with work ahead to its horizon. No box holds output
    /// when a window opens, and a run-ahead never touches the fabric, so
    /// each box's horizon is the same whichever box runs first.
    fn start_window(&mut self, last: SimTime) {
        for i in 0..self.boxes.len() {
            self.run_box(i, last);
        }
    }

    /// Runs box `i` ahead to its horizon unless it holds output already
    /// (it then waits for its drain) or has nothing due by then; refreshes
    /// its cached next event, and holds it if it stopped with output to
    /// route.
    fn run_box(&mut self, i: usize, last: SimTime) {
        let h = self.horizon(i, last);
        if self.boxes[i].has_events() || self.next_at[i] > h {
            return;
        }
        self.boxes[i].run_ahead(h);
        self.refresh(i);
        if self.boxes[i].has_events() {
            self.held.push(i);
        }
    }

    /// The earliest instant a box holds output at (`SimTime::MAX` if none).
    fn earliest_held(&self) -> SimTime {
        self.held
            .iter()
            .map(|&i| self.boxes[i].now())
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// One global step at `t`: route the deliveries landing at `t`, then
    /// drain the boxes holding output at `t`, and re-run every box whose
    /// horizon moved up to the window's `last` instant.
    fn step(&mut self, t: SimTime, last: SimTime) {
        self.net.advance_to(t);
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        let mut touched = std::mem::take(&mut self.scratch_boxes);
        deliveries.clear();
        touched.clear();
        self.net.drain_deliveries_into(&mut deliveries);
        // Same-instant delivery order is part of the determinism
        // contract: the loop steps at every fabric timer, so the drained
        // batch is exactly the messages landing at `t`, in the fabric's
        // send-order tiebreak, and routing depends on that order.
        debug_assert!(
            deliveries.iter().all(|d| d.at == t),
            "step batch holds a delivery not due at the step instant"
        );
        let n_boxes = self.boxes.len();
        for d in deliveries.drain(..) {
            self.on_delivery(t, d.to, d.token);
            if (d.to.0 as usize) < n_boxes {
                touched.push(d.to.0 as usize);
            }
        }
        self.scratch_deliveries = deliveries;
        if !touched.is_empty() {
            // Routing drained some held boxes; its destinations can run on
            // to their next delivery, and may hold output at `t` again.
            let boxes = &self.boxes;
            self.held.retain(|&i| boxes[i].has_events());
            touched.sort_unstable();
            touched.dedup();
            for &i in &touched {
                self.run_box(i, last);
            }
            touched.clear();
        }
        // Drain the boxes holding output at `t` in index order, which
        // keeps the fabric's send order (and its jitter draws).
        let boxes = &self.boxes;
        self.held.retain(|&i| {
            let due = boxes[i].now() == t;
            if due {
                touched.push(i);
            }
            !due
        });
        touched.sort_unstable();
        for &i in &touched {
            self.drain_box(i, t);
            self.run_box(i, last);
        }
        self.scratch_boxes = touched;
    }

    /// Earliest pending event across the fabric and every box
    /// (`SimTime::MAX` when nothing is pending).
    fn next_any_event(&self) -> SimTime {
        let boxes = self.next_at.iter().copied().min().unwrap_or(SimTime::MAX);
        self.net.next_timer_at().map_or(boxes, |n| n.min(boxes))
    }

    /// Re-reads box `i`'s next event time after a call that mutated it.
    fn refresh(&mut self, i: usize) {
        self.next_at[i] = next_event_or_max(&self.boxes[i]);
    }

    fn on_client_arrival(&mut self, now: SimTime, spec: QuerySpec) {
        let topo = self.cfg.topology;
        let tla = self.rr_tla % topo.tlas;
        self.rr_tla += 1;
        let row = self.rr_row % topo.rows;
        self.rr_row += 1;
        let mla_col = self.rr_mla[row as usize] % topo.columns;
        self.rr_mla[row as usize] += 1;

        let req = self.requests.insert(RequestState {
            tla,
            tla_arrival: now,
            mla_arrival: SimTime::ZERO,
            row,
            mla_col,
            pending_cols: topo.columns,
            degraded: false,
            measured: now >= SimTime::ZERO + self.cfg.warmup,
        });
        // One use at the MLA plus one per remote column.
        self.specs.insert(req, (spec, topo.columns));
        self.net.send(
            now + TLA_COST,
            topo.tla_node(tla),
            topo.index_node(row, mla_col),
            1 << 10,
            msg_token(1, req, 0),
        );
    }

    /// The state of a request the caller knows is unfinished: every
    /// message and box event before the TLA response names a request that
    /// has not yet reached its TLA.
    fn request(&self, req: u64) -> &RequestState {
        self.requests.get(req).expect("request is unfinished")
    }

    fn take_spec(&mut self, req: u64) -> QuerySpec {
        let entry = self.specs.get_mut(&req).expect("spec recorded");
        entry.1 -= 1;
        if entry.1 == 0 {
            self.specs.remove(&req).expect("present").0
        } else {
            entry.0.clone()
        }
    }

    fn on_delivery(&mut self, now: SimTime, to: NodeId, token: u64) {
        let (kind, req, aux) = parse_token(token);
        let topo = self.cfg.topology;
        match kind {
            // TLA → MLA: fan out to every column of the row.
            1 => {
                let (row, _) = topo.index_position(to).expect("MLA is an index machine");
                self.requests
                    .get_mut(req)
                    .expect("request is unfinished")
                    .mla_arrival = now;
                for col in 0..topo.columns {
                    let node = topo.index_node(row, col);
                    if node == to {
                        let spec = self.take_spec(req);
                        let flat = topo.index_flat(row, col);
                        let qidx = self.boxes[flat].inject_query(now, spec);
                        self.refresh(flat);
                        self.qmap[flat].insert(qidx, req);
                        self.drain_box(flat, now);
                    } else {
                        self.net
                            .send(now, to, node, 512, msg_token(2, req, col as u64));
                    }
                }
            }
            // MLA → column: process the query locally.
            2 => {
                let spec = self.take_spec(req);
                let (row, col) = topo.index_position(to).expect("column is an index machine");
                let flat = topo.index_flat(row, col);
                let qidx = self.boxes[flat].inject_query(now, spec);
                self.refresh(flat);
                self.qmap[flat].insert(qidx, req);
                self.drain_box(flat, now);
            }
            // Column → MLA: one shard response.
            3 => {
                // A response for a finished request changes nothing.
                let Some(r) = self.requests.get_mut(req) else {
                    return;
                };
                if aux & DROP_FLAG != 0 {
                    r.degraded = true;
                }
                r.pending_cols = r.pending_cols.saturating_sub(1);
                if r.pending_cols == 0 {
                    let flat = topo.index_flat(r.row, r.mla_col);
                    let cost = SimDuration::from_micros_f64(self.agg_dist.sample(&mut self.rng));
                    self.boxes[flat].spawn_primary_aux(now, cost, req);
                    self.refresh(flat);
                    self.drain_box(flat, now);
                }
            }
            // MLA → TLA: the response is ready after the TLA's own cost.
            4 => {
                let done_at = now + TLA_COST;
                let Some(r) = self.requests.finish(req) else {
                    return;
                };
                self.completed += 1;
                if r.degraded {
                    self.degraded += 1;
                }
                if r.measured {
                    self.tla_lat.record(done_at.since(r.tla_arrival));
                }
            }
            _ => unreachable!("unknown message kind {kind}"),
        }
    }

    /// Drains one box's events and routes them.
    fn drain_box(&mut self, flat: usize, now: SimTime) {
        let topo = self.cfg.topology;
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        self.boxes[flat].drain_events_into(&mut events);
        for ev in events.drain(..) {
            match ev {
                BoxEvent::QueryDone(out) => {
                    let Some(req) = self.qmap[flat].remove(&out.qidx) else {
                        continue;
                    };
                    let (measured, row, mla_col) = {
                        let r = self.request(req);
                        (r.measured, r.row, r.mla_col)
                    };
                    if measured {
                        if out.dropped {
                            self.local_lat.record_dropped();
                        } else {
                            self.local_lat.record(out.latency);
                        }
                    }
                    let mla = topo.index_node(row, mla_col);
                    let from = NodeId(flat as u32);
                    let aux = if out.dropped { DROP_FLAG } else { 0 };
                    self.net
                        .send(now, from, mla, 2 << 10, msg_token(3, req, aux));
                }
                BoxEvent::AuxDone(req) => {
                    let (measured, mla_arrival, row, mla_col, tla) = {
                        let r = self.request(req);
                        (r.measured, r.mla_arrival, r.row, r.mla_col, r.tla)
                    };
                    if measured {
                        self.mla_lat.record(now.since(mla_arrival));
                    }
                    let mla = topo.index_node(row, mla_col);
                    self.net
                        .send(now, mla, topo.tla_node(tla), 4 << 10, msg_token(4, req, 0));
                }
            }
        }
        self.scratch_events = events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(secondary: SecondaryKind, seed: u64) -> ClusterConfig {
        ClusterConfig {
            topology: Topology::small(),
            qps_total: 600.0,
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_millis(600),
            ..ClusterConfig::paper_cluster(secondary, seed)
        }
    }

    #[test]
    fn small_cluster_completes_requests() {
        let report = ClusterSim::new(small_config(SecondaryKind::none(), 3)).run();
        assert!(report.completed > 300, "completed {}", report.completed);
        assert_eq!(report.degraded, 0, "no drops in an idle cluster");
        // Layering: local <= MLA <= TLA on averages.
        assert!(report.mla.avg >= report.local.avg);
        assert!(report.tla.avg >= report.mla.avg);
        assert!(
            report.tla.p99 < SimDuration::from_millis(60),
            "tla p99 {}",
            report.tla.p99
        );
    }

    /// Regression for the same-instant delivery-order contract the step
    /// batch relies on: the drained sequence is time-sorted, deliveries
    /// landing at the *same* instant keep send order (the fabric's FIFO
    /// tiebreak), and the whole sequence is reproducible run to run.
    #[test]
    fn same_instant_deliveries_drain_deterministically() {
        let run = |seed: u64| -> Vec<(u64, SimTime)> {
            // Zero jitter: identical-size messages from distinct sources
            // land at identical instants, forcing the tiebreak.
            let cfg = NetConfig {
                jitter_mean: SimDuration::ZERO,
                ..NetConfig::default()
            };
            let mut net = NetSim::new(cfg, 16, seed);
            let t0 = SimTime::from_micros(100);
            for k in 0..8u64 {
                net.send(t0, NodeId(k as u32), NodeId(15), 256, k);
            }
            net.advance_to(SimTime::from_millis(20));
            let mut got = Vec::new();
            net.drain_deliveries_into(&mut got);
            got.into_iter().map(|d| (d.token, d.at)).collect()
        };
        let a = run(77);
        assert_eq!(a.len(), 8);
        assert!(
            a.windows(2).all(|w| w[0].1 <= w[1].1),
            "delivery times must be non-decreasing: {a:?}"
        );
        assert!(
            a.windows(2).any(|w| w[0].1 == w[1].1),
            "test lost its same-instant collisions: {a:?}"
        );
        assert!(
            a.windows(2).all(|w| w[0].1 < w[1].1 || w[0].0 < w[1].0),
            "same-instant deliveries must keep send order: {a:?}"
        );
        assert_eq!(a, run(77), "delivery sequence must be reproducible");
    }

    #[test]
    fn finished_requests_retire() {
        let mut sim = ClusterSim::new(small_config(SecondaryKind::none(), 3));
        let report = sim.run_impl();
        // Every request reached its TLA and retired, and ids stayed dense.
        assert_eq!(sim.requests.window(), 0);
        assert_eq!(sim.requests.next_id(), report.completed);
        assert!(report.completed > 300, "completed {}", report.completed);
        // Requests take about 15 ms at 600 QPS, so the table never held
        // more than a few dozen of them.
        assert!(
            sim.requests.capacity() <= 32,
            "capacity {}",
            sim.requests.capacity()
        );
    }

    #[test]
    fn blind_isolation_holds_in_cluster() {
        let base = ClusterSim::new(small_config(SecondaryKind::none(), 5)).run();
        let colo = ClusterSim::new(small_config(
            SecondaryKind {
                cpu_bully: Some(workloads::BullyIntensity::High),
                disk_bully: None,
                hdfs: true,
            },
            5,
        ))
        .run();
        let degr = colo.tla.p99.saturating_sub(base.tla.p99);
        assert!(
            degr < SimDuration::from_millis(4),
            "cluster TLA p99 degradation {degr} (colo {} vs base {})",
            colo.tla.p99,
            base.tla.p99
        );
        assert!(colo.mean_utilization > base.mean_utilization + 0.2);
    }
}
