//! The network simulator: nodes, messages, deliveries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simcore::{dist::Exp, dist::Sample, EventQueue, SimDuration, SimRng, SimTime};

use crate::shaper::{EgressMsg, EgressShaper, StartDecision, TrafficClass};

/// Identifies a node (machine) in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Network fabric parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// NIC bandwidth in bytes/second (10 GbE by default).
    pub nic_bandwidth: u64,
    /// Fixed one-way propagation latency.
    pub base_latency: SimDuration,
    /// Mean of the exponential jitter added per message.
    pub jitter_mean: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            nic_bandwidth: 1_250_000_000,
            base_latency: SimDuration::from_micros(40),
            jitter_mean: SimDuration::from_micros(25),
        }
    }
}

/// A delivered message.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// Destination node.
    pub to: NodeId,
    /// Source node.
    pub from: NodeId,
    /// The sender's opaque token.
    pub token: u64,
    /// Delivery time.
    pub at: SimTime,
}

#[derive(Debug)]
enum NetTimer {
    /// A message enters its source node's egress queue.
    Enqueue { from: NodeId, msg: EgressMsg },
    /// Re-poll a node's egress queue.
    Egress { node: NodeId },
    /// A message lands at its destination.
    Deliver {
        to: NodeId,
        from: NodeId,
        token: u64,
    },
}

/// A full-bisection datacenter fabric with per-node egress shapers.
///
/// # Examples
///
/// ```
/// use simcore::SimTime;
/// use simnet::{NetConfig, NetSim, NodeId, TrafficClass};
///
/// let mut n = NetSim::new(NetConfig::default(), 2, 99);
/// n.send(SimTime::ZERO, NodeId(0), NodeId(1), 2048, TrafficClass::High, 7);
/// while let Some(t) = n.next_timer_at() {
///     n.advance_to(t);
/// }
/// let d = n.drain_deliveries();
/// assert_eq!(d.len(), 1);
/// assert_eq!(d[0].token, 7);
/// ```
pub struct NetSim {
    cfg: NetConfig,
    now: SimTime,
    shapers: Vec<EgressShaper>,
    timers: EventQueue<NetTimer>,
    /// Per destination node, the landing times of its scheduled
    /// `Deliver` timers (earliest on top).
    inbound: Vec<BinaryHeap<Reverse<SimTime>>>,
    deliveries: Vec<Delivery>,
    jitter: Exp,
    rng: SimRng,
    sent: u64,
}

impl NetSim {
    /// Creates a fabric with `nodes` nodes.
    pub fn new(cfg: NetConfig, nodes: u32, seed: u64) -> Self {
        NetSim {
            cfg,
            now: SimTime::ZERO,
            shapers: (0..nodes)
                .map(|_| EgressShaper::new(cfg.nic_bandwidth))
                .collect(),
            timers: EventQueue::with_capacity(256),
            inbound: (0..nodes).map(|_| BinaryHeap::new()).collect(),
            deliveries: Vec::new(),
            jitter: Exp::from_mean(cfg.jitter_mean.as_secs_f64().max(1e-9)),
            rng: SimRng::seed_from_u64(seed),
            sent: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The fabric parameters.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Number of messages sent so far.
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Sets or clears the low-class egress cap on a node (bytes/second) —
    /// the PerfIso egress-throttling actuator.
    pub fn set_node_low_rate(&mut self, now: SimTime, node: NodeId, rate: Option<u64>) {
        self.advance_to(now);
        let at = now.max(self.now);
        self.shapers[node.0 as usize].set_low_rate(at, rate);
        self.timers.push(at, NetTimer::Egress { node });
    }

    /// The node's low-class egress cap.
    pub fn node_low_rate(&self, node: NodeId) -> Option<u64> {
        self.shapers[node.0 as usize].low_rate()
    }

    /// Queued egress messages on a node.
    pub fn egress_queue_len(&self, node: NodeId) -> usize {
        self.shapers[node.0 as usize].queued()
    }

    /// Sends `bytes` from `from` to `to` at time `at` (which may be in the
    /// future); the delivery echoes `token`.
    ///
    /// Scheduling-only: internal time does not advance until
    /// [`NetSim::advance_to`], so drivers may interleave sends freely with
    /// other components.
    pub fn send(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        class: TrafficClass,
        token: u64,
    ) {
        self.sent += 1;
        let at = at.max(self.now);
        // Self-delivery skips the NIC entirely (loopback).
        if from == to {
            self.schedule_delivery(at + SimDuration::from_micros(2), to, from, token);
            return;
        }
        self.timers.push(
            at,
            NetTimer::Enqueue {
                from,
                msg: EgressMsg {
                    bytes,
                    class,
                    token,
                    dest: to.0,
                },
            },
        );
    }

    /// Time of the next internal event, if any.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.timers.peek_time()
    }

    /// Landing time of the earliest delivery already scheduled to `node`.
    ///
    /// Messages not yet on the wire (sends still to be enqueued, or
    /// queued behind a busy NIC) are not counted: they land no earlier
    /// than their serialization start plus [`NetConfig::base_latency`].
    /// A loopback is scheduled as it is sent, 2 µs after its send time.
    pub fn next_delivery_to(&self, node: NodeId) -> Option<SimTime> {
        self.inbound[node.0 as usize].peek().map(|r| r.0)
    }

    fn schedule_delivery(&mut self, land: SimTime, to: NodeId, from: NodeId, token: u64) {
        self.inbound[to.0 as usize].push(Reverse(land));
        self.timers
            .push(land, NetTimer::Deliver { to, from, token });
    }

    /// Takes all pending deliveries.
    ///
    /// Allocation-free callers should prefer
    /// [`NetSim::drain_deliveries_into`].
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Moves all pending deliveries into `buf` (appending), keeping the
    /// internal buffer's capacity for reuse on the hot path.
    pub fn drain_deliveries_into(&mut self, buf: &mut Vec<Delivery>) {
        buf.append(&mut self.deliveries);
    }

    /// Advances virtual time, processing due timers. Calls with `t` before
    /// the current time are no-ops, so interleaved drivers need not track
    /// the fabric's clock. A call with `t` *equal* to the current time
    /// still processes timers due at that instant — drivers send messages
    /// stamped "now" from their event handlers, and those must be consumed
    /// by the next pass or the embedding event loop would spin on a
    /// perpetually-due timer.
    pub fn advance_to(&mut self, t: SimTime) {
        if t < self.now {
            return;
        }
        while let Some((at, timer)) = self.timers.pop_before(t) {
            self.now = at;
            match timer {
                NetTimer::Enqueue { from, msg } => {
                    self.shapers[from.0 as usize].enqueue(msg);
                    self.pump(from);
                }
                NetTimer::Egress { node } => self.pump(node),
                NetTimer::Deliver { to, from, token } => {
                    // Deliveries to one node pop in landing order, so this
                    // one is the earliest recorded for it.
                    let landed = self.inbound[to.0 as usize].pop();
                    debug_assert_eq!(landed, Some(Reverse(at)));
                    self.deliveries.push(Delivery {
                        to,
                        from,
                        token,
                        at: self.now,
                    });
                }
            }
        }
        self.now = t;
    }

    /// Tries to start serializing the next eligible message on `node`.
    fn pump(&mut self, node: NodeId) {
        match self.shapers[node.0 as usize].try_start(self.now) {
            // A busy NIC needs no re-poll of its own: the `Start` that
            // made it busy already queued one at the instant it frees.
            StartDecision::Empty | StartDecision::Busy => {}
            StartDecision::TokensAt(at) => {
                // Re-poll when tokens arrive. Guard against scheduling in
                // the past due to float rounding.
                self.timers
                    .push(at.max(self.now), NetTimer::Egress { node });
            }
            StartDecision::Start(msg) => {
                let ser = self.shapers[node.0 as usize].serialize_time(msg.bytes);
                self.shapers[node.0 as usize].busy_until = self.now + ser;
                let jitter = SimDuration::from_secs_f64(self.jitter.sample(&mut self.rng));
                let land = self.now + ser + self.cfg.base_latency + jitter;
                self.schedule_delivery(land, NodeId(msg.dest), node, msg.token);
                // Re-poll when serialization finishes.
                self.timers.push(self.now + ser, NetTimer::Egress { node });
            }
        }
    }
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("now", &self.now)
            .field("nodes", &self.shapers.len())
            .field("sent", &self.sent)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(n: &mut NetSim) -> Vec<Delivery> {
        while let Some(t) = n.next_timer_at() {
            n.advance_to(t);
        }
        n.drain_deliveries()
    }

    #[test]
    fn message_arrives_with_latency() {
        let mut n = NetSim::new(NetConfig::default(), 2, 1);
        n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1024,
            TrafficClass::High,
            42,
        );
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to, NodeId(1));
        assert_eq!(d[0].from, NodeId(0));
        // At least the base latency, at most a few hundred microseconds.
        assert!(d[0].at >= SimTime::from_micros(40));
        assert!(d[0].at < SimTime::from_millis(2), "landed at {}", d[0].at);
    }

    /// A busy NIC is re-polled once, by the `Start` that made it busy: a
    /// burst of k sends from one node must not queue one re-poll per
    /// blocked message on top of it.
    #[test]
    fn burst_queues_one_repoll_not_one_per_message() {
        let mut n = NetSim::new(NetConfig::default(), 2, 8);
        for k in 0..10 {
            n.send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                1024,
                TrafficClass::High,
                k,
            );
        }
        n.advance_to(SimTime::ZERO);
        // The first message's delivery plus the NIC-free re-poll.
        assert_eq!(n.timers.len(), 2);
        // Every message still leaves: jitter may reorder the landings.
        let mut tokens: Vec<u64> = drain_all(&mut n).iter().map(|x| x.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn next_delivery_to_tracks_scheduled_landings() {
        let mut n = NetSim::new(NetConfig::default(), 3, 9);
        n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1024,
            TrafficClass::High,
            1,
        );
        n.send(
            SimTime::ZERO,
            NodeId(2),
            NodeId(1),
            1024,
            TrafficClass::High,
            2,
        );
        n.send(
            SimTime::ZERO,
            NodeId(2),
            NodeId(2),
            1024,
            TrafficClass::High,
            3,
        );
        // Only the loopback is scheduled before the enqueues run.
        assert_eq!(n.next_delivery_to(NodeId(1)), None);
        assert_eq!(n.next_delivery_to(NodeId(2)), Some(SimTime::from_micros(2)));
        n.advance_to(SimTime::ZERO);
        let first = n
            .next_delivery_to(NodeId(1))
            .expect("two landings scheduled");
        assert!(first >= SimTime::ZERO + n.config().base_latency);
        n.advance_to(first);
        let mut got = Vec::new();
        n.drain_deliveries_into(&mut got);
        assert!(got.iter().all(|d| d.at <= first));
        let second = n.next_delivery_to(NodeId(1)).expect("one landing left");
        assert!(second >= first);
        let rest = drain_all(&mut n);
        assert_eq!(got.len() + rest.len(), 3);
        assert_eq!(n.next_delivery_to(NodeId(1)), None);
        assert_eq!(n.next_delivery_to(NodeId(2)), None);
    }

    #[test]
    fn loopback_is_fast() {
        let mut n = NetSim::new(NetConfig::default(), 1, 2);
        n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(0),
            1 << 20,
            TrafficClass::Low,
            1,
        );
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 1);
        assert!(d[0].at <= SimTime::from_micros(2));
    }

    #[test]
    fn messages_to_distinct_destinations_route_correctly() {
        let mut n = NetSim::new(NetConfig::default(), 4, 3);
        for dest in 1..4u32 {
            n.send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(dest),
                512,
                TrafficClass::High,
                dest as u64,
            );
        }
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 3);
        for del in d {
            assert_eq!(del.to.0 as u64, del.token, "token must match destination");
        }
    }

    #[test]
    fn high_traffic_jumps_low_queue() {
        let mut n = NetSim::new(NetConfig::default(), 3, 4);
        // A large low-priority transfer first, then a small high-priority one.
        n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            10 << 20,
            TrafficClass::Low,
            1,
        );
        n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(2),
            1 << 10,
            TrafficClass::High,
            2,
        );
        let d = drain_all(&mut n);
        // The low transfer started serializing first (NIC was free), but a
        // second low message would have lost. Verify ordering by arrival.
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn egress_cap_throttles_low_class() {
        let mut n = NetSim::new(NetConfig::default(), 2, 5);
        n.set_node_low_rate(SimTime::ZERO, NodeId(0), Some(1 << 20)); // 1 MB/s
                                                                      // 20 x 100 KB = 2 MB of low traffic: needs ~2 seconds at 1 MB/s.
        for i in 0..20 {
            n.send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                100 << 10,
                TrafficClass::Low,
                i,
            );
        }
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 20);
        let last = d.iter().map(|x| x.at).max().unwrap();
        let secs = last.as_secs_f64();
        assert!(secs > 1.5 && secs < 2.6, "took {secs}s");
    }

    #[test]
    fn high_class_unaffected_by_cap() {
        let mut n = NetSim::new(NetConfig::default(), 2, 6);
        n.set_node_low_rate(SimTime::ZERO, NodeId(0), Some(1024));
        for i in 0..10 {
            n.send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                10 << 10,
                TrafficClass::High,
                i,
            );
        }
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 10);
        let last = d.iter().map(|x| x.at).max().unwrap();
        assert!(last < SimTime::from_millis(5), "took {last}");
    }

    #[test]
    fn serialization_orders_same_class_fifo() {
        let mut n = NetSim::new(NetConfig::default(), 2, 7);
        for i in 0..5 {
            n.send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                1 << 20,
                TrafficClass::High,
                i,
            );
        }
        let d = drain_all(&mut n);
        // Jitter could reorder landings slightly, but serialization start
        // order is FIFO; with 1 MB messages (~840us each) the order holds.
        let tokens: Vec<u64> = d.iter().map(|x| x.token).collect();
        assert_eq!(tokens, vec![0, 1, 2, 3, 4]);
    }
}
