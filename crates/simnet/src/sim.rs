//! The network simulator: nodes, messages, deliveries.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use simcore::{dist::Exp, dist::Sample, EventQueue, SimDuration, SimRng, SimTime};

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

/// A message waiting for its source node's NIC.
#[derive(Clone, Copy, Debug)]
struct Queued {
    bytes: u64,
    to: NodeId,
    token: u64,
}

/// One node's NIC: it serializes one message at a time, in send order.
#[derive(Debug, Default)]
struct Nic {
    queue: VecDeque<Queued>,
    /// The NIC is serializing until this instant.
    busy_until: SimTime,
}

#[derive(Debug)]
enum NetTimer {
    /// A message joins its source node's NIC queue.
    Enqueue { from: NodeId, msg: Queued },
    /// Re-poll a node's NIC queue.
    Pump { node: NodeId },
    /// A message lands at its destination.
    Deliver {
        to: NodeId,
        from: NodeId,
        token: u64,
    },
}

/// A full-bisection datacenter fabric with one FIFO NIC per node.
///
/// # Examples
///
/// ```
/// use simcore::SimTime;
/// use simnet::{NetConfig, NetSim, NodeId};
///
/// let mut n = NetSim::new(NetConfig::default(), 2, 99);
/// n.send(SimTime::ZERO, NodeId(0), NodeId(1), 2048, 7);
/// while let Some(t) = n.next_timer_at() {
///     n.advance_to(t);
/// }
/// let mut d = Vec::new();
/// n.drain_deliveries_into(&mut d);
/// assert_eq!(d.len(), 1);
/// assert_eq!(d[0].token, 7);
/// ```
pub struct NetSim {
    cfg: NetConfig,
    now: SimTime,
    nics: Vec<Nic>,
    timers: EventQueue<NetTimer>,
    /// Per destination node, the landing times of its scheduled
    /// `Deliver` timers (earliest on top).
    inbound: Vec<BinaryHeap<Reverse<SimTime>>>,
    deliveries: Vec<Delivery>,
    jitter: Exp,
    rng: SimRng,
}

impl NetSim {
    /// Creates a fabric with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nic_bandwidth` is zero.
    pub fn new(cfg: NetConfig, nodes: u32, seed: u64) -> Self {
        assert!(cfg.nic_bandwidth > 0, "bandwidth must be positive");
        NetSim {
            cfg,
            now: SimTime::ZERO,
            nics: (0..nodes).map(|_| Nic::default()).collect(),
            timers: EventQueue::with_capacity(256),
            inbound: (0..nodes).map(|_| BinaryHeap::new()).collect(),
            deliveries: Vec::new(),
            jitter: Exp::from_mean(cfg.jitter_mean.as_secs_f64().max(1e-9)),
            rng: SimRng::seed_from_u64(seed),
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

    /// Sends `bytes` from `from` to `to` at time `at` (which may be in the
    /// future); the delivery echoes `token`.
    ///
    /// Scheduling-only: internal time does not advance until
    /// [`NetSim::advance_to`], so drivers may interleave sends freely with
    /// other components.
    pub fn send(&mut self, at: SimTime, from: NodeId, to: NodeId, bytes: u64, token: u64) {
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
                msg: Queued { bytes, to, token },
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
                    self.nics[from.0 as usize].queue.push_back(msg);
                    self.pump(from);
                }
                NetTimer::Pump { node } => self.pump(node),
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

    /// Serialization time of `bytes` on one NIC.
    fn serialize_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.cfg.nic_bandwidth as f64)
    }

    /// Starts serializing the next queued message on `node`, if its NIC is
    /// free.
    fn pump(&mut self, node: NodeId) {
        let nic = &mut self.nics[node.0 as usize];
        // A busy NIC needs no re-poll of its own: the message that made it
        // busy already queued one at the instant it frees.
        if nic.busy_until > self.now {
            return;
        }
        let Some(msg) = nic.queue.pop_front() else {
            return;
        };
        let ser = self.serialize_time(msg.bytes);
        self.nics[node.0 as usize].busy_until = self.now + ser;
        let jitter = SimDuration::from_secs_f64(self.jitter.sample(&mut self.rng));
        let land = self.now + ser + self.cfg.base_latency + jitter;
        self.schedule_delivery(land, msg.to, node, msg.token);
        // Re-poll when serialization finishes.
        self.timers.push(self.now + ser, NetTimer::Pump { node });
    }
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("now", &self.now)
            .field("nodes", &self.nics.len())
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
        let mut d = Vec::new();
        n.drain_deliveries_into(&mut d);
        d
    }

    #[test]
    fn message_arrives_with_latency() {
        let mut n = NetSim::new(NetConfig::default(), 2, 1);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1024, 42);
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to, NodeId(1));
        assert_eq!(d[0].from, NodeId(0));
        // At least the base latency, at most a few hundred microseconds.
        assert!(d[0].at >= SimTime::from_micros(40));
        assert!(d[0].at < SimTime::from_millis(2), "landed at {}", d[0].at);
    }

    #[test]
    fn serialization_time_scales() {
        let n = NetSim::new(NetConfig::default(), 1, 0);
        assert_eq!(n.serialize_time(1_250_000), SimDuration::from_millis(1));
    }

    /// A NIC serializes one message at a time: a send queued behind a
    /// busy NIC starts when the NIC frees, not before.
    #[test]
    fn busy_nic_starts_nothing_until_free() {
        let mut n = NetSim::new(NetConfig::default(), 2, 10);
        // 1.25 MB keeps a 10 GbE NIC busy for exactly 1 ms.
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_250_000, 1);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10, 2);
        n.advance_to(SimTime::from_micros(999));
        assert_eq!(n.nics[0].queue.len(), 1, "second message still queued");
        n.advance_to(SimTime::from_millis(1));
        assert!(n.nics[0].queue.is_empty(), "second message on the wire");
        let d = drain_all(&mut n);
        let second = d.iter().find(|x| x.token == 2).expect("delivered");
        assert!(second.at >= SimTime::from_millis(1) + n.config().base_latency);
    }

    /// A busy NIC is re-polled once, by the message that made it busy: a
    /// burst of k sends from one node must not queue one re-poll per
    /// blocked message on top of it.
    #[test]
    fn burst_queues_one_repoll_not_one_per_message() {
        let mut n = NetSim::new(NetConfig::default(), 2, 8);
        for k in 0..10 {
            n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1024, k);
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
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1024, 1);
        n.send(SimTime::ZERO, NodeId(2), NodeId(1), 1024, 2);
        n.send(SimTime::ZERO, NodeId(2), NodeId(2), 1024, 3);
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
        n.send(SimTime::ZERO, NodeId(0), NodeId(0), 1 << 20, 1);
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 1);
        assert!(d[0].at <= SimTime::from_micros(2));
    }

    #[test]
    fn messages_to_distinct_destinations_route_correctly() {
        let mut n = NetSim::new(NetConfig::default(), 4, 3);
        for dest in 1..4u32 {
            n.send(SimTime::ZERO, NodeId(0), NodeId(dest), 512, dest as u64);
        }
        let d = drain_all(&mut n);
        assert_eq!(d.len(), 3);
        for del in d {
            assert_eq!(del.to.0 as u64, del.token, "token must match destination");
        }
    }

    #[test]
    fn serialization_orders_same_class_fifo() {
        let mut n = NetSim::new(NetConfig::default(), 2, 7);
        for i in 0..5 {
            n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 20, i);
        }
        let d = drain_all(&mut n);
        // Jitter could reorder landings slightly, but serialization start
        // order is FIFO; with 1 MB messages (~840us each) the order holds.
        let tokens: Vec<u64> = d.iter().map(|x| x.token).collect();
        assert_eq!(tokens, vec![0, 1, 2, 3, 4]);
    }
}
