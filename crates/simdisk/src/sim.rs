//! The disk simulator: volumes, queues, priorities, limits, completions.

use std::collections::VecDeque;

use simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::bucket::TokenBucket;
use crate::device::DeviceSpec;
use crate::request::{
    AccessPattern, IoCompletion, IoKind, IoPriority, OwnerId, PendingIo, VolumeId,
};
use crate::window::WindowCounter;

/// A static per-owner rate limit (either or both dimensions).
#[derive(Clone, Copy, Debug, Default)]
pub struct RateLimit {
    /// Bandwidth cap in bytes/second.
    pub bytes_per_sec: Option<u64>,
    /// Operation cap in IOPS.
    pub iops: Option<u64>,
}

impl RateLimit {
    /// A bandwidth-only limit.
    pub fn bandwidth(bytes_per_sec: u64) -> Self {
        RateLimit {
            bytes_per_sec: Some(bytes_per_sec),
            iops: None,
        }
    }

    /// An IOPS-only limit.
    pub fn iops(iops: u64) -> Self {
        RateLimit {
            bytes_per_sec: None,
            iops: Some(iops),
        }
    }
}

/// Specification of a striped volume.
#[derive(Clone, Debug)]
pub struct VolumeSpec {
    /// Human-readable name ("ssd-index", "hdd-batch").
    pub name: String,
    /// The devices in the stripe set.
    pub devices: Vec<DeviceSpec>,
}

impl VolumeSpec {
    /// The paper's primary volume: 4 × 500 GB SSD striped.
    pub fn paper_ssd_volume() -> Self {
        VolumeSpec {
            name: "ssd-index".into(),
            devices: vec![DeviceSpec::datacenter_ssd(); 4],
        }
    }

    /// The paper's shared batch volume: 4 × 2 TB HDD striped.
    pub fn paper_hdd_volume() -> Self {
        VolumeSpec {
            name: "hdd-batch".into(),
            devices: vec![DeviceSpec::datacenter_hdd(); 4],
        }
    }
}

/// Windowed and lifetime statistics for one owner.
#[derive(Clone, Copy, Debug)]
pub struct OwnerIoStats {
    /// Completed operations per second over the moving window.
    pub window_iops: f64,
    /// Completed bytes per second over the moving window.
    pub window_bytes_per_sec: f64,
    /// Total completed operations.
    pub total_ops: u64,
    /// Total completed bytes.
    pub total_bytes: u64,
    /// Current priority.
    pub priority: IoPriority,
}

struct OwnerState {
    priority: IoPriority,
    bytes_bucket: Option<TokenBucket>,
    iops_bucket: Option<TokenBucket>,
    window_ops: WindowCounter,
    window_bytes: WindowCounter,
    total_ops: u64,
    total_bytes: u64,
}

struct DeviceState {
    spec: DeviceSpec,
    busy: u32,
}

struct Volume {
    devices: Vec<DeviceState>,
    queue: VecDeque<PendingIo>,
    next_rr: usize,
    window_ops: WindowCounter,
    recheck_at: Option<SimTime>,
}

impl Volume {
    /// Disk timers the volume keeps pending: one service completion per
    /// busy channel plus a token recheck.
    fn timer_cells(&self) -> usize {
        let channels: u32 = self.devices.iter().map(|d| d.spec.channels()).sum();
        channels as usize + 1
    }
}

#[derive(Debug)]
enum DiskTimer {
    ServiceDone {
        volume: VolumeId,
        device: usize,
        owner: OwnerId,
        token: u64,
        bytes: u64,
        submitted: SimTime,
    },
    Recheck {
        volume: VolumeId,
    },
}

/// The disk subsystem of one machine.
///
/// Drivers submit requests with an opaque token and receive
/// [`IoCompletion`]s; PerfIso adjusts owner priorities and rate limits.
///
/// # Examples
///
/// ```
/// use simcore::SimTime;
/// use simdisk::{AccessPattern, DiskSim, IoKind, IoPriority, VolumeSpec};
///
/// let mut d = DiskSim::new(42);
/// let vol = d.add_volume(VolumeSpec::paper_ssd_volume());
/// let owner = d.register_owner(IoPriority::HIGH);
/// d.submit(SimTime::ZERO, vol, owner, IoKind::Read, 32 * 1024, AccessPattern::Random, 7);
/// while let Some(t) = d.next_timer_at() {
///     d.advance_to(t);
/// }
/// let mut done = Vec::new();
/// d.drain_completions_into(&mut done);
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].token, 7);
/// ```
pub struct DiskSim {
    now: SimTime,
    volumes: Vec<Volume>,
    owners: Vec<OwnerState>,
    timers: EventQueue<DiskTimer>,
    completions: Vec<IoCompletion>,
    rng: SimRng,
}

const STAT_BUCKET: SimDuration = SimDuration::from_millis(100);
const STAT_BUCKETS: usize = 10;

impl DiskSim {
    /// Creates an empty disk subsystem.
    pub fn new(seed: u64) -> Self {
        DiskSim {
            now: SimTime::ZERO,
            volumes: Vec::new(),
            owners: Vec::new(),
            timers: EventQueue::new(),
            completions: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Adds a striped volume.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no devices.
    pub fn add_volume(&mut self, spec: VolumeSpec) -> VolumeId {
        assert!(!spec.devices.is_empty(), "volume needs at least one device");
        let id = VolumeId(self.volumes.len() as u32);
        self.volumes.push(Volume {
            devices: spec
                .devices
                .iter()
                .map(|&s| DeviceState { spec: s, busy: 0 })
                .collect(),
            queue: VecDeque::new(),
            next_rr: 0,
            window_ops: WindowCounter::new(STAT_BUCKET, STAT_BUCKETS),
            recheck_at: None,
        });
        // The volumes' channels bound the timers pending at once.
        let cells = self.volumes.iter().map(Volume::timer_cells).sum();
        self.timers.reserve_total(cells);
        id
    }

    /// Registers an I/O owner (process) with an initial priority.
    pub fn register_owner(&mut self, priority: IoPriority) -> OwnerId {
        let id = OwnerId(self.owners.len() as u32);
        self.owners.push(OwnerState {
            priority,
            bytes_bucket: None,
            iops_bucket: None,
            window_ops: WindowCounter::new(STAT_BUCKET, STAT_BUCKETS),
            window_bytes: WindowCounter::new(STAT_BUCKET, STAT_BUCKETS),
            total_ops: 0,
            total_bytes: 0,
        });
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets an owner's service priority (the DWRR actuator).
    pub fn set_owner_priority(&mut self, owner: OwnerId, priority: IoPriority) {
        self.owners[owner.0 as usize].priority = priority;
    }

    /// The owner's current priority.
    pub fn owner_priority(&self, owner: OwnerId) -> IoPriority {
        self.owners[owner.0 as usize].priority
    }

    /// Installs (or clears) a static rate limit on an owner.
    pub fn set_owner_limit(&mut self, now: SimTime, owner: OwnerId, limit: Option<RateLimit>) {
        self.advance_to(now);
        let o = &mut self.owners[owner.0 as usize];
        match limit {
            None => {
                o.bytes_bucket = None;
                o.iops_bucket = None;
            }
            Some(l) => {
                o.bytes_bucket = l.bytes_per_sec.map(|r| {
                    // Burst: 100ms worth of bandwidth.
                    TokenBucket::new(r as f64, (r as f64 / 10.0).max(1.0), now)
                });
                o.iops_bucket = l
                    .iops
                    .map(|r| TokenBucket::new(r as f64, (r as f64 / 10.0).max(1.0), now));
            }
        }
    }

    /// Submits a request; the completion will echo `token`.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        now: SimTime,
        volume: VolumeId,
        owner: OwnerId,
        kind: IoKind,
        bytes: u64,
        access: AccessPattern,
        token: u64,
    ) {
        self.advance_to(now);
        self.volumes[volume.0 as usize].queue.push_back(PendingIo {
            owner,
            kind,
            bytes,
            access,
            token,
            submitted: now,
        });
        self.pump(volume);
    }

    /// Statistics for one owner as of `now`.
    pub fn owner_stats(&mut self, now: SimTime, owner: OwnerId) -> OwnerIoStats {
        self.advance_to(now);
        let o = &mut self.owners[owner.0 as usize];
        OwnerIoStats {
            window_iops: o.window_ops.rate_per_sec(now),
            window_bytes_per_sec: o.window_bytes.rate_per_sec(now),
            total_ops: o.total_ops,
            total_bytes: o.total_bytes,
            priority: o.priority,
        }
    }

    /// Completed operations per second on a volume (per-drive aggregate) —
    /// the per-device monitoring granularity the paper describes.
    pub fn volume_iops(&mut self, now: SimTime, volume: VolumeId) -> f64 {
        self.advance_to(now);
        self.volumes[volume.0 as usize].window_ops.rate_per_sec(now)
    }

    /// Number of queued (not yet dispatched) requests on a volume.
    pub fn queue_depth(&self, volume: VolumeId) -> usize {
        self.volumes[volume.0 as usize].queue.len()
    }

    /// Time of the next internal event, if any.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.timers.peek_time()
    }

    /// Moves all pending completions into `buf` (appending), keeping the
    /// internal buffer's capacity for reuse on the hot path.
    pub fn drain_completions_into(&mut self, buf: &mut Vec<IoCompletion>) {
        buf.append(&mut self.completions);
    }

    /// True when completions are pending.
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// Advances virtual time, processing due timers.
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
            self.now = at;
            match timer {
                DiskTimer::ServiceDone {
                    volume,
                    device,
                    owner,
                    token,
                    bytes,
                    submitted,
                } => {
                    self.on_service_done(volume, device, owner, token, bytes, submitted);
                }
                DiskTimer::Recheck { volume } => {
                    self.volumes[volume.0 as usize].recheck_at = None;
                    self.pump(volume);
                }
            }
        }
        self.now = t;
    }

    fn on_service_done(
        &mut self,
        volume: VolumeId,
        device: usize,
        owner: OwnerId,
        token: u64,
        bytes: u64,
        submitted: SimTime,
    ) {
        let now = self.now;
        self.volumes[volume.0 as usize].devices[device].busy -= 1;
        self.volumes[volume.0 as usize].window_ops.add(now, 1.0);
        {
            let o = &mut self.owners[owner.0 as usize];
            o.window_ops.add(now, 1.0);
            o.window_bytes.add(now, bytes as f64);
            o.total_ops += 1;
            o.total_bytes += bytes;
        }
        self.completions.push(IoCompletion {
            owner,
            token,
            at: now,
            latency: now.since(submitted),
        });
        self.pump(volume);
    }

    /// Returns the queue index of the best dispatchable request: highest
    /// priority first, FIFO within a priority, token buckets permitting.
    /// Also returns the earliest token-availability time over blocked
    /// requests for recheck scheduling.
    fn pick_next(&mut self, volume: VolumeId) -> (Option<usize>, Option<SimTime>) {
        let now = self.now;
        let mut best: Option<(IoPriority, usize)> = None;
        let mut earliest_ready: Option<SimTime> = None;
        // Split borrows: the queue is iterated while owner buckets mutate.
        let queue = std::mem::take(&mut self.volumes[volume.0 as usize].queue);
        for (i, req) in queue.iter().enumerate() {
            let o = &mut self.owners[req.owner.0 as usize];
            let mut wait = SimDuration::ZERO;
            if let Some(b) = o.iops_bucket.as_mut() {
                wait = wait.max(b.time_until(1.0, now));
            }
            if let Some(b) = o.bytes_bucket.as_mut() {
                wait = wait.max(b.time_until(req.bytes as f64, now));
            }
            if wait.is_zero() {
                let prio = o.priority;
                match best {
                    Some((bp, _)) if bp >= prio => {}
                    _ => best = Some((prio, i)),
                }
            } else {
                let ready = now + wait;
                earliest_ready = Some(earliest_ready.map_or(ready, |e: SimTime| e.min(ready)));
            }
        }
        self.volumes[volume.0 as usize].queue = queue;
        (best.map(|(_, i)| i), earliest_ready)
    }

    /// Dispatches queued requests onto free device channels.
    fn pump(&mut self, volume: VolumeId) {
        loop {
            let vi = volume.0 as usize;
            // Find a device with a free channel, round-robin.
            let n = self.volumes[vi].devices.len();
            let mut device = None;
            for k in 0..n {
                let idx = (self.volumes[vi].next_rr + k) % n;
                let d = &self.volumes[vi].devices[idx];
                if d.busy < d.spec.channels() {
                    device = Some(idx);
                    break;
                }
            }
            let Some(device) = device else { return };
            let (pick, earliest_ready) = self.pick_next(volume);
            match pick {
                None => {
                    // Nothing dispatchable; schedule a recheck if requests
                    // are waiting on tokens.
                    if let Some(ready) = earliest_ready {
                        let v = &mut self.volumes[vi];
                        if v.recheck_at.is_none_or(|at| at > ready) {
                            v.recheck_at = Some(ready);
                            self.timers.push(ready, DiskTimer::Recheck { volume });
                        }
                    }
                    return;
                }
                Some(i) => {
                    let req = self.volumes[vi].queue.remove(i).expect("picked index");
                    // Consume tokens (overdraw allowed for oversized requests).
                    let now = self.now;
                    {
                        let o = &mut self.owners[req.owner.0 as usize];
                        if let Some(b) = o.iops_bucket.as_mut() {
                            b.consume_saturating(1.0, now);
                        }
                        if let Some(b) = o.bytes_bucket.as_mut() {
                            b.consume_saturating(req.bytes as f64, now);
                        }
                    }
                    let service = {
                        let spec = self.volumes[vi].devices[device].spec;
                        spec.service_time(req.kind, req.access, req.bytes, &mut self.rng)
                    };
                    self.volumes[vi].devices[device].busy += 1;
                    self.volumes[vi].next_rr = (device + 1) % n;
                    self.timers.push(
                        self.now + service,
                        DiskTimer::ServiceDone {
                            volume,
                            device,
                            owner: req.owner,
                            token: req.token,
                            bytes: req.bytes,
                            submitted: req.submitted,
                        },
                    );
                }
            }
        }
    }
}

impl std::fmt::Debug for DiskSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskSim")
            .field("now", &self.now)
            .field("volumes", &self.volumes.len())
            .field("owners", &self.owners.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(d: &mut DiskSim) -> Vec<IoCompletion> {
        while let Some(t) = d.next_timer_at() {
            d.advance_to(t);
        }
        let mut done = Vec::new();
        d.drain_completions_into(&mut done);
        done
    }

    #[test]
    fn single_read_completes() {
        let mut d = DiskSim::new(1);
        let vol = d.add_volume(VolumeSpec::paper_ssd_volume());
        let o = d.register_owner(IoPriority::HIGH);
        d.submit(
            SimTime::ZERO,
            vol,
            o,
            IoKind::Read,
            32 << 10,
            AccessPattern::Random,
            5,
        );
        let done = drain_all(&mut d);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 5);
        assert!(done[0].latency < SimDuration::from_millis(1));
    }

    #[test]
    fn striping_parallelises() {
        // 8 random HDD reads on a 4-disk stripe finish ~4x faster than on 1.
        let mut one = DiskSim::new(2);
        let v1 = one.add_volume(VolumeSpec {
            name: "hdd1".into(),
            devices: vec![DeviceSpec::datacenter_hdd()],
        });
        let o1 = one.register_owner(IoPriority::LOW);
        let mut four = DiskSim::new(2);
        let v4 = four.add_volume(VolumeSpec::paper_hdd_volume());
        let o4 = four.register_owner(IoPriority::LOW);
        for i in 0..8 {
            one.submit(
                SimTime::ZERO,
                v1,
                o1,
                IoKind::Read,
                8 << 10,
                AccessPattern::Random,
                i,
            );
            four.submit(
                SimTime::ZERO,
                v4,
                o4,
                IoKind::Read,
                8 << 10,
                AccessPattern::Random,
                i,
            );
        }
        let d1 = drain_all(&mut one);
        let d4 = drain_all(&mut four);
        let t1 = d1.iter().map(|c| c.at).max().unwrap();
        let t4 = d4.iter().map(|c| c.at).max().unwrap();
        assert!(
            t4.as_nanos() * 2 < t1.as_nanos(),
            "stripe {t4:?} must be much faster than single {t1:?}"
        );
    }

    #[test]
    fn priority_order_under_contention() {
        let mut d = DiskSim::new(3);
        let vol = d.add_volume(VolumeSpec {
            name: "hdd1".into(),
            devices: vec![DeviceSpec::datacenter_hdd()],
        });
        let low = d.register_owner(IoPriority::LOW);
        let high = d.register_owner(IoPriority::HIGH);
        // Fill the single channel, then queue low- and high-priority requests.
        d.submit(
            SimTime::ZERO,
            vol,
            low,
            IoKind::Read,
            8 << 10,
            AccessPattern::Random,
            0,
        );
        for i in 1..=3 {
            d.submit(
                SimTime::ZERO,
                vol,
                low,
                IoKind::Read,
                8 << 10,
                AccessPattern::Random,
                i,
            );
        }
        d.submit(
            SimTime::ZERO,
            vol,
            high,
            IoKind::Read,
            8 << 10,
            AccessPattern::Random,
            100,
        );
        let done = drain_all(&mut d);
        let order: Vec<u64> = done.iter().map(|c| c.token).collect();
        // The high-priority request jumps the queue (after the in-service one).
        assert_eq!(order[1], 100, "order {order:?}");
    }

    #[test]
    fn bandwidth_limit_enforced() {
        let mut d = DiskSim::new(4);
        let vol = d.add_volume(VolumeSpec::paper_hdd_volume());
        let o = d.register_owner(IoPriority::LOW);
        // 10 MB/s cap; submit 100 x 1 MB sequential writes = 100 MB.
        d.set_owner_limit(SimTime::ZERO, o, Some(RateLimit::bandwidth(10 << 20)));
        for i in 0..100 {
            d.submit(
                SimTime::ZERO,
                vol,
                o,
                IoKind::Write,
                1 << 20,
                AccessPattern::Sequential,
                i,
            );
        }
        let done = drain_all(&mut d);
        assert_eq!(done.len(), 100);
        let finish = done.iter().map(|c| c.at).max().unwrap();
        // 100 MB at 10 MB/s is ~10s (burst advances it slightly).
        let secs = finish.as_secs_f64();
        assert!(secs > 8.5 && secs < 11.5, "took {secs}s");
    }

    #[test]
    fn iops_limit_enforced() {
        let mut d = DiskSim::new(5);
        let vol = d.add_volume(VolumeSpec::paper_ssd_volume());
        let o = d.register_owner(IoPriority::LOW);
        d.set_owner_limit(SimTime::ZERO, o, Some(RateLimit::iops(20)));
        for i in 0..40 {
            d.submit(
                SimTime::ZERO,
                vol,
                o,
                IoKind::Read,
                8 << 10,
                AccessPattern::Random,
                i,
            );
        }
        let done = drain_all(&mut d);
        let finish = done.iter().map(|c| c.at).max().unwrap();
        let secs = finish.as_secs_f64();
        assert!(secs > 1.6 && secs < 2.5, "40 ops at 20 IOPS took {secs}s");
    }

    #[test]
    fn unlimited_owner_is_not_throttled() {
        let mut d = DiskSim::new(6);
        let vol = d.add_volume(VolumeSpec::paper_ssd_volume());
        let o = d.register_owner(IoPriority::HIGH);
        for i in 0..32 {
            d.submit(
                SimTime::ZERO,
                vol,
                o,
                IoKind::Read,
                8 << 10,
                AccessPattern::Random,
                i,
            );
        }
        let done = drain_all(&mut d);
        let finish = done.iter().map(|c| c.at).max().unwrap();
        assert!(finish < SimTime::from_millis(5), "finished at {finish}");
    }

    #[test]
    fn stats_track_completions() {
        let mut d = DiskSim::new(7);
        let vol = d.add_volume(VolumeSpec::paper_ssd_volume());
        let o = d.register_owner(IoPriority::HIGH);
        for i in 0..10 {
            d.submit(
                SimTime::from_millis(i * 10),
                vol,
                o,
                IoKind::Read,
                64 << 10,
                AccessPattern::Random,
                i,
            );
        }
        while let Some(t) = d.next_timer_at() {
            d.advance_to(t);
        }
        let now = d.now();
        let s = d.owner_stats(now, o);
        assert_eq!(s.total_ops, 10);
        assert_eq!(s.total_bytes, 10 * (64 << 10));
        assert!(s.window_iops > 0.0);
        assert!(d.volume_iops(now, vol) > 0.0);
    }

    #[test]
    fn clearing_limit_restores_throughput() {
        let mut d = DiskSim::new(8);
        let vol = d.add_volume(VolumeSpec::paper_ssd_volume());
        let o = d.register_owner(IoPriority::LOW);
        d.set_owner_limit(SimTime::ZERO, o, Some(RateLimit::iops(1)));
        d.set_owner_limit(SimTime::ZERO, o, None);
        for i in 0..16 {
            d.submit(
                SimTime::ZERO,
                vol,
                o,
                IoKind::Read,
                8 << 10,
                AccessPattern::Random,
                i,
            );
        }
        let done = drain_all(&mut d);
        let finish = done.iter().map(|c| c.at).max().unwrap();
        assert!(finish < SimTime::from_millis(5));
    }

    #[test]
    fn queue_depth_visible() {
        let mut d = DiskSim::new(9);
        let vol = d.add_volume(VolumeSpec {
            name: "hdd1".into(),
            devices: vec![DeviceSpec::datacenter_hdd()],
        });
        let o = d.register_owner(IoPriority::LOW);
        for i in 0..5 {
            d.submit(
                SimTime::ZERO,
                vol,
                o,
                IoKind::Read,
                8 << 10,
                AccessPattern::Random,
                i,
            );
        }
        // One in service, four queued.
        assert_eq!(d.queue_depth(vol), 4);
    }
}
