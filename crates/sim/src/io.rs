//! Storage device model.
//!
//! A [`Device`] services read requests in FIFO order, one at a time
//! (eMMC-class devices have effectively one channel; this is also the
//! conservative model for boot-time queueing). Each request costs a fixed
//! per-request latency plus `bytes / bandwidth(pattern)` transfer time.
//!
//! Bandwidth figures for the profiles used in experiments come straight
//! from the paper's §4: the UE48H6200 eMMC reads 117 MiB/s sequential and
//! 37 MiB/s random; a Samsung 850 Evo SSD 515/379 MiB/s; a Barracuda HDD
//! 165/65 MB/s.

use std::collections::BTreeMap;

use crate::ids::{DeviceId, Pid};
use crate::process::AccessPattern;
use crate::time::{SimDuration, SimTime};

/// One mebibyte, for bandwidth conversions.
pub const MIB: u64 = 1024 * 1024;

/// I/O scheduling priority of a request (the init scheme's
/// `IOSchedulingClass=` knob, set via `ioprio_set`, §2.5).
///
/// Lower values are served first; within a class, FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum IoPriority {
    /// Preferential service (`realtime`).
    Realtime,
    /// Kernel default (`best-effort`).
    #[default]
    BestEffort,
    /// Served only when nothing else is queued (`idle`).
    Idle,
}

/// Static performance parameters of a storage device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Sequential read bandwidth in bytes per second.
    pub seq_read_bps: u64,
    /// Random read bandwidth in bytes per second.
    pub rand_read_bps: u64,
    /// Fixed latency charged per request (command issue + seek).
    pub request_latency: SimDuration,
}

impl DeviceProfile {
    /// Creates a profile from MiB/s figures and a per-request latency.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is zero.
    pub fn from_mibs(seq_mibs: u64, rand_mibs: u64, request_latency: SimDuration) -> Self {
        assert!(seq_mibs > 0 && rand_mibs > 0, "bandwidth must be nonzero");
        DeviceProfile {
            seq_read_bps: seq_mibs * MIB,
            rand_read_bps: rand_mibs * MIB,
            request_latency,
        }
    }

    /// The eMMC of the Samsung UE48H6200 TV (117/37 MiB/s, §4).
    pub fn tv_emmc() -> Self {
        Self::from_mibs(117, 37, SimDuration::from_micros(150))
    }

    /// A consumer SSD (Samsung 850 Evo class, 515/379 MiB/s, §4).
    pub fn consumer_ssd() -> Self {
        Self::from_mibs(515, 379, SimDuration::from_micros(60))
    }

    /// A consumer HDD (Seagate Barracuda class, ~157/62 MiB/s, §4; the
    /// paper quotes 165/65 MB/s which is 157/62 MiB/s).
    pub fn consumer_hdd() -> Self {
        DeviceProfile {
            seq_read_bps: 165_000_000,
            rand_read_bps: 65_000_000,
            request_latency: SimDuration::from_millis(4),
        }
    }

    /// UFS 2.0 flash of a Galaxy-S6-class phone (~300 MiB/s sequential,
    /// §2.1).
    pub fn ufs20() -> Self {
        Self::from_mibs(300, 120, SimDuration::from_micros(80))
    }

    /// Pure transfer + latency cost of a read with this profile.
    pub fn service_time(&self, bytes: u64, pattern: AccessPattern) -> SimDuration {
        let bps = match pattern {
            AccessPattern::Sequential => self.seq_read_bps,
            AccessPattern::Random => self.rand_read_bps,
        };
        let transfer_ns = (bytes as u128)
            .saturating_mul(1_000_000_000)
            .div_ceil(bps as u128);
        self.request_latency + SimDuration::from_nanos(transfer_ns.min(u64::MAX as u128) as u64)
    }
}

/// A pending read request.
#[derive(Debug, Clone, Copy)]
pub struct IoRequest {
    /// Process to wake when the request completes.
    pub pid: Pid,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Scheduling class.
    pub priority: IoPriority,
    /// When the request was submitted (for queueing-delay stats).
    pub submitted_at: SimTime,
}

/// A storage device instance with a priority request queue (requests
/// are serviced one at a time: highest class first, FIFO within a
/// class; the in-flight request is never preempted).
#[derive(Debug)]
pub struct Device {
    /// This device's id.
    pub id: DeviceId,
    /// Human-readable name (for traces).
    pub name: String,
    /// Performance parameters.
    pub profile: DeviceProfile,
    /// Waiting requests keyed by (class, submission sequence).
    pub(crate) queue: BTreeMap<(IoPriority, u64), IoRequest>,
    pub(crate) next_seq: u64,
    pub(crate) in_flight: Option<IoRequest>,
    pub(crate) busy_until: Option<SimTime>,
    /// Total bytes read, for reports.
    pub bytes_read: u64,
    /// Total time requests spent queued before service, for reports.
    pub total_queue_delay: SimDuration,
}

impl Device {
    /// Creates an idle device.
    pub fn new(id: DeviceId, name: impl Into<String>, profile: DeviceProfile) -> Self {
        Device {
            id,
            name: name.into(),
            profile,
            queue: BTreeMap::new(),
            next_seq: 0,
            in_flight: None,
            busy_until: None,
            bytes_read: 0,
            total_queue_delay: SimDuration::ZERO,
        }
    }

    /// True if a request is in flight.
    #[cfg(test)]
    fn is_busy(&self) -> bool {
        self.busy_until.is_some()
    }

    /// Number of requests waiting or in flight.
    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// Submits a request. Returns the completion time if the device was
    /// idle and service starts immediately; otherwise the request queues
    /// and `None` is returned (the completion event for it will be
    /// scheduled when it is selected).
    pub fn submit(&mut self, req: IoRequest, now: SimTime) -> Option<SimTime> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.insert((req.priority, seq), req);
        if self.busy_until.is_none() {
            Some(self.start_next(now))
        } else {
            None
        }
    }

    /// Completes the in-flight request, returning the finished request and
    /// the completion time of the next one, if any starts.
    ///
    /// # Panics
    ///
    /// Panics if the device is idle; completion events are only scheduled
    /// for busy devices.
    pub fn complete_head(&mut self, now: SimTime) -> (IoRequest, Option<SimTime>) {
        assert!(self.busy_until.is_some(), "completion on idle device");
        let done = self.in_flight.take().expect("busy device has a request");
        self.bytes_read += done.bytes;
        self.busy_until = None;
        let next = if self.queue.is_empty() {
            None
        } else {
            Some(self.start_next(now))
        };
        (done, next)
    }

    fn start_next(&mut self, now: SimTime) -> SimTime {
        let (&key, _) = self
            .queue
            .iter()
            .next()
            .expect("start_next with empty queue");
        let head = self.queue.remove(&key).expect("key exists");
        self.total_queue_delay += now.saturating_since(head.submitted_at);
        let done_at = now + self.profile.service_time(head.bytes, head.pattern);
        self.in_flight = Some(head);
        self.busy_until = Some(done_at);
        done_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(pid: u32, bytes: u64, pattern: AccessPattern, at: SimTime) -> IoRequest {
        req_prio(pid, bytes, pattern, IoPriority::BestEffort, at)
    }

    fn req_prio(
        pid: u32,
        bytes: u64,
        pattern: AccessPattern,
        priority: IoPriority,
        at: SimTime,
    ) -> IoRequest {
        IoRequest {
            pid: Pid::from_raw(pid),
            bytes,
            pattern,
            priority,
            submitted_at: at,
        }
    }

    #[test]
    fn service_time_sequential_vs_random() {
        let p = DeviceProfile::from_mibs(100, 10, SimDuration::ZERO);
        let seq = p.service_time(100 * MIB, AccessPattern::Sequential);
        let rand = p.service_time(100 * MIB, AccessPattern::Random);
        assert_eq!(seq.as_millis(), 1000);
        assert_eq!(rand.as_millis(), 10_000);
    }

    #[test]
    fn request_latency_is_charged() {
        let p = DeviceProfile::from_mibs(100, 100, SimDuration::from_millis(5));
        assert_eq!(p.service_time(0, AccessPattern::Random).as_millis(), 5);
    }

    #[test]
    fn fifo_queueing_serializes_requests() {
        let prof = DeviceProfile::from_mibs(1, 1, SimDuration::ZERO); // 1 MiB/s
        let mut dev = Device::new(DeviceId::from_raw(0), "emmc", prof);
        let t0 = SimTime::ZERO;
        let c1 = dev.submit(req(1, MIB, AccessPattern::Sequential, t0), t0);
        assert_eq!(c1.unwrap().as_millis(), 1000);
        // Second request queues behind the first.
        let c2 = dev.submit(req(2, MIB, AccessPattern::Sequential, t0), t0);
        assert!(c2.is_none());
        assert_eq!(dev.queue_len(), 2);
        // First completes; second starts and finishes one second later.
        let (done, next) = dev.complete_head(c1.unwrap());
        assert_eq!(done.pid, Pid::from_raw(1));
        assert_eq!(next.unwrap().as_millis(), 2000);
        let (done2, next2) = dev.complete_head(next.unwrap());
        assert_eq!(done2.pid, Pid::from_raw(2));
        assert!(next2.is_none());
        assert!(!dev.is_busy());
        assert_eq!(dev.bytes_read, 2 * MIB);
    }

    #[test]
    fn realtime_requests_jump_the_queue() {
        let prof = DeviceProfile::from_mibs(1, 1, SimDuration::ZERO); // 1 MiB/s
        let mut dev = Device::new(DeviceId::from_raw(0), "emmc", prof);
        let t0 = SimTime::ZERO;
        // Best-effort request in flight, another queued, then a realtime
        // arrival: the realtime one is served next, the idle one last.
        let c1 = dev
            .submit(req(1, MIB, AccessPattern::Sequential, t0), t0)
            .unwrap();
        dev.submit(req(2, MIB, AccessPattern::Sequential, t0), t0);
        dev.submit(
            req_prio(3, MIB, AccessPattern::Sequential, IoPriority::Idle, t0),
            t0,
        );
        dev.submit(
            req_prio(4, MIB, AccessPattern::Sequential, IoPriority::Realtime, t0),
            t0,
        );
        let mut order = Vec::new();
        let (done, mut next) = dev.complete_head(c1);
        order.push(done.pid.as_raw());
        while let Some(at) = next {
            let (done, n) = dev.complete_head(at);
            order.push(done.pid.as_raw());
            next = n;
        }
        assert_eq!(order, vec![1, 4, 2, 3]);
    }

    #[test]
    fn priority_order_is_realtime_first() {
        assert!(IoPriority::Realtime < IoPriority::BestEffort);
        assert!(IoPriority::BestEffort < IoPriority::Idle);
        assert_eq!(IoPriority::default(), IoPriority::BestEffort);
    }

    #[test]
    fn queue_delay_accounting() {
        let prof = DeviceProfile::from_mibs(1, 1, SimDuration::ZERO);
        let mut dev = Device::new(DeviceId::from_raw(0), "emmc", prof);
        let t0 = SimTime::ZERO;
        let c1 = dev
            .submit(req(1, MIB, AccessPattern::Sequential, t0), t0)
            .unwrap();
        dev.submit(req(2, MIB, AccessPattern::Sequential, t0), t0);
        dev.complete_head(c1);
        // Second request waited a full second.
        assert_eq!(dev.total_queue_delay.as_millis(), 1000);
    }

    #[test]
    #[should_panic(expected = "completion on idle device")]
    fn completion_on_idle_panics() {
        let mut dev = Device::new(
            DeviceId::from_raw(0),
            "emmc",
            DeviceProfile::from_mibs(1, 1, SimDuration::ZERO),
        );
        dev.complete_head(SimTime::ZERO);
    }

    #[test]
    fn paper_profiles_are_sane() {
        let tv = DeviceProfile::tv_emmc();
        assert_eq!(tv.seq_read_bps / MIB, 117);
        assert_eq!(tv.rand_read_bps / MIB, 37);
        let ssd = DeviceProfile::consumer_ssd();
        assert!(ssd.seq_read_bps > tv.seq_read_bps * 4);
        let hdd = DeviceProfile::consumer_hdd();
        assert!(hdd.request_latency > tv.request_latency);
    }
}
