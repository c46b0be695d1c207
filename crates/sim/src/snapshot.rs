//! Versioned machine save-states.
//!
//! Serializes a complete [`Machine`] — sim clock, pending event queue,
//! process arena, I/O queues, RCU state, fault-plan cursor — to a
//! length-prefixed little-endian binary format and restores it
//! *bit-identically*: a restored machine replays the remainder of a run
//! event-for-event equal to the uninterrupted original. This is the
//! substrate of the suspend-to-RAM instant-on scenario (`bbsim
//! suspend`).
//!
//! # Format
//!
//! ```text
//! header   magic "BBSNAPSH" | version u32 | config_hash u64
//!          | pin_conv u64 | pin_bb u64 | payload_len u64
//! payload  sections, each: id u32 | len u64 | body
//!          1 config   2 clock    3 events   4 procs   5 sched
//!          6 devices  7 flags    8 rcu      9 trace  10 spawns
//!          11 faults
//! footer   (v2+) payload_checksum u64   FNV-1a over the payload
//! ```
//!
//! All integers are little-endian; `f64` travels as IEEE-754 bits;
//! strings and vectors carry a length prefix. `config_hash` is FNV-1a
//! over the encoded config section, so a snapshot cannot be restored
//! into a build whose machine parameters drifted. The calibration pins
//! tag the cost-model epoch (the headline boot times in microseconds);
//! changing the calibration invalidates old snapshots by design.
//!
//! Format v2 appends a whole-payload FNV-1a checksum after the payload
//! (the header layout is unchanged, and `payload_len` still counts only
//! the sections). A random bit flip anywhere in the payload is detected
//! as [`SnapshotError::ChecksumMismatch`] *before* decoding, instead of
//! surfacing as an arbitrary structural error — the recovery chain in
//! `bb-core` keys off this to discard the image and cold-boot. v1
//! images (no footer) are still decoded; their integrity rests on the
//! structural checks alone.
//!
//! # Invariants
//!
//! * **Telemetry must be off.** A telemetry sink is a host-side metrics
//!   object whose presence is deliberately excluded from the
//!   bit-identical path; [`save`] refuses a machine with telemetry
//!   enabled rather than silently dropping it.
//! * **Heaps are stored canonically.** The event queue and ready queue
//!   are binary heaps; their elements are totally ordered (unique
//!   sequence numbers), so the pop order is fully determined by the
//!   element multiset. They are written sorted and rebuilt by pushes,
//!   which preserves behaviour even though the internal array layout
//!   may differ.
//! * **Derived state is rebuilt, not stored.** The flag name index is
//!   reconstructed from the flag table on restore.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use smallvec::SmallVec;

use crate::event::{EventKind, EventQueue, QueuedEvent};
use crate::ids::{CoreId, DeviceId, FlagId, Pid};
use crate::io::{Device, DeviceProfile, IoPriority, IoRequest};
use crate::machine::{
    FaultState, FlagState, IoFaultArm, Machine, MachineConfig, ProcFaultArm, ReadyQueue,
    SliceWalls, MAX_CORES,
};
use crate::process::{
    AccessPattern, BlockReason, Op, ProcRecord, ProcState, ProcessSpec, SchedRecord,
};
use crate::rcu::{RcuEngine, RcuMode, RcuParams, RcuStats, WaitKind, Waiter};
use crate::time::{SimDuration, SimTime};
use crate::trace::{CoreSpan, Trace, TraceEvent, TraceKind};

/// Identifies a BB machine snapshot; constant across format versions.
pub const MAGIC: [u8; 8] = *b"BBSNAPSH";

/// Current snapshot format version. Bump on any layout change.
///
/// v1: sections only. v2: a trailing FNV-1a payload checksum follows
/// the payload. [`restore`] accepts both; [`save`] writes v2.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version [`restore`] still decodes.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

/// Bytes of the v2 trailing payload checksum.
const CHECKSUM_LEN: usize = 8;

/// Calibration-epoch pins: the headline conventional and full-BB TV
/// boot times in microseconds (8614.474 ms / 3200.077 ms). A snapshot
/// written under a different calibration is rejected on restore.
pub const CALIBRATION_PIN_CONVENTIONAL_US: u64 = 8_614_474;
/// See [`CALIBRATION_PIN_CONVENTIONAL_US`].
pub const CALIBRATION_PIN_BB_US: u64 = 3_200_077;

const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

const SEC_CONFIG: u32 = 1;
const SEC_CLOCK: u32 = 2;
const SEC_EVENTS: u32 = 3;
const SEC_PROCS: u32 = 4;
const SEC_SCHED: u32 = 5;
const SEC_DEVICES: u32 = 6;
const SEC_FLAGS: u32 = 7;
const SEC_RCU: u32 = 8;
const SEC_TRACE: u32 = 9;
const SEC_SPAWNS: u32 = 10;
const SEC_FAULTS: u32 = 11;

/// Why a snapshot could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version recorded in the snapshot header.
        found: u32,
        /// Version this build reads ([`FORMAT_VERSION`]).
        expected: u32,
    },
    /// The snapshot's machine configuration hash does not match.
    ConfigHashMismatch {
        /// Hash recorded in the snapshot header.
        found: u64,
        /// Hash of the configuration being restored.
        expected: u64,
    },
    /// The snapshot was written under a different cost-model calibration.
    CalibrationMismatch {
        /// (conventional, bb) pins recorded in the header, in µs.
        found: (u64, u64),
    },
    /// The payload bytes do not hash to the trailing checksum (v2+):
    /// the image was damaged after it was written — a bit flip, torn
    /// write, or zeroed page somewhere in the payload.
    ChecksumMismatch {
        /// Checksum recorded in the snapshot footer.
        found: u64,
        /// FNV-1a of the payload as read.
        expected: u64,
    },
    /// The buffer ended before the structure it promises.
    Truncated,
    /// Bytes remain after the last section.
    TrailingBytes,
    /// A structural invariant of the format was violated.
    Corrupt(&'static str),
    /// [`save`] was called on a machine with telemetry enabled; the
    /// telemetry sink is host-side state excluded from the
    /// bit-identical path and cannot be captured.
    TelemetryEnabled,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a BB machine snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not the supported version {expected}"
            ),
            SnapshotError::ConfigHashMismatch { found, expected } => write!(
                f,
                "snapshot config hash {found:#018x} does not match {expected:#018x}"
            ),
            SnapshotError::CalibrationMismatch { found } => write!(
                f,
                "snapshot calibration pins ({}, {}) µs do not match this build ({}, {}) µs",
                found.0, found.1, CALIBRATION_PIN_CONVENTIONAL_US, CALIBRATION_PIN_BB_US
            ),
            SnapshotError::ChecksumMismatch { found, expected } => write!(
                f,
                "snapshot payload checksum {found:#018x} does not match computed {expected:#018x}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            SnapshotError::TelemetryEnabled => write!(
                f,
                "cannot snapshot a machine with telemetry enabled; telemetry is host-side \
                 state outside the bit-identical path"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Parsed snapshot header, for metadata reports and format checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version the snapshot was written with.
    pub version: u32,
    /// FNV-1a hash of the encoded machine configuration.
    pub config_hash: u64,
    /// Calibration pins (conventional, bb) in µs.
    pub calibration: (u64, u64),
    /// Length of the payload following the header, in bytes.
    pub payload_len: u64,
}

/// Reads and validates the header without decoding the payload.
pub fn read_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader { buf: bytes, pos: 8 };
    let version = r.u32()?;
    let config_hash = r.u64()?;
    let pin_conv = r.u64()?;
    let pin_bb = r.u64()?;
    let payload_len = r.u64()?;
    Ok(SnapshotHeader {
        version,
        config_hash,
        calibration: (pin_conv, pin_bb),
        payload_len,
    })
}

/// FNV-1a hash of the machine configuration as encoded in the snapshot;
/// two configurations hash equal iff every parameter is bit-identical.
pub fn config_hash(cfg: &MachineConfig) -> u64 {
    let mut w = Writer::new();
    encode_config(&mut w, cfg);
    fnv1a(FNV1A_OFFSET, &w.buf)
}

/// The 64-bit FNV-1a offset basis: the running hash every
/// [`fnv1a`] chain starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a in continuation form: folds `bytes` into the running
/// `hash`, so `fnv1a(fnv1a(FNV1A_OFFSET, a), b)` hashes `a` then `b`.
/// The workspace's one content hash — snapshot checksums and config
/// hashes, pre-parse blob content stamps, fleet scenario fingerprints.
///
/// The multiplier is `0x1000_0000_01b3`, not the textbook FNV prime
/// `0x100_0000_01b3`: the snapshot and pre-parse formats were written
/// with it, so it is part of both on-disk formats (the golden fixtures
/// under `tests/golden/` pin it).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Serializes the machine to the versioned snapshot format.
///
/// # Errors
///
/// Returns [`SnapshotError::TelemetryEnabled`] if a telemetry sink is
/// installed; snapshots capture only the bit-identical simulation state.
pub fn save(machine: &Machine) -> Result<Vec<u8>, SnapshotError> {
    if machine.telemetry.is_some() {
        return Err(SnapshotError::TelemetryEnabled);
    }
    let mut payload = Writer::new();

    let mut cfg = Writer::new();
    encode_config(&mut cfg, &machine.cfg);
    let hash = fnv1a(FNV1A_OFFSET, &cfg.buf);
    payload.section(SEC_CONFIG, cfg);

    let mut w = Writer::new();
    w.u64(machine.now.as_nanos());
    payload.section(SEC_CLOCK, w);

    let mut w = Writer::new();
    encode_events(&mut w, &machine.events);
    payload.section(SEC_EVENTS, w);

    let mut w = Writer::new();
    w.len(machine.procs.len());
    for (i, (sched, info)) in machine.sched.iter().zip(&machine.procs).enumerate() {
        encode_process(&mut w, Pid::from_raw(i as u32), sched, info);
    }
    payload.section(SEC_PROCS, w);

    let mut w = Writer::new();
    encode_sched(&mut w, machine);
    payload.section(SEC_SCHED, w);

    let mut w = Writer::new();
    w.len(machine.devices.len());
    for d in &machine.devices {
        encode_device(&mut w, d);
    }
    payload.section(SEC_DEVICES, w);

    let mut w = Writer::new();
    w.len(machine.flags.len());
    for f in &machine.flags {
        w.str(&f.name);
        w.opt_u64(f.set_at.map(SimTime::as_nanos));
        w.len(f.waiters.len());
        for &pid in &f.waiters {
            w.u32(pid.as_raw());
        }
    }
    payload.section(SEC_FLAGS, w);

    let mut w = Writer::new();
    encode_rcu(&mut w, &machine.rcu);
    payload.section(SEC_RCU, w);

    let mut w = Writer::new();
    encode_trace(&mut w, &machine.trace);
    payload.section(SEC_TRACE, w);

    let mut w = Writer::new();
    w.len(machine.pending_spawns.len());
    for slot in &machine.pending_spawns {
        match slot {
            Some(spec) => {
                w.u8(1);
                encode_spec(&mut w, spec);
            }
            None => w.u8(0),
        }
    }
    payload.section(SEC_SPAWNS, w);

    let mut w = Writer::new();
    encode_faults(&mut w, machine.faults.as_ref());
    payload.section(SEC_FAULTS, w);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.buf.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&hash.to_le_bytes());
    out.extend_from_slice(&CALIBRATION_PIN_CONVENTIONAL_US.to_le_bytes());
    out.extend_from_slice(&CALIBRATION_PIN_BB_US.to_le_bytes());
    out.extend_from_slice(&(payload.buf.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload.buf);
    out.extend_from_slice(&fnv1a(FNV1A_OFFSET, &payload.buf).to_le_bytes());
    Ok(out)
}

/// Restores a machine from a snapshot produced by [`save`].
///
/// # Errors
///
/// Rejects buffers with a wrong magic, format version, calibration
/// epoch, or config hash, and any truncated or structurally corrupt
/// payload. Never panics on malformed input.
pub fn restore(bytes: &[u8]) -> Result<Machine, SnapshotError> {
    let header = read_header(bytes)?;
    if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&header.version) {
        return Err(SnapshotError::VersionMismatch {
            found: header.version,
            expected: FORMAT_VERSION,
        });
    }
    if header.calibration != (CALIBRATION_PIN_CONVENTIONAL_US, CALIBRATION_PIN_BB_US) {
        return Err(SnapshotError::CalibrationMismatch {
            found: header.calibration,
        });
    }
    // v1 images end at the payload; v2 carries a trailing checksum.
    let footer_len = if header.version >= 2 { CHECKSUM_LEN } else { 0 };
    let expected_total = (HEADER_LEN + footer_len) as u64 + header.payload_len;
    if bytes.len() as u64 != expected_total {
        return Err(if (bytes.len() as u64) < expected_total {
            SnapshotError::Truncated
        } else {
            SnapshotError::TrailingBytes
        });
    }
    let payload = &bytes[HEADER_LEN..bytes.len() - footer_len];
    if footer_len > 0 {
        let found = u64::from_le_bytes(
            bytes[bytes.len() - CHECKSUM_LEN..]
                .try_into()
                .expect("8 bytes"),
        );
        let expected = fnv1a(FNV1A_OFFSET, payload);
        if found != expected {
            return Err(SnapshotError::ChecksumMismatch { found, expected });
        }
    }
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };

    let mut sec = r.section(SEC_CONFIG)?;
    let actual_hash = fnv1a(FNV1A_OFFSET, sec.buf);
    if actual_hash != header.config_hash {
        return Err(SnapshotError::ConfigHashMismatch {
            found: header.config_hash,
            expected: actual_hash,
        });
    }
    let cfg = decode_config(&mut sec)?;
    sec.finish()?;

    let mut sec = r.section(SEC_CLOCK)?;
    let now = SimTime::from_nanos(sec.u64()?);
    sec.finish()?;

    let mut sec = r.section(SEC_EVENTS)?;
    let events = decode_events(&mut sec)?;
    sec.finish()?;

    let mut sec = r.section(SEC_PROCS)?;
    let n = sec.vec_len(8)?;
    let mut sched = Vec::with_capacity(n);
    let mut procs = Vec::with_capacity(n);
    for i in 0..n {
        let (hot, cold) = decode_process(&mut sec, i)?;
        sched.push(hot);
        procs.push(cold);
    }
    sec.finish()?;

    let mut sec = r.section(SEC_SCHED)?;
    let (cores, ready, ready_seq, work, failed, sched_stats) =
        decode_sched(&mut sec, cfg.cores, &mut sched)?;
    sec.finish()?;
    let idle = cores
        .iter()
        .enumerate()
        .filter(|(_, slot)| slot.is_none())
        .fold(0, |idle, (i, _)| idle | 1 << i);

    let mut sec = r.section(SEC_DEVICES)?;
    let n = sec.vec_len(8)?;
    let mut devices = Vec::with_capacity(n);
    for _ in 0..n {
        devices.push(decode_device(&mut sec)?);
    }
    sec.finish()?;

    let mut sec = r.section(SEC_FLAGS)?;
    let n = sec.vec_len(8)?;
    let mut flags = Vec::with_capacity(n);
    for _ in 0..n {
        let name = sec.str()?;
        let set_at = sec.opt_u64()?.map(SimTime::from_nanos);
        let waiters_len = sec.vec_len(4)?;
        let mut waiters = SmallVec::with_capacity(waiters_len);
        for _ in 0..waiters_len {
            waiters.push(Pid::from_raw(sec.u32()?));
        }
        flags.push(FlagState {
            name: name.into(),
            set_at,
            waiters,
        });
    }
    sec.finish()?;
    // The name interner is derived state (not serialized): rebuild it
    // from the flag table. A machine never holds two flags of one name;
    // should a blob name one twice, the first id answers for it.
    let mut flag_lookup = HashMap::with_capacity(flags.len());
    for (i, f) in flags.iter().enumerate() {
        flag_lookup
            .entry(Arc::clone(&f.name))
            .or_insert(FlagId::from_raw(i as u32));
    }

    let mut sec = r.section(SEC_RCU)?;
    let rcu = decode_rcu(&mut sec)?;
    sec.finish()?;

    let mut sec = r.section(SEC_TRACE)?;
    let trace = decode_trace(&mut sec)?;
    sec.finish()?;

    let mut sec = r.section(SEC_SPAWNS)?;
    let n = sec.vec_len(1)?;
    let mut pending_spawns = Vec::with_capacity(n);
    for _ in 0..n {
        pending_spawns.push(match sec.u8()? {
            0 => None,
            1 => Some(decode_spec(&mut sec)?),
            _ => return Err(SnapshotError::Corrupt("spawn slot tag")),
        });
    }
    sec.finish()?;

    let mut sec = r.section(SEC_FAULTS)?;
    let faults = decode_faults(&mut sec)?;
    sec.finish()?;

    if r.pos != r.buf.len() {
        return Err(SnapshotError::TrailingBytes);
    }

    Ok(Machine {
        walls: SliceWalls::new(&cfg, rcu.params()),
        cfg,
        now,
        events,
        sched,
        procs,
        cores,
        idle,
        ready,
        ready_seq,
        devices,
        flags,
        flag_lookup,
        rcu,
        rcu_released: Vec::new(),
        trace,
        pending_spawns,
        work,
        failed,
        sched_stats,
        faults,
        telemetry: None,
    })
}

// ---- codec: sections ---------------------------------------------------

fn encode_config(w: &mut Writer, cfg: &MachineConfig) {
    w.u64(cfg.cores as u64);
    w.f64(cfg.core_speed);
    w.u64(cfg.quantum.as_nanos());
    w.u64(cfg.rcu_params.base_grace_period.as_nanos());
    w.u64(cfg.rcu_params.per_reader_extension.as_nanos());
    w.u64(cfg.rcu_params.ctx_switch_cost.as_nanos());
    w.u64(cfg.rcu_params.boosted_overhead.as_nanos());
    w.u64(cfg.rcu_params.classic_overhead.as_nanos());
    w.u8(rcu_mode_tag(cfg.rcu_mode));
}

fn decode_config(r: &mut Reader<'_>) -> Result<MachineConfig, SnapshotError> {
    let cores = r.u64()?;
    if cores == 0 {
        return Err(SnapshotError::Corrupt("zero cores"));
    }
    if cores > MAX_CORES as u64 {
        return Err(SnapshotError::Corrupt(
            "more cores than the idle-core word holds",
        ));
    }
    let cores = cores as usize;
    let core_speed = r.f64()?;
    if !core_speed.is_normal() || core_speed <= 0.0 {
        return Err(SnapshotError::Corrupt(
            "core speed not a positive normal number",
        ));
    }
    let quantum = SimDuration::from_nanos(r.u64()?);
    if quantum.is_zero() {
        return Err(SnapshotError::Corrupt("zero quantum"));
    }
    let rcu_params = RcuParams {
        base_grace_period: SimDuration::from_nanos(r.u64()?),
        per_reader_extension: SimDuration::from_nanos(r.u64()?),
        ctx_switch_cost: SimDuration::from_nanos(r.u64()?),
        boosted_overhead: SimDuration::from_nanos(r.u64()?),
        classic_overhead: SimDuration::from_nanos(r.u64()?),
    };
    let rcu_mode = decode_rcu_mode(r.u8()?)?;
    Ok(MachineConfig {
        cores,
        core_speed,
        quantum,
        rcu_params,
        rcu_mode,
    })
}

fn encode_events(w: &mut Writer, events: &EventQueue) {
    // The queue's pop order is fully determined by its element multiset
    // (sequence numbers are unique), so the canonical sorted view
    // (`EventQueue::sorted_events`) restores identical behaviour
    // regardless of internal layout — the front-slot/heap split never
    // reaches the wire, keeping the v1 bytes stable across layouts.
    let queued = events.sorted_events();
    w.u64(events.next_seq());
    w.len(queued.len());
    for e in &queued {
        w.u64(e.time().as_nanos());
        w.u64(e.seq());
        encode_event_kind(w, e.kind);
    }
}

fn decode_events(r: &mut Reader<'_>) -> Result<EventQueue, SnapshotError> {
    let next_seq = r.u64()?;
    let n = r.vec_len(17)?;
    let mut queued = Vec::with_capacity(n);
    for _ in 0..n {
        let time = SimTime::from_nanos(r.u64()?);
        let seq = r.u64()?;
        let kind = decode_event_kind(r)?;
        queued.push(QueuedEvent::new(time, seq, kind));
    }
    Ok(EventQueue::from_parts(next_seq, queued))
}

fn encode_event_kind(w: &mut Writer, kind: EventKind) {
    match kind {
        EventKind::SliceDone { pid, core } => {
            w.u8(0);
            w.u32(pid.as_raw());
            w.u32(core.as_raw());
        }
        EventKind::ReadHoldDone { pid, core } => {
            w.u8(1);
            w.u32(pid.as_raw());
            w.u32(core.as_raw());
        }
        EventKind::IoDone { device } => {
            w.u8(2);
            w.u32(device.as_raw());
        }
        EventKind::RcuGraceDone => w.u8(3),
        EventKind::WakeUp { pid } => {
            w.u8(4);
            w.u32(pid.as_raw());
        }
        EventKind::ExternalSpawn { spawn_slot } => {
            w.u8(5);
            w.u32(spawn_slot);
        }
        EventKind::FlagWaitTimeout { pid, seq } => {
            w.u8(6);
            w.u32(pid.as_raw());
            w.u64(seq);
        }
    }
}

fn decode_event_kind(r: &mut Reader<'_>) -> Result<EventKind, SnapshotError> {
    Ok(match r.u8()? {
        0 => EventKind::SliceDone {
            pid: Pid::from_raw(r.u32()?),
            core: CoreId::from_raw(r.u32()?),
        },
        1 => EventKind::ReadHoldDone {
            pid: Pid::from_raw(r.u32()?),
            core: CoreId::from_raw(r.u32()?),
        },
        2 => EventKind::IoDone {
            device: DeviceId::from_raw(r.u32()?),
        },
        3 => EventKind::RcuGraceDone,
        4 => EventKind::WakeUp {
            pid: Pid::from_raw(r.u32()?),
        },
        5 => EventKind::ExternalSpawn {
            spawn_slot: r.u32()?,
        },
        6 => EventKind::FlagWaitTimeout {
            pid: Pid::from_raw(r.u32()?),
            seq: r.u64()?,
        },
        _ => return Err(SnapshotError::Corrupt("event kind tag")),
    })
}

fn encode_process(w: &mut Writer, pid: Pid, sched: &SchedRecord, info: &ProcRecord) {
    w.u32(pid.as_raw());
    w.str(&info.name);
    w.i8(sched.nice);
    w.u8(io_priority_tag(info.io_priority));
    // Only the ops from the cursor on: spent slots are not state.
    let ops = &info.ops[sched.pc as usize..];
    w.len(ops.len());
    for op in ops {
        encode_op(w, op);
    }
    w.u64(sched.compute_left.as_nanos());
    encode_proc_state(w, sched.state);
    w.u64(info.spawned_at.as_nanos());
    w.opt_u64(info.finished_at.map(SimTime::as_nanos));
    w.u64(sched.ready_seq);
    w.bool(sched.first_dispatched);
    w.u64(sched.cpu_time.as_nanos());
    w.u64(info.timed_wait_seq);
}

/// Decodes the process with pid `index`. Its records start outside any
/// core; the sched section places the running ones.
fn decode_process(
    r: &mut Reader<'_>,
    index: usize,
) -> Result<(SchedRecord, ProcRecord), SnapshotError> {
    if r.u32()? as usize != index {
        return Err(SnapshotError::Corrupt("process pid out of order"));
    }
    let name = r.str()?;
    let nice = r.i8()?;
    let io_priority = decode_io_priority(r.u8()?)?;
    let n = r.vec_len(1)?;
    if u32::try_from(n).is_err() {
        return Err(SnapshotError::Corrupt("op list too long"));
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(decode_op(r)?);
    }
    let compute_left = SimDuration::from_nanos(r.u64()?);
    // The scheduler resumes a nonzero `compute_left` without reading
    // the op list, trusting that the current op is its `Compute`.
    if !compute_left.is_zero() && !matches!(ops.first(), Some(Op::Compute(_))) {
        return Err(SnapshotError::Corrupt("compute left without a compute op"));
    }
    let state = decode_proc_state(r)?;
    let spawned_at = SimTime::from_nanos(r.u64()?);
    let finished_at = r.opt_u64()?.map(SimTime::from_nanos);
    let sched = SchedRecord {
        compute_left,
        state,
        ready_seq: r.u64()?,
        first_dispatched: r.bool()?,
        cpu_time: SimDuration::from_nanos(r.u64()?),
        since: SimTime::ZERO,
        core: None,
        pc: 0,
        nice,
    };
    let info = ProcRecord {
        name: name.into(),
        io_priority,
        ops,
        spawned_at,
        finished_at,
        timed_wait_seq: r.u64()?,
    };
    Ok((sched, info))
}

fn encode_proc_state(w: &mut Writer, state: ProcState) {
    match state {
        ProcState::Ready => w.u8(0),
        ProcState::Running => w.u8(1),
        ProcState::Blocked(reason) => {
            w.u8(2);
            match reason {
                BlockReason::Io => w.u8(0),
                BlockReason::Sleep => w.u8(1),
                BlockReason::RcuBlocked => w.u8(2),
                BlockReason::Flag(flag) => {
                    w.u8(3);
                    w.u32(flag.as_raw());
                }
            }
        }
        ProcState::Done => w.u8(3),
    }
}

fn decode_proc_state(r: &mut Reader<'_>) -> Result<ProcState, SnapshotError> {
    Ok(match r.u8()? {
        0 => ProcState::Ready,
        1 => ProcState::Running,
        2 => ProcState::Blocked(match r.u8()? {
            0 => BlockReason::Io,
            1 => BlockReason::Sleep,
            2 => BlockReason::RcuBlocked,
            3 => BlockReason::Flag(FlagId::from_raw(r.u32()?)),
            _ => return Err(SnapshotError::Corrupt("block reason tag")),
        }),
        3 => ProcState::Done,
        _ => return Err(SnapshotError::Corrupt("process state tag")),
    })
}

fn encode_op(w: &mut Writer, op: &Op) {
    match op {
        Op::Compute(d) => {
            w.u8(0);
            w.u64(d.as_nanos());
        }
        Op::IoRead {
            device,
            bytes,
            pattern,
        } => {
            w.u8(1);
            w.u32(device.as_raw());
            w.u64(*bytes);
            w.u8(pattern_tag(*pattern));
        }
        Op::Sleep(d) => {
            w.u8(2);
            w.u64(d.as_nanos());
        }
        Op::RcuSync => w.u8(3),
        Op::RcuReadHold(d) => {
            w.u8(4);
            w.u64(d.as_nanos());
        }
        Op::WaitFlag(flag) => {
            w.u8(5);
            w.u32(flag.as_raw());
        }
        Op::TimedWaitFlag { flag, timeout } => {
            w.u8(6);
            w.u32(flag.as_raw());
            w.u64(timeout.as_nanos());
        }
        Op::PollFlag {
            flag,
            interval,
            poll_cost,
        } => {
            w.u8(7);
            w.u32(flag.as_raw());
            w.u64(interval.as_nanos());
            w.u64(poll_cost.as_nanos());
        }
        Op::AssertFlag(flag) => {
            w.u8(8);
            w.u32(flag.as_raw());
        }
        Op::CondSkip { flag, skip_ops } => {
            w.u8(9);
            w.u32(flag.as_raw());
            w.u32(*skip_ops);
        }
        Op::SetFlag(flag) => {
            w.u8(10);
            w.u32(flag.as_raw());
        }
        Op::Spawn(spec) => {
            w.u8(11);
            encode_spec(w, spec);
        }
        Op::Yield => w.u8(12),
        Op::SetRcuMode(mode) => {
            w.u8(13);
            w.u8(rcu_mode_tag(*mode));
        }
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<Op, SnapshotError> {
    Ok(match r.u8()? {
        0 => Op::Compute(SimDuration::from_nanos(r.u64()?)),
        1 => Op::IoRead {
            device: DeviceId::from_raw(r.u32()?),
            bytes: r.u64()?,
            pattern: decode_pattern(r.u8()?)?,
        },
        2 => Op::Sleep(SimDuration::from_nanos(r.u64()?)),
        3 => Op::RcuSync,
        4 => Op::RcuReadHold(SimDuration::from_nanos(r.u64()?)),
        5 => Op::WaitFlag(FlagId::from_raw(r.u32()?)),
        6 => Op::TimedWaitFlag {
            flag: FlagId::from_raw(r.u32()?),
            timeout: SimDuration::from_nanos(r.u64()?),
        },
        7 => Op::PollFlag {
            flag: FlagId::from_raw(r.u32()?),
            interval: SimDuration::from_nanos(r.u64()?),
            poll_cost: SimDuration::from_nanos(r.u64()?),
        },
        8 => Op::AssertFlag(FlagId::from_raw(r.u32()?)),
        9 => Op::CondSkip {
            flag: FlagId::from_raw(r.u32()?),
            skip_ops: r.u32()?,
        },
        10 => Op::SetFlag(FlagId::from_raw(r.u32()?)),
        11 => Op::Spawn(Box::new(decode_spec(r)?)),
        12 => Op::Yield,
        13 => Op::SetRcuMode(decode_rcu_mode(r.u8()?)?),
        _ => return Err(SnapshotError::Corrupt("op tag")),
    })
}

fn encode_spec(w: &mut Writer, spec: &ProcessSpec) {
    w.str(&spec.name);
    w.i8(spec.nice);
    w.u8(io_priority_tag(spec.io_priority));
    w.len(spec.ops.len());
    for op in &spec.ops {
        encode_op(w, op);
    }
}

fn decode_spec(r: &mut Reader<'_>) -> Result<ProcessSpec, SnapshotError> {
    let name = r.str()?;
    let nice = r.i8()?;
    let io_priority = decode_io_priority(r.u8()?)?;
    let n = r.vec_len(1)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(decode_op(r)?);
    }
    Ok(ProcessSpec {
        name: name.into(),
        nice,
        io_priority,
        ops,
    })
}

/// Decodes the sched section, placing each running process of `sched`
/// on its core.
#[allow(clippy::type_complexity)]
fn decode_sched(
    r: &mut Reader<'_>,
    cores_cfg: usize,
    sched: &mut [SchedRecord],
) -> Result<
    (
        Vec<Option<Pid>>,
        ReadyQueue,
        u64,
        Vec<Pid>,
        Vec<Pid>,
        crate::machine::SchedStats,
    ),
    SnapshotError,
> {
    let n = r.vec_len(1)?;
    if n != cores_cfg {
        return Err(SnapshotError::Corrupt("core table size"));
    }
    let mut cores = Vec::with_capacity(n);
    for _ in 0..n {
        cores.push(r.opt_u32()?.map(Pid::from_raw));
    }
    let n = r.vec_len(16)?;
    // The on-disk form stays the sparse pid-sorted triple list; the
    // scheduler records carry it in memory. Pids are bounds-checked
    // against the decoded process table so corrupt inputs error, never
    // panic.
    for _ in 0..n {
        let pid = Pid::from_raw(r.u32()?);
        let core = CoreId::from_raw(r.u32()?);
        let since = SimTime::from_nanos(r.u64()?);
        let s = sched
            .get_mut(pid.index())
            .ok_or(SnapshotError::Corrupt("running pid out of range"))?;
        s.core = Some(core);
        s.since = since;
    }
    let n = r.vec_len(13)?;
    let mut entries: Vec<(i8, u64, u32)> = Vec::with_capacity(n);
    for _ in 0..n {
        let nice = r.i8()?;
        let seq = r.u64()?;
        let raw = r.u32()?;
        entries.push((nice, seq, raw));
    }
    // v1 stores the queue canonically sorted; sort defensively so a
    // hand-edited snapshot still yields a well-ordered queue.
    entries.sort_unstable();
    let mut ready = ReadyQueue::default();
    for (nice, seq, raw) in entries {
        ready.push(nice, seq, raw);
    }
    let ready_seq = r.u64()?;
    let n = r.vec_len(4)?;
    let mut work = Vec::with_capacity(n);
    for _ in 0..n {
        work.push(Pid::from_raw(r.u32()?));
    }
    let n = r.vec_len(4)?;
    let mut failed = Vec::with_capacity(n);
    for _ in 0..n {
        failed.push(Pid::from_raw(r.u32()?));
    }
    let sched_stats = crate::machine::SchedStats {
        dispatches: r.u64()?,
        preemptions: r.u64()?,
        io_requests: r.u64()?,
        flag_wakeups: r.u64()?,
    };
    Ok((cores, ready, ready_seq, work, failed, sched_stats))
}

fn encode_sched(w: &mut Writer, machine: &Machine) {
    w.len(machine.cores.len());
    for slot in &machine.cores {
        w.opt_u32(slot.map(Pid::as_raw));
    }
    // The scheduler records are indexed by pid, so walking them in
    // order yields the same pid-sorted sparse triple list v1 has always
    // stored.
    let running: Vec<(Pid, CoreId, SimTime)> = machine
        .sched
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.core.map(|core| (Pid::from_raw(i as u32), core, s.since)))
        .collect();
    w.len(running.len());
    for (pid, core, since) in running {
        w.u32(pid.as_raw());
        w.u32(core.as_raw());
        w.u64(since.as_nanos());
    }
    // Same canonical-sorted treatment as the event queue: the bucketed
    // run queue iterates in `(nice, seq)` order, which is v1's sort.
    w.len(machine.ready.len());
    for (nice, seq, raw) in machine.ready.iter_sorted() {
        w.i8(nice);
        w.u64(seq);
        w.u32(raw);
    }
    w.u64(machine.ready_seq);
    w.len(machine.work.len());
    for &pid in &machine.work {
        w.u32(pid.as_raw());
    }
    w.len(machine.failed.len());
    for &pid in &machine.failed {
        w.u32(pid.as_raw());
    }
    w.u64(machine.sched_stats.dispatches);
    w.u64(machine.sched_stats.preemptions);
    w.u64(machine.sched_stats.io_requests);
    w.u64(machine.sched_stats.flag_wakeups);
}

fn encode_device(w: &mut Writer, d: &Device) {
    w.u32(d.id.as_raw());
    w.str(&d.name);
    w.u64(d.profile.seq_read_bps);
    w.u64(d.profile.rand_read_bps);
    w.u64(d.profile.request_latency.as_nanos());
    w.len(d.queue.len());
    for (&(priority, seq), req) in &d.queue {
        w.u8(io_priority_tag(priority));
        w.u64(seq);
        encode_io_request(w, req);
    }
    w.u64(d.next_seq);
    match &d.in_flight {
        Some(req) => {
            w.u8(1);
            encode_io_request(w, req);
        }
        None => w.u8(0),
    }
    w.opt_u64(d.busy_until.map(SimTime::as_nanos));
    w.u64(d.bytes_read);
    w.u64(d.total_queue_delay.as_nanos());
}

fn decode_device(r: &mut Reader<'_>) -> Result<Device, SnapshotError> {
    let id = DeviceId::from_raw(r.u32()?);
    let name = r.str()?;
    let profile = DeviceProfile {
        seq_read_bps: r.u64()?,
        rand_read_bps: r.u64()?,
        request_latency: SimDuration::from_nanos(r.u64()?),
    };
    let n = r.vec_len(9)?;
    let mut queue = std::collections::BTreeMap::new();
    for _ in 0..n {
        let priority = decode_io_priority(r.u8()?)?;
        let seq = r.u64()?;
        let req = decode_io_request(r)?;
        queue.insert((priority, seq), req);
    }
    let next_seq = r.u64()?;
    let in_flight = match r.u8()? {
        0 => None,
        1 => Some(decode_io_request(r)?),
        _ => return Err(SnapshotError::Corrupt("in-flight tag")),
    };
    let busy_until = r.opt_u64()?.map(SimTime::from_nanos);
    let bytes_read = r.u64()?;
    let total_queue_delay = SimDuration::from_nanos(r.u64()?);
    Ok(Device {
        id,
        name,
        profile,
        queue,
        next_seq,
        in_flight,
        busy_until,
        bytes_read,
        total_queue_delay,
    })
}

fn encode_io_request(w: &mut Writer, req: &IoRequest) {
    w.u32(req.pid.as_raw());
    w.u64(req.bytes);
    w.u8(pattern_tag(req.pattern));
    w.u8(io_priority_tag(req.priority));
    w.u64(req.submitted_at.as_nanos());
}

fn decode_io_request(r: &mut Reader<'_>) -> Result<IoRequest, SnapshotError> {
    Ok(IoRequest {
        pid: Pid::from_raw(r.u32()?),
        bytes: r.u64()?,
        pattern: decode_pattern(r.u8()?)?,
        priority: decode_io_priority(r.u8()?)?,
        submitted_at: SimTime::from_nanos(r.u64()?),
    })
}

fn encode_rcu(w: &mut Writer, rcu: &RcuEngine) {
    w.u8(rcu_mode_tag(rcu.mode));
    w.u64(rcu.params.base_grace_period.as_nanos());
    w.u64(rcu.params.per_reader_extension.as_nanos());
    w.u64(rcu.params.ctx_switch_cost.as_nanos());
    w.u64(rcu.params.boosted_overhead.as_nanos());
    w.u64(rcu.params.classic_overhead.as_nanos());
    for batch in [&rcu.current, &rcu.next] {
        w.len(batch.len());
        for waiter in batch {
            w.u32(waiter.pid.as_raw());
            w.u8(match waiter.kind {
                WaitKind::Spinning => 0,
                WaitKind::SleepingClassic => 1,
                WaitKind::SleepingBoosted => 2,
            });
            w.u64(waiter.submitted_at.as_nanos());
        }
    }
    w.opt_u64(rcu.grace_end.map(SimTime::as_nanos));
    w.u32(rcu.active_readers);
    w.u64(rcu.stats.syncs_completed);
    w.u64(rcu.stats.grace_periods);
    w.u64(rcu.stats.total_wait.as_nanos());
    w.u64(rcu.stats.max_wait.as_nanos());
    w.u64(rcu.stats.classic_syncs);
    w.u64(rcu.stats.boosted_syncs);
    w.u64(rcu.stats.spinning_syncs);
    w.u64(rcu.stats.peak_pending as u64);
}

fn decode_rcu(r: &mut Reader<'_>) -> Result<RcuEngine, SnapshotError> {
    let mode = decode_rcu_mode(r.u8()?)?;
    let params = RcuParams {
        base_grace_period: SimDuration::from_nanos(r.u64()?),
        per_reader_extension: SimDuration::from_nanos(r.u64()?),
        ctx_switch_cost: SimDuration::from_nanos(r.u64()?),
        boosted_overhead: SimDuration::from_nanos(r.u64()?),
        classic_overhead: SimDuration::from_nanos(r.u64()?),
    };
    let mut batches = [Vec::new(), Vec::new()];
    for batch in &mut batches {
        let n = r.vec_len(13)?;
        batch.reserve(n);
        for _ in 0..n {
            let pid = Pid::from_raw(r.u32()?);
            let kind = match r.u8()? {
                0 => WaitKind::Spinning,
                1 => WaitKind::SleepingClassic,
                2 => WaitKind::SleepingBoosted,
                _ => return Err(SnapshotError::Corrupt("wait kind tag")),
            };
            let submitted_at = SimTime::from_nanos(r.u64()?);
            batch.push(Waiter {
                pid,
                kind,
                submitted_at,
            });
        }
    }
    let [current, next] = batches;
    let grace_end = r.opt_u64()?.map(SimTime::from_nanos);
    let active_readers = r.u32()?;
    let stats = RcuStats {
        syncs_completed: r.u64()?,
        grace_periods: r.u64()?,
        total_wait: SimDuration::from_nanos(r.u64()?),
        max_wait: SimDuration::from_nanos(r.u64()?),
        classic_syncs: r.u64()?,
        boosted_syncs: r.u64()?,
        spinning_syncs: r.u64()?,
        peak_pending: r.u64()? as usize,
    };
    Ok(RcuEngine {
        mode,
        params,
        current,
        next,
        grace_end,
        active_readers,
        stats,
    })
}

fn encode_trace(w: &mut Writer, trace: &Trace) {
    w.bool(trace.record_spans);
    w.len(trace.events.len());
    for e in &trace.events {
        w.u64(e.time.as_nanos());
        w.u32(e.pid.as_raw());
        match &e.kind {
            TraceKind::Spawned { name } => {
                w.u8(0);
                w.str(name);
            }
            TraceKind::FirstRun => w.u8(1),
            TraceKind::Finished => w.u8(2),
            TraceKind::Failed { flag } => {
                w.u8(3);
                w.u32(flag.as_raw());
            }
            TraceKind::FlagSet { flag } => {
                w.u8(4);
                w.u32(flag.as_raw());
            }
            TraceKind::RcuSyncDone { waited } => {
                w.u8(5);
                w.u64(waited.as_nanos());
            }
            TraceKind::FaultInjected { description } => {
                w.u8(6);
                w.str(description);
            }
        }
    }
    w.len(trace.spans.len());
    for s in &trace.spans {
        w.u32(s.core.as_raw());
        w.u32(s.pid.as_raw());
        w.u64(s.start.as_nanos());
        w.u64(s.end.as_nanos());
    }
}

fn decode_trace(r: &mut Reader<'_>) -> Result<Trace, SnapshotError> {
    let record_spans = r.bool()?;
    let n = r.vec_len(13)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let time = SimTime::from_nanos(r.u64()?);
        let pid = Pid::from_raw(r.u32()?);
        let kind = match r.u8()? {
            0 => TraceKind::Spawned {
                name: r.str()?.into(),
            },
            1 => TraceKind::FirstRun,
            2 => TraceKind::Finished,
            3 => TraceKind::Failed {
                flag: FlagId::from_raw(r.u32()?),
            },
            4 => TraceKind::FlagSet {
                flag: FlagId::from_raw(r.u32()?),
            },
            5 => TraceKind::RcuSyncDone {
                waited: SimDuration::from_nanos(r.u64()?),
            },
            6 => TraceKind::FaultInjected {
                description: r.str()?,
            },
            _ => return Err(SnapshotError::Corrupt("trace kind tag")),
        };
        events.push(TraceEvent { time, pid, kind });
    }
    let n = r.vec_len(24)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push(CoreSpan {
            core: CoreId::from_raw(r.u32()?),
            pid: Pid::from_raw(r.u32()?),
            start: SimTime::from_nanos(r.u64()?),
            end: SimTime::from_nanos(r.u64()?),
        });
    }
    Ok(Trace {
        events,
        spans,
        record_spans,
    })
}

fn encode_faults(w: &mut Writer, faults: Option<&FaultState>) {
    let Some(state) = faults else {
        w.u8(0);
        return;
    };
    w.u8(1);
    w.len(state.proc_arms.len());
    for arm in &state.proc_arms {
        w.str(&arm.process);
        w.u32(arm.hits_left);
        w.bool(arm.hang);
    }
    w.len(state.io_arms.len());
    for arm in &state.io_arms {
        w.u32(arm.device.as_raw());
        w.u32(arm.failures_left);
        w.u64(arm.retry_delay.as_nanos());
    }
    w.opt_u32(state.hang_flag.map(FlagId::as_raw));
}

fn decode_faults(r: &mut Reader<'_>) -> Result<Option<FaultState>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = r.vec_len(9)?;
            let mut proc_arms = Vec::with_capacity(n);
            for _ in 0..n {
                proc_arms.push(ProcFaultArm {
                    process: r.str()?,
                    hits_left: r.u32()?,
                    hang: r.bool()?,
                });
            }
            let n = r.vec_len(16)?;
            let mut io_arms = Vec::with_capacity(n);
            for _ in 0..n {
                io_arms.push(IoFaultArm {
                    device: DeviceId::from_raw(r.u32()?),
                    failures_left: r.u32()?,
                    retry_delay: SimDuration::from_nanos(r.u64()?),
                });
            }
            let hang_flag = r.opt_u32()?.map(FlagId::from_raw);
            Ok(Some(FaultState {
                proc_arms,
                io_arms,
                hang_flag,
            }))
        }
        _ => Err(SnapshotError::Corrupt("fault state tag")),
    }
}

fn rcu_mode_tag(mode: RcuMode) -> u8 {
    match mode {
        RcuMode::ClassicSpin => 0,
        RcuMode::Boosted => 1,
    }
}

fn decode_rcu_mode(tag: u8) -> Result<RcuMode, SnapshotError> {
    match tag {
        0 => Ok(RcuMode::ClassicSpin),
        1 => Ok(RcuMode::Boosted),
        _ => Err(SnapshotError::Corrupt("rcu mode tag")),
    }
}

fn io_priority_tag(priority: IoPriority) -> u8 {
    match priority {
        IoPriority::Realtime => 0,
        IoPriority::BestEffort => 1,
        IoPriority::Idle => 2,
    }
}

fn decode_io_priority(tag: u8) -> Result<IoPriority, SnapshotError> {
    match tag {
        0 => Ok(IoPriority::Realtime),
        1 => Ok(IoPriority::BestEffort),
        2 => Ok(IoPriority::Idle),
        _ => Err(SnapshotError::Corrupt("io priority tag")),
    }
}

fn pattern_tag(pattern: AccessPattern) -> u8 {
    match pattern {
        AccessPattern::Sequential => 0,
        AccessPattern::Random => 1,
    }
}

fn decode_pattern(tag: u8) -> Result<AccessPattern, SnapshotError> {
    match tag {
        0 => Ok(AccessPattern::Sequential),
        1 => Ok(AccessPattern::Random),
        _ => Err(SnapshotError::Corrupt("access pattern tag")),
    }
}

// ---- primitives --------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u32(v);
            }
            None => self.u8(0),
        }
    }

    fn section(&mut self, id: u32, body: Writer) {
        self.u32(id);
        self.u64(body.buf.len() as u64);
        self.buf.extend_from_slice(&body.buf);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn i8(&mut self) -> Result<i8, SnapshotError> {
        Ok(self.u8()? as i8)
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool tag")),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a vector length, bounding it by the bytes remaining (each
    /// element needs at least `elem_min` bytes) so corrupt lengths fail
    /// instead of triggering huge allocations.
    fn vec_len(&mut self, elem_min: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(elem_min.max(1) as u64) > remaining {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt("non-UTF-8 string"))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Corrupt("option tag")),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(SnapshotError::Corrupt("option tag")),
        }
    }

    fn section(&mut self, id: u32) -> Result<Reader<'a>, SnapshotError> {
        let found = self.u32()?;
        if found != id {
            return Err(SnapshotError::Corrupt("section order"));
        }
        let len = self.u64()? as usize;
        let body = self.take(len)?;
        Ok(Reader { buf: body, pos: 0 })
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Corrupt("section trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::OpsBuilder;

    fn busy_machine() -> Machine {
        let mut m = Machine::new(MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        });
        let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
        let ready = m.flag("db-ready");
        let late = m.flag("late");
        m.spawn(ProcessSpec::new(
            "database",
            OpsBuilder::new()
                .compute_ms(5)
                .read_rand(dev, 4 * crate::io::MIB)
                .rcu_syncs(2, SimDuration::from_micros(50))
                .set_flag(ready)
                .build(),
        ));
        m.spawn(ProcessSpec::new(
            "webapp",
            OpsBuilder::new()
                .wait_flag(ready)
                .compute_ms(3)
                .timed_wait_flag(late, SimDuration::from_millis(4))
                .compute_ms(1)
                .build(),
        ));
        m.spawn(
            ProcessSpec::new(
                "logger",
                OpsBuilder::new()
                    .sleep(SimDuration::from_millis(2))
                    .rcu_read(SimDuration::from_millis(1))
                    .spawn(ProcessSpec::new(
                        "logger-child",
                        OpsBuilder::new().compute_ms(1).build(),
                    ))
                    .build(),
            )
            .with_nice(5),
        );
        m
    }

    fn assert_same_outcome(mut a: Machine, mut b: Machine) {
        let oa = a.run();
        let ob = b.run();
        assert_eq!(oa.end_time, ob.end_time);
        assert_eq!(oa.blocked, ob.blocked);
        assert_eq!(oa.failed, ob.failed);
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.trace().spans(), b.trace().spans());
        assert_eq!(a.sched_stats(), b.sched_stats());
        assert_eq!(a.rcu_stats().syncs_completed, b.rcu_stats().syncs_completed);
        assert_eq!(a.rcu_stats().grace_periods, b.rcu_stats().grace_periods);
    }

    /// A spec built as a literal: `with_nice` checks the Unix range, the
    /// public field does not.
    fn spec_at(name: &str, nice: i8, ms: u64) -> ProcessSpec {
        ProcessSpec {
            name: name.into(),
            nice,
            io_priority: IoPriority::BestEffort,
            ops: OpsBuilder::new().compute_ms(ms).build(),
        }
    }

    #[test]
    fn every_nice_value_dispatches_in_nice_then_fifo_order_across_a_round_trip() {
        let mut m = Machine::new(MachineConfig {
            cores: 1,
            ..MachineConfig::default()
        });
        // Two processes per level, levels spawned out of order.
        for (i, nice) in [19, 127, -20, 0, -128, 19, 127, -20, 0, -128]
            .into_iter()
            .enumerate()
        {
            m.spawn(spec_at(&format!("p{i}@{nice}"), nice, 1));
        }
        let bytes = save(&m).expect("snapshot");
        let restored = restore(&bytes).expect("restore");
        assert_eq!(save(&restored).expect("re-snapshot"), bytes);
        let mut original = restore(&bytes).expect("restore");
        original.run();
        let order: Vec<String> = original
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::FirstRun)
            .map(|e| original.process(e.pid).name().to_owned())
            .collect();
        assert_eq!(
            order,
            [
                "p4@-128", "p9@-128", "p2@-20", "p7@-20", "p3@0", "p8@0", "p0@19", "p5@19",
                "p1@127", "p6@127"
            ]
        );
        assert_same_outcome(m, restored);
    }

    #[test]
    fn any_nice_byte_restores_or_is_rejected_without_panic() {
        for byte in 0..=u8::MAX {
            let nice = byte as i8;
            let mut m = Machine::new(MachineConfig {
                cores: 1,
                ..MachineConfig::default()
            });
            m.spawn(spec_at("a", nice, 2));
            m.spawn(spec_at("b", nice.wrapping_add(64), 2));
            // Queue entries whose nice bytes disagree with their
            // processes': a snapshot may carry any byte in either place.
            let entries: Vec<_> = m.ready.iter_sorted().collect();
            m.ready.clear();
            for (seq_nice, (_, seq, raw)) in [nice.wrapping_neg(), nice].into_iter().zip(entries) {
                m.ready.push(seq_nice, seq, raw);
            }
            let bytes = save(&m).expect("snapshot");
            if let Ok(mut restored) = restore(&bytes) {
                let out = restored.run();
                assert!(out.blocked.is_empty() && out.failed.is_empty());
                assert!(restored.processes().all(|p| p.state() == ProcState::Done));
            }
        }
    }

    #[test]
    fn round_trip_of_idle_machine() {
        let m = Machine::new(MachineConfig::default());
        let bytes = save(&m).expect("snapshot");
        let restored = restore(&bytes).expect("restore");
        assert_eq!(restored.now(), m.now());
        assert_eq!(restored.config().cores, m.config().cores);
        // Saving the restored machine reproduces the same bytes.
        assert_eq!(save(&restored).expect("re-snapshot"), bytes);
    }

    #[test]
    fn mid_run_round_trip_replays_identically() {
        // Run the reference uninterrupted; cut a copy at several points,
        // snapshot, restore, and finish — the tails must be identical.
        for cut_us in [0u64, 1_500, 5_000, 6_000, 9_000] {
            let reference = busy_machine();
            let mut cut = busy_machine();
            cut.run_until(SimTime::from_nanos(cut_us * 1_000));
            let restored = restore(&save(&cut).expect("snapshot")).expect("restore");
            assert_same_outcome(reference, restored);
        }
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let mut a = busy_machine();
        let mut b = busy_machine();
        a.run_until(SimTime::from_nanos(5_000_000));
        b.run_until(SimTime::from_nanos(5_000_000));
        assert_eq!(save(&a).expect("a"), save(&b).expect("b"));
    }

    #[test]
    fn telemetry_is_rejected() {
        let mut m = Machine::new(MachineConfig::default());
        m.enable_telemetry();
        assert_eq!(save(&m), Err(SnapshotError::TelemetryEnabled));
    }

    #[test]
    fn header_round_trips() {
        let m = Machine::new(MachineConfig::default());
        let bytes = save(&m).expect("snapshot");
        let header = read_header(&bytes).expect("header");
        assert_eq!(header.version, FORMAT_VERSION);
        assert_eq!(
            header.calibration,
            (CALIBRATION_PIN_CONVENTIONAL_US, CALIBRATION_PIN_BB_US)
        );
        assert_eq!(header.config_hash, config_hash(m.config()));
        // v2 layout: header | payload | u64 checksum.
        assert_eq!(
            header.payload_len as usize,
            bytes.len() - HEADER_LEN - CHECKSUM_LEN
        );
    }

    #[test]
    fn tampered_inputs_are_rejected_without_panic() {
        let m = Machine::new(MachineConfig::default());
        let good = save(&m).expect("snapshot");

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(restore(&bad_magic).err(), Some(SnapshotError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(matches!(
            restore(&bad_version),
            Err(SnapshotError::VersionMismatch { found: 99, .. })
        ));

        let mut bad_hash = good.clone();
        bad_hash[12] ^= 0xff;
        assert!(matches!(
            restore(&bad_hash),
            Err(SnapshotError::ConfigHashMismatch { .. })
        ));

        let mut bad_pin = good.clone();
        bad_pin[20] ^= 0xff;
        assert!(matches!(
            restore(&bad_pin),
            Err(SnapshotError::CalibrationMismatch { .. })
        ));

        assert_eq!(restore(&good[..10]).err(), Some(SnapshotError::Truncated));
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(restore(&trailing).err(), Some(SnapshotError::TrailingBytes));

        // Any payload bit flip is caught by the v2 checksum before the
        // decoder runs — structured, never an arbitrary decode error.
        for at in [HEADER_LEN, HEADER_LEN + 33, good.len() - CHECKSUM_LEN - 1] {
            let mut flipped = good.clone();
            flipped[at] ^= 0x10;
            assert!(matches!(
                restore(&flipped),
                Err(SnapshotError::ChecksumMismatch { .. })
            ));
        }
        // A damaged footer is also a checksum mismatch.
        let mut bad_footer = good.clone();
        *bad_footer.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            restore(&bad_footer),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncating anywhere in the payload must never panic.
        for cut in (HEADER_LEN..good.len()).step_by(97) {
            let mut short = good[..cut].to_vec();
            // Fix the payload length so the cut reaches the decoder.
            let plen = cut.saturating_sub(HEADER_LEN + CHECKSUM_LEN) as u64;
            short[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&plen.to_le_bytes());
            assert!(restore(&short).is_err());
        }
    }

    /// The checksum is additive: a v1 image (no footer) still decodes.
    #[test]
    fn v1_images_without_a_footer_still_restore() {
        let mut m = busy_machine();
        m.run_until(SimTime::from_nanos(2_000_000));
        let v2 = save(&m).expect("snapshot");
        // Rewrite the header version to 1 and strip the footer — the
        // exact bytes a v1 build would have written.
        let mut v1 = v2[..v2.len() - CHECKSUM_LEN].to_vec();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let restored = restore(&v1).expect("v1 restore");
        let reference = restore(&v2).expect("v2 restore");
        assert_same_outcome(reference, restored);

        // Versions outside [min, current] are still rejected.
        let mut future = v2.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            restore(&future),
            Err(SnapshotError::VersionMismatch { found: 99, .. })
        ));
        let mut zero = v2;
        zero[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            restore(&zero),
            Err(SnapshotError::VersionMismatch { found: 0, .. })
        ));
    }

    #[test]
    fn fault_cursor_survives_the_round_trip() {
        use crate::fault::{Fault, FaultPlan};
        let build = || {
            let mut m = busy_machine();
            m.install_fault_plan(&FaultPlan {
                faults: vec![Fault::CrashAtReadiness {
                    process: "database".into(),
                    hits: 1,
                }],
                seed: 7,
            });
            m
        };
        let mut reference = build();
        let mut cut = build();
        cut.run_until(SimTime::from_nanos(2_000_000));
        let restored = restore(&save(&cut).expect("snapshot")).expect("restore");
        drop(cut);
        let oa = reference.run();
        let mut restored = restored;
        let ob = restored.run();
        assert_eq!(oa.failed, ob.failed);
        assert_eq!(oa.end_time, ob.end_time);
        assert_eq!(reference.trace().events(), restored.trace().events());
    }

    /// A machine wider than the idle-core word, or slower than a
    /// positive normal speed, decodes as corrupt instead of panicking
    /// when the restored machine derives its dispatch state.
    #[test]
    fn configs_the_scheduler_cannot_run_are_corrupt() {
        let good = save(&Machine::new(MachineConfig::default())).expect("snapshot");
        // The config section's body follows its id and length.
        let body = HEADER_LEN + 4 + 8;
        let reseal = |mut bytes: Vec<u8>| {
            let len = u64::from_le_bytes(bytes[HEADER_LEN + 4..body].try_into().unwrap());
            let hash = fnv1a(FNV1A_OFFSET, &bytes[body..body + len as usize]);
            bytes[12..20].copy_from_slice(&hash.to_le_bytes());
            let end = bytes.len() - CHECKSUM_LEN;
            let sum = fnv1a(FNV1A_OFFSET, &bytes[HEADER_LEN..end]);
            bytes[end..].copy_from_slice(&sum.to_le_bytes());
            bytes
        };
        let mut wide = good.clone();
        wide[body..body + 8].copy_from_slice(&(MAX_CORES as u64 + 1).to_le_bytes());
        assert_eq!(
            restore(&reseal(wide)).err(),
            Some(SnapshotError::Corrupt(
                "more cores than the idle-core word holds"
            ))
        );
        let mut widest = good.clone();
        widest[body..body + 8].copy_from_slice(&(MAX_CORES as u64).to_le_bytes());
        // The core table still says 4, so the width itself is accepted.
        assert_eq!(
            restore(&reseal(widest)).err(),
            Some(SnapshotError::Corrupt("core table size"))
        );
        let mut crawling = good;
        crawling[body + 8..body + 16]
            .copy_from_slice(&f64::MIN_POSITIVE.to_bits().wrapping_sub(1).to_le_bytes());
        assert_eq!(
            restore(&reseal(crawling)).err(),
            Some(SnapshotError::Corrupt(
                "core speed not a positive normal number"
            ))
        );
    }

    #[test]
    fn config_hash_is_sensitive_to_every_field() {
        let base = MachineConfig::default();
        let h = config_hash(&base);
        let mut cores = base;
        cores.cores = 8;
        assert_ne!(config_hash(&cores), h);
        let mut speed = base;
        speed.core_speed = 2.0;
        assert_ne!(config_hash(&speed), h);
        let mut mode = base;
        mode.rcu_mode = RcuMode::Boosted;
        assert_ne!(config_hash(&mode), h);
    }
}
