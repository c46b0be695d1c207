//! Artifact integrity & recovery: the chain that keeps a device booting
//! when its boot-time caches go bad.
//!
//! The paper's deployment story leans on two persisted artifacts — the
//! Pre-parser's binary unit cache and (for suspend-to-RAM products) a
//! machine snapshot. Both live on flash that is written on every
//! firmware update and read on every boot, which is exactly where torn
//! writes, bit rot, and stale generations happen. A consumer device
//! cannot greet a corrupt cache with a panic or, worse, a plausible but
//! wrong boot; it must *detect* the damage (the artifacts carry
//! checksums and a content hash, see [`bb_init::preparse`] and
//! [`bb_sim::snapshot`]) and *recover* along a priced, reported path:
//!
//! * corrupt or stale pre-parse blob → discard it and re-parse the unit
//!   text at boot, paying the conventional load model on the simulated
//!   timeline — bit-identical to a boot that never had the cache;
//! * corrupt checkpoint/suspend image → discard it and cold-boot the
//!   scenario through the ordinary planning path;
//! * transient read failures → bounded retries with deterministic
//!   backoff accounting, then (if still unreadable) the same discard
//!   path.
//!
//! The chain runs inside [`BootRequest`]: hand the read to
//! [`BootRequest::artifact`] and [`BootRequest::run`] validates it as the
//! pre-parse blob, [`BootRequest::resume`] as the checkpoint's snapshot
//! image. Every recovery is recorded as a [`RecoveryEvent`] on the
//! resulting [`crate::Boot`], carrying the reason, the retry accounting,
//! and a priced cost delta, so fleet sweeps can aggregate recovery
//! *rates* and recovery *costs* instead of just counting weird boots.
//!
//! [`BootRequest`]: crate::booster::BootRequest
//! [`BootRequest::artifact`]: crate::booster::BootRequest::artifact
//! [`BootRequest::run`]: crate::booster::BootRequest::run
//! [`BootRequest::resume`]: crate::booster::BootRequest::resume

use bb_init::{blob_content_hash, decode_units, unit_set_hash, LoadModel};
use bb_sim::{AccessPattern, CorruptionPlan, DeviceProfile, SimDuration};

use crate::booster::Scenario;
use crate::service_engine::{ParseCostParams, PreParser};

/// How many times a transiently failing artifact read is retried before
/// the artifact is declared unreadable and discarded.
pub const MAX_ARTIFACT_RETRIES: u32 = 3;

/// Backoff before retry `attempt` (0-based): 500 µs doubling per
/// attempt. Deterministic by construction — the ledger is part of the
/// priced recovery cost, not the simulated timeline.
fn retry_backoff(attempt: u32) -> SimDuration {
    SimDuration::from_micros(500u64 << attempt.min(10))
}

/// Total backoff paid for `retries` retries.
fn retry_cost(retries: u32) -> SimDuration {
    let ns: u64 = (0..retries).map(|a| retry_backoff(a).as_nanos()).sum();
    SimDuration::from_nanos(ns)
}

/// Which persisted boot artifact a recovery concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// The Pre-parser's binary unit cache (see [`bb_init::preparse`]).
    PreparseBlob,
    /// A serialized machine snapshot (see [`bb_sim::snapshot`]):
    /// checkpoint or suspend-to-RAM image.
    SnapshotImage,
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactKind::PreparseBlob => write!(f, "pre-parse blob"),
            ArtifactKind::SnapshotImage => write!(f, "snapshot image"),
        }
    }
}

/// Why an artifact needed recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryReason {
    /// The artifact failed structural validation (checksum mismatch,
    /// truncation, bad magic, …). Carries the decoder's own error line.
    Corrupt {
        /// The structured decode error, rendered.
        detail: String,
    },
    /// The artifact decoded cleanly but was built from a different unit
    /// generation (e.g. a firmware update changed the unit set without
    /// rewriting the cache).
    Stale {
        /// Content hash stamped in the artifact.
        found: u64,
        /// Content hash of the scenario's current unit set.
        expected: u64,
    },
    /// Reads of the artifact failed transiently. If the failure count
    /// exceeds [`MAX_ARTIFACT_RETRIES`] the artifact is discarded;
    /// otherwise the retries succeeded and only their backoff is billed.
    TransientReads {
        /// How many reads failed before one succeeded (or retries ran
        /// out).
        failures: u32,
    },
}

impl std::fmt::Display for RecoveryReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryReason::Corrupt { detail } => write!(f, "corrupt: {detail}"),
            RecoveryReason::Stale { found, expected } => {
                write!(f, "stale generation: {found:#018x} != {expected:#018x}")
            }
            RecoveryReason::TransientReads { failures } => {
                write!(f, "{failures} transient read failure(s)")
            }
        }
    }
}

/// What the recovery chain did about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Transient read failures were retried within the bound and the
    /// artifact was used; only backoff time was billed.
    RetriedOk,
    /// The pre-parse blob was discarded; units were re-parsed from text
    /// on the boot timeline.
    Reparsed,
    /// The snapshot image was discarded; the scenario cold-booted.
    ColdBooted,
}

/// One recovery, with the reason and the priced accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Which artifact was affected.
    pub artifact: ArtifactKind,
    /// Why recovery was needed.
    pub reason: RecoveryReason,
    /// What the chain did.
    pub action: RecoveryAction,
    /// Transient-read retries paid before the verdict.
    pub retries: u32,
    /// Deterministic backoff time those retries burned.
    pub retry_cost: SimDuration,
    /// Priced cost of losing the artifact: the extra simulated time the
    /// degraded path costs over the artifact-backed one (zero for
    /// [`RecoveryAction::RetriedOk`]).
    pub cost_delta: SimDuration,
}

impl RecoveryEvent {
    /// True if the artifact was discarded (as opposed to merely
    /// retried).
    pub fn rejected(&self) -> bool {
        !matches!(self.action, RecoveryAction::RetriedOk)
    }

    /// Total priced cost: retry backoff plus the degraded-path delta.
    pub fn total_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.retry_cost.as_nanos() + self.cost_delta.as_nanos())
    }

    /// Stable one-line rendering for reports.
    pub fn describe(&self) -> String {
        let action = match self.action {
            RecoveryAction::RetriedOk => "retried ok",
            RecoveryAction::Reparsed => "re-parsed units",
            RecoveryAction::ColdBooted => "cold-booted",
        };
        format!("{} {}: {}", self.artifact, action, self.reason)
    }
}

/// An artifact as it came back from boot storage: the bytes plus how
/// many reads failed transiently before one succeeded. This is the
/// injection point for corruption sweeps — apply a
/// [`CorruptionPlan`] to the encoded bytes and hand the result to
/// [`BootRequest::artifact`](crate::booster::BootRequest::artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactRead {
    /// The artifact bytes as read (possibly damaged).
    pub bytes: Vec<u8>,
    /// Reads that failed before one succeeded. Values above
    /// [`MAX_ARTIFACT_RETRIES`] mean the artifact never became
    /// readable.
    pub transient_failures: u32,
}

impl ArtifactRead {
    /// A clean read: the bytes exactly as written, first try.
    pub fn clean(bytes: Vec<u8>) -> Self {
        ArtifactRead {
            bytes,
            transient_failures: 0,
        }
    }

    /// A read of bytes damaged by `plan` (the empty plan leaves them
    /// untouched).
    pub fn corrupted(mut bytes: Vec<u8>, plan: &CorruptionPlan) -> Self {
        plan.apply(&mut bytes);
        ArtifactRead {
            bytes,
            transient_failures: 0,
        }
    }

    /// Marks the read as transiently failing `failures` times.
    pub fn flaky(mut self, failures: u32) -> Self {
        self.transient_failures = failures;
        self
    }

    /// Why the artifact must be discarded before its bytes are even
    /// judged: `Some` when the reads failed past the retry bound.
    pub(crate) fn unreadable(&self) -> Option<RecoveryReason> {
        (self.transient_failures > MAX_ARTIFACT_RETRIES).then_some(RecoveryReason::TransientReads {
            failures: self.transient_failures,
        })
    }

    /// A recovery of this read's artifact, billed the backoff of the
    /// retries the read paid (capped at the bound).
    pub(crate) fn recovery(
        &self,
        artifact: ArtifactKind,
        reason: RecoveryReason,
        action: RecoveryAction,
        cost_delta: SimDuration,
    ) -> RecoveryEvent {
        let retries = self.transient_failures.min(MAX_ARTIFACT_RETRIES);
        RecoveryEvent {
            artifact,
            reason,
            action,
            retries,
            retry_cost: retry_cost(retries),
            cost_delta,
        }
    }

    /// The bill for a read whose artifact was used after retries;
    /// `None` when the first read succeeded.
    pub(crate) fn retried(&self, artifact: ArtifactKind) -> Option<RecoveryEvent> {
        (self.transient_failures > 0).then(|| {
            let reason = RecoveryReason::TransientReads {
                failures: self.transient_failures,
            };
            self.recovery(
                artifact,
                reason,
                RecoveryAction::RetriedOk,
                SimDuration::ZERO,
            )
        })
    }
}

/// Estimated extra boot time of parsing unit text conventionally
/// instead of loading the pre-parse cache: the same load models the
/// planner prices, evaluated against the boot storage profile.
fn preparse_penalty(
    pre: &PreParser,
    params: &ParseCostParams,
    storage: &DeviceProfile,
) -> SimDuration {
    fn model_ns(model: &LoadModel, storage: &DeviceProfile) -> u64 {
        let bps = match model.pattern {
            AccessPattern::Sequential => storage.seq_read_bps,
            AccessPattern::Random => storage.rand_read_bps,
        };
        let io = model.io_bytes.saturating_mul(1_000_000_000) / bps.max(1)
            + storage.request_latency.as_nanos();
        model.cpu.as_nanos() + io
    }
    let conv = model_ns(&pre.load_model(params, false), storage);
    let cached = model_ns(&pre.load_model(params, true), storage);
    SimDuration::from_nanos(conv.saturating_sub(cached))
}

/// Validates a pre-parse blob read against the scenario's current unit
/// set: bounded transient-read retries, then container/CRC validation,
/// then the content-hash staleness check. `Ok` carries the retry bill
/// of a usable blob, `Err` the priced rejection (`pre` measures the
/// scenario's units, for pricing it).
pub(crate) fn validate_preparse_blob(
    read: &ArtifactRead,
    scenario: &Scenario,
    pre: &PreParser,
) -> Result<Option<RecoveryEvent>, RecoveryEvent> {
    let reason = if let Some(reason) = read.unreadable() {
        reason
    } else if let Err(e) = decode_units(&read.bytes) {
        RecoveryReason::Corrupt {
            detail: e.to_string(),
        }
    } else {
        let found = blob_content_hash(&read.bytes).expect("container was just validated");
        let expected = unit_set_hash(&scenario.units);
        if found == expected {
            return Ok(read.retried(ArtifactKind::PreparseBlob));
        }
        RecoveryReason::Stale { found, expected }
    };
    let penalty = preparse_penalty(pre, &scenario.parse_params, &scenario.storage);
    Err(read.recovery(
        ArtifactKind::PreparseBlob,
        reason,
        RecoveryAction::Reparsed,
        penalty,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;
    use crate::booster::{BootRequest, CheckpointPhase};
    use crate::config::BbConfig;
    use crate::fallback::FallbackPolicy;
    use bb_init::encode_units;
    use bb_sim::{FaultPlan, SimTime};

    fn blob(s: &Scenario) -> Vec<u8> {
        encode_units(&s.units)
    }

    #[test]
    fn clean_artifact_is_accepted_silently() {
        let s = mini_tv();
        let pre = PreParser::build(&s.units);
        let read = ArtifactRead::clean(blob(&s));
        assert_eq!(validate_preparse_blob(&read, &s, &pre), Ok(None));
        let boot = BootRequest::new(&s).artifact(&read).run().unwrap();
        assert!(boot.recoveries.is_empty());
    }

    #[test]
    fn corrupt_blob_boots_like_a_boot_that_never_had_the_cache() {
        let s = mini_tv();
        let plan = CorruptionPlan::seeded(7);
        let read = ArtifactRead::corrupted(blob(&s), &plan);
        let recovered = BootRequest::new(&s).artifact(&read).run().unwrap();
        assert_eq!(recovered.recoveries.len(), 1);
        let ev = &recovered.recoveries[0];
        assert_eq!(ev.artifact, ArtifactKind::PreparseBlob);
        assert_eq!(ev.action, RecoveryAction::Reparsed);
        assert!(ev.rejected());
        assert!(ev.cost_delta.as_nanos() > 0, "recovery must be priced");

        // The acceptance property: the recovered timeline is
        // bit-identical to the same config with the Pre-parser off.
        let fresh = BootRequest::new(&s)
            .config(BbConfig {
                preparser: false,
                ..BbConfig::full()
            })
            .run()
            .unwrap();
        assert_eq!(
            recovered.report.boot.completion_time,
            fresh.report.boot.completion_time
        );
        assert_eq!(recovered.report.quiesce_time, fresh.report.quiesce_time);
    }

    #[test]
    fn stale_blob_is_rejected_with_both_hashes() {
        let mut other = mini_tv();
        other.units.pop();
        let s = mini_tv();
        let pre = PreParser::build(&s.units);
        // A valid blob from a *different* unit generation.
        let read = ArtifactRead::clean(blob(&other));
        let Err(ev) = validate_preparse_blob(&read, &s, &pre) else {
            panic!("stale blob must be rejected");
        };
        assert!(matches!(
            ev.reason,
            RecoveryReason::Stale { found, expected } if found != expected
        ));
    }

    #[test]
    fn transient_reads_within_the_bound_are_retried_and_billed() {
        let s = mini_tv();
        let read = ArtifactRead::clean(blob(&s)).flaky(2);
        let boot = BootRequest::new(&s).artifact(&read).run().unwrap();
        assert_eq!(boot.recoveries.len(), 1);
        let ev = &boot.recoveries[0];
        assert_eq!(ev.action, RecoveryAction::RetriedOk);
        assert!(!ev.rejected());
        assert_eq!(ev.retries, 2);
        assert_eq!(ev.retry_cost, retry_cost(2));
        assert_eq!(ev.cost_delta.as_nanos(), 0);
        // The artifact was still used: same timeline as a plain boot.
        let plain = BootRequest::new(&s).run().unwrap();
        assert_eq!(
            boot.report.boot.completion_time,
            plain.report.boot.completion_time
        );
    }

    #[test]
    fn exhausted_retries_discard_the_artifact() {
        let s = mini_tv();
        let read = ArtifactRead::clean(blob(&s)).flaky(MAX_ARTIFACT_RETRIES + 2);
        let boot = BootRequest::new(&s).artifact(&read).run().unwrap();
        assert_eq!(boot.recoveries.len(), 1);
        let ev = &boot.recoveries[0];
        assert_eq!(ev.action, RecoveryAction::Reparsed);
        assert!(matches!(
            ev.reason,
            RecoveryReason::TransientReads { failures } if failures == MAX_ARTIFACT_RETRIES + 2
        ));
        assert_eq!(ev.retries, MAX_ARTIFACT_RETRIES);
    }

    #[test]
    fn conventional_boots_never_consult_the_artifact() {
        let s = mini_tv();
        let read = ArtifactRead::corrupted(blob(&s), &CorruptionPlan::seeded(3));
        let boot = BootRequest::new(&s)
            .config(BbConfig::conventional())
            .artifact(&read)
            .run()
            .unwrap();
        assert!(boot.recoveries.is_empty());
    }

    #[test]
    fn corrupt_snapshot_image_cold_boots_with_a_priced_event() {
        let s = mini_tv();
        let cfg = BbConfig::full();
        let ckpt = BootRequest::new(&s)
            .config(cfg)
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();

        // A pristine image resumes normally, no events.
        let clean = ArtifactRead::clean(ckpt.bytes().to_vec());
        let boot = BootRequest::new(&s)
            .config(cfg)
            .artifact(&clean)
            .resume(&ckpt)
            .unwrap();
        assert!(boot.recoveries.is_empty());
        let straight = BootRequest::new(&s).config(cfg).run().unwrap();
        assert_eq!(
            boot.report.boot.completion_time,
            straight.report.boot.completion_time
        );

        // A corrupted image is discarded; the cold boot matches the
        // uninterrupted run and carries a priced ColdBooted event.
        let read = ArtifactRead::corrupted(ckpt.bytes().to_vec(), &CorruptionPlan::seeded(11));
        let boot = BootRequest::new(&s)
            .config(cfg)
            .artifact(&read)
            .resume(&ckpt)
            .unwrap();
        assert_eq!(
            boot.report.boot.completion_time,
            straight.report.boot.completion_time
        );
        assert_eq!(boot.recoveries.len(), 1);
        let ev = &boot.recoveries[0];
        assert_eq!(ev.artifact, ArtifactKind::SnapshotImage);
        assert_eq!(ev.action, RecoveryAction::ColdBooted);
        assert!(matches!(ev.reason, RecoveryReason::Corrupt { .. }));
        assert_eq!(
            ev.cost_delta,
            boot.report.kernel.userspace_start.since(SimTime::ZERO)
        );
    }

    #[test]
    fn unreadable_snapshot_image_cold_boots_without_touching_bytes() {
        let s = mini_tv();
        let cfg = BbConfig::full();
        let ckpt = BootRequest::new(&s)
            .config(cfg)
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();
        let read = ArtifactRead::clean(ckpt.bytes().to_vec()).flaky(MAX_ARTIFACT_RETRIES + 1);
        let boot = BootRequest::new(&s)
            .config(cfg)
            .artifact(&read)
            .resume(&ckpt)
            .unwrap();
        assert_eq!(boot.recoveries.len(), 1);
        assert!(matches!(
            boot.recoveries[0].reason,
            RecoveryReason::TransientReads { failures: 4 }
        ));
        assert_eq!(boot.recoveries[0].action, RecoveryAction::ColdBooted);
    }

    #[test]
    fn flaky_snapshot_image_within_the_bound_resumes_and_bills_retries() {
        let s = mini_tv();
        let ckpt = BootRequest::new(&s)
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();
        let read = ArtifactRead::clean(ckpt.bytes().to_vec()).flaky(2);
        let boot = BootRequest::new(&s).artifact(&read).resume(&ckpt).unwrap();
        assert_eq!(boot.recoveries.len(), 1);
        let ev = &boot.recoveries[0];
        assert_eq!(ev.artifact, ArtifactKind::SnapshotImage);
        assert_eq!(ev.action, RecoveryAction::RetriedOk);
        assert_eq!(ev.retries, 2);
        assert_eq!(ev.retry_cost, retry_cost(2));
        assert_eq!(ev.cost_delta.as_nanos(), 0);
        let straight = BootRequest::new(&s).run().unwrap();
        assert_eq!(
            boot.report.boot.completion_time,
            straight.report.boot.completion_time
        );
    }

    #[test]
    fn supervised_boots_flip_preparser_only_for_bb_shapes() {
        let s = mini_tv();
        let read = ArtifactRead::corrupted(blob(&s), &CorruptionPlan::seeded(5));
        let supervised = |cfg| {
            BootRequest::new(&s)
                .config(cfg)
                .artifact(&read)
                .faults(&FaultPlan::none())
                .fallback(FallbackPolicy::default())
                .run()
                .unwrap()
        };
        let out = supervised(BbConfig::full());
        assert!(out.degraded.is_none());
        assert_eq!(out.recoveries.len(), 1);
        assert!(out.recoveries[0].rejected());

        let conv = supervised(BbConfig::conventional());
        assert!(
            conv.recoveries.is_empty(),
            "conventional boots skip the cache"
        );
    }

    #[test]
    fn backoff_ledger_is_deterministic_and_bounded() {
        assert_eq!(retry_backoff(0), SimDuration::from_micros(500));
        assert_eq!(retry_backoff(1), SimDuration::from_micros(1000));
        assert_eq!(retry_backoff(2), SimDuration::from_micros(2000));
        assert_eq!(retry_cost(3), SimDuration::from_micros(500 + 1000 + 2000));
        assert_eq!(retry_cost(0), SimDuration::from_nanos(0));
    }
}
