//! Pre-parsed unit cache: the binary format behind the Pre-parser.
//!
//! "Pre-parser parses such service configuration files beforehand and
//! allows systemd to read pre-parsed data and to skip reading and
//! parsing the configuration files at boot time" (§3.3). The paper
//! attributes 150 ms of "loading services" and 231 ms of "parsing
//! service dependencies" savings to it (Figure 6(d)).
//!
//! This module implements the cache as a compact, versioned, hand-rolled
//! binary encoding of parsed [`Unit`]s (the sanctioned dependency set
//! offers no serde *format* crate, so the codec is explicit — which also
//! makes the on-disk layout auditable). Encoding and decoding round-trip
//! exactly; the `preparser` Criterion bench measures real text-parse vs
//! cache-load time on this code.

use crate::unit::{ExecConfig, IoSchedulingClass, RestartPolicy, ServiceType, Unit, UnitName};
use bb_sim::{fnv1a, FNV1A_OFFSET};

/// Magic + version header of a cache blob. Version 2 added the
/// supervision fields (`Restart=`, `RestartSec=`, start limits,
/// `OnFailure=`); version 3 added the integrity envelope (a content
/// hash of the source unit set after the magic, and a trailing CRC over
/// the whole blob). Blobs from older versions are rejected with
/// [`CodecError::UnsupportedVersion`]; non-cache bytes with
/// [`CodecError::BadMagic`].
///
/// Supervision data is flagged in the service-type byte
/// (`FLAG_SUPERVISION`, `FLAG_ON_FAILURE`) and encoded only for
/// units that actually carry it, so a unit set without `Restart=` or
/// `OnFailure=` encodes to exactly as many bytes as it did under v1 —
/// the simulated cache-load I/O (and with it the calibration pins) is
/// unchanged for unsupervised boots. The v3 integrity envelope is a
/// *constant* 12 bytes ([`INTEGRITY_OVERHEAD`]), which the Pre-parser's
/// load model subtracts, so it too leaves the calibration pins alone.
pub const MAGIC: &[u8; 6] = b"BBPP\x03\x00";

/// The first bytes every cache blob shares across versions; what
/// distinguishes "an old cache" from "not a cache at all".
const MAGIC_PREFIX: &[u8; 4] = b"BBPP";

/// Bytes the v3 integrity envelope adds over the v2 layout: the u64
/// content hash after the magic plus the trailing u32 CRC. Constant for
/// any unit set, so cost models can subtract it.
pub const INTEGRITY_OVERHEAD: usize = 8 + 4;

/// Minimum size of a well-formed blob: magic, content hash, unit
/// count, trailing CRC (the empty unit set).
const MIN_BLOB_LEN: usize = MAGIC.len() + 8 + 4 + 4;

/// Service-type flag bit: a supervision tail (`Restart=`,
/// `RestartSec=`, `StartLimitBurst=`, `StartLimitIntervalSec=`)
/// follows the fixed exec fields.
const FLAG_SUPERVISION: u8 = 0x80;

/// Service-type flag bit: an `OnFailure=` name list follows.
const FLAG_ON_FAILURE: u8 = 0x40;

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Blob does not start with the `BBPP` cache prefix — these bytes
    /// were never a unit cache.
    BadMagic,
    /// Blob carries the cache prefix but a different format version —
    /// a genuine cache from another build (e.g. left behind by a
    /// firmware update), distinguishable from garbage so recovery
    /// reports can say "stale format", not "corrupt".
    UnsupportedVersion {
        /// Version byte recorded in the blob.
        found: u8,
    },
    /// The blob's bytes do not hash to its trailing CRC: damaged after
    /// it was written (bit flip, torn write, zeroed page).
    ChecksumMismatch {
        /// CRC recorded in the blob.
        found: u32,
        /// CRC computed over the blob as read.
        expected: u32,
    },
    /// Blob ended mid-structure.
    Truncated,
    /// A decoded string was not UTF-8.
    BadString,
    /// A decoded enum discriminant was unknown.
    BadEnum(u8),
    /// A decoded unit name had no recognized suffix.
    BadUnitName(String),
    /// Trailing bytes after the last unit.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a unit cache blob"),
            CodecError::UnsupportedVersion { found } => {
                write!(f, "unit cache format version {found} is not supported")
            }
            CodecError::ChecksumMismatch { found, expected } => write!(
                f,
                "unit cache CRC {found:#010x} does not match computed {expected:#010x}"
            ),
            CodecError::Truncated => write!(f, "truncated unit cache"),
            CodecError::BadString => write!(f, "invalid UTF-8 in unit cache"),
            CodecError::BadEnum(d) => write!(f, "unknown discriminant {d}"),
            CodecError::BadUnitName(n) => write!(f, "invalid unit name {n:?}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes units into a cache blob.
///
/// # Examples
///
/// ```
/// use bb_init::{decode_units, encode_units, Unit, UnitName};
///
/// let units = vec![Unit::new(UnitName::new("dbus.service")).needs("var.mount")];
/// let blob = encode_units(&units);
/// assert_eq!(decode_units(&blob).unwrap(), units);
/// ```
pub fn encode_units(units: &[Unit]) -> Vec<u8> {
    let payload = encode_unit_payload(units);
    let mut out = Vec::with_capacity(MIN_BLOB_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, fnv1a(FNV1A_OFFSET, &payload));
    put_u32(&mut out, units.len() as u32);
    out.extend_from_slice(&payload);
    let crc = fnv1a32(&out);
    put_u32(&mut out, crc);
    out
}

/// FNV-1a content hash of a unit set — the generation stamp stored in
/// every blob. A firmware update that edits any unit changes this hash,
/// so a cached blob written before the update no longer matches the
/// live unit set ([`blob_content_hash`] reads the stored stamp for the
/// comparison).
pub fn unit_set_hash(units: &[Unit]) -> u64 {
    fnv1a(FNV1A_OFFSET, &encode_unit_payload(units))
}

/// The content hash stored in `blob`'s header, after validating the
/// container (magic, version, CRC). Compare with [`unit_set_hash`] of
/// the live unit set to detect a stale cache.
///
/// # Errors
///
/// The same container errors as [`decode_units`]; the unit payload
/// itself is not decoded.
pub fn blob_content_hash(blob: &[u8]) -> Result<u64, CodecError> {
    verify_container(blob)?;
    let at = MAGIC.len();
    Ok(u64::from_le_bytes(
        blob[at..at + 8].try_into().expect("8 bytes"),
    ))
}

/// Checks the container envelope: magic prefix, format version, and
/// the trailing CRC over everything before it. Returns the body (blob
/// minus the CRC) for the structural decoder.
fn verify_container(blob: &[u8]) -> Result<&[u8], CodecError> {
    if blob.len() < MAGIC.len() {
        return Err(CodecError::Truncated);
    }
    if &blob[..MAGIC_PREFIX.len()] != MAGIC_PREFIX {
        return Err(CodecError::BadMagic);
    }
    if blob[..MAGIC.len()] != MAGIC[..] {
        return Err(CodecError::UnsupportedVersion { found: blob[4] });
    }
    if blob.len() < MIN_BLOB_LEN {
        return Err(CodecError::Truncated);
    }
    let body = &blob[..blob.len() - 4];
    let found = u32::from_le_bytes(blob[blob.len() - 4..].try_into().expect("4 bytes"));
    let expected = fnv1a32(body);
    if found != expected {
        return Err(CodecError::ChecksumMismatch { found, expected });
    }
    Ok(body)
}

fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Encodes the unit records alone — the bytes the content hash covers.
fn encode_unit_payload(units: &[Unit]) -> Vec<u8> {
    let mut out = Vec::with_capacity(units.len() * 128);
    for u in units {
        put_str(&mut out, u.name.as_str());
        put_str(&mut out, &u.description);
        put_str_list(&mut out, &u.documentation);
        for list in [
            &u.after,
            &u.before,
            &u.requires,
            &u.wants,
            &u.conflicts,
            &u.wanted_by,
            &u.required_by,
        ] {
            put_name_list(&mut out, list);
        }
        match &u.condition_path_exists {
            Some(p) => {
                out.push(1);
                put_str(&mut out, p);
            }
            None => out.push(0),
        }
        out.push(u.default_dependencies as u8);
        let defaults = ExecConfig::default();
        let supervised = u.exec.restart != defaults.restart
            || u.exec.restart_sec_ms != defaults.restart_sec_ms
            || u.exec.start_limit_burst != defaults.start_limit_burst
            || u.exec.start_limit_interval_ms != defaults.start_limit_interval_ms;
        let mut type_byte = match u.exec.service_type {
            ServiceType::Simple => 0,
            ServiceType::Forking => 1,
            ServiceType::Oneshot => 2,
            ServiceType::Notify => 3,
        };
        if supervised {
            type_byte |= FLAG_SUPERVISION;
        }
        if !u.on_failure.is_empty() {
            type_byte |= FLAG_ON_FAILURE;
        }
        out.push(type_byte);
        match &u.exec.exec_start {
            Some(e) => {
                out.push(1);
                put_str(&mut out, e);
            }
            None => out.push(0),
        }
        out.push(u.exec.nice as u8);
        out.push(match u.exec.io_class {
            IoSchedulingClass::BestEffort => 0,
            IoSchedulingClass::Idle => 1,
            IoSchedulingClass::Realtime => 2,
        });
        put_u64(&mut out, u.exec.timeout_ms);
        if supervised {
            out.push(match u.exec.restart {
                RestartPolicy::No => 0,
                RestartPolicy::OnFailure => 1,
                RestartPolicy::Always => 2,
            });
            put_u64(&mut out, u.exec.restart_sec_ms);
            put_u32(&mut out, u.exec.start_limit_burst);
            put_u64(&mut out, u.exec.start_limit_interval_ms);
        }
        if !u.on_failure.is_empty() {
            put_name_list(&mut out, &u.on_failure);
        }
    }
    out
}

/// Decodes a cache blob back into units.
///
/// The container envelope (magic, version, trailing CRC) is verified
/// before any structure is decoded, so random damage surfaces as
/// [`CodecError::ChecksumMismatch`] rather than an arbitrary
/// structural error. Never panics on malformed input.
pub fn decode_units(blob: &[u8]) -> Result<Vec<Unit>, CodecError> {
    let body = verify_container(blob)?;
    let mut r = Reader {
        buf: body,
        pos: MAGIC.len() + 8,
    };
    let count = r.u32()? as usize;
    // Each encoded unit occupies at least ~30 bytes (fixed fields plus
    // empty-list length prefixes); bound the allocation by what the blob
    // could possibly hold so a corrupted count cannot trigger a huge
    // allocation before the Truncated error would surface.
    if count > body.len() / 30 + 1 {
        return Err(CodecError::Truncated);
    }
    let mut units = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.str()?;
        let name = UnitName::parse(&name).map_err(|_| CodecError::BadUnitName(name))?;
        let mut u = Unit::new(name);
        u.description = r.str()?;
        u.documentation = r.str_list()?;
        u.after = r.name_list()?;
        u.before = r.name_list()?;
        u.requires = r.name_list()?;
        u.wants = r.name_list()?;
        u.conflicts = r.name_list()?;
        u.wanted_by = r.name_list()?;
        u.required_by = r.name_list()?;
        u.condition_path_exists = if r.u8()? == 1 { Some(r.str()?) } else { None };
        u.default_dependencies = r.u8()? == 1;
        let type_byte = r.u8()?;
        let supervised = type_byte & FLAG_SUPERVISION != 0;
        let has_on_failure = type_byte & FLAG_ON_FAILURE != 0;
        let defaults = ExecConfig::default();
        let mut exec = ExecConfig {
            service_type: match type_byte & !(FLAG_SUPERVISION | FLAG_ON_FAILURE) {
                0 => ServiceType::Simple,
                1 => ServiceType::Forking,
                2 => ServiceType::Oneshot,
                3 => ServiceType::Notify,
                d => return Err(CodecError::BadEnum(d)),
            },
            exec_start: if r.u8()? == 1 { Some(r.str()?) } else { None },
            nice: r.u8()? as i8,
            io_class: match r.u8()? {
                0 => IoSchedulingClass::BestEffort,
                1 => IoSchedulingClass::Idle,
                2 => IoSchedulingClass::Realtime,
                d => return Err(CodecError::BadEnum(d)),
            },
            timeout_ms: r.u64()?,
            ..defaults
        };
        if supervised {
            exec.restart = match r.u8()? {
                0 => RestartPolicy::No,
                1 => RestartPolicy::OnFailure,
                2 => RestartPolicy::Always,
                d => return Err(CodecError::BadEnum(d)),
            };
            exec.restart_sec_ms = r.u64()?;
            exec.start_limit_burst = r.u32()?;
            exec.start_limit_interval_ms = r.u64()?;
        }
        u.exec = exec;
        if has_on_failure {
            u.on_failure = r.name_list()?;
        }
        units.push(u);
    }
    if r.pos != body.len() {
        return Err(CodecError::TrailingBytes(body.len() - r.pos));
    }
    Ok(units)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_str_list(out: &mut Vec<u8>, list: &[String]) {
    put_u32(out, list.len() as u32);
    for s in list {
        put_str(out, s);
    }
}

fn put_name_list(out: &mut Vec<u8>, list: &[UnitName]) {
    put_u32(out, list.len() as u32);
    for n in list {
        put_str(out, n.as_str());
    }
}

struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadString)
    }

    fn str_list(&mut self) -> Result<Vec<String>, CodecError> {
        let len = self.u32()? as usize;
        (0..len).map(|_| self.str()).collect()
    }

    fn name_list(&mut self) -> Result<Vec<UnitName>, CodecError> {
        let len = self.u32()? as usize;
        (0..len)
            .map(|_| {
                let s = self.str()?;
                UnitName::parse(&s).map_err(|_| CodecError::BadUnitName(s))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_units() -> Vec<Unit> {
        vec![
            Unit::new(UnitName::new("dbus.service"))
                .with_description("D-Bus IPC daemon")
                .needs("var.mount")
                .before("fasttv.service")
                .wants("log.service")
                .with_type(ServiceType::Notify)
                .with_exec("dbus-daemon")
                .wanted_by("multi-user.target"),
            {
                let mut u = Unit::new(UnitName::new("var.mount"))
                    .with_type(ServiceType::Oneshot)
                    .with_exec("mount:/var");
                u.condition_path_exists = Some("/dev/mmcblk0p3".into());
                u.exec.nice = -5;
                u.exec.io_class = IoSchedulingClass::Realtime;
                u.exec.timeout_ms = 5000;
                u.default_dependencies = false;
                u.documentation.push("man:mount(8)".into());
                u
            },
            Unit::new(UnitName::new("flaky.service"))
                .with_exec("flaky-daemon")
                .with_restart(RestartPolicy::OnFailure)
                .with_restart_sec_ms(250)
                .with_start_limit_burst(3)
                .on_failure("rescue.service"),
        ]
    }

    #[test]
    fn roundtrip_exact() {
        let units = sample_units();
        let blob = encode_units(&units);
        let back = decode_units(&blob).unwrap();
        assert_eq!(back, units);
    }

    #[test]
    fn empty_set_roundtrips() {
        let blob = encode_units(&[]);
        assert_eq!(decode_units(&blob).unwrap(), Vec::<Unit>::new());
    }

    /// Recomputes the trailing CRC after a test mutated the body, so
    /// structural decode errors stay reachable past the integrity check.
    fn reseal(blob: &mut [u8]) {
        let body_len = blob.len() - 4;
        let crc = fnv1a32(&blob[..body_len]);
        blob[body_len..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = encode_units(&sample_units());
        blob[0] = b'X';
        assert_eq!(decode_units(&blob), Err(CodecError::BadMagic));
    }

    #[test]
    fn old_format_versions_are_distinguishable_from_garbage() {
        // A v2 blob (the previous release's cache, e.g. left behind by
        // a firmware update) keeps the BBPP prefix but an older version
        // byte: that is UnsupportedVersion, not BadMagic.
        let mut blob = encode_units(&sample_units());
        blob[4] = 0x02;
        assert_eq!(
            decode_units(&blob),
            Err(CodecError::UnsupportedVersion { found: 2 })
        );
        assert_eq!(
            blob_content_hash(&blob),
            Err(CodecError::UnsupportedVersion { found: 2 })
        );
    }

    #[test]
    fn random_damage_is_a_checksum_mismatch_not_a_decode_error() {
        let blob = encode_units(&sample_units());
        // Flip one bit anywhere in the body: the CRC catches it before
        // the structural decoder ever runs.
        for at in [MAGIC.len(), MAGIC.len() + 9, blob.len() / 2, blob.len() - 5] {
            let mut bad = blob.clone();
            bad[at] ^= 0x04;
            assert!(
                matches!(decode_units(&bad), Err(CodecError::ChecksumMismatch { .. })),
                "flip at {at}"
            );
        }
        // A damaged CRC field itself is also a mismatch.
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            decode_units(&bad),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn content_hash_stamps_the_unit_generation() {
        let units = sample_units();
        let blob = encode_units(&units);
        assert_eq!(blob_content_hash(&blob).unwrap(), unit_set_hash(&units));
        // Editing any unit (a firmware update) changes the stamp.
        let mut edited = units.clone();
        edited[0].description = "updated".into();
        assert_ne!(unit_set_hash(&edited), unit_set_hash(&units));
        assert_ne!(
            blob_content_hash(&encode_units(&edited)).unwrap(),
            blob_content_hash(&blob).unwrap()
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let blob = encode_units(&sample_units());
        for cut in (MAGIC.len()..blob.len()).step_by(7) {
            let err = decode_units(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated | CodecError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Splice a stray byte between the last unit and the CRC and
        // reseal, so the *structural* trailing check is what fires.
        let mut blob = encode_units(&sample_units());
        let at = blob.len() - 4;
        blob.insert(at, 0);
        reseal(&mut blob);
        assert_eq!(decode_units(&blob), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_enum_rejected() {
        let one = vec![Unit::new(UnitName::new("a.service"))];
        let blob = encode_units(&one);
        // Corrupt the service-type byte: locate it from the end of an
        // unsupervised unit (type(1) exec(1) nice(1) io(1) timeout(8)
        // = 12 bytes before the CRC, so index len-16), then reseal the
        // CRC so the structural decoder sees the bad discriminant.
        let mut bad = blob.clone();
        let idx = bad.len() - 16;
        bad[idx] = 9;
        reseal(&mut bad);
        assert_eq!(decode_units(&bad), Err(CodecError::BadEnum(9)));
    }

    #[test]
    fn default_supervision_adds_no_bytes() {
        // The calibration pins ride on this: a unit set with no
        // Restart=/OnFailure= must encode to the same number of bytes
        // it did before the supervision fields existed, so the
        // simulated cache-load I/O of unsupervised boots is unchanged.
        let plain = Unit::new(UnitName::new("a.service")).with_exec("daemon");
        let plain_len = encode_units(std::slice::from_ref(&plain)).len();

        let supervised = plain
            .clone()
            .with_restart(RestartPolicy::OnFailure)
            .with_start_limit_burst(2)
            .on_failure("rescue.service");
        let supervised_len = encode_units(&[supervised]).len();
        // restart(1) + restart_sec(8) + burst(4) + interval(8)
        // + list len(4) + name len(4) + "rescue.service"(14) = 43.
        assert_eq!(supervised_len, plain_len + 43);
    }

    #[test]
    fn cache_is_smaller_than_text() {
        let units = sample_units();
        let text_size: usize = units.iter().map(|u| u.to_unit_file().len()).sum();
        let blob = encode_units(&units);
        assert!(
            blob.len() < text_size * 2,
            "cache {} vs text {}",
            blob.len(),
            text_size
        );
    }

    #[test]
    fn negative_nice_survives() {
        let mut u = Unit::new(UnitName::new("n.service"));
        u.exec.nice = -20;
        let back = decode_units(&encode_units(&[u.clone()])).unwrap();
        assert_eq!(back[0].exec.nice, -20);
    }
}
#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::unit::{Unit, UnitName};

    #[test]
    fn huge_forged_count_errors_instead_of_allocating() {
        let mut blob = encode_units(&[Unit::new(UnitName::new("a.service"))]);
        // Forge the count field (bytes 14..18, after magic and content
        // hash) to u32::MAX, resealing the CRC so the forged count
        // reaches the structural decoder.
        blob[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let body_len = blob.len() - 4;
        let crc = super::fnv1a32(&blob[..body_len]);
        blob[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_units(&blob), Err(CodecError::Truncated));
    }
}
