//! Measurement primitives: nearest-rank percentiles, report digests,
//! and the `/proc` readers behind the CPU, memory and steal figures.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Samples a percentile must leave above its rank before it is
/// reported; a tail resting on fewer tickets is mostly noise.
pub const MIN_BEYOND: usize = 10;

/// Linux reports `/proc` CPU times in USER_HZ ticks, which the kernel
/// ABI fixes at 100 per second.
const TICKS_PER_S: f64 = 100.0;

/// Nearest-rank percentile of ascending `sorted`: the sample at rank
/// ⌈p·n/100⌉. Refuses when fewer than [`MIN_BEYOND`] samples lie above
/// that rank.
pub fn percentile(sorted: &[f64], p: usize) -> Result<f64, String> {
    let n = sorted.len();
    let rank = (p * n).div_ceil(100).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; {MIN_BEYOND} are needed",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// Middle value of a small set of repetitions (mean of the middle two
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a, 64 bit: the hash of one report's bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One digest per run: FNV-1a over the per-ticket report hashes, in
/// ticket order.
pub fn digest(ticket_hashes: &[u64]) -> u64 {
    let bytes: Vec<u8> = ticket_hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Host memory speed. On a shared VM, neighbours' load on the memory
/// system changes how fast this program runs by up to 1.7x within
/// minutes, with no steal recorded. Random lookups in a table of a few
/// MiB slow down in step with the program (measured: log-log slope 0.9,
/// correlation 0.99), so their time is the host-speed reading that the
/// end-to-end times are scaled by. Passes run between tickets, on the
/// benchmark's main thread.
pub struct HostProbe {
    table: HashMap<u64, u64>,
    /// Resident memory the table added to this process.
    pub resident_kib: u64,
}

/// Entries in the probe table (about 4 MiB).
const PROBE_ENTRIES: u64 = 200_000;
/// Lookups per probe pass (a few milliseconds).
const PROBE_LOOKUPS: u64 = 100_000;

impl HostProbe {
    /// Builds the probe table in one allocation.
    pub fn new() -> Result<HostProbe, String> {
        let me = std::process::id();
        let before = status_kib(me, "VmRSS")?;
        let mut table = HashMap::with_capacity(PROBE_ENTRIES as usize);
        table.extend((0..PROBE_ENTRIES).map(|i| (probe_key(i), i)));
        let resident_kib = status_kib(me, "VmRSS")?.saturating_sub(before);
        Ok(HostProbe {
            table,
            resident_kib,
        })
    }

    /// One pass, in milliseconds.
    pub fn pass_ms(&self) -> f64 {
        let start = Instant::now();
        let sum =
            (0..PROBE_LOOKUPS).fold(0u64, |acc, i| acc.wrapping_add(self.table[&probe_key(i)]));
        black_box(sum);
        start.elapsed().as_secs_f64() * 1e3
    }
}

fn probe_key(i: u64) -> u64 {
    black_box(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// User plus system CPU seconds of process `pid`, all threads included.
/// Steal is not in these counters.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may hold spaces; the fields after it do not.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .ok_or_else(|| format!("{path}: no command field"))?
        .1
        .split_whitespace()
        .collect();
    // `utime` and `stime` are fields 14 and 15; `state` (field 3) is
    // the first one after the command name.
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: bad field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / TICKS_PER_S)
}

/// A `kB` line of `/proc/<pid>/status`, such as `VmHWM` or `VmRSS`.
pub fn status_kib(pid: u32, key: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no {key} line"))
}

/// Host-wide CPU time split, from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Reads the counters now.
    pub fn read() -> Result<HostCpu, String> {
        let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let line = stat
            .lines()
            .find(|l| l.starts_with("cpu "))
            .ok_or("/proc/stat: no cpu line")?;
        // user nice system idle iowait irq softirq steal; the guest
        // columns after them are already counted in user and nice.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        if v.len() < 8 {
            return Err("/proc/stat: short cpu line".into());
        }
        Ok(HostCpu {
            steal: v[7],
            total: v.iter().sum(),
        })
    }

    /// USER_HZ ticks stolen by the hypervisor since `earlier`, summed
    /// over CPUs.
    pub fn stolen_ticks_since(&self, earlier: &HostCpu) -> u64 {
        self.steal.saturating_sub(earlier.steal)
    }

    /// Percent of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Ok(100.0));
        assert_eq!(percentile(&v, 95), Ok(190.0));
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Ok(11.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 199 samples: rank ⌈189.05⌉ = 190 leaves only 9 above it.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&v, 95).is_err());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(percentile(&v, 50).is_ok());
        assert!(percentile(&v[..19], 50).is_err());
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn a_flipped_report_byte_fails_the_digest_check() {
        let reports = ["{\"a\": 1}\n", "{\"b\": 2.500}\n", "{\"c\": []}\n"];
        let hashes: Vec<u64> = reports.iter().map(|r| fnv1a(r.as_bytes())).collect();
        let reference = digest(&hashes);
        for t in 0..reports.len() {
            for i in 0..reports[t].len() {
                for bit in 0..8 {
                    let mut bytes = reports[t].as_bytes().to_vec();
                    bytes[i] ^= 1 << bit;
                    let mut flipped = hashes.clone();
                    flipped[t] = fnv1a(&bytes);
                    assert_ne!(digest(&flipped), reference, "ticket {t} byte {i} bit {bit}");
                }
            }
        }
        // Ticket order is part of the digest.
        let mut swapped = hashes.clone();
        swapped.swap(0, 2);
        assert_ne!(digest(&swapped), reference);
    }
}
