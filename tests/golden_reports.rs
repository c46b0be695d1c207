//! Golden report documents: the bytes `bbsim sweep` and `bbsim chaos`
//! print for two small grids, pinned under `tests/golden/`.
//!
//! * `sweep_s24.json` / `sweep_s24_metrics.json` —
//!   `bbsim sweep --services 24 --seeds 3 --json FILE --metrics FILE`
//!   (schemas `bb-fleet-v1` and `bb-metrics-v1`).
//! * `chaos_s24.json` —
//!   `bbsim chaos --services 24 --seeds 2 --plans 4 --corruption 2 --json FILE`
//!   (schema `bb-fleet-chaos-v2`). This grid produces all three chaos
//!   event kinds: artifact-rejected, degraded, and fault-recovered.
//!
//! Each grid is built in process the way the CLI builds it — through
//! [`SweepArgs`], then `run_sweep` or `run_chaos` — and compared byte
//! for byte. Any refactor of the sweep or chaos path must keep these
//! bytes. Re-bless deliberately with
//! `BB_BLESS_GOLDEN=1 cargo test --test golden_reports`.

use booting_booster::fleet::{run_chaos, run_sweep, FleetCache, PoolConfig};
use booting_booster::serve::{JobKind, SweepArgs};

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` with the committed golden `name`, or rewrites the
/// golden under `BB_BLESS_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BB_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("bless report golden");
        eprintln!("blessed {path} ({} bytes)", actual.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing — run BB_BLESS_GOLDEN=1 cargo test --test golden_reports")
    });
    assert!(
        golden == actual,
        "{name} drifted from its golden; re-bless deliberately\n--- golden\n{golden}\n--- actual\n{actual}"
    );
}

#[test]
fn sweep_report_and_metrics_match_goldens() {
    let mut job = SweepArgs::new(JobKind::Sweep);
    job.services = Some(24);
    job.seeds = 3;
    job.metrics = true;
    let spec = job.sweep_spec().expect("sweep grid");
    let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
    check_golden("sweep_s24.json", &outcome.report.to_json());
    let metrics = outcome.report.metrics.expect("span metrics collected");
    check_golden("sweep_s24_metrics.json", &metrics.to_json());
}

#[test]
fn chaos_report_matches_golden() {
    let mut job = SweepArgs::new(JobKind::Chaos);
    job.services = Some(24);
    job.seeds = 2;
    job.plans = 4;
    job.corruption = 2;
    let spec = job.chaos_spec().expect("chaos grid");
    let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
    let json = outcome.report.to_json();
    // The grid must keep exercising every event kind, or the golden
    // stops guarding the fallback and recovery paths.
    for kind in ["artifact rejected", "degraded boot", "recovered after"] {
        assert!(
            json.contains(kind),
            "chaos golden grid lost its {kind:?} events"
        );
    }
    check_golden("chaos_s24.json", &json);
}
