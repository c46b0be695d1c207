//! Golden report documents: the bytes `bbsim sweep` and `bbsim chaos`
//! print for a few grids, pinned under `tests/golden/`.
//!
//! * `sweep_s24.json` / `sweep_s24_metrics.json` —
//!   `bbsim sweep --services 24 --seeds 3 --json FILE --metrics FILE`
//!   (schemas `bb-fleet-v1` and `bb-metrics-v1`).
//! * `sweep_s1000.json` —
//!   `bbsim sweep --services 1000 --seeds 4 --json FILE`: a grid large
//!   enough for the planner's scaling to matter, which the 24-service
//!   grids are not.
//! * `chaos_s24.json` —
//!   `bbsim chaos --services 24 --seeds 2 --plans 4 --corruption 2 --json FILE`
//!   (schema `bb-fleet-chaos-v2`). This grid produces all three chaos
//!   event kinds: artifact-rejected, degraded, and fault-recovered.
//! * `chaos_s24_norestart.json` —
//!   `bbsim chaos --services 24 --seeds 2 --plans 3 --restart no --deadline-ms 4000`:
//!   supervision off and a non-default fallback deadline, so degraded
//!   boots both miss the 4,000 ms deadline and never complete.
//! * `chaos_s24_two_profiles.json` —
//!   `bbsim chaos --profiles ue48h6200,galaxy-s6 --services 24 --seeds 2 --plans 1 --corruption 1`:
//!   two cells, pinning multi-cell slot order.
//! * `chaos_s136.json` —
//!   `bbsim chaos --services 136 --seeds 1 --plans 2 --corruption 1`:
//!   the shape of a served chaos ticket, twelve supervised boots of a
//!   full-size TV, long enough for the engine's per-process
//!   bookkeeping to matter, which the 24-service grids are not.
//!
//! * `boot_tv136.json`, `profile_tv136.json`, `metrics_tv136.json` —
//!   `bbsim --scenario tv136 --json`, with `--profile` and with
//!   `--metrics`: the single-boot documents (schemas `bbsim-boot-v1`,
//!   `bb-profile-v1` and `bb-metrics-v1`), printed by the binary itself.
//!
//! Each grid is built in process the way the CLI builds it — through
//! [`SweepArgs`], then `run_sweep` or `run_chaos` — and compared byte
//! for byte. Any refactor of the sweep or chaos path must keep these
//! bytes. Re-bless deliberately with
//! `BB_BLESS_GOLDEN=1 cargo test --test golden_reports`.

use std::process::Command;

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

/// Parses `flags` into a job exactly as `bbsim KIND FLAGS` does.
fn job_from_flags(kind: JobKind, flags: &str) -> SweepArgs {
    let mut job = SweepArgs::new(kind);
    let mut args = flags.split_whitespace().map(str::to_owned);
    while let Some(flag) = args.next() {
        assert_eq!(job.parse_flag(&flag, &mut || args.next()), Ok(true));
    }
    job
}

/// The sweep goldens: the report file, the span-metrics file when the
/// grid pins one (`--metrics FILE`), and the `bbsim sweep` flags.
const SWEEP_GOLDENS: &[(&str, Option<&str>, &str)] = &[
    (
        "sweep_s24.json",
        Some("sweep_s24_metrics.json"),
        "--services 24 --seeds 3",
    ),
    ("sweep_s1000.json", None, "--services 1000 --seeds 4"),
];

#[test]
fn sweep_report_and_metrics_match_goldens() {
    for &(file, metrics_file, flags) in SWEEP_GOLDENS {
        let mut job = job_from_flags(JobKind::Sweep, flags);
        job.metrics = metrics_file.is_some();
        let spec = job.sweep_spec().expect("sweep grid");
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
        check_golden(file, &outcome.report.to_json());
        if let Some(metrics_file) = metrics_file {
            let metrics = outcome.report.metrics.expect("span metrics collected");
            check_golden(metrics_file, &metrics.to_json());
        }
    }
}

/// The chaos goldens: each file, the `bbsim chaos` flags that print it,
/// and substrings the document must keep so it keeps guarding its
/// paths.
const CHAOS_GOLDENS: &[(&str, &str, &[&str])] = &[
    (
        "chaos_s24.json",
        "--services 24 --seeds 2 --plans 4 --corruption 2",
        // Every event kind, or the golden stops guarding the fallback
        // and recovery paths.
        &["artifact rejected", "degraded boot", "recovered after"],
    ),
    (
        "chaos_s24_norestart.json",
        "--services 24 --seeds 2 --plans 3 --restart no --deadline-ms 4000",
        &["missed the deadline", "boot never completed"],
    ),
    (
        "chaos_s24_two_profiles.json",
        "--profiles ue48h6200,galaxy-s6 --services 24 --seeds 2 --plans 1 --corruption 1",
        &[
            "\"UE48H6200-s24\"",
            "\"GalaxyS6-s24\"",
            "artifact rejected",
            "recovered after",
        ],
    ),
    (
        "chaos_s136.json",
        "--services 136 --seeds 1 --plans 2 --corruption 1",
        &["artifact rejected", "recovered after 3 restart(s)"],
    ),
];

/// Each chaos grid runs on one, two and four workers: a corrupted slot
/// replays the pristine slot's artifact-blind boots when that slot ran
/// first, and re-simulates them when it raced it, and the bytes may
/// depend on neither.
#[test]
fn chaos_report_matches_golden() {
    for &(file, flags, must_contain) in CHAOS_GOLDENS {
        let spec = job_from_flags(JobKind::Chaos, flags)
            .sweep_spec()
            .expect("chaos grid");
        for workers in [2, 1, 4] {
            let pool = PoolConfig::with_workers(workers);
            let json = run_chaos(&spec, &pool, &FleetCache::fresh())
                .report
                .to_json();
            for needle in must_contain {
                assert!(json.contains(needle), "{file} lost its {needle:?} content");
            }
            check_golden(file, &json);
        }
    }
}

/// The single-boot goldens: each file and the `bbsim` arguments that
/// print it on stdout.
const BOOT_GOLDENS: &[(&str, &[&str])] = &[
    ("boot_tv136.json", &["--scenario", "tv136", "--json"]),
    (
        "profile_tv136.json",
        &["--scenario", "tv136", "--profile", "--json"],
    ),
    (
        "metrics_tv136.json",
        &["--scenario", "tv136", "--metrics", "--json"],
    ),
];

#[test]
fn single_boot_documents_match_goldens() {
    for &(file, args) in BOOT_GOLDENS {
        let out = Command::new(env!("CARGO_BIN_EXE_bbsim"))
            .args(args)
            .output()
            .expect("run bbsim");
        assert!(
            out.status.success(),
            "bbsim {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        check_golden(file, &String::from_utf8(out.stdout).expect("UTF-8 JSON"));
    }
}
