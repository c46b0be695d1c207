//! `bbsim` refuses a `--services` or `--cores` count outside what the
//! simulator can build, a chaos `--burst`, `--restart-sec-ms` or
//! `--deadline-ms` past its cap, a `--tolerance` that is not a finite,
//! non-negative percentage, and a `--target` that is no unit name,
//! with a usage message and exit status 2, before anything is sized or
//! planned by it: no panic, no abort on a failed allocation. A `--completion`
//! unit the boot can never reach fails planning instead: exit status 1
//! with the transaction error, and no panic. A unit file in `--units DIR`
//! whose supervision knob is past the same cap fails to parse: exit
//! status 1 with the parse error, and no boot.

use std::process::Command;

/// Runs `bbsim` once per row; each run must exit 2, print an error line
/// that names the flag and says the row's text, and print the usage.
fn refused(cases: &[(&[&str], &str)]) {
    for &(args, says) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bbsim"))
            .args(args)
            .output()
            .expect("run bbsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bbsim {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: --") && stderr.contains(says),
            "bbsim {args:?} names the bad value: {stderr}"
        );
        assert!(stderr.contains("usage: bbsim"), "bbsim {args:?}: {stderr}");
    }
}

/// Runs `bbsim` once per row; each run must exit 1 with a
/// `transaction error:` line that says the row's text, and not panic.
fn fails_to_plan(cases: &[(&[&str], &str)]) {
    for &(args, says) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bbsim"))
            .args(args)
            .output()
            .expect("run bbsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "bbsim {args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.contains("transaction error:") && l.contains(says)),
            "bbsim {args:?} names the bad unit: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "bbsim {args:?}: {stderr}");
    }
}

#[test]
fn out_of_range_counts_print_usage_and_exit_2() {
    let out_of_range = "is out of range";
    refused(&[
        (&["--cores", "0"], out_of_range),
        (&["--cores", "65"], out_of_range),
        (&["--cores", "100000000000"], out_of_range),
        (&["suspend", "--cores", "0"], out_of_range),
        (&["suspend", "--cores", "65"], out_of_range),
        (&["--services", "23"], out_of_range),
        (&["--services", "100000000000"], out_of_range),
        (&["sweep", "--services", "100000000000"], out_of_range),
        (&["chaos", "--services", "20001"], out_of_range),
    ]);
}

#[test]
fn out_of_range_supervision_knobs_print_usage_and_exit_2() {
    let out_of_range = "is out of range: at most";
    refused(&[
        (&["chaos", "--burst", "101"], out_of_range),
        (&["chaos", "--burst", "4294967295"], out_of_range),
        (&["chaos", "--restart-sec-ms", "3600001"], out_of_range),
        (
            &["chaos", "--restart-sec-ms", "18446744073709551615"],
            out_of_range,
        ),
        (&["chaos", "--deadline-ms", "20000000000000"], out_of_range),
        (&["submit", "chaos", "--burst", "4294967295"], out_of_range),
    ]);
}

/// A NaN bound passes every drift and a negative one flags an
/// unchanged config. `submit` parses all its flags before it connects,
/// so it needs no server to refuse one.
#[test]
fn bad_tolerances_print_usage_and_exit_2() {
    let out_of_range = "is out of range: not a finite, non-negative percentage";
    refused(&[
        (&["sweep", "--tolerance", "nan"], out_of_range),
        (&["sweep", "--tolerance", "-5"], out_of_range),
        (&["sweep", "--tolerance", "inf"], out_of_range),
        (&["submit", "--tolerance", "nan"], out_of_range),
        (&["submit", "sweep", "--tolerance", "-5"], out_of_range),
    ]);
}

#[test]
fn a_target_without_a_unit_suffix_prints_usage_and_exits_2() {
    let no_suffix = "without a recognized suffix: foo";
    refused(&[
        (&["--units", "examples/units", "--target", "foo"], no_suffix),
        (
            &[
                "--units",
                "examples/units",
                "--target",
                "foo",
                "--completion",
                "dbus.service",
            ],
            no_suffix,
        ),
    ]);
}

#[test]
fn an_unreachable_completion_unit_fails_with_a_transaction_error() {
    let units = ["--units", "examples/units", "--target", "tv-boot.target"];
    let with = |extra: &[&'static str]| -> Vec<&'static str> {
        units.iter().chain(extra).copied().collect()
    };
    let undefined = with(&["--completion", "nosuch.service"]);
    let undefined_conventional = with(&["--completion", "nosuch.service", "--features", "none"]);
    let not_pulled_in = with(&["--completion", "myapp.service"]);
    fails_to_plan(&[
        (&undefined, "nosuch.service is not defined"),
        (&undefined_conventional, "nosuch.service is not defined"),
        (&not_pulled_in, "myapp.service is not in the transaction"),
    ]);
}

/// Each row writes a two-unit set whose service sets one supervision
/// knob past its cap (or past what a `u64` of milliseconds holds), then
/// runs `bbsim --units DIR` on it: exit status 1 with the file, line and
/// value, and no panic. The service sets no `Restart=`, so a parser that
/// let the burst through would boot no watcher for it.
#[test]
fn unit_files_past_a_supervision_cap_fail_to_parse() {
    let dir = std::env::temp_dir().join(format!("bb-cli-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("unit dir");
    std::fs::write(dir.join("boot.target"), "[Unit]\nRequires=x.service\n").expect("target");
    for (directive, value) in [
        ("StartLimitBurst", "101"),
        ("StartLimitBurst", "4000000000"),
        ("TimeoutStartSec", "3601"),
        ("TimeoutStartSec", "18446744073709551615"),
        ("RestartSec", "18446744073709551615s"),
        ("StartLimitIntervalSec", "3600001ms"),
    ] {
        let unit = format!("[Service]\nExecStart=x\n{directive}={value}\n");
        std::fs::write(dir.join("x.service"), unit).expect("service");
        let out = Command::new(env!("CARGO_BIN_EXE_bbsim"))
            .args(["--units", dir.to_str().expect("utf-8 temp dir")])
            .args(["--target", "boot.target", "--completion", "x.service"])
            .output()
            .expect("run bbsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let says = format!("x.service: line 3: invalid value \"{value}\" for {directive}");
        assert_eq!(out.status.code(), Some(1), "{directive}={value}: {stderr}");
        assert!(stderr.contains(&says), "{directive}={value}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{directive}={value}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove unit dir");
}
