//! `bbsim` refuses a `--services` or `--cores` count outside what the
//! simulator can build, and a `--target` that is no unit name, with a
//! usage message and exit status 2, before anything is sized or planned
//! by it: no panic, no abort on a failed allocation.

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

#[test]
fn out_of_range_counts_print_usage_and_exit_2() {
    let out_of_range = "is out of range";
    refused(&[
        (&["--cores", "0"], out_of_range),
        (&["--cores", "65"], out_of_range),
        (&["--cores", "100000000000"], out_of_range),
        (&["suspend", "--cores", "0"], out_of_range),
        (&["--services", "23"], out_of_range),
        (&["--services", "100000000000"], out_of_range),
        (&["sweep", "--services", "100000000000"], out_of_range),
        (&["chaos", "--services", "20001"], out_of_range),
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
