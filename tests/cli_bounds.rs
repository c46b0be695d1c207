//! `bbsim` refuses a `--services` or `--cores` count outside what the
//! simulator can build with a usage message and exit status 2, before
//! anything is sized by it: no panic, no abort on a failed allocation.

use std::process::Command;

#[test]
fn out_of_range_counts_print_usage_and_exit_2() {
    let cases: [&[&str]; 8] = [
        &["--cores", "0"],
        &["--cores", "65"],
        &["--cores", "100000000000"],
        &["suspend", "--cores", "0"],
        &["--services", "23"],
        &["--services", "100000000000"],
        &["sweep", "--services", "100000000000"],
        &["chaos", "--services", "20001"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bbsim"))
            .args(args)
            .output()
            .expect("run bbsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bbsim {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: --") && stderr.contains("is out of range"),
            "bbsim {args:?} names the bad count: {stderr}"
        );
        assert!(stderr.contains("usage: bbsim"), "bbsim {args:?}: {stderr}");
    }
}
