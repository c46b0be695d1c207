#!/usr/bin/env python3
"""Build bbsim and the perfbench binary from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-tv136 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds N]

Every argument passes through to the perfbench binary (see README.md).
`--all` runs a traced run of each workload in turn, which prints its
end-to-end and per-layer metrics, and fails if any run fails.
Builds go to $CARGO_TARGET_DIR, or to .bench_build when it is unset.
Build output goes to stderr; stdout carries only the benchmark's lines,
the last of which is the JSON result.
"""

import os
import subprocess
import sys

WORKLOADS = ["sweep-tv136", "sweep-tv1000", "serve-mixed"]


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the repository root; Cargo.toml and crates/ are missing",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "bbsim"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if args[:1] == ["--all"]:
        runs = [[exe, "--workload", w, "--trace", "1"] + args[1:] for w in WORKLOADS]
        return max(subprocess.run(cmd, env=env).returncode for cmd in runs)
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
