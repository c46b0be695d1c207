#!/bin/sh
# The CI gate: every check, in order. .github/workflows/ci.yml runs
# this script after installing the toolchain, so CI and a local run
# are one definition.
# Usage: scripts/ci.sh   (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace
# The benchmark builds against the library with its committed lock: an
# API it calls that breaks, or a dependency edge its lock lacks, fails
# here instead of in a benchmark run.
run cargo build --release --locked --manifest-path perfbench/Cargo.toml
run cargo test -q --workspace
run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
run ./scripts/api_surface.sh
run ./scripts/loc.sh

# Deterministic chaos smoke: the fault-injection sweep must emit
# byte-identical JSON regardless of worker count.
chaos_tmp="$(mktemp -d)"
trap 'rm -rf "$chaos_tmp"' EXIT
run ./target/release/bbsim chaos --services 24 --seeds 2 --plans 2 \
    --workers 1 --json "$chaos_tmp/w1.json"
run ./target/release/bbsim chaos --services 24 --seeds 2 --plans 2 \
    --workers 3 --json "$chaos_tmp/w3.json"
run cmp "$chaos_tmp/w1.json" "$chaos_tmp/w3.json"

# Worker-count determinism at scale: the smokes above and below use 24
# services; a 1000-service sweep must also print the same bytes on one
# worker as on two.
run ./target/release/bbsim sweep --services 1000 --seeds 2 \
    --workers 1 --json "$chaos_tmp/s1000-w1.json"
run ./target/release/bbsim sweep --services 1000 --seeds 2 \
    --workers 2 --json "$chaos_tmp/s1000-w2.json"
run cmp "$chaos_tmp/s1000-w1.json" "$chaos_tmp/s1000-w2.json"

# Corruption-determinism smoke: with the artifact-corruption axis armed
# the sweep must still be byte-identical for any worker count, and the
# damaged slots must actually exercise the recovery chain (grep for the
# artifact-rejected events in the report).
run ./target/release/bbsim chaos --services 24 --seeds 2 --plans 1 \
    --corruption 2 --workers 1 --json "$chaos_tmp/c1.json"
run ./target/release/bbsim chaos --services 24 --seeds 2 --plans 1 \
    --corruption 2 --workers 4 --json "$chaos_tmp/c4.json"
run cmp "$chaos_tmp/c1.json" "$chaos_tmp/c4.json"
run grep -q '"schema": "bb-fleet-chaos-v2"' "$chaos_tmp/c1.json"
run grep -q 'artifact rejected' "$chaos_tmp/c1.json"

# Served chaos shape: the grid of a served chaos ticket must print its
# golden's bytes on one worker, where jobs run in slot order, and on
# four, where the most jobs race.
for w in 1 4; do
    run ./target/release/bbsim chaos --services 136 --seeds 1 --plans 2 \
        --corruption 1 --workers "$w" --json "$chaos_tmp/c136-w$w.json"
    run cmp tests/golden/chaos_s136.json "$chaos_tmp/c136-w$w.json"
done

# Integrity & recovery gates: the never-panic/always-detected proptests
# over the checksummed artifacts and the wire decoders, the shared unit
# plan against a fresh one and the Pre-parser's counted sizes against
# the rendered ones, and the golden corrupt-blob fixtures plus the
# recovered-timeline equivalence property.
run cargo test -q --test proptest_units
run cargo test -q --test proptest_unit_plan
run cargo test -q --test proptest_wire
run cargo test -q --test recovery_chain

# Report goldens: the sweep, span-metrics, and chaos documents of two
# small grids must keep their committed bytes.
run cargo test -q --test golden_reports

# Figures golden: the paper-reproduction harness must print the
# committed text for all 14 experiments, and regenerating its figures
# must leave artifacts/ as committed (the bootcharts of Figures 5(a)
# and 7 draw their CPU rows from core spans, which only those boots
# record). Release only: the harness boots the TV scenario dozens of
# times. To re-bless, commit the new output as tests/golden/figures.txt
# together with the regenerated artifacts/, and give the reason in
# CHANGES.md.
echo "==> cargo run --release -q -p bb-bench --bin figures -- all >figures.txt"
cargo run --release -q -p bb-bench --bin figures -- all >"$chaos_tmp/figures.txt"
run cmp tests/golden/figures.txt "$chaos_tmp/figures.txt"
run git diff --exit-code artifacts/

# Ticket state machine: every interleaving of submit, dispatch, finish,
# cancel, collect and disconnect for 2 clients x 2 tickets x 2 jobs on
# 2 workers keeps the service's invariants.
run cargo test -q -p bb-fleet --lib service::tests::every_interleaving_keeps_the_ticket_invariants

# Snapshot gates: a machine saved and restored mid-run must finish
# bit-identically (proptests), and the goldens must pin the v2 format
# byte-for-byte while the committed v1 image keeps restoring.
run cargo test -q --test proptest_snapshot
# Simulator pin: the traces, core spans, scheduler and event-queue
# counters, per-process accounting and snapshot bytes of 40 seeded
# machines must match tests/golden/sim_digests.txt.
run cargo test -q --test proptest_sim simulator_digests_match_golden

# Shared-artifact gate: grid dedup + plan caching (the sweep defaults)
# must emit byte-identical JSON to a --no-dedup sweep on any worker
# count, and the cached/fresh boot equivalence proptests must hold.
run cargo test -q --test proptest_plan_cache
run ./target/release/bbsim sweep --services 24 --seeds 3 \
    --workers 2 --json "$chaos_tmp/plain.json"
run ./target/release/bbsim sweep --services 24 --seeds 3 \
    --workers 1 --no-dedup --json "$chaos_tmp/nodedup.json"
run cmp "$chaos_tmp/plain.json" "$chaos_tmp/nodedup.json"

# Serve smoke: a live server on a temp socket must hand two concurrent
# clients reports byte-identical to the in-process sweep, serve a chaos
# ticket byte-identical to the in-process chaos run, publish the
# bb-serve-stats-v1 document, and shut down cleanly on request.
run ./target/release/bbsim sweep --services 24 --seeds 2 \
    --workers 2 --json "$chaos_tmp/serve-ref.json"
run ./target/release/bbsim chaos --services 24 --seeds 2 --plans 2 \
    --corruption 1 --workers 2 --json "$chaos_tmp/serve-chaos-ref.json"
echo "==> bbsim serve --socket $chaos_tmp/bb.sock --workers 2 &"
./target/release/bbsim serve --socket "$chaos_tmp/bb.sock" --workers 2 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$chaos_tmp/bb.sock" ] && break
    sleep 0.1
done
[ -S "$chaos_tmp/bb.sock" ] || { echo "serve socket never appeared"; exit 1; }
./target/release/bbsim submit --socket "$chaos_tmp/bb.sock" \
    --services 24 --seeds 2 --json "$chaos_tmp/serve-a.json" >/dev/null &
client_a=$!
./target/release/bbsim submit --socket "$chaos_tmp/bb.sock" \
    --services 24 --seeds 2 --json "$chaos_tmp/serve-b.json" >/dev/null &
client_b=$!
wait "$client_a" "$client_b"
run cmp "$chaos_tmp/serve-a.json" "$chaos_tmp/serve-ref.json"
run cmp "$chaos_tmp/serve-b.json" "$chaos_tmp/serve-ref.json"
echo "==> bbsim submit chaos --services 24 --seeds 2 --plans 2 --corruption 1"
./target/release/bbsim submit chaos --socket "$chaos_tmp/bb.sock" \
    --services 24 --seeds 2 --plans 2 --corruption 1 \
    --json "$chaos_tmp/serve-chaos.json" >/dev/null
run cmp "$chaos_tmp/serve-chaos.json" "$chaos_tmp/serve-chaos-ref.json"
# Once the clients are done, every ticket the server admitted has
# completed or been cancelled, and nothing is left queued.
echo "==> bbsim submit --stats >serve-stats.json"
./target/release/bbsim submit --socket "$chaos_tmp/bb.sock" --stats >"$chaos_tmp/serve-stats.json"
run grep -q '"schema": "bb-serve-stats-v1"' "$chaos_tmp/serve-stats.json"
echo "==> tickets.submitted == completed + cancelled, queue.depth == 0"
awk '/"tickets":/ { gsub(/[^0-9]+/, " "); s = $1; c = $2; x = $3; t = 1 }
     /"queue":/ { gsub(/[^0-9]+/, " "); d = $1; q = 1 }
     END { if (!(t && q && s > 0 && s == c + x && d == 0)) exit 1 }' "$chaos_tmp/serve-stats.json" ||
    { echo "serve stats do not balance:"; cat "$chaos_tmp/serve-stats.json"; exit 1; }
run ./target/release/bbsim submit --socket "$chaos_tmp/bb.sock" --shutdown
wait "$serve_pid"

# TCP serve smoke: a server on port 0 names its bound port, a TCP
# submit matches the in-process sweep, and shutdown wakes the accept
# loop, which blocks in accept, so the server exits within 10 s.
echo "==> bbsim serve --tcp 127.0.0.1:0 --workers 2 &"
./target/release/bbsim serve --tcp 127.0.0.1:0 --workers 2 2>"$chaos_tmp/serve-tcp.log" &
serve_pid=$!
tcp_addr=""
for _ in $(seq 1 100); do
    tcp_addr="$(sed -n 's/^serving on tcp:\([^ ]*\) .*/\1/p' "$chaos_tmp/serve-tcp.log")"
    [ -n "$tcp_addr" ] && break
    sleep 0.1
done
[ -n "$tcp_addr" ] || { echo "serve never named its TCP port"; exit 1; }
echo "==> bbsim submit --tcp $tcp_addr --services 24 --seeds 2"
./target/release/bbsim submit --tcp "$tcp_addr" \
    --services 24 --seeds 2 --json "$chaos_tmp/serve-tcp.json" >/dev/null
run cmp "$chaos_tmp/serve-tcp.json" "$chaos_tmp/serve-ref.json"
run ./target/release/bbsim submit --tcp "$tcp_addr" --shutdown
run timeout 10 tail --pid="$serve_pid" -f /dev/null
wait "$serve_pid"
run cargo test -q --test serve_service

# Serve memory smoke: 24 sweep tickets of fresh seeds (136 services, 4
# seeds each, none repeated) must leave the server's peak RSS (VmHWM)
# at or under 48 MiB. A ticket's scenarios and plans go with the last
# of its jobs that needs them; a server that kept them would grow ~0.8
# MB per fresh seed. Beside it, the sweep memory test bounds the live
# heap of a one-shot 20-seed sweep (1.25 MiB at its peak, 64 KiB after
# it) with a process-wide counter.
sock="$chaos_tmp/mem.sock"
echo "==> bbsim serve --socket $sock --workers 2 &"
./target/release/bbsim serve --socket "$sock" --workers 2 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "serve socket never appeared"; exit 1; }
echo "==> 24 x bbsim submit sweep --services 136 --seeds 4 --seed N"
for n in $(seq 0 23); do
    seed=$((n * 4 + 1))
    ./target/release/bbsim submit sweep --socket "$sock" \
        --services 136 --seeds 4 --seed "$seed" >/dev/null 2>&1 ||
        { echo "submit --seed $seed failed"; exit 1; }
done
hwm_kb="$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$serve_pid/status")"
run ./target/release/bbsim submit --socket "$sock" --shutdown
wait "$serve_pid"
echo "serve peak RSS ${hwm_kb} kB (bound 49152 kB)"
[ "$hwm_kb" -le 49152 ] || { echo "serve peak RSS above 48 MiB"; exit 1; }
run cargo test -q --test sweep_memory

# Instant-on smoke: suspend must emit a valid bb-snapshot-v1 document.
echo "==> bbsim suspend --services 24 --json | grep schema"
./target/release/bbsim suspend --services 24 --json >"$chaos_tmp/suspend.json"
run grep -q '"schema": "bb-snapshot-v1"' "$chaos_tmp/suspend.json"

# Perf smoke: quick bench runs gated against the committed
# BENCH_hotpath.json and BENCH_sweep.json (loose tolerance; catches
# gross regressions only), then the perf-trajectory report.
run ./scripts/bench_smoke.sh
run ./scripts/perf_report.sh

echo "CI gate passed."
