#!/bin/sh
# Perf smoke gate over the committed bench baselines.
#
# Runs the hotpath and sweep criterion benches with a reduced iteration
# count (quick, not publication-grade), then checks that each
# regenerated BENCH_*.json carries its schema and every field the
# committed baseline promises, that every deterministic counter (storm
# events, kernel sims, dedup and plan-cache counts) equals the committed
# one exactly (they move only when the simulation or the sharing layer
# itself changes), and last that no freshly measured throughput
# regressed more than the tolerance against the committed numbers. CI
# hosts are noisy and shared, so the tolerance is deliberately loose:
# this gate catches "someone made the engine 2x slower", not
# single-digit drift. Every check runs and reports; the script exits 1
# at the end if any failed, so a slow host cannot hide a counter change
# behind a throughput failure.
#
# Usage:
#   scripts/bench_smoke.sh            # 20% tolerance, 50 iters
#   BB_BENCH_ITERS=200 BB_BENCH_TOLERANCE=10 scripts/bench_smoke.sh
set -eu

cd "$(dirname "$0")/.."

TOLERANCE="${BB_BENCH_TOLERANCE:-20}"
ITERS="${BB_BENCH_ITERS:-50}"

# Field extractor for the flat one-value-per-key JSON our emitters
# write (no jq dependency).
field() {
    sed -n "s/^.*\"$1\": *\([0-9.]*\).*$/\1/p" "$2" | head -n 1
}

# Failed checks so far; each is reported when it fails and the script
# exits 1 at the end.
failures=0
fail() {
    echo "bench_smoke: $*" >&2
    failures=$((failures + 1))
}

# check_schema FILE SCHEMA FIELD...
check_schema() {
    f="$1" schema="$2"
    shift 2
    grep -q "\"schema\": \"$schema\"" "$f" || fail "$f lacks the $schema schema stamp"
    for key in "$@"; do
        v="$(field "$key" "$f")"
        [ -n "$v" ] || fail "$f is missing field \"$key\""
    done
}

# fresh >= committed * (100 - TOLERANCE)%, in awk (sh has no floats).
gate() {
    name="$1" fresh="$2" committed="$3"
    awk -v f="$fresh" -v c="$committed" -v tol="$TOLERANCE" -v n="$name" 'BEGIN {
        floor = c * (100 - tol) / 100
        if (f < floor) {
            printf "bench_smoke: %s regressed: %.1f vs committed %.1f (floor %.1f, tolerance %d%%)\n",
                n, f, c, floor, tol
            exit 1
        }
        printf "    %s: %.1f vs committed %.1f (floor %.1f) ok\n", n, f, c, floor
    }' || failures=$((failures + 1))
}

# exact NAME FRESH COMMITTED HINT — deterministic counters must not move.
exact() {
    name="$1" fresh="$2" committed="$3" hint="$4"
    if [ "$fresh" = "$committed" ]; then
        echo "    $name: $fresh ok"
    else
        fail "$name changed ($committed -> $fresh); $hint"
    fi
}

HOTPATH_FIELDS="storm_events events_per_sec full_boots_per_sec \
    hotpath_boots_per_sec baseline_events_per_sec \
    baseline_full_boots_per_sec baseline_hotpath_boots_per_sec \
    speedup_full speedup_hotpath"
SWEEP_FIELDS="cells boots cells_per_sec cells_per_sec_no_dedup \
    baseline_plain_cells_per_sec baseline_forked_cells_per_sec \
    speedup speedup_no_dedup kernel_sims cells_deduped \
    plans_compiled plan_cache_hits"

for b in hotpath sweep; do
    [ -f "BENCH_$b.json" ] || {
        echo "bench_smoke: BENCH_$b.json missing — run 'cargo bench -p bb-bench --bench $b' and commit it" >&2
        exit 1
    }
done

# A committed baseline without its schema or fields cannot be compared
# against: stop before spending time on the benches.
# shellcheck disable=SC2086
check_schema BENCH_hotpath.json bb-hotpath-v1 $HOTPATH_FIELDS
# shellcheck disable=SC2086
check_schema BENCH_sweep.json bb-sweep-v1 $SWEEP_FIELDS
[ "$failures" -eq 0 ] || exit 1

# The benches rewrite both baselines in place. Keep copies aside and
# put them back when the script exits, passed or failed, so a smoke run
# never dirties the tree and the next run gates against the same
# baselines, in a git checkout or not.
saved="$(mktemp -d)"
cp BENCH_hotpath.json BENCH_sweep.json "$saved/"
trap 'cp "$saved/BENCH_hotpath.json" "$saved/BENCH_sweep.json" . && rm -rf "$saved"' EXIT

# ---------------------------------------------------------------- hotpath
BASELINE=BENCH_hotpath.json
committed_full="$(field full_boots_per_sec "$BASELINE")"
committed_hot="$(field hotpath_boots_per_sec "$BASELINE")"
committed_events="$(field storm_events "$BASELINE")"

echo "==> running hotpath bench ($ITERS iters)"
BB_BENCH_ITERS="$ITERS" cargo bench -p bb-bench --bench hotpath

echo "==> validating regenerated $BASELINE"
# shellcheck disable=SC2086
check_schema "$BASELINE" bb-hotpath-v1 $HOTPATH_FIELDS

fresh_full="$(field full_boots_per_sec "$BASELINE")"
fresh_hot="$(field hotpath_boots_per_sec "$BASELINE")"
fresh_events="$(field storm_events "$BASELINE")"

# ------------------------------------------------------------------ sweep
BASELINE=BENCH_sweep.json
committed_cells="$(field cells_per_sec "$BASELINE")"
committed_nodedup="$(field cells_per_sec_no_dedup "$BASELINE")"
committed_sims="$(field kernel_sims "$BASELINE")"
committed_deduped="$(field cells_deduped "$BASELINE")"
committed_plans="$(field plans_compiled "$BASELINE")"
committed_hits="$(field plan_cache_hits "$BASELINE")"

echo "==> running sweep bench ($ITERS iters)"
BB_BENCH_ITERS="$ITERS" cargo bench -p bb-bench --bench sweep

echo "==> validating regenerated $BASELINE"
# shellcheck disable=SC2086
check_schema "$BASELINE" bb-sweep-v1 $SWEEP_FIELDS

fresh_cells="$(field cells_per_sec "$BASELINE")"
fresh_nodedup="$(field cells_per_sec_no_dedup "$BASELINE")"
fresh_sims="$(field kernel_sims "$BASELINE")"
fresh_deduped="$(field cells_deduped "$BASELINE")"
fresh_plans="$(field plans_compiled "$BASELINE")"
fresh_hits="$(field plan_cache_hits "$BASELINE")"

# ------------------------------------------------------- exact counters
echo "==> deterministic counters"
# The storm is deterministic: its event count must not move at all.
exact storm_events "$fresh_events" "$committed_events" \
    "the simulation itself changed, re-bless BENCH_hotpath.json deliberately"
# The sharing layer is deterministic on a 1-worker pool: the work
# counters must not move at all.
blesshint="the sharing layer changed, re-bless BENCH_sweep.json deliberately"
exact kernel_sims "$fresh_sims" "$committed_sims" "$blesshint"
exact cells_deduped "$fresh_deduped" "$committed_deduped" "$blesshint"
exact plans_compiled "$fresh_plans" "$committed_plans" "$blesshint"
exact plan_cache_hits "$fresh_hits" "$committed_hits" "$blesshint"

# ----------------------------------------------------- throughput gates
echo "==> throughput regression gates (${TOLERANCE}% tolerance)"
gate full_boots_per_sec "$fresh_full" "$committed_full"
gate hotpath_boots_per_sec "$fresh_hot" "$committed_hot"
gate cells_per_sec "$fresh_cells" "$committed_cells"
gate cells_per_sec_no_dedup "$fresh_nodedup" "$committed_nodedup"

if [ "$failures" -gt 0 ]; then
    echo "bench smoke failed: $failures check(s) above" >&2
    exit 1
fi
echo "bench smoke passed."
