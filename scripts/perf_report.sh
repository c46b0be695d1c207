#!/bin/sh
# Performance trajectory report over the committed BENCH_*.json
# baselines. Read-only: prints every committed perf document, its
# headline throughputs, and the speedup each records against its
# parent-commit baseline — the repo's perf history at a glance.
#
# Usage: scripts/perf_report.sh
set -eu

cd "$(dirname "$0")/.."

field() {
    sed -n "s/^.*\"$1\": *\([0-9.]*\).*$/\1/p" "$2" | head -n 1
}
strfield() {
    sed -n "s/^.*\"$1\": *\"\([^\"]*\)\".*$/\1/p" "$2" | head -n 1
}

# row LABEL VALUE UNIT [SPEEDUP]
row() {
    if [ -n "${4:-}" ]; then
        printf '    %-28s %14s %-10s %sx vs parent\n' "$1" "$2" "$3" "$4"
    else
        printf '    %-28s %14s %-10s\n' "$1" "$2" "$3"
    fi
}

found=0
for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    found=1
    schema="$(strfield schema "$f")"
    echo "$f ($schema)"
    case "$schema" in
    bb-hotpath-v1)
        row "event storm" "$(field events_per_sec "$f")" events/s
        row "full BB boot" "$(field full_boots_per_sec "$f")" boots/s \
            "$(field speedup_full "$f")"
        row "hot-path boot (cached plan)" "$(field hotpath_boots_per_sec "$f")" boots/s \
            "$(field speedup_hotpath "$f")"
        ;;
    bb-sweep-v1)
        row "sweep (cache+dedup)" "$(field cells_per_sec "$f")" cells/s \
            "$(field speedup "$f")"
        row "sweep (plan cache only)" "$(field cells_per_sec_no_dedup "$f")" cells/s \
            "$(field speedup_no_dedup "$f")"
        row "kernel sims / 60 boots" "$(field kernel_sims "$f")" sims
        row "boots deduplicated" "$(field cells_deduped "$f")" boots
        row "plans compiled / hits" \
            "$(field plans_compiled "$f")/$(field plan_cache_hits "$f")" plans
        ;;
    *)
        echo "    (unknown schema — fields not summarized)"
        ;;
    esac
    # Integrity-chain counters, printed whenever a document carries
    # them (chaos sweeps with the corruption axis armed).
    rec="$(field recoveries "$f")"
    rej="$(field artifacts_rejected "$f")"
    if [ -n "$rec" ] || [ -n "$rej" ]; then
        row "artifact recoveries/rejected" "${rec:-0}/${rej:-0}" events
    fi
done

[ "$found" = 1 ] || {
    echo "perf_report: no BENCH_*.json committed at the repo root" >&2
    exit 1
}
