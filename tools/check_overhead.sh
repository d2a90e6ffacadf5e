#!/usr/bin/env sh
# Telemetry-off overhead gate (docs/OBSERVABILITY.md): with every
# telemetry flag off, the instrumented simulator must produce output
# byte-identical to the pre-telemetry goldens under tools/golden/ —
# the histograms, profiler scopes, flight-recorder hook and progress
# stream may cost nothing, change nothing, and leak nothing into the
# default path. A second (loose) gate times a telemetry-on run against
# the off run to catch a pathologically expensive on-path.
#
# The goldens were captured from the seed build (single_pred.* later,
# from the build before SimResult's counter table; compare.*,
# families.* and warm_fork.* from the build before lrs_sim's flag
# table). Since then the "build" provenance block leads every JSON
# export, which this script strips before comparing, and single.json
# and single_pred.json were re-pinned when their "registry" block
# stopped repeating the result's counters (lines deleted, none added).
#
# The speed of the cycle kernel itself is not gated here: perfbench
# (`python3 perfbench/run.py --workload dense_cell`, see
# BENCHMARK.json) measures it at a calibrated host speed against the
# parent commit.
#
# Usage: tools/check_overhead.sh [--no-time] [build-dir]
#   --no-time  skip the wall-clock gate (sanitized / loaded machines)
#   build-dir  defaults to ./build
#
# Environment:
#   LRS_CHECK_OVERHEAD_NO_TIME=1   same as --no-time
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
golden="$repo_root/tools/golden"

do_time=1
if [ $# -gt 0 ] && [ "$1" = "--no-time" ]; then
    do_time=0
    shift
fi
[ "${LRS_CHECK_OVERHEAD_NO_TIME:-0}" = "1" ] && do_time=0
build_dir=${1:-"$repo_root/build"}
sim="$build_dir/tools/lrs_sim"
fig06="$build_dir/bench/fig06_window_sweep"
if [ ! -x "$sim" ] || [ ! -x "$fig06" ]; then
    echo "check_overhead: binaries missing under $build_dir" \
        "(cmake --build $build_dir)" >&2
    exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/lrs_overhead.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

fail() {
    echo "check_overhead: FAIL: $*" >&2
    exit 1
}

# Compare $work/NAME.txt and $work/NAME.json with the goldens, after
# removing the JSON's top-level "build" provenance block (always the
# first member, so the range is unambiguous at indent 2).
gate() {
    cmp -s "$golden/$1.txt" "$work/$1.txt" \
        || fail "$1 table differs from golden"
    sed '/^  "build": {$/,/^  },$/d' "$work/$1.json" > "$work/$1.stripped.json"
    cmp -s "$golden/$1.json" "$work/$1.stripped.json" \
        || fail "$1 JSON differs from golden (after provenance strip)"
}

echo "check_overhead: byte-identity vs tools/golden (telemetry off)"

LRS_TRACE_LEN=40000 LRS_JOBS=2 LRS_BENCH_JSON="$work/fig06.json" \
    "$fig06" > "$work/fig06.txt"
gate fig06

"$sim" --trace wd --len 150000 --json "$work/single.json" \
    > "$work/single.txt"
gate single

# Traditional/always-hit above has no CHT, no hit-miss and no bank
# predictor; this run pins the "registry" members they add
# (pred.hmp, pred.cht and pred.bank) and the counters they move.
"$sim" --trace wd --len 150000 --scheme inclusive --hmp chooser \
    --bank-mode sliced --bank-pred addr --json "$work/single_pred.json" \
    > "$work/single_pred.txt"
gate single_pred

# --compare-schemes and --families run their cells through the worker
# pool.
"$sim" --trace pm --len 15000 --compare-schemes \
    --json "$work/compare.json" > "$work/compare.txt"
gate compare
"$sim" --families --len 20000 --json "$work/families.json" \
    > "$work/families.txt"
gate families

"$sim" --batch "$golden/grid.ini" --jobs 2 --json "$work/batch.json" \
    > "$work/batch.txt" 2> /dev/null
gate batch

# Every cell forks from an Inclusive warm-up's checkpoint, which holds
# the CHT's distances: this pins the config a --batch grid starts from.
cp "$golden/warm_fork.grid" "$work/"
"$sim" --batch "$work/warm_fork.grid" --json "$work/warm_fork.json" \
    > "$work/warm_fork.txt" 2> /dev/null
gate warm_fork

if [ "$do_time" = 1 ]; then
    echo "check_overhead: wall-clock gate (telemetry on vs off)"
    # Milliseconds for one run; minimum of 3 to shed scheduler noise.
    bench_ms() {
        best=""
        for _ in 1 2 3; do
            s=$(date +%s%N)
            "$@" > /dev/null 2>&1
            e=$(date +%s%N)
            ms=$(( (e - s) / 1000000 ))
            if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then
                best=$ms
            fi
        done
        echo "$best"
    }
    off_ms=$(bench_ms "$sim" --trace wd --len 150000)
    on_ms=$(bench_ms "$sim" --trace wd --len 150000 --histograms \
        --profile)
    echo "check_overhead: off=${off_ms}ms on=${on_ms}ms"
    # Loose gate: telemetry-on must stay within 3x of off (it is
    # designed to be a few percent; 3x catches only catastrophe
    # without flaking on loaded machines).
    [ "$on_ms" -le $(( off_ms * 3 + 50 )) ] \
        || fail "telemetry-on run ${on_ms}ms vs off ${off_ms}ms (>3x)"
fi

echo "check_overhead: all gates passed"
