#!/bin/sh
# Run every figure and ablation bench and aggregate their per-bench
# JSON reports into one trajectory file.
#
# Usage: tools/bench_to_json.sh [BUILD_DIR] [OUT_FILE]
#
#   BUILD_DIR  where the bench binaries live (default: build/bench)
#   OUT_FILE   aggregate output (default: bench_json/trajectory.json;
#              its directory is created)
#
# Environment:
#   LRS_TRACE_LEN  uops per trace passed through to the benches
#                  (default here: 40000, kept small so the sweep
#                  finishes in seconds; raise for fidelity)
#   LRS_JOBS       sweep-pool workers per bench (default: hardware
#                  concurrency; see docs/PARALLELISM.md). Output is
#                  bit-identical for any value.
#
# Each bench writes {"bench":..., "trace_len":..., "rows":[...]} to
# $LRS_BENCH_JSON (see bench/bench_util.hh). This script points that
# at a scratch file per bench and then splices the documents into
#
#   {"generated_by": "...", "trace_len": N, "benches": [...]}
#
# The trajectory holds no cycle-kernel speed figure. Host speed is
# measured by perfbench (`python3 perfbench/run.py --workload
# dense_cell`, see BENCHMARK.json), which calibrates for the host and
# compares each change with its parent.
#
# The warmup_amortization block times the same sweep grid three ways —
# no checkpoints, warmup_snapshot checkpointing cold, and again
# reusing the checkpoints (docs/ROBUSTNESS.md, "Snapshots") — so the
# trajectory records how much host time the warm-fork protocol saves:
# warmup is paid once per trace instead of once per cell, and zero
# times on reuse.
#
# The families block is the adversarial-workload profile
# (docs/TRACES.md): per-family CHT / hit-miss / bank predictor
# accuracy from `lrs_sim --families`, so the trajectory records how
# the predictors hold up under deliberately hostile inputs, not just
# the paper's favourable ones.

set -eu

BUILD_DIR=${1:-build/bench}
OUT=${2:-bench_json/trajectory.json}
: "${LRS_TRACE_LEN:=40000}"
export LRS_TRACE_LEN

if [ ! -d "$BUILD_DIR" ]; then
    echo "error: bench build dir '$BUILD_DIR' not found" >&2
    echo "build first: cmake -B build -S . && cmake --build build -j" >&2
    exit 1
fi

mkdir -p "$(dirname "$OUT")"

TMPDIR_JSON=$(mktemp -d)
trap 'rm -rf "$TMPDIR_JSON"' EXIT

# Every bench binary, found as tests/bench_smoke.sh finds them, so a
# new fig or ablation bench joins both without an edit.
BENCHES=""
for exe in "$BUILD_DIR"/fig[0-9]* "$BUILD_DIR"/ablation_*; do
    [ -f "$exe" ] && [ -x "$exe" ] && BENCHES="$BENCHES ${exe##*/}"
done

ran=0
for b in $BENCHES; do
    exe="$BUILD_DIR/$b"
    echo "running $b (LRS_TRACE_LEN=$LRS_TRACE_LEN)..." >&2
    LRS_BENCH_JSON="$TMPDIR_JSON/$b.json" "$exe" > /dev/null
    ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
    echo "error: no bench binaries found under $BUILD_DIR" >&2
    exit 1
fi

SIM="$BUILD_DIR/../tools/lrs_sim"

# Wall-clock in milliseconds; falls back to whole seconds when date
# lacks GNU %N (the block still shows the ordering, just coarser).
now_ms() {
    t=$(date +%s%N)
    case $t in
        *N*) echo "$(($(date +%s) * 1000))" ;;
        *)   echo "$((t / 1000000))" ;;
    esac
}

# Warmup-amortization timing: one 10-cell grid (2 traces x 5 schemes),
# serial so the comparison is pure host work. The cold snapshot run
# warms each trace once and forks the 5 variants from the checkpoint;
# the reuse run finds the checkpoints already on disk and pays no
# warmup at all.
FULL_MS=0
SNAP_COLD_MS=0
SNAP_REUSE_MS=0
# ~60% of the run in cycles (uops retire at IPC > 1), deep enough
# that the per-cell restore cost is clearly beaten at bench scale.
WARM_CYCLES=$((LRS_TRACE_LEN * 2 / 5))
if [ -x "$SIM" ]; then
    echo "running warmup-amortization timing..." >&2
    grid="$TMPDIR_JSON/warm.ini"
    printf 'traces  = wd, gcc\n' > "$grid"
    printf 'schemes = traditional, opportunistic, exclusive, storesets, perfect\n' >> "$grid"
    printf 'len     = %s\n' "$LRS_TRACE_LEN" >> "$grid"
    t0=$(now_ms)
    "$SIM" --batch "$grid" --jobs 1 > /dev/null 2>&1
    t1=$(now_ms)
    printf 'warmup_snapshot = %s\n' "$WARM_CYCLES" >> "$grid"
    "$SIM" --batch "$grid" --jobs 1 > /dev/null 2>&1
    t2=$(now_ms)
    "$SIM" --batch "$grid" --jobs 1 > /dev/null 2>&1
    t3=$(now_ms)
    FULL_MS=$((t1 - t0))
    SNAP_COLD_MS=$((t2 - t1))
    SNAP_REUSE_MS=$((t3 - t2))
else
    echo "skip: warmup-amortization timing (no lrs_sim at $SIM)" >&2
fi

# Adversarial-family predictor accuracies (docs/TRACES.md): lift the
# "families" object out of the --families JSON document. The block is
# emitted at indent 2, so it ends at the first "  }"-prefixed line.
FAMILIES_JSON="$TMPDIR_JSON/families.extract"
printf '{}' > "$FAMILIES_JSON"
if [ -x "$SIM" ]; then
    echo "running lrs_sim --families adversarial profile..." >&2
    "$SIM" --families --len "$LRS_TRACE_LEN" \
        --json "$TMPDIR_JSON/families.json" > /dev/null 2>&1
    awk '/^  "families": \{/ {grab=1; print "{"; next}
         grab && /^  \}/ {print "}"; exit}
         grab {print}' \
        "$TMPDIR_JSON/families.json" > "$FAMILIES_JSON"
    [ -s "$FAMILIES_JSON" ] || printf '{}' > "$FAMILIES_JSON"
else
    echo "skip: adversarial families (no lrs_sim at $SIM)" >&2
fi

{
    printf '{\n'
    printf '  "generated_by": "tools/bench_to_json.sh",\n'
    printf '  "trace_len": %s,\n' "$LRS_TRACE_LEN"
    printf '  "warmup_amortization": {\n'
    printf '    "traces": 2,\n'
    printf '    "schemes": 5,\n'
    printf '    "warmup_cycles": %s,\n' "$WARM_CYCLES"
    printf '    "full_sweep_ms": %s,\n' "$FULL_MS"
    printf '    "snapshot_sweep_cold_ms": %s,\n' "$SNAP_COLD_MS"
    printf '    "snapshot_sweep_reuse_ms": %s\n' "$SNAP_REUSE_MS"
    printf '  },\n'
    printf '  "families": '
    sed 's/^/  /; 1s/^  //; $s/$/,/' "$FAMILIES_JSON"
    printf '  "benches": [\n'
    first=1
    for b in $BENCHES; do
        f="$TMPDIR_JSON/$b.json"
        [ -f "$f" ] || continue
        [ "$first" -eq 1 ] || printf ',\n'
        first=0
        cat "$f"
    done
    printf '\n  ]\n}\n'
} > "$OUT"

echo "wrote $OUT ($ran benches)" >&2
