#!/usr/bin/env sh
# Chaos drill for the sweep supervisor (docs/ROBUSTNESS.md, "Sweep
# supervisor"): run a --batch grid, SIGKILL it mid-sweep, resume from
# the checkpoint journal, and assert the final table and JSON report
# are byte-identical to a clean serial run — for 1, 2 and 8 workers.
# A second leg crashes one cell under --isolate and checks the sweep
# contains it (CRASHED row, siblings complete) and that a resume
# converges to the same clean reference.
#
# Snapshot legs (docs/ROBUSTNESS.md, "Snapshots", fork-free): a
# warmup_snapshot grid must produce byte-identical reports for 1/2/8
# workers while reusing the first run's checkpoints untouched; a
# SIGKILL during the warmup-checkpointing phase must leave every
# *.snap file valid-or-absent (atomic tmp+fsync+rename) and a resume
# must converge to the clean reference, regenerating what the crash
# destroyed.
#
# Usage: tools/chaos_sweep.sh [--no-isolate] [build-dir]
#   --no-isolate  skip the fork-based leg (TSan does not support
#                 fork() in instrumented multithreaded processes)
#   build-dir     defaults to ./build
#
# Knob (optional):
#   LRS_CHAOS_CRASH_SIG  signal the sacrificial cell raises (default
#                        SIGSEGV; the ASan wrapper passes 9)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

isolate=1
if [ $# -gt 0 ] && [ "$1" = "--no-isolate" ]; then
    isolate=0
    shift
fi
build_dir=${1:-"$repo_root/build"}
sim="$build_dir/tools/lrs_sim"
if [ ! -x "$sim" ]; then
    echo "chaos_sweep: $sim not built (cmake --build $build_dir)" >&2
    exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/lrs_chaos.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

cat > "$work/grid.ini" <<EOF
traces  = wd, gcc, swim, tpcc
schemes = traditional, opportunistic, exclusive, perfect
len     = 150000
EOF

fail() {
    echo "chaos_sweep: FAIL: $*" >&2
    exit 1
}

lines() {
    if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi
}

echo "chaos_sweep: clean serial reference run"
"$sim" --batch "$work/grid.ini" --jobs 1 --json "$work/ref.json" \
    > "$work/ref.txt" 2> "$work/ref.err"

for jobs in 1 2 8; do
    echo "chaos_sweep: SIGKILL mid-sweep + resume (jobs=$jobs)"
    j="$work/j$jobs.jsonl"
    rm -f "$j"
    "$sim" --batch "$work/grid.ini" --jobs "$jobs" --journal "$j" \
        > "$work/killed$jobs.txt" 2>/dev/null &
    pid=$!
    # Let at least two cells checkpoint, then kill -9 mid-flight. If
    # the sweep finishes first the resume is a pure journal replay,
    # which must still be byte-identical.
    tries=0
    while [ "$(lines "$j")" -lt 2 ]; do
        kill -0 "$pid" 2>/dev/null || break
        tries=$((tries + 1))
        [ "$tries" -gt 600 ] && break
        sleep 0.05
    done
    kill -KILL "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    "$sim" --batch "$work/grid.ini" --jobs "$jobs" --resume "$j" \
        --json "$work/res$jobs.json" \
        > "$work/res$jobs.txt" 2> "$work/res$jobs.err"
    cmp -s "$work/ref.txt" "$work/res$jobs.txt" \
        || fail "resumed table differs from clean run (jobs=$jobs)"
    cmp -s "$work/ref.json" "$work/res$jobs.json" \
        || fail "resumed JSON differs from clean run (jobs=$jobs)"
done

if [ "$isolate" = 1 ]; then
    echo "chaos_sweep: crashing one cell under --isolate, then resume"
    j="$work/jc.jsonl"
    rc=0
    LRS_CHAOS_CRASH_CELL=5 "$sim" --batch "$work/grid.ini" --jobs 2 \
        --isolate --journal "$j" \
        --flight-recorder "$work/flight" --json "$work/crash.json" \
        > "$work/crash.txt" 2> "$work/crash.err" || rc=$?
    [ "$rc" -eq 1 ] || fail "crashing sweep exited $rc, expected 1"
    grep -q "CRASHED" "$work/crash.txt" \
        || fail "crashed cell not reported CRASHED"
    ok_rows=$(grep -c " OK " "$work/crash.txt" || true)
    [ "$ok_rows" -eq 15 ] \
        || fail "expected 15 completed siblings, saw $ok_rows"
    # The crashed cell must leave a CRC-valid flight-recorder dump
    # (armed before the chaos signal fires, even against SIGKILL),
    # the failure entry in the batch JSON must reference it, and the
    # 15 completed siblings must have cleaned theirs up.
    fdump="$work/flight/cell_5.flight.jsonl"
    [ -f "$fdump" ] \
        || fail "crashed cell left no flight-recorder dump at $fdump"
    "$sim" --check-journal "$fdump" > /dev/null \
        || fail "flight-recorder dump failed CRC validation"
    grep -q "flight_recorder" "$work/crash.json" \
        || fail "batch JSON failure entry lacks flight_recorder path"
    ndumps=$(ls "$work/flight" | wc -l)
    [ "$ndumps" -eq 1 ] \
        || fail "expected 1 surviving dump, saw $ndumps"
    # Resume without the chaos hook: the crashed cell re-runs and the
    # final report converges to the clean reference, byte for byte.
    "$sim" --batch "$work/grid.ini" --jobs 2 --resume "$j" \
        --json "$work/resc.json" \
        > "$work/resc.txt" 2> "$work/resc.err"
    cmp -s "$work/ref.txt" "$work/resc.txt" \
        || fail "post-crash resumed table differs from clean run"
    cmp -s "$work/ref.json" "$work/resc.json" \
        || fail "post-crash resumed JSON differs from clean run"
fi

# ---------------------------------------------------------------------
# Snapshot legs. Fork-free, so they run in both sanitizer passes.
# ---------------------------------------------------------------------

echo "chaos_sweep: warmup-snapshot sweep byte-identity (jobs=1/2/8)"
cat > "$work/snap.ini" <<EOF
traces          = wd, gcc
schemes         = traditional, exclusive, storesets
len             = 150000
warmup_snapshot = 60000
EOF
snapdir="$work/snap.ini.snapshots"
"$sim" --batch "$work/snap.ini" --jobs 1 --json "$work/sref.json" \
    > "$work/sref.txt" 2> "$work/sref.err"
grep -q "checkpointed at cycle 60000" "$work/sref.err" \
    || fail "warmup phase did not report its checkpoints"
# Fingerprint the checkpoints: later runs must reuse these bytes, not
# rewarm and rewrite them.
cksum "$snapdir"/*.warmup.snap > "$work/snap.cksum"
for jobs in 2 8; do
    "$sim" --batch "$work/snap.ini" --jobs "$jobs" \
        --json "$work/s$jobs.json" \
        > "$work/s$jobs.txt" 2> "$work/s$jobs.err"
    cmp -s "$work/sref.txt" "$work/s$jobs.txt" \
        || fail "snapshot sweep table differs from jobs=1 (jobs=$jobs)"
    cmp -s "$work/sref.json" "$work/s$jobs.json" \
        || fail "snapshot sweep JSON differs from jobs=1 (jobs=$jobs)"
    cksum "$snapdir"/*.warmup.snap > "$work/snap.cksum.$jobs"
    cmp -s "$work/snap.cksum" "$work/snap.cksum.$jobs" \
        || fail "checkpoints were rewritten instead of reused (jobs=$jobs)"
done
"$sim" --batch "$work/snap.ini" --jobs 2 --validate-snapshot \
    > /dev/null 2> /dev/null \
    || fail "--validate-snapshot failed on the snapshot grid"

echo "chaos_sweep: SIGKILL during warmup checkpointing, then resume"
rm -rf "$snapdir"
j="$work/jsnap.jsonl"
rm -f "$j"
"$sim" --batch "$work/snap.ini" --jobs 2 --journal "$j" \
    > /dev/null 2>/dev/null &
pid=$!
# Kill -9 the instant the warmup phase starts materialising files —
# with luck mid-write, leaving a torn *.tmp behind. If the sweep
# outruns us the assertions below still hold on complete state.
tries=0
while [ -z "$(ls -A "$snapdir" 2>/dev/null)" ]; do
    kill -0 "$pid" 2>/dev/null || break
    tries=$((tries + 1))
    [ "$tries" -gt 3000 ] && break
    sleep 0.01
done
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
# Atomic-write contract: every *.snap that exists must be a CRC-valid,
# fully loadable snapshot; a torn write may only survive as *.tmp.
for f in "$snapdir"/*.warmup.snap; do
    [ -e "$f" ] || continue
    "$sim" --check-journal "$f" > /dev/null \
        || fail "post-SIGKILL snapshot $f is invalid (torn write?)"
done
# Resume converges to the clean reference byte-for-byte, regenerating
# whatever checkpoints the crash destroyed and reusing survivors. (A
# kill during warmup predates the sweep journal; an empty journal
# resume is simply a full run.)
[ -f "$j" ] || : > "$j"
"$sim" --batch "$work/snap.ini" --jobs 2 --resume "$j" \
    --json "$work/sres.json" > "$work/sres.txt" 2> "$work/sres.err"
cmp -s "$work/sref.txt" "$work/sres.txt" \
    || fail "post-crash snapshot resume table differs from clean run"
cmp -s "$work/sref.json" "$work/sres.json" \
    || fail "post-crash snapshot resume JSON differs from clean run"

echo "chaos_sweep: all legs passed"
