#!/usr/bin/env sh
# Build the tree under sanitizers and run the tier-1 test suite with
# them armed. Any sanitizer report fails the run (halt_on_error /
# abort) so CI and humans cannot miss it.
#
# Modes:
#   default   AddressSanitizer + UndefinedBehaviorSanitizer over the
#             full suite
#   --tsan    ThreadSanitizer (mutually exclusive with ASan) over the
#             parallel sweep engine tests (ctest -R Parallel) and the
#             other tests that run parallelFor() with several workers
#             (warm-fork snapshots, the histogram grid merge, the
#             profiler's per-thread blocks, runAllSchemes' machines
#             reading one shared trace) — the data-race check for
#             core/parallel.hh and its callers (docs/PARALLELISM.md)
#
# Usage: tools/run_sanitized.sh [--tsan] [build-dir] [extra ctest args...]
#   default build dirs: build-san / build-tsan (kept separate from the
#   normal build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

mode=asan
if [ $# -gt 0 ] && [ "$1" = "--tsan" ]; then
    mode=tsan
    shift
fi

if [ "$mode" = "tsan" ]; then
    build_dir=${1:-"$repo_root/build-tsan"}
    sanitizers="thread"
    # TSan races the whole parallel suite with a few workers even on
    # small machines so cross-thread interleavings actually happen.
    export LRS_JOBS="${LRS_JOBS:-4}"
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:${TSAN_OPTIONS:-}"
else
    build_dir=${1:-"$repo_root/build-san"}
    sanitizers="address;undefined"
    export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
    export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:${UBSAN_OPTIONS:-}"
fi
[ $# -gt 0 ] && shift

cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLRS_SANITIZE="$sanitizers"
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"
if [ "$mode" = "tsan" ]; then
    ctest --test-dir "$build_dir" --output-on-failure -j \
        "$(nproc 2>/dev/null || echo 4)" \
        -R 'Parallel|Snapshot\.CrossSchemeWarmForkIsDeterministic|Histogram\.GridMergeIdenticalForAnyWorkerCount|Profiler\.CountsOfExitedThreadsAreKept|SharedTrace' \
        "$@"
    # Sweep-supervisor chaos drill without the --isolate leg: fork()
    # in an instrumented multithreaded process is outside TSan's
    # model. The fork-free legs (SIGKILL + --resume and the snapshot
    # legs) still run and race the pool and supervisor threads under
    # TSan.
    "$repo_root/tools/chaos_sweep.sh" --no-isolate "$build_dir"
    # Short hostile-input fuzz leg: the reader is single-threaded, so
    # this is a smoke check that the fuzz harness itself is
    # race-clean, not the main fuzz gate (that is the ASan leg).
    "$repo_root/tools/fuzz_trace.sh" "$build_dir" 10 1
else
    ctest --test-dir "$build_dir" --output-on-failure -j \
        "$(nproc 2>/dev/null || echo 4)" "$@"
    # Full chaos drill, --isolate crash leg included. The sacrificial
    # cell raises SIGKILL instead of SIGSEGV: ASan intercepts
    # segfaults into its own report, while SIGKILL drives the
    # identical CRASHED bookkeeping uninstrumented.
    LRS_CHAOS_CRASH_SIG=9 "$repo_root/tools/chaos_sweep.sh" "$build_dir"
    # Hostile-input gate (docs/TRACES.md): >= 60 s of structure-aware
    # trace fuzzing under ASan/UBSan; any sanitizer report, crash or
    # unclassified exception fails the run.
    "$repo_root/tools/fuzz_trace.sh" "$build_dir" 60 1
fi
# Telemetry-off byte-identity gate under the sanitized binary (the
# simulated output is deterministic regardless of instrumentation).
# Timing is meaningless under sanitizers, so the wall gate is skipped.
"$repo_root/tools/check_overhead.sh" --no-time "$build_dir"

echo "sanitized ($sanitizers) test run passed: $build_dir"
