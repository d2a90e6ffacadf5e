/**
 * @file
 * Convenience helpers the benches and examples use to run traces
 * through machine configurations and compare schemes.
 */

#ifndef LRS_CORE_RUNNER_HH
#define LRS_CORE_RUNNER_HH

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/core.hh"
#include "core/results.hh"
#include "trace/library.hh"

namespace lrs
{

/** Run @p trace through a machine configured as @p cfg. */
SimResult runSim(VecTrace &trace, const MachineConfig &cfg);

/** Generate the trace for @p params and run it. */
SimResult runSim(const TraceParams &params, const MachineConfig &cfg);

/**
 * Run one trace under every ordering scheme (I-VI) with a shared
 * machine configuration; returns results in scheme order. The
 * schemes run concurrently through parallelFor() on @p workers
 * threads (0: LRS_JOBS, else hardware concurrency); the returned
 * vector is bit-identical to a serial loop regardless of worker
 * count — see docs/PARALLELISM.md.
 */
std::vector<SimResult> runAllSchemes(const VecTrace &trace,
                                     MachineConfig cfg,
                                     unsigned workers = 0);

/** The scheme order used by runAllSchemes(). */
const std::vector<OrderingScheme> &allSchemes();

/**
 * Geometric mean of speedups (each vs its own baseline). Zero,
 * negative or NaN values (a crashed scheme yields 0.0; an unran
 * baseline yields NaN) cannot enter a log-mean and would otherwise
 * poison it silently; they are skipped with a one-line E_DATA_INVALID
 * warning on stderr naming the offending value. Returns 0.0 when no
 * usable value remains.
 */
double geomean(const std::vector<double> &values);

/**
 * Read an unsigned integer environment override, e.g. the trace
 * length knob LRS_TRACE_LEN used by all benches. Returns @p fallback
 * when unset; when the variable is set but not fully parsable as a
 * decimal integer — including values beyond 2^64-1, which strtoull
 * would otherwise silently clamp to ULLONG_MAX (ERANGE), and
 * negatives, which it would wrap — a one-line warning goes to stderr
 * and @p fallback is returned (a silently ignored or mangled override
 * would fake experiment results).
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/**
 * Cooperative sweep cancellation, the mechanism behind lrs_sim's
 * SIGINT/SIGTERM handling (docs/ROBUSTNESS.md, "Sweep supervisor").
 * requestSweepInterrupt() is async-signal-safe (one relaxed store on
 * a lock-free atomic), so a signal handler may call it directly. The
 * core polls the flag every few thousand simulated cycles and unwinds
 * with InterruptError; the sweep supervisor stops launching cells and
 * lets already-journaled work stand, so a later --resume continues
 * exactly where the interrupt landed.
 */
void requestSweepInterrupt() noexcept;
bool sweepInterruptRequested() noexcept;
/** Re-arm after a handled interrupt (tests; fresh supervisor runs). */
void clearSweepInterrupt() noexcept;

/**
 * Idle-cycle skip-ahead toggle (docs/PERFORMANCE.md). When on (the
 * default), OooCore::advanceTo() jumps over provably idle cycles —
 * cycles in which no stage can mutate machine state — landing on the
 * earliest future event with interval stats, histograms, audit
 * cadence and the interrupt-poll cadence bulk-accounted to be
 * bit-identical to stepping every cycle. A process-wide runtime flag
 * rather than a MachineConfig field: it cannot change any simulated
 * outcome, so it must not enter config fingerprints (snapshot
 * headers, warm-fork reuse checks). The ThroughputIdentity tests flip
 * it to run the stepped reference path and pin the equivalence.
 */
void setCycleSkipAhead(bool enabled) noexcept;
bool cycleSkipAhead() noexcept;

} // namespace lrs

#endif // LRS_CORE_RUNNER_HH
