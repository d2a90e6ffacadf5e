/**
 * @file
 * Deterministic parallel sweep engine.
 *
 * Every results figure and ablation runs a grid of
 * (trace × machine-config) simulations, and each simulation job is
 * pure: the trace generator flows from a per-trace seed, the core
 * holds no global mutable state, and the result is a value. That
 * shape is embarrassingly parallel, so parallelFor() spreads an
 * arbitrary job grid across threads while keeping the aggregate
 * output **bit-identical to a serial run regardless of worker count
 * or completion order**:
 *
 *  - every job gets a slot indexed by its submission order (job id);
 *    workers write results into their slot, never append by finish
 *    time;
 *  - jobs share nothing mutable: each job generates its own trace
 *    or takes its own cursor over a shared immutable one (a VecTrace
 *    copy), and constructs its own OooCore, whose
 *    StatsRegistry / fault / trace accounting are per-instance;
 *  - aggregation (means, speedups, JSON rows) happens after the
 *    barrier, in job-id order — the same floating-point evaluation
 *    order as the serial loop it replaced.
 *
 * Scheduling is one shared cursor: every thread claims the next
 * unclaimed job id from an atomic counter until the grid is
 * exhausted, so a long cell never holds up ids queued behind it. The
 * calling thread takes part, so one worker runs everything inline
 * and starts no thread at all.
 *
 * Worker count: explicit argument, else the LRS_JOBS environment
 * variable, else std::thread::hardware_concurrency(). A nested
 * parallelFor() from inside a job runs inline on that thread —
 * runAllSchemes() can therefore be parallelised internally and still
 * be submitted as a job itself without oversubscribing the host.
 *
 * See docs/PARALLELISM.md for the determinism contract and usage.
 */

#ifndef LRS_CORE_PARALLEL_HH
#define LRS_CORE_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/results.hh"
#include "trace/params.hh"

namespace lrs
{

/** One cell of a sweep grid: generate the trace, run the machine. */
struct SimJob
{
    TraceParams trace;
    MachineConfig cfg;
    /**
     * When non-empty, the run restores this warmup checkpoint
     * (core/snapshot.hh) instead of starting cold, then advances to
     * completion. Travels with the job through every execution mode —
     * parallelFor() threads, --resume, --isolate subprocesses.
     */
    std::string fromSnapshot;
};

/**
 * What happened to one sweep cell — the supervisor's outcome taxonomy
 * (docs/ROBUSTNESS.md, "Sweep supervisor"):
 *  - Ok:      the simulation completed and the result is usable;
 *  - Failed:  the cell threw (bad config, malformed trace, audit
 *             violation, ...) — JobOutcome::code names the DiagCode;
 *  - Timeout: the per-cell deadline expired (MachineConfig::maxCycles
 *             or the isolation mode's wall-clock watchdog);
 *  - Crashed: the isolated subprocess died abnormally (signal, or
 *             exit without a result) — JobOutcome::signal when known;
 *  - Skipped: --resume found the cell already completed in the
 *             checkpoint journal; the stored result stands.
 */
enum class CellStatus : std::uint8_t
{
    Ok,
    Failed,
    Timeout,
    Crashed,
    Skipped,
};

/** Stable display/journal name: "OK", "FAILED", "TIMEOUT", ... */
const char *cellStatusName(CellStatus s);

/** Inverse of cellStatusName(); throws std::invalid_argument. */
CellStatus parseCellStatus(const std::string &name);

/**
 * Result slot of one job. A job that throws (bad config, malformed
 * trace, audit violation) marks its own slot Failed with the
 * diagnostic text and machine-readable code; sibling jobs are
 * unaffected.
 */
struct JobOutcome
{
    SimResult result;
    CellStatus status = CellStatus::Ok;
    std::string error; ///< diagnostic text when failed()
    /** DiagCode name ("E_CONFIG_INVALID", "E_AUDIT_VIOLATION",
     *  "E_DEADLINE_EXCEEDED", ...); "E_INTERNAL" for exceptions that
     *  carry no structured diagnostics. Empty while status is Ok. */
    std::string code;
    /** Terminating signal of a Crashed isolated cell (0 unknown). */
    int signal = 0;
    /** Executions this outcome took (>1 after supervisor retries;
     *  0 for a Skipped cell restored from the journal). */
    unsigned attempts = 1;
    /**
     * Canonical result document of a completed cell. The supervisor
     * fills it — result.toJson() after a fresh run, or the journal's
     * stored copy for a Skipped cell — so reports re-emit resumed
     * cells byte-identically to an uninterrupted run. Null when the
     * cell has no result (or when runJobs() ran it).
     */
    json::Value resultJson;

    /** Is status Failed, Timeout or Crashed? */
    bool
    failed() const
    {
        return status == CellStatus::Failed ||
               status == CellStatus::Timeout ||
               status == CellStatus::Crashed;
    }
};

/**
 * Run one (trace, config) cell to a JobOutcome, classifying any
 * exception into the taxonomy above — the single implementation
 * behind runJobs() and the sweep supervisor, so stderr, journal
 * records and JSON all agree on what a failure was.
 */
JobOutcome runOneSimJob(const SimJob &job);

/**
 * As above with a flight recorder riding along (may be null): the
 * recorder is attached to the core for the duration of the run, and
 * on a failure the outcome classification is noted into it and its
 * dump rewritten before returning — so the per-cell dump ends with
 * the same code/error the journal and JSON report carry
 * (docs/OBSERVABILITY.md, "Flight recorder").
 */
class FlightRecorder;
JobOutcome runOneSimJob(const SimJob &job, FlightRecorder *fr);

/** Fill @p o from an in-flight exception (shared classification). */
void classifyJobException(JobOutcome &o, const std::exception &e);

/**
 * Run fn(0) .. fn(n-1) on min(@p workers, n) threads and return when
 * all have finished. @p workers 0 selects configuredWorkers(); the
 * caller is one of the threads, so one worker (or n <= 1) runs
 * inline and starts none. fn must write its output into a slot owned
 * by its index — never append to shared state — for deterministic
 * aggregation. If any invocation throws, every remaining index still
 * runs and the exception of the lowest throwing index is rethrown
 * here. Called from inside a job it runs inline.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 unsigned workers = 0);

/**
 * Run a (TraceParams, MachineConfig) grid through parallelFor(): each
 * job generates its trace and runs one OooCore; outcomes are indexed
 * by job id. Exceptions are captured per job (JobOutcome::failed()).
 */
std::vector<JobOutcome> runJobs(const std::vector<SimJob> &jobs,
                                unsigned workers = 0);

/** LRS_JOBS if set and nonzero (capped at 1024), else hardware
 *  concurrency. */
unsigned configuredWorkers();

} // namespace lrs

#endif // LRS_CORE_PARALLEL_HH
