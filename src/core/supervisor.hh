/**
 * @file
 * Resilient sweep supervisor: crash-safe batch grids over parallelFor().
 *
 * The parallel engine (core/parallel.hh) made grids fast; this layer
 * makes them survivable. A SweepSupervisor runs N cells — by default
 * (trace × config) simulations, or any caller-supplied cell runner —
 * and wraps each with the robustness machinery a long grid needs:
 *
 *  - **checkpoint journal** (common/journal.hh): one CRC-guarded
 *    JSONL record per finished cell, appended and fsync()ed as cells
 *    complete, so a crash/SIGKILL loses at most the in-flight cells;
 *  - **resume**: with SweepOptions::resume the journal is validated
 *    against the grid (cell keys must match — a journal from a
 *    different grid is rejected loudly) and completed cells are
 *    restored as Skipped outcomes carrying the stored result JSON,
 *    making the final report byte-identical to an uninterrupted run;
 *  - **per-cell deadlines**: MachineConfig::maxCycles trips inside
 *    the core (deterministic, simulated cycles) and is reported as a
 *    TIMEOUT outcome; isolation mode adds an optional wall-clock
 *    watchdog for cells that wedge outside the simulated clock;
 *  - **bounded retries**: failed/timed-out/crashed cells re-run in
 *    deterministic rounds (ascending cell id per round, up to
 *    SweepOptions::retries extra attempts) so transient faults clear
 *    and only persistent failures surface (SweepStats::retries /
 *    SweepStats::gaveUp);
 *  - **subprocess isolation** (SweepOptions::isolate): each attempt
 *    forks; the child streams its outcome back over a pipe, and a
 *    SIGSEGV / std::terminate / abort() kills only that cell, which
 *    the parent records as CRASHED (with the signal) while the sweep
 *    continues;
 *  - **cooperative interruption**: when requestSweepInterrupt() fires
 *    (lrs_sim's SIGINT/SIGTERM handler), running cells unwind, queued
 *    cells are marked not-run, journaled work stands, and a later
 *    resume continues exactly where the interrupt landed;
 *  - **live progress stream** (SweepOptions::progressFd): one compact
 *    JSON heartbeat line per completed cell — done/total, per-status
 *    counts, ETA, aggregate uops/sec — for operators watching a long
 *    grid (docs/OBSERVABILITY.md, "Progress stream").
 *
 * One record describes an outcome: outcomeRecord() encodes it for the
 * journal, the isolated child's pipe and lrs_sim's `failures` array,
 * and outcomeFromRecord() decodes it. One tally counts statuses:
 * SweepStats, updated as each attempt finishes, feeds the heartbeat
 * and lrs_sim's stderr `sweep:` line. See docs/ROBUSTNESS.md ("Sweep
 * supervisor") for the journal format and the front-end exit-code
 * contract.
 */

#ifndef LRS_CORE_SUPERVISOR_HH
#define LRS_CORE_SUPERVISOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/journal.hh"
#include "core/parallel.hh"

namespace lrs
{

/** Knobs of one supervised sweep. */
struct SweepOptions
{
    /** Checkpoint journal path; empty disables journaling. */
    std::string journalPath;
    /**
     * Load the journal first and skip cells it records as OK. The
     * journal must match the grid (same keys for the same ids) or
     * the supervisor throws ConfigError (E_JOURNAL_INVALID). A
     * missing journal file resumes an "empty" run: everything runs.
     */
    bool resume = false;
    /** Extra attempts for FAILED/TIMEOUT/CRASHED cells (0 = none). */
    unsigned retries = 0;
    /** Fork each attempt into a subprocess (see file comment). */
    bool isolate = false;
    /**
     * Wall-clock watchdog per isolated attempt, in milliseconds; on
     * expiry the child is SIGKILLed and the cell reported TIMEOUT.
     * 0 disables. Only meaningful with isolate (in-process cells use
     * the deterministic MachineConfig::maxCycles budget instead).
     */
    std::uint64_t cellTimeoutMs = 0;
    /** Worker threads (0 = LRS_JOBS / hardware concurrency). */
    unsigned workers = 0;
    /**
     * Live progress stream: file descriptor to receive one compact
     * JSON heartbeat line per completed cell (plus one before the
     * first cell starts), carrying cells done/total, per-status
     * counts, elapsed/ETA wall time and aggregate simulated-uop
     * throughput (docs/OBSERVABILITY.md, "Progress stream"). -1 (the
     * default) disables emission entirely. The stream reports host
     * wall-clock time and is therefore *not* deterministic — it is an
     * operator-facing side channel and never feeds results; write
     * failures (closed pipe, full disk) silently stop the stream
     * rather than failing the sweep.
     */
    int progressFd = -1;
};

/**
 * Live status tally of one run(). Each attempt's outcome is counted as
 * it finishes and a retry's outcome replaces the count of the attempt
 * before it, so between attempts ok + failed + timeout + crashed is
 * the number of fresh cells finished. An interrupted attempt is not
 * counted. gaveUp and interrupted are filled when run() returns.
 */
struct SweepStats
{
    std::uint64_t cells = 0;    ///< grid size
    std::uint64_t ok = 0;       ///< completed (fresh) cells
    std::uint64_t failed = 0;   ///< FAILED cells
    std::uint64_t timeout = 0;  ///< TIMEOUT cells
    std::uint64_t crashed = 0;  ///< CRASHED cells
    std::uint64_t skipped = 0;  ///< restored from the journal
    std::uint64_t retries = 0;  ///< re-executions performed
    std::uint64_t uops = 0;     ///< simulated uops of the ok cells
    std::uint64_t gaveUp = 0;   ///< cells failed after all attempts
    std::uint64_t interrupted = 0; ///< cells not run (interrupt)
};

/**
 * The journal record of @p o as cell @p cell under @p key:
 * {"v":1,"cell","key","status","attempts"} then "result" for an OK
 * outcome, or "code", "error" and a nonzero "signal" otherwise.
 */
json::Value outcomeRecord(std::size_t cell, const std::string &key,
                          const JobOutcome &o);

/**
 * Inverse of outcomeRecord(): status, attempts and either the result
 * document with its table summary (trace, config, cycles, uops) or
 * code/error/signal. Throws std::exception on a malformed record.
 */
JobOutcome outcomeFromRecord(const json::Value &rec);

class SweepSupervisor
{
  public:
    /**
     * One attempt of one cell. Receives the cell id and the attempt
     * ordinal (1-based) and returns the outcome; exceptions escaping
     * the runner are classified via classifyJobException(). Runners
     * must be safe to call concurrently for distinct cells.
     */
    using CellRunner =
        std::function<JobOutcome(std::size_t cell, unsigned attempt)>;

    explicit SweepSupervisor(SweepOptions opts) : opts_(std::move(opts))
    {}

    SweepSupervisor(const SweepSupervisor &) = delete;
    SweepSupervisor &operator=(const SweepSupervisor &) = delete;

    /**
     * Run a simulation grid: cells[i] under the stable identity
     * keys[i] (e.g. "wd/exclusive"). Keys are what resume validates,
     * so they must be unique and derived from the grid contents, not
     * from run-time state.
     */
    std::vector<JobOutcome> run(const std::vector<SimJob> &cells,
                                const std::vector<std::string> &keys);

    /** Run @p n arbitrary cells through @p runner (tests, tooling). */
    std::vector<JobOutcome> run(std::size_t n,
                                const std::vector<std::string> &keys,
                                const CellRunner &runner);

    /** Did requestSweepInterrupt() cut the last run() short? */
    bool interrupted() const { return interrupted_; }

    /** The status tally of the last run(). */
    const SweepStats &sweepStats() const { return stats_; }

  private:
    /** Validate + load the journal; fills skipped outcomes. */
    void loadJournal(std::vector<JobOutcome> &outcomes,
                     const std::vector<std::string> &keys);

    /** Fork @p runner for one attempt; see file comment. */
    JobOutcome runIsolated(const CellRunner &runner, std::size_t cell,
                           unsigned attempt, const std::string &key);

    /** One attempt, interrupt-aware, isolation-aware, journaled. */
    void runCell(std::size_t cell, unsigned attempt,
                 const std::string &key, const CellRunner &runner,
                 JobOutcome &out);

    /**
     * Emit one heartbeat line to opts_.progressFd (no-op when the
     * stream is disabled or a previous write failed). The counts are
     * read under m_, so concurrent cell completions produce whole,
     * ordered lines.
     */
    void emitProgress();

    SweepOptions opts_;
    std::unique_ptr<JournalWriter> writer_;
    bool interrupted_ = false;

    std::mutex m_;       ///< guards stats_, journal appends, heartbeats
    SweepStats stats_;
    bool progressDead_ = false; ///< a heartbeat write failed; stop
    unsigned workers_ = 0;      ///< resolved worker count
    std::atomic<std::uint64_t> inFlight_{0}; ///< cells running now
    std::chrono::steady_clock::time_point start_;
};

} // namespace lrs

#endif // LRS_CORE_SUPERVISOR_HH
