/**
 * @file
 * Resilient sweep supervisor: crash-safe batch grids, in process over
 * parallelFor() threads or, under isolation, over forked children.
 *
 * A SweepSupervisor runs N cells through a cell runner (lrs_sim's
 * simulates one (trace × config) job) and gives each what a long grid
 * needs:
 *
 *  - **checkpoint journal** (common/journal.hh): one CRC-guarded
 *    record per finished attempt, appended and fsync()ed, so a crash
 *    loses at most the in-flight cells;
 *  - **resume**: the journal is validated against the grid's cell keys
 *    and its OK cells come back as Skipped outcomes carrying the
 *    stored result JSON, so the report is byte-identical to an
 *    uninterrupted run's;
 *  - **deadlines**: MachineConfig::maxCycles trips inside the core (a
 *    deterministic TIMEOUT); isolation adds a wall-clock watchdog;
 *  - **bounded retries**: failed, timed-out and crashed cells re-run
 *    in rounds, ascending cell id per round. A simulation cell is
 *    deterministic, so there a retry can change only a CRASHED outcome
 *    or a wall-clock TIMEOUT;
 *  - **subprocess isolation** (SweepOptions::isolate): no pool thread
 *    starts. The calling thread forks each attempt, keeps at most
 *    `workers` children alive and watches their pipes, watchdogs and
 *    the interrupt flag in one poll() loop. A crash kills only its
 *    child, and the cell is recorded as CRASHED (with the signal).
 *    Nothing is forked beside a running thread, so no child inherits
 *    a lock (a sanitizer allocator's included) another thread held;
 *  - **interruption**: after requestSweepInterrupt() (lrs_sim's
 *    SIGINT/SIGTERM handler) running cells unwind or are killed and
 *    queued ones are not run; a resume continues from there;
 *  - **progress stream** (SweepOptions::progressFd).
 *
 * outcomeRecord() encodes an outcome for the journal, the child's pipe
 * and lrs_sim's `failures` array. See docs/ROBUSTNESS.md ("Sweep
 * supervisor") for the journal format and the exit-code contract.
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
     * Skip the journal's OK cells; another grid's journal throws
     * ConfigError (E_JOURNAL_INVALID), a missing one runs every cell.
     */
    bool resume = false;
    /** Extra attempts for FAILED/TIMEOUT/CRASHED cells (0 = none). */
    unsigned retries = 0;
    /** Fork each attempt (file comment); run() needs one thread. */
    bool isolate = false;
    /** Wall-clock watchdog per isolated attempt, ms (0 = none). */
    std::uint64_t cellTimeoutMs = 0;
    /** Threads, or live children under isolate (0: LRS_JOBS/cores). */
    unsigned workers = 0;
    /**
     * Fd for one JSON heartbeat per completed cell, plus one at the
     * start (docs/OBSERVABILITY.md); -1 disables. Wall-clock, so not
     * deterministic; a failed write stops the stream, not the sweep.
     */
    int progressFd = -1;
};

/**
 * Live status tally of one run(): each attempt is counted as it
 * finishes, a retry replacing the attempt before it; an interrupted
 * attempt is not counted. gaveUp and interrupted fill at the end.
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
 * The journal record of @p o as cell @p cell under @p key: v, cell,
 * key, status, attempts, then result (OK) or code, error, signal.
 */
json::Value outcomeRecord(std::size_t cell, const std::string &key,
                          const JobOutcome &o);

/**
 * Inverse of outcomeRecord(), with the result's table summary (trace,
 * config, cycles, uops); throws std::exception on a malformed record.
 */
JobOutcome outcomeFromRecord(const json::Value &rec);

class SweepSupervisor
{
  public:
    /**
     * One attempt (1-based) of one cell; escaping exceptions are
     * classified via classifyJobException(). In process, runners run
     * concurrently for distinct cells and must be safe to; under
     * isolation each runs alone in its own child.
     */
    using CellRunner =
        std::function<JobOutcome(std::size_t cell, unsigned attempt)>;

    explicit SweepSupervisor(SweepOptions opts) : opts_(std::move(opts))
    {}

    SweepSupervisor(const SweepSupervisor &) = delete;
    SweepSupervisor &operator=(const SweepSupervisor &) = delete;

    /**
     * Run cells 0..n-1 through @p runner under unique keys derived
     * from the grid (e.g. "wd/exclusive"), which resume validates.
     * Under isolate the process must hold one thread (lrs_sim's
     * warm-up parallelFor() joins its threads before the sweep).
     */
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

    /** One round of isolated attempts; see the file comment. */
    void runIsolated(const std::vector<std::size_t> &pending,
                     unsigned attempt,
                     const std::vector<std::string> &keys,
                     const CellRunner &runner,
                     std::vector<JobOutcome> &outcomes);

    /** Count, journal and report attempt outcome @p o into @p out. */
    void settle(std::size_t cell, unsigned attempt,
                const std::string &key, JobOutcome o, JobOutcome &out);

    /** One heartbeat line, read and written under m_ (whole lines). */
    void emitProgress();

    SweepOptions opts_;
    std::unique_ptr<JournalWriter> writer_;
    bool interrupted_ = false;

    std::mutex m_;       ///< guards stats_, journal appends, heartbeats
    SweepStats stats_;
    bool progressDead_ = false; ///< a heartbeat write failed; stop
    unsigned workers_ = 0;      ///< resolved worker count
    std::atomic<std::uint64_t> inFlight_{0}; ///< cells/children running
    std::chrono::steady_clock::time_point start_;
};

} // namespace lrs

#endif // LRS_CORE_SUPERVISOR_HH
