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
 *    and only persistent failures surface (sweep.retries /
 *    sweep.gave_up accounting);
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
 * Every count lands in a StatsRegistry under "sweep.*". See
 * docs/ROBUSTNESS.md ("Sweep supervisor") for the journal format and
 * the front-end exit-code contract.
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
#include <vector>

#include "common/journal.hh"
#include "common/stats_registry.hh"
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

/** Aggregate accounting of one run(), mirrored in stats(). */
struct SweepStats
{
    std::uint64_t cells = 0;    ///< grid size
    std::uint64_t ok = 0;       ///< completed (fresh) cells
    std::uint64_t failed = 0;   ///< final FAILED cells
    std::uint64_t timeout = 0;  ///< final TIMEOUT cells
    std::uint64_t crashed = 0;  ///< final CRASHED cells
    std::uint64_t skipped = 0;  ///< restored from the journal
    std::uint64_t retries = 0;  ///< re-executions performed
    std::uint64_t gaveUp = 0;   ///< cells failed after all attempts
    std::uint64_t interrupted = 0; ///< cells not run (interrupt)
};

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

    explicit SweepSupervisor(SweepOptions opts);
    ~SweepSupervisor();

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

    const SweepStats &sweepStats() const { return stats_; }

    /** "sweep.*" counters (cells/ok/failed/.../retries/gave_up). */
    const StatsRegistry &stats() const { return reg_; }

  private:
    struct Resumed
    {
        json::Value result;
        unsigned attempts = 0;
    };

    /** Validate + load the journal; fills skipped outcomes. */
    void loadJournal(std::vector<JobOutcome> &outcomes,
                     const std::vector<std::string> &keys);

    /** Append one cell's outcome record (serialised, mutex-guarded). */
    void journalOutcome(std::size_t cell, const std::string &key,
                        const JobOutcome &o);

    /** Fork @p runner for one attempt; see file comment. */
    JobOutcome runIsolated(const CellRunner &runner, std::size_t cell,
                           unsigned attempt);

    /** One attempt, interrupt-aware, isolation-aware, journaled. */
    void runCell(std::size_t cell, unsigned attempt,
                 const std::string &key, const CellRunner &runner,
                 JobOutcome &out);

    /**
     * Emit one heartbeat line to opts_.progressFd (no-op when the
     * stream is disabled or a previous write failed). Counters are
     * snapshotted under progressM_ so concurrent cell completions
     * produce whole, ordered lines.
     */
    void emitProgress();

    SweepOptions opts_;
    SweepStats stats_;
    StatsRegistry reg_;
    std::unique_ptr<JournalWriter> writer_;
    std::mutex journalM_;
    bool interrupted_ = false;

    // --- progress stream state (active only when progressFd >= 0) ---
    std::mutex progressM_;        ///< guards counters + fd writes
    bool progressDead_ = false;   ///< a write failed; stop emitting
    std::uint64_t progTotal_ = 0; ///< grid size of the current run
    std::uint64_t progDone_ = 0;  ///< fresh cells finished so far
    std::uint64_t progOk_ = 0;
    std::uint64_t progFailed_ = 0;
    std::uint64_t progTimeout_ = 0;
    std::uint64_t progCrashed_ = 0;
    std::uint64_t progSkipped_ = 0; ///< restored, never re-run
    std::uint64_t progUops_ = 0;    ///< simulated uops of OK cells
    unsigned progWorkers_ = 0;      ///< resolved worker count
    std::atomic<std::uint64_t> inFlight_{0}; ///< cells running now
    std::chrono::steady_clock::time_point progStart_;
};

} // namespace lrs

#endif // LRS_CORE_SUPERVISOR_HH
