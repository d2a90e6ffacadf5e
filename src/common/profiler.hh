/**
 * @file
 * Host-time self-profiler for the simulator's own pipeline stages.
 *
 * Answers "where does the host CPU spend its wall time?" — the
 * measurement baseline any cycle-kernel optimisation (the planned SoA
 * refactor, ROADMAP item 1) is judged against. The core brackets each
 * stage (rename/fetch, schedule, execute, commit, predictor lookup)
 * with a scoped RAII timer; `lrs_sim --profile` turns collection on
 * and reports a per-stage breakdown plus end-to-end uops/sec.
 *
 * Design constraints, in order:
 *
 *  - The *off* path must be free: a Scope constructed while profiling
 *    is disabled does one relaxed atomic load and a branch, inline,
 *    and makes no call. Only the enabled path's bookkeeping is out of
 *    line. tools/check_overhead.sh checks that the instrumented core's
 *    output stays byte-identical with the flag off; it does not time
 *    the off path (perfbench measures kernel speed).
 *  - Self time, not inclusive time: nested scopes subtract their own
 *    total from the enclosing scope, so the per-stage numbers sum to
 *    the instrumented total instead of double-counting (predictor
 *    lookups nest inside rename/execute; execute nests inside the
 *    schedule scan).
 *  - Per-worker accumulation: samples land in a thread-local block
 *    (registered once per thread under a mutex); report() sums the
 *    blocks, so SimJobPool workers profile without sharing a cache
 *    line. Host timing is inherently non-deterministic, so profiler
 *    output is only ever emitted on the side (stderr / a "profile"
 *    JSON block behind --profile), never into byte-compared tables.
 *
 * The clock is rdtsc on x86-64 (calibrated once against
 * steady_clock), and steady_clock elsewhere.
 */

#ifndef LRS_COMMON_PROFILER_HH
#define LRS_COMMON_PROFILER_HH

#include <atomic>
#include <cstdint>

#include "common/json.hh"

namespace lrs::prof
{

/** Simulator stages the core brackets with Scope timers. */
enum class Stage
{
    Rename,  ///< fetch/rename/dispatch front end
    Issue,   ///< scheduling-window wakeup/select scan
    Execute, ///< functional execution + memory timing
    Commit,  ///< in-order retirement
    Predict, ///< CHT / HMP / bank predictor lookups
};
constexpr std::size_t kNumStages = 5;

/** Names matching Stage, for reports. */
const char *stageName(Stage s);

/**
 * Deterministic kernel work counters, reported beside the stage
 * times. Unlike host ticks they depend only on the simulated work, so
 * two runs of the same command report the same values on any host.
 */
enum class Counter
{
    IssueVisits,   ///< waiting slots the issue stage visited
    WakeResets,    ///< cached wake times recomputed by producer
                   ///< and store-part events
    SteppedCycles, ///< cycles executed one by one (not skipped)
};
constexpr std::size_t kNumCounters = 3;

/** snake_case names matching Counter, for reports. */
const char *counterName(Counter c);

/** Add @p n to counter @p c in this thread's block. */
void addCount(Counter c, std::uint64_t n);

/** Sum of counter @p c across all threads. */
std::uint64_t counterValue(Counter c);

/** Globally enable/disable collection (default off). */
void setEnabled(bool on);

inline std::atomic<bool> g_enabled{false};

inline bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

/** Read the calibrated tick clock (ticks; see ticksPerSecond()). */
std::uint64_t nowTicks();

/** Tick rate of nowTicks(), calibrated once per process. */
double ticksPerSecond();

/**
 * RAII stage bracket. While profiling is disabled the constructor is
 * one relaxed atomic load and a branch, and the destructor tests the
 * flag it left: both are forced inline, so a disabled scope makes no
 * call. Enabled, begin() and end() (out of line) attribute the scope's
 * *self* time (total minus nested child scopes) to the stage in this
 * thread's accumulator block.
 */
class Scope
{
  public:
    [[gnu::always_inline]] explicit Scope(Stage s) : stage_(s)
    {
        if (enabled())
            begin();
    }
    [[gnu::always_inline]] ~Scope()
    {
        if (active_)
            end();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    void begin();
    void end();

    // Only active_ is set on the off path; begin() sets the rest.
    Stage stage_;
    bool active_ = false;
    std::uint64_t start_;
    std::uint64_t childTicks_;
    Scope *parent_;
};

/** Zero every registered thread block (between runs). */
void resetAll();

/** Sum of self-ticks attributed to @p s across all threads. */
std::uint64_t stageTicks(Stage s);

/**
 * Aggregate report: per-stage seconds + share of the instrumented
 * total, the total, the work counters, and uops/sec derived from
 * @p uops and @p wallSeconds (end-to-end wall time measured by the
 * caller).
 */
json::Value reportJson(std::uint64_t uops, double wallSeconds);

/** Human-readable rendering of reportJson() for stderr. */
std::string reportText(std::uint64_t uops, double wallSeconds);

} // namespace lrs::prof

#endif // LRS_COMMON_PROFILER_HH
