/**
 * @file
 * Aggregated results of one simulation run: timing, the paper's load
 * classification (Figure 1 terminology), hit-miss prediction counts,
 * resource-waste statistics, and the optional per-interval time
 * series captured when MachineConfig::statsInterval is set.
 *
 * Ratio convention (ipc(), speedupOver()): a result that never ran
 * has cycles == 0, and both ratios then return quiet NaN rather than
 * 0.0 — a zero would masquerade as a real (terrible) IPC or a real
 * (infinitely bad) speedup in averages and tables. NaN propagates
 * loudly through arithmetic and renders as "nan" / JSON null, so an
 * unran baseline is visible instead of silently skewing a mean.
 * Callers that want a plottable default should test std::isnan().
 */

#ifndef LRS_CORE_RESULTS_HH
#define LRS_CORE_RESULTS_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "common/state_io.hh"

namespace lrs
{

/**
 * One statsInterval-wide slice of a run: the deltas and rates the
 * core snapshots every MachineConfig::statsInterval cycles. Rates
 * with an empty denominator in the interval (e.g. no loads) are 0.0,
 * keeping the series directly plottable.
 */
struct IntervalSample
{
    /** Cycle at the *end* of the interval. */
    std::uint64_t cycle = 0;
    /** Uops retired within the interval. */
    std::uint64_t uops = 0;
    /** Retired uops per cycle within the interval. */
    double ipc = 0.0;
    /** Wasted (replayed) issue slots per cycle. */
    double replayRate = 0.0;
    /** CHT mispredictions / classified loads (ANC-PC + AC-PNC). */
    double chtMispredictRate = 0.0;
    /** Hit-miss mispredictions / loads (AH-PM + AM-PH). */
    double hmpMispredictRate = 0.0;
    /** Bank mispredictions / loads (sliced pipe). */
    double bankMispredictRate = 0.0;
    /** Mean scheduling-window fill fraction over the interval. */
    double schedOccupancy = 0.0;
    /** Mean ROB fill fraction over the interval. */
    double robOccupancy = 0.0;

    /** One column of the series: its JSON key and the field. */
    struct Column
    {
        const char *key;
        std::variant<std::uint64_t IntervalSample::*,
                     double IntervalSample::*>
            field;
    };
    /** Every field, in export order: the one list that toJson() and
     *  the state walk read. */
    static const std::array<Column, 9> kColumns;
};

struct SimResult
{
    std::string trace;
    std::string config;

    std::uint64_t cycles = 0;   ///< simulated cycles
    std::uint64_t uops = 0;     ///< retired uops
    std::uint64_t loads = 0;    ///< retired loads
    std::uint64_t stores = 0;   ///< retired stores, counted at the STA
    std::uint64_t branches = 0; ///< retired branches
    std::uint64_t branchMispredicts = 0;

    // --- load classification (section 2.1 terminology) ---
    /** Loads with no older unknown-address store at schedule time. */
    std::uint64_t notConflicting = 0;
    std::uint64_t ancPnc = 0; ///< actually-non-colliding, predicted so
    std::uint64_t ancPc = 0;  ///< lost opportunity
    std::uint64_t acPc = 0;   ///< collision caught by the predictor
    std::uint64_t acPnc = 0;  ///< missed collision (re-execution risk)

    /** Loads whose data paid the collision penalty. */
    std::uint64_t collisionPenalties = 0;
    /** Subset that were true order violations (squash recovery). */
    std::uint64_t orderViolations = 0;
    /** Loads serviced by store-to-load forwarding. */
    std::uint64_t forwarded = 0;
    /** Exclusive pairing: loads speculatively fed store data before
     *  the store's address resolved. */
    std::uint64_t specForwards = 0;
    /** Subset of specForwards where the pairing was wrong. */
    std::uint64_t specMisforwards = 0;

    // --- hit-miss prediction (section 2.2 terminology) ---
    std::uint64_t ahPh = 0; ///< actual hit, predicted hit
    std::uint64_t ahPm = 0; ///< actual hit, predicted miss
    std::uint64_t amPh = 0; ///< actual miss, predicted hit
    std::uint64_t amPm = 0; ///< actual miss, predicted miss
    std::uint64_t l1Misses = 0;     ///< includes dynamic misses
    /** Loads that hit a line whose fill was still in flight. */
    std::uint64_t dynamicMisses = 0;

    // --- resource waste ---
    std::uint64_t wastedIssues = 0; ///< issue slots burnt by replays
    std::uint64_t replayedUops = 0; ///< uops that issued more than once

    /** Prefetches issued by the stride prefetch engine. */
    std::uint64_t prefetches = 0;

    // --- banked-cache pipeline (Figure 4 modes) ---
    std::uint64_t bankConflicts = 0;    ///< conventional-pipe stalls
    std::uint64_t bankMispredicts = 0;  ///< sliced-pipe re-executions
    std::uint64_t bankReplications = 0; ///< low-confidence duplicates

    // --- interval time series (empty unless statsInterval was set) ---
    /** The statsInterval the run was captured with (0 = off). */
    std::uint64_t statsInterval = 0;
    std::vector<IntervalSample> intervals;

    /**
     * Telemetry histograms (null unless collectHistograms was set):
     * the "hist.*" registry subtree as a JSON object, carried in the
     * result so batch cells ship their distributions through the
     * journal and the grid merge (docs/OBSERVABILITY.md,
     * "Histograms"). Exported as a "histograms" member only when
     * non-null, keeping histogram-off output byte-identical.
     */
    json::Value histograms;

    /**
     * One u64 counter, named once. `key` names it in toJson() and the
     * state walk; `group` and `leaf` name it in the stats registry
     * ("mem" + "load_misses" is mem.load_misses), where
     * OooCore::registerStats() binds it. Some counters are spelled
     * differently in the two (l1_misses / mem.load_misses); the
     * goldens pin both.
     */
    struct CounterSpec
    {
        const char *key;
        const char *group;
        const char *leaf;
        std::uint64_t SimResult::*field;
    };
    /** Every counter, in toJson() order. */
    static const std::array<CounterSpec, 28> kCounters;

    /**
     * Retired uops per cycle. NaN when the result never ran
     * (cycles == 0) — see the file-level ratio convention.
     */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(uops) /
                            static_cast<double>(cycles)
                      : std::numeric_limits<double>::quiet_NaN();
    }

    std::uint64_t
    conflicting() const
    {
        return ancPnc + ancPc + acPc + acPnc;
    }

    std::uint64_t actuallyColliding() const { return acPc + acPnc; }

    std::uint64_t
    classifiedLoads() const
    {
        return notConflicting + conflicting();
    }

    /**
     * Speedup of this run relative to a baseline run (>1 = faster
     * than the baseline). NaN when either run never executed
     * (cycles == 0) — see the file-level ratio convention.
     */
    double
    speedupOver(const SimResult &base) const
    {
        if (cycles == 0 || base.cycles == 0)
            return std::numeric_limits<double>::quiet_NaN();
        return static_cast<double>(base.cycles) /
               static_cast<double>(cycles);
    }

    /**
     * Export every field (plus derived ratios and the interval
     * series, one JSON array per metric) as a JSON object.
     */
    json::Value toJson() const;

    /**
     * Machine-snapshot support (common/state_io.hh): every field
     * exactly, with interval-series doubles carried as IEEE-754 bit
     * patterns so a restored run's final report is byte-identical to
     * an uninterrupted one. Unlike toJson() (the human/tool export),
     * the walk is a lossless round trip; saveState() is its saving
     * direction.
     */
    void walkState(stateio::Archive &a);
    json::Value saveState() const;
};

} // namespace lrs

#endif // LRS_CORE_RESULTS_HH
