/**
 * @file
 * Statistical (non-performance) evaluations, matching the paper's
 * methodology for hit-miss prediction and bank prediction: the
 * predictors are run over the trace's load stream with a functional
 * cache model and "no effect on scheduling" (sections 3.2, 4.2, 4.3).
 */

#ifndef LRS_CORE_ANALYSIS_HH
#define LRS_CORE_ANALYSIS_HH

#include <cstdint>

#include "memory/hierarchy.hh"
#include "predictors/bank_pred.hh"
#include "predictors/hitmiss.hh"
#include "trace/stream.hh"

namespace lrs
{

/** Outcome counts of a statistical hit-miss predictor run. */
struct HmpStats
{
    std::uint64_t loads = 0;
    std::uint64_t misses = 0; ///< actual L1 misses (incl. dynamic)
    std::uint64_t ahPh = 0;
    std::uint64_t ahPm = 0;
    std::uint64_t amPh = 0;
    std::uint64_t amPm = 0;

    double missRate() const
    {
        return loads ? static_cast<double>(misses) / loads : 0.0;
    }
    /** AM-PM as a fraction of all loads (the figure's middle bar). */
    double caughtFrac() const
    {
        return loads ? static_cast<double>(amPm) / loads : 0.0;
    }
    /** AH-PM as a fraction of all loads (the figure's left bar). */
    double falseMissFrac() const
    {
        return loads ? static_cast<double>(ahPm) / loads : 0.0;
    }
    /** Fraction of actual misses the predictor caught. */
    double coverage() const
    {
        return misses ? static_cast<double>(amPm) / misses : 0.0;
    }
};

/** Which cache level's misses the hit-miss analysis predicts. */
enum class MissLevel
{
    L1, ///< first-level misses (the paper's main evaluation)
    L2, ///< misses to main memory (the thread-switch use case)
};

/**
 * Run @p hmp over the loads of @p trace against a functional timing
 * cache. @p uops_per_cycle converts uop index to pseudo-cycles for the
 * fill-timing (dynamic miss) model. With MissLevel::L2 the predicted
 * outcome is "misses all caches" — the paper's section 2.2 suggests
 * using that prediction to govern thread switches in an SMT machine.
 */
HmpStats analyzeHitMiss(const VecTrace &trace, HitMissPredictor &hmp,
                        const HierarchyParams &mem = {},
                        double uops_per_cycle = 2.0,
                        MissLevel level = MissLevel::L1);

/**
 * Thread-switch value estimate for an L2 hit-miss predictor
 * (section 2.2: "the prediction may be used to govern a thread switch
 * if a load is predicted to miss the L2 cache"). Each caught memory
 * access saves roughly the main-memory latency minus the switch
 * overhead; each false switch costs the overhead.
 */
struct ThreadSwitchEstimate
{
    HmpStats stats;
    Cycle switchOverhead;
    Cycle memLatency;

    /** Net cycles saved per 1000 loads by switch-on-predicted-miss. */
    double
    netSavedPerKiloLoad() const
    {
        if (stats.loads == 0)
            return 0.0;
        const double saved =
            static_cast<double>(stats.amPm) *
            (static_cast<double>(memLatency) -
             static_cast<double>(switchOverhead));
        const double wasted = static_cast<double>(stats.ahPm) *
                              static_cast<double>(switchOverhead);
        return (saved - wasted) * 1000.0 /
               static_cast<double>(stats.loads);
    }
};

ThreadSwitchEstimate estimateThreadSwitch(
    const VecTrace &trace, HitMissPredictor &hmp,
    const HierarchyParams &mem = {}, Cycle switch_overhead = 20);

/** Outcome counts of a statistical bank predictor run. */
struct BankStats
{
    std::uint64_t loads = 0;
    std::uint64_t predicted = 0;
    std::uint64_t correct = 0;
    std::uint64_t wrong = 0;

    /** P: fraction of loads for which a prediction was made. */
    double rate() const
    {
        return loads ? static_cast<double>(predicted) / loads : 0.0;
    }
    /** Accuracy of the predictions that were made. */
    double accuracy() const
    {
        return predicted ? static_cast<double>(correct) / predicted
                         : 0.0;
    }
    /** R: correct-to-wrong ratio. */
    double ratioR() const
    {
        return wrong ? static_cast<double>(correct) / wrong
                     : static_cast<double>(correct);
    }
    /** The paper's section-4.3 metric at a given penalty. */
    double metric(double penalty) const
    {
        return bankMetric(rate(), ratioR(), penalty);
    }
};

/**
 * Run @p pred over the loads of @p trace. The actual bank is the bank
 * of the effective address under the predictor's geometry.
 */
BankStats analyzeBank(const VecTrace &trace, BankPredictor &pred);

} // namespace lrs

#endif // LRS_CORE_ANALYSIS_HH
