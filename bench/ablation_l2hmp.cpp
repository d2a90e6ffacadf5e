/**
 * @file
 * Ablation — L2 hit-miss prediction for thread switching.
 *
 * Section 2.2: "the prediction may be used to govern a thread switch
 * if a load is predicted to miss the L2 cache, and suffer the large
 * latency of accessing main memory" [Tull95]. This bench evaluates
 * the paper's hit-miss predictors re-targeted at misses-to-memory and
 * estimates the cycles a switch-on-predicted-miss SMT policy would
 * reclaim, per group. TPC (working set far beyond the caches) is
 * where the policy should pay off; cache-resident groups should show
 * nothing worth switching for.
 */

#include "core/analysis.hh"
#include "core/config_io.hh"

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Ablation: L2 hit-miss prediction (thread switch)",
                "switch-on-predicted-L2-miss pays on memory-bound "
                "groups only");

    const std::vector<std::pair<const char *, TraceGroup>> groups = {
        {"TPC", TraceGroup::TPC},
        {"SpecFP", TraceGroup::SpecFP95},
        {"SpecINT", TraceGroup::SpecInt95},
        {"NT", TraceGroup::SysmarkNT},
    };

    Report rep("ablation_l2hmp",
               {{"group", "group"},
                {"predictor", "predictor"},
                {"mem-miss rate", "mem_miss_rate", Fmt::Pct, 2},
                {"coverage", "coverage", Fmt::Pct, 1},
                {"false-switch", "false_switch_frac", Fmt::Pct, 2},
                {"net cycles/kload", "net_cycles_per_kload", Fmt::Fixed, 1}});
    const std::vector<const char *> preds = {"local", "chooser"};

    // Flatten the (group × predictor × trace) estimation grid into
    // pool jobs; fold the slots in the original loop order.
    struct Cell
    {
        TraceParams tp;
        const char *which;
    };
    std::vector<Cell> cells;
    std::vector<std::size_t> trace_counts;
    for (const auto &[label, g] : groups) {
        const auto traces = groupTraces(g, 3);
        trace_counts.push_back(traces.size());
        for (const char *which : preds)
            for (const auto &tp : traces)
                cells.push_back({tp, which});
    }
    std::vector<ThreadSwitchEstimate> slots(cells.size());
    parallelFor(cells.size(), [&](std::size_t idx) {
        auto trace = TraceLibrary::make(cells[idx].tp);
        auto hmp = makeHmp(parseHmpKind(cells[idx].which));
        slots[idx] = estimateThreadSwitch(*trace, *hmp);
    });

    std::size_t idx = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto &label = groups[gi].first;
        for (const char *which : preds) {
            HmpStats agg;
            double net = 0.0;
            const std::size_t n_traces = trace_counts[gi];
            for (std::size_t ti = 0; ti < n_traces; ++ti) {
                const auto &est = slots[idx++];
                agg.loads += est.stats.loads;
                agg.misses += est.stats.misses;
                agg.ahPm += est.stats.ahPm;
                agg.amPm += est.stats.amPm;
                agg.amPh += est.stats.amPh;
                agg.ahPh += est.stats.ahPh;
                net += est.netSavedPerKiloLoad();
            }
            rep.row({label, which, agg.missRate(), agg.coverage(),
                     agg.falseMissFrac(),
                     net / static_cast<double>(n_traces)});
        }
    }
    rep.print(std::cout);
    rep.write();

    std::cout << "\n'net cycles/kload' assumes a 20-cycle thread-"
                 "switch overhead against the\nconfigured main-memory "
                 "latency; positive means switching on the "
                 "prediction\nbeats stalling.\n";
    return 0;
}
