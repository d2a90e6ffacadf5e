/**
 * @file
 * Figure 10 — Hit-Miss Predictor statistical performance.
 *
 * Statistical runs (no effect on scheduling) of the local-only and
 * hybrid-chooser hit-miss predictors over SpecFP95, SpecInt95,
 * SysmarkNT and Other (Games+Java+TPC). Reported, as in the paper, as
 * a percentage of all loads: AH-PM (mispredicted hits, lower is
 * better), AM-PM (caught misses, higher is better) and total MISSES.
 * Paper: local-only catches 34%-85% of misses (NT..FP) while
 * mispredicting 0.07%-0.32% of hits; the chooser cuts mispredictions
 * to 0.04%-0.2% while giving up little AM-PM; AM-PM : AH-PM >= 5:1.
 */

#include <cmath>

#include "core/analysis.hh"
#include "core/config_io.hh"

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

namespace
{

struct GroupSpec
{
    const char *label;
    std::vector<TraceGroup> groups;
};

} // namespace

int
main()
{
    printHeader("Figure 10: hit-miss predictor performance",
                "local catches 34-85% of misses; chooser trades a "
                "little AM-PM for far fewer AH-PM");

    const std::vector<GroupSpec> groups = {
        {"SpecFP", {TraceGroup::SpecFP95}},
        {"SpecINT", {TraceGroup::SpecInt95}},
        {"SysmarkNT", {TraceGroup::SysmarkNT}},
        {"Others",
         {TraceGroup::Games, TraceGroup::Java, TraceGroup::TPC}},
    };

    Report rep("fig10_hmp_stats",
               {{"group", "group"},
                {"predictor", "predictor"},
                {"AH-PM", "ah_pm_frac", Fmt::Pct, 2},
                {"AM-PM", "am_pm_frac", Fmt::Pct, 2},
                {"MISSES", "miss_rate", Fmt::Pct, 2},
                {"coverage", "coverage", Fmt::Pct, 1},
                {"AMPM:AHPM", "ampm_per_ahpm", Fmt::Fixed, 1}});

    // Flatten the (group × predictor × trace) analysis grid into
    // pool jobs; aggregate the HmpStats slots in the original order.
    const std::vector<const char *> preds = {"local", "chooser"};
    std::vector<std::vector<TraceParams>> group_traces;
    for (const auto &gs : groups) {
        std::vector<TraceParams> traces;
        for (const auto g : gs.groups) {
            auto part = groupTraces(g, 3);
            traces.insert(traces.end(), part.begin(), part.end());
        }
        group_traces.push_back(std::move(traces));
    }

    struct Cell
    {
        std::size_t gi, pi, ti;
    };
    std::vector<Cell> cells;
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
        for (std::size_t pi = 0; pi < preds.size(); ++pi)
            for (std::size_t ti = 0; ti < group_traces[gi].size();
                 ++ti)
                cells.push_back({gi, pi, ti});

    std::vector<HmpStats> slots(cells.size());
    parallelFor(cells.size(), [&](std::size_t idx) {
        const Cell &c = cells[idx];
        auto trace = TraceLibrary::make(group_traces[c.gi][c.ti]);
        auto hmp = makeHmp(parseHmpKind(preds[c.pi]));
        slots[idx] = analyzeHitMiss(*trace, *hmp);
    });

    std::size_t idx = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto &gs = groups[gi];
        const auto &traces = group_traces[gi];
        for (const char *which : preds) {
            HmpStats agg;
            for (std::size_t ti = 0; ti < traces.size(); ++ti) {
                const HmpStats &st = slots[idx++];
                agg.loads += st.loads;
                agg.misses += st.misses;
                agg.ahPh += st.ahPh;
                agg.ahPm += st.ahPm;
                agg.amPh += st.amPh;
                agg.amPm += st.amPm;
            }
            // The ratio convention of core/results.hh: with no AH-PM
            // the ratio is inf, or nan without AM-PM either.
            const double ratio =
                agg.ahPm ? static_cast<double>(agg.amPm) /
                               static_cast<double>(agg.ahPm)
                : agg.amPm ? HUGE_VAL
                           : std::nan("");
            rep.row({gs.label, which, agg.falseMissFrac(), agg.caughtFrac(),
                     agg.missRate(), agg.coverage(), ratio});
        }
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
