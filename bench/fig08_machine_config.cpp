/**
 * @file
 * Figure 8 — Speedup vs Machine Configuration.
 *
 * Ordering-scheme speedups across machine widths (EU2/MEM1, EU2/MEM2,
 * EU4/MEM2) for NT, SpecInt, Sysmark95 and "Other" (Games+Java+TPC).
 * Paper: wider machines gain more from better memory ordering; NT and
 * SpecInt gain 8-17%, Sys95/Other 5-10%.
 */

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

struct WidthSpec
{
    const char *label;
    int intUnits;
    int memUnits;
};

} // namespace

int
main()
{
    printHeader("Figure 8: speedup vs machine configuration",
                "wider machines gain more; NT/ISPEC 8-17%, "
                "Sys95/Other 5-10%");

    const std::vector<GroupSpec> groups = {
        {"NT", {TraceGroup::SysmarkNT}},
        {"ISPEC", {TraceGroup::SpecInt95}},
        {"Sys95", {TraceGroup::Sysmark95}},
        {"Other",
         {TraceGroup::Games, TraceGroup::Java, TraceGroup::TPC}},
    };
    const std::vector<WidthSpec> widths = {
        {"EU2/MEM1", 2, 1},
        {"EU2/MEM2", 2, 2},
        {"EU4/MEM2", 4, 2},
    };

    Report rep("fig08_machine_config",
               {{"group", "group"},
                {"machine", "machine"},
                {"Postponing", "postponing", Fmt::Fixed, 3},
                {"Opportunistic", "opportunistic", Fmt::Fixed, 3},
                {"Inclusive", "inclusive", Fmt::Fixed, 3},
                {"Exclusive", "exclusive", Fmt::Fixed, 3},
                {"Perfect", "perfect", Fmt::Fixed, 3}});

    // Gather the per-group trace subsets once, flatten the
    // (group × width × trace) grid into pool jobs — each runs all
    // six schemes — and aggregate the slots in the original order.
    std::vector<std::vector<TraceParams>> group_traces;
    for (const auto &gs : groups) {
        std::vector<TraceParams> traces;
        for (const auto g : gs.groups) {
            auto part = groupTraces(g, 2);
            traces.insert(traces.end(), part.begin(), part.end());
        }
        group_traces.push_back(std::move(traces));
    }

    struct Cell
    {
        std::size_t gi, wi, ti;
    };
    std::vector<Cell> cells;
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
        for (std::size_t wi = 0; wi < widths.size(); ++wi)
            for (std::size_t ti = 0; ti < group_traces[gi].size();
                 ++ti)
                cells.push_back({gi, wi, ti});

    std::vector<std::vector<SimResult>> all(cells.size());
    parallelFor(cells.size(), [&](std::size_t idx) {
        const Cell &c = cells[idx];
        MachineConfig cfg;
        cfg.cht = paperCht();
        cfg.intUnits = widths[c.wi].intUnits;
        cfg.memUnits = widths[c.wi].memUnits;
        auto trace = TraceLibrary::make(group_traces[c.gi][c.ti]);
        all[idx] = runAllSchemes(*trace, cfg);
    });

    std::size_t idx = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto &gs = groups[gi];
        const auto &traces = group_traces[gi];

        for (const auto &ws : widths) {
            std::vector<std::vector<double>> per_scheme(5);
            for (std::size_t ti = 0; ti < traces.size(); ++ti) {
                const auto &results = all[idx++];
                for (std::size_t k = 0; k < std::size(kFigSchemes); ++k)
                    per_scheme[k].push_back(
                        results[kFigSchemes[k]].speedupOver(results[0]));
            }
            rep.row(withMeans({gs.label, ws.label}, per_scheme));
        }
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
