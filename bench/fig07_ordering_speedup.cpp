/**
 * @file
 * Figure 7 — Speedup vs Memory Ordering Scheme.
 *
 * The eight SysmarkNT traces (cd ex fl pd pm pp wd wp) under the six
 * ordering schemes, speedup relative to Traditional, using the
 * paper's 2K-entry 4-way 2-bit Full CHT. Paper NT averages:
 * Postponing ~1.06, Opportunistic ~1.09, Inclusive ~1.14,
 * Exclusive ~1.16, Perfect ~1.17.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Figure 7: speedup vs memory ordering scheme",
                "NT avg: Post 1.06 / Opp 1.09 / Incl 1.14 / "
                "Excl 1.16 / Perfect 1.17");

    const auto traces =
        TraceLibrary::group(TraceGroup::SysmarkNT, traceLen());

    MachineConfig cfg;
    cfg.cht = paperCht();

    Report rep("fig07_ordering_speedup",
               {{"trace", "trace"},
                {"Postponing", "postponing", Fmt::Fixed, 3},
                {"Opportunistic", "opportunistic", Fmt::Fixed, 3},
                {"Inclusive", "inclusive", Fmt::Fixed, 3},
                {"Exclusive", "exclusive", Fmt::Fixed, 3},
                {"Perfect", "perfect", Fmt::Fixed, 3}});
    std::vector<std::vector<double>> per_scheme(5);

    // One pool job per trace (each job runs all six schemes; the
    // nested runAllSchemes sweep runs inline inside the job); the
    // per-trace slots are then aggregated in trace order.
    std::vector<std::vector<SimResult>> all(traces.size());
    parallelFor(traces.size(), [&](std::size_t ti) {
        auto trace = TraceLibrary::make(traces[ti]);
        all[ti] = runAllSchemes(*trace, cfg);
    });

    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        const auto &results = all[ti];
        std::vector<json::Value> row = {traces[ti].name};
        for (std::size_t k = 0; k < std::size(kFigSchemes); ++k) {
            const double s = results[kFigSchemes[k]].speedupOver(results[0]);
            per_scheme[k].push_back(s);
            row.push_back(s);
        }
        rep.row(std::move(row));
    }
    rep.row(withMeans({"NT_avg"}, per_scheme));
    rep.print(std::cout);
    rep.write();
    return 0;
}
