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

    TextTable t({"trace", "Postponing", "Opportunistic", "Inclusive",
                 "Exclusive", "Perfect"});
    JsonReport jr("fig07_ordering_speedup");
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
        const auto &tp = traces[ti];
        const auto &results = all[ti];
        const SimResult &base = results[0]; // Traditional
        // runAllSchemes order: Trad, Opp, Post, Incl, Excl, Perfect.
        const double opp = results[1].speedupOver(base);
        const double post = results[2].speedupOver(base);
        const double incl = results[3].speedupOver(base);
        const double excl = results[4].speedupOver(base);
        const double perf = results[5].speedupOver(base);
        per_scheme[0].push_back(post);
        per_scheme[1].push_back(opp);
        per_scheme[2].push_back(incl);
        per_scheme[3].push_back(excl);
        per_scheme[4].push_back(perf);
        t.startRow();
        t.cell(tp.name);
        t.cell(post, 3);
        t.cell(opp, 3);
        t.cell(incl, 3);
        t.cell(excl, 3);
        t.cell(perf, 3);
        jr.beginRow();
        jr.value("trace", tp.name);
        jr.value("postponing", post);
        jr.value("opportunistic", opp);
        jr.value("inclusive", incl);
        jr.value("exclusive", excl);
        jr.value("perfect", perf);
    }
    t.startRow();
    t.cell("NT_avg");
    for (const auto &v : per_scheme)
        t.cell(mean(v), 3);
    jr.beginRow();
    jr.value("trace", "NT_avg");
    jr.value("postponing", mean(per_scheme[0]));
    jr.value("opportunistic", mean(per_scheme[1]));
    jr.value("inclusive", mean(per_scheme[2]));
    jr.value("exclusive", mean(per_scheme[3]));
    jr.value("perfect", mean(per_scheme[4]));
    t.print(std::cout);
    jr.write();
    return 0;
}
