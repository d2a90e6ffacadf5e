/**
 * @file
 * Figure 11 — Speedup of Hit-Miss Prediction.
 *
 * Performance runs on the paper's highest-performing machine (4
 * general + 2 memory units, perfect disambiguation): speedup over the
 * no-HMP (always-predict-hit) baseline for the local, chooser,
 * local+timing and perfect predictors, on SpecInt95 and SysmarkNT.
 * Paper: perfect HMP ~6% average; local+timing ~2.5% (~45% of the
 * potential); correlation between statistical accuracy and speedup.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Figure 11: hit-miss prediction speedup",
                "perfect ~1.06 avg; local+timing ~45% of potential");

    const std::vector<std::pair<const char *, TraceGroup>> groups = {
        {"SpecInt95", TraceGroup::SpecInt95},
        {"SysmarkNT", TraceGroup::SysmarkNT},
    };
    const std::vector<HmpKind> kinds = {
        HmpKind::Local, HmpKind::Chooser, HmpKind::LocalTiming,
        HmpKind::Perfect,
    };

    Report rep("fig11_hmp_speedup",
               {{"group", "group"},
                {"local", "local", Fmt::Fixed, 3},
                {"chooser", "chooser", Fmt::Fixed, 3},
                {"local+timing", "local_timing", Fmt::Fixed, 3},
                {"perfect", "perfect", Fmt::Fixed, 3}});
    std::vector<std::vector<double>> overall(kinds.size());

    for (const auto &[label, g] : groups) {
        const auto traces = groupTraces(g, 4);
        std::vector<std::vector<double>> per_kind(kinds.size());

        // One pool job per trace: the no-HMP baseline plus every
        // predictor kind over the same generated trace. Speedups
        // land in per-trace slots and are folded in trace order.
        std::vector<std::vector<double>> slots(traces.size());
        parallelFor(traces.size(), [&](std::size_t ti) {
            auto trace = TraceLibrary::make(traces[ti]);

            MachineConfig cfg;
            cfg.scheme = OrderingScheme::Perfect;
            cfg.intUnits = 4;
            cfg.memUnits = 2;
            cfg.hmp = HmpKind::AlwaysHit;
            const SimResult base = runSim(*trace, cfg);

            for (std::size_t k = 0; k < kinds.size(); ++k) {
                cfg.hmp = kinds[k];
                const SimResult r = runSim(*trace, cfg);
                slots[ti].push_back(r.speedupOver(base));
            }
        });
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            for (std::size_t k = 0; k < kinds.size(); ++k) {
                const double s = slots[ti][k];
                per_kind[k].push_back(s);
                overall[k].push_back(s);
            }
        }
        rep.row(withMeans({label}, per_kind));
    }
    rep.row(withMeans({"Average"}, overall));
    rep.print(std::cout);
    rep.write();
    return 0;
}
