/**
 * @file
 * Figure 5 — Load Scheduling Classification.
 *
 * Distribution of dynamic loads into Actually-Colliding (AC),
 * Actually-Non-Colliding-but-conflicting (ANC) and No-conflict, per
 * trace group, on the base machine (32-entry scheduling window,
 * Traditional ordering). Paper: roughly 10% AC / 60% ANC / 30%
 * no-conflict, so 60-70% of loads can benefit from a collision
 * predictor.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Figure 5: load scheduling classification",
                "~10% AC, ~60% ANC, ~30% no-conflict at a 32-entry "
                "window");

    const std::vector<TraceGroup> groups = {
        TraceGroup::SpecInt95, TraceGroup::SysmarkNT,
        TraceGroup::Sysmark95, TraceGroup::Games,
        TraceGroup::Java,      TraceGroup::TPC,
    };

    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Traditional;

    Report rep("fig05_load_classification",
               {{"group", "group"},
                {"traces", "traces", Fmt::Int},
                {"AC", "ac_frac", Fmt::Pct, 1},
                {"ANC", "anc_frac", Fmt::Pct, 1},
                {"no-conflict", "no_conflict_frac", Fmt::Pct, 1}});

    // Flatten the (group × trace) grid into pool jobs; per-group
    // aggregation below walks the slots in the original order.
    std::vector<std::vector<TraceParams>> group_traces;
    std::vector<SimJob> jobs;
    std::vector<std::size_t> first; // job id of each group's first
    for (const auto g : groups) {
        first.push_back(jobs.size());
        group_traces.push_back(groupTraces(g, 4));
        for (const auto &tp : group_traces.back())
            jobs.push_back({tp, cfg, {}});
    }
    const auto outcomes = runJobs(jobs);

    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto g = groups[gi];
        const auto &traces = group_traces[gi];
        std::uint64_t ac = 0, anc = 0, nc = 0;
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            const SimResult &r = outcomes[first[gi] + ti].result;
            ac += r.actuallyColliding();
            anc += r.ancPnc + r.ancPc;
            nc += r.notConflicting;
        }
        const double n = static_cast<double>(ac + anc + nc);
        rep.row({traceGroupName(g), std::uint64_t{traces.size()}, ac / n,
                 anc / n, nc / n});
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
