/**
 * @file
 * Figure 6 — Opportunities vs Scheduling-Window Size.
 *
 * SysmarkNT traces, scheduling window swept over 8/16/32/64/128
 * entries. Paper: growing the window steadily increases the AC share
 * while the no-conflict share shrinks, so bigger windows make good
 * memory ordering schemes more valuable.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Figure 6: classification vs scheduling-window size",
                "NT traces; AC grows and no-conflict shrinks as the "
                "window grows from 8 to 128");

    const std::vector<int> windows = {8, 16, 32, 64, 128};
    const auto traces = groupTraces(TraceGroup::SysmarkNT, 4);

    Report rep("fig06_window_sweep",
               {{"window", "window", Fmt::Int},
                {"AC", "ac_frac", Fmt::Pct, 1},
                {"ANC", "anc_frac", Fmt::Pct, 1},
                {"no-conflict", "no_conflict_frac", Fmt::Pct, 1}});

    // Submit the full (window × trace) grid, then aggregate the
    // slots per window in the original loop order.
    std::vector<SimJob> jobs;
    for (const int w : windows) {
        MachineConfig cfg;
        cfg.scheme = OrderingScheme::Traditional;
        cfg.schedWindow = w;
        for (const auto &tp : traces)
            jobs.push_back({tp, cfg, {}});
    }
    const auto outcomes = runJobs(jobs);

    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
        std::uint64_t ac = 0, anc = 0, nc = 0;
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            const SimResult &r =
                outcomes[wi * traces.size() + ti].result;
            ac += r.actuallyColliding();
            anc += r.ancPnc + r.ancPc;
            nc += r.notConflicting;
        }
        const double n = static_cast<double>(ac + anc + nc);
        rep.row({windows[wi], ac / n, anc / n, nc / n});
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
