/**
 * @file
 * Figure 4 — Memory Pipeline Comparison (executed, not just drawn).
 *
 * The paper's Figure 4 contrasts four memory-pipeline organisations
 * structurally; this bench runs them: a truly multi-ported cache, a
 * conventional multi-banked cache (with and without predictor-assisted
 * scheduling), a dual-scheduled banked cache, and the sliced pipeline
 * driven by each bank predictor. Expectation from section 2.3: the
 * sliced pipe with an accurate predictor approaches ideal
 * multi-porting; the conventional pipe loses to bank conflicts plus
 * crossbar latency; dual scheduling removes conflicts but pays
 * scheduler latency.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

namespace
{

struct ModeSpec
{
    const char *label;
    BankMode mode;
    BankPredKind pred;
};

} // namespace

int
main()
{
    printHeader("Figure 4 (executed): memory pipeline comparison",
                "sliced + accurate predictor ~= true multi-ported; "
                "conventional suffers conflicts");

    const std::vector<ModeSpec> modes = {
        {"true-multiported", BankMode::TrueMultiPorted,
         BankPredKind::None},
        {"conventional", BankMode::Conventional, BankPredKind::None},
        {"conventional+C", BankMode::Conventional, BankPredKind::C},
        {"dual-scheduled", BankMode::DualScheduled,
         BankPredKind::None},
        {"sliced+A", BankMode::Sliced, BankPredKind::A},
        {"sliced+C", BankMode::Sliced, BankPredKind::C},
        {"sliced+addr", BankMode::Sliced, BankPredKind::Addr},
    };

    std::vector<TraceParams> traces;
    for (const auto g : {TraceGroup::SpecInt95, TraceGroup::SpecFP95,
                         TraceGroup::SysmarkNT}) {
        auto part = groupTraces(g, 2);
        traces.insert(traces.end(), part.begin(), part.end());
    }

    Report rep("fig04_pipeline_compare",
               {{"pipeline", "pipeline"},
                {"rel. perf", "rel_perf", Fmt::Fixed, 3},
                {"conflicts/kload", "conflicts_per_kload", Fmt::Fixed, 1},
                {"mispred/kload", "mispredicts_per_kload", Fmt::Fixed, 1},
                {"replicated/kload", "replications_per_kload", Fmt::Fixed,
                 1}});
    std::vector<double> base_cycles;

    // The whole (mode × trace) grid runs on the pool; slots are
    // indexed by grid position so the serial aggregation below reads
    // them in the original loop order (byte-identical output).
    std::vector<SimResult> grid(modes.size() * traces.size());
    parallelFor(grid.size(), [&](std::size_t idx) {
        const auto &ms = modes[idx / traces.size()];
        const auto &tp = traces[idx % traces.size()];
        auto trace = TraceLibrary::make(tp);
        MachineConfig cfg;
        cfg.scheme = OrderingScheme::Perfect;
        cfg.bankMode = ms.mode;
        cfg.bankPred = ms.pred;
        grid[idx] = runSim(*trace, cfg);
    });

    for (std::size_t m = 0; m < modes.size(); ++m) {
        const auto &ms = modes[m];
        double rel = 0.0;
        double conf = 0.0, mis = 0.0, repl = 0.0;
        std::size_t i = 0;
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            const SimResult &r = grid[m * traces.size() + ti];
            if (ms.mode == BankMode::TrueMultiPorted)
                base_cycles.push_back(static_cast<double>(r.cycles));
            rel += base_cycles.at(i) / static_cast<double>(r.cycles);
            const double kloads =
                static_cast<double>(r.loads) / 1000.0;
            conf += r.bankConflicts / kloads;
            mis += r.bankMispredicts / kloads;
            repl += r.bankReplications / kloads;
            ++i;
        }
        const double n = static_cast<double>(traces.size());
        rep.row({ms.label, rel / n, conf / n, mis / n, repl / n});
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
