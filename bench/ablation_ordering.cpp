/**
 * @file
 * Ablation — ordering schemes vs the Store Barrier Cache baseline.
 *
 * The paper positions its collision predictors against Hesson et
 * al.'s Store Barrier Cache [Hess95]: "our mechanism is in a sense
 * similar to [Hess95] yet more refined, since it deals with specific
 * loads". This bench quantifies that: the barrier cache fences ALL
 * loads behind a flagged store, so it avoids re-executions at the
 * cost of many lost bypass opportunities, landing between Traditional
 * and the CHT-based schemes.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Ablation: Store Barrier Cache [Hess95] vs CHT",
                "barrier cache should land between Traditional and "
                "Inclusive");

    std::vector<TraceParams> traces;
    for (const auto g : {TraceGroup::SysmarkNT, TraceGroup::SpecInt95,
                         TraceGroup::Java}) {
        auto part = groupTraces(g, 2);
        traces.insert(traces.end(), part.begin(), part.end());
    }

    const std::vector<OrderingScheme> schemes = {
        OrderingScheme::Traditional,   OrderingScheme::StoreBarrier,
        OrderingScheme::StoreSets,     OrderingScheme::Opportunistic,
        OrderingScheme::Inclusive,     OrderingScheme::Exclusive,
        OrderingScheme::Perfect,
    };

    Report rep("ablation_ordering",
               {{"trace", "trace"},
                {"StoreBarrier", "store_barrier", Fmt::Fixed, 3},
                {"StoreSets", "store_sets", Fmt::Fixed, 3},
                {"Opportunistic", "opportunistic", Fmt::Fixed, 3},
                {"Inclusive", "inclusive", Fmt::Fixed, 3},
                {"Exclusive", "exclusive", Fmt::Fixed, 3},
                {"Excl+fwd", "exclusive_fwd", Fmt::Fixed, 3},
                {"Perfect", "perfect", Fmt::Fixed, 3}});
    std::vector<std::vector<double>> per_scheme(7);

    // One pool job per trace; each job runs the full scheme set plus
    // the forwarding variant over its own generated trace. Per-trace
    // slots are folded in trace order.
    struct Slot
    {
        std::vector<SimResult> results;
        SimResult fwd;
    };
    std::vector<Slot> slots(traces.size());
    parallelFor(traces.size(), [&](std::size_t ti) {
        auto trace = TraceLibrary::make(traces[ti]);
        MachineConfig cfg;
        cfg.cht = paperCht();

        for (const auto s : schemes) {
            cfg.scheme = s;
            slots[ti].results.push_back(runSim(*trace, cfg));
        }
        // Exclusive with speculative value forwarding (section 2.1's
        // distance-pairing extension).
        cfg.scheme = OrderingScheme::Exclusive;
        cfg.exclusiveSpecForward = true;
        slots[ti].fwd = runSim(*trace, cfg);
    });

    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        const auto &tp = traces[ti];
        const std::vector<SimResult> &results = slots[ti].results;
        const SimResult &fwd = slots[ti].fwd;
        const SimResult &base = results[0];
        std::vector<json::Value> row = {tp.name};
        for (std::size_t i = 1; i < schemes.size(); ++i) {
            const double s = results[i].speedupOver(base);
            per_scheme[i < 6 ? i - 1 : 6].push_back(s);
            row.push_back(s);
            if (schemes[i] == OrderingScheme::Exclusive) {
                const double sf = fwd.speedupOver(base);
                per_scheme[5].push_back(sf);
                row.push_back(sf);
            }
        }
        rep.row(std::move(row));
    }
    rep.row(withMeans({"avg"}, per_scheme));
    rep.print(std::cout);
    rep.write();

    std::cout
        << "\nThe barrier cache fences every load behind a flagged "
           "store; store sets pair\nloads with their producer set "
           "(very few violations, conservative waits); the\nCHT "
           "delays only the loads that actually collide. The paper's "
           "cost claim:\na 4K-entry tagless CHT needs ~4 Kbit vs ~34 "
           "Kbit for these store sets while\nreaching higher speedup "
           "(section 1.1 related work).\n";
    return 0;
}
