/**
 * @file
 * Ablation — stride prefetching off the load-address predictor.
 *
 * Section 2.1 notes the Full CHT "is useful for maintaining
 * additional load related information such as data prefetch or value
 * prediction information", and section 2.2 that a correct address
 * prediction could "fetch the data ahead of time". This bench runs
 * the stride prefetch engine (degree sweep) over FP/INT/TPC traces:
 * regular (streaming) misses shrink, irregular (chase) ones do not.
 */

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Ablation: stride prefetch (address-predictor driven)",
                "regular miss streams shrink; irregular ones are "
                "unprefetchable");

    const std::vector<std::pair<const char *, TraceGroup>> groups = {
        {"SpecFP", TraceGroup::SpecFP95},
        {"SpecINT", TraceGroup::SpecInt95},
        {"TPC", TraceGroup::TPC},
    };

    Report rep("ablation_prefetch",
               {{"group", "group"},
                {"degree", "degree", Fmt::Int},
                {"miss rate", "miss_rate", Fmt::Pct, 2},
                {"speedup", "speedup", Fmt::Fixed, 3},
                {"prefetches/kload", "prefetches_per_kload", Fmt::Fixed, 0}});
    const std::vector<unsigned> degrees = {0u, 1u, 2u, 4u};

    // Flatten the (group × degree × trace) grid into pool jobs (each
    // runs baseline + prefetch variant); fold per (group, degree) in
    // the original order.
    struct Cell
    {
        TraceParams tp;
        unsigned degree;
    };
    struct Slot
    {
        SimResult base, r;
    };
    std::vector<Cell> cells;
    std::vector<std::size_t> trace_counts;
    for (const auto &[label, g] : groups) {
        const auto traces = groupTraces(g, 3);
        trace_counts.push_back(traces.size());
        for (const unsigned degree : degrees)
            for (const auto &tp : traces)
                cells.push_back({tp, degree});
    }
    std::vector<Slot> slots(cells.size());
    parallelFor(cells.size(), [&](std::size_t idx) {
        const Cell &c = cells[idx];
        auto trace = TraceLibrary::make(c.tp);
        MachineConfig cfg;
        cfg.scheme = OrderingScheme::Perfect;
        slots[idx].base = runSim(*trace, cfg);
        cfg.stridePrefetch = c.degree > 0;
        cfg.prefetchDegree = c.degree;
        slots[idx].r =
            c.degree > 0 ? runSim(*trace, cfg) : slots[idx].base;
    });

    std::size_t idx = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto &label = groups[gi].first;
        const std::size_t n_traces = trace_counts[gi];
        for (const unsigned degree : degrees) {
            double miss = 0.0, speedup = 0.0, pfk = 0.0;
            for (std::size_t ti = 0; ti < n_traces; ++ti) {
                const Slot &s = slots[idx++];
                const SimResult &r = s.r;
                miss += static_cast<double>(r.l1Misses) /
                        static_cast<double>(r.loads);
                speedup += r.speedupOver(s.base);
                pfk += 1000.0 * static_cast<double>(r.prefetches) /
                       static_cast<double>(r.loads);
            }
            const double n = static_cast<double>(n_traces);
            rep.row({label, std::uint64_t{degree}, miss / n, speedup / n,
                     pfk / n});
        }
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
