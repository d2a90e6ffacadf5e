/**
 * @file
 * Ablation — scaling bank prediction beyond two banks.
 *
 * Section 2.3 proposes scaling binary bank prediction by predicting
 * each bank-ID bit independently with its own confidence ("if the
 * confidence level of a particular bit is low, the load will be sent
 * to both banks"), or by using a non-binary predictor such as the
 * address predictor. This bench evaluates both on 2, 4 and 8 banks,
 * statistically (rate/accuracy/metric) — the more banks, the harder
 * the per-bit scheme has to work for the same prediction rate.
 */

#include "core/analysis.hh"

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

int
main()
{
    printHeader("Ablation: bank prediction beyond two banks",
                "per-bit prediction rate drops with bank count; the "
                "address predictor scales natively");

    std::vector<TraceParams> traces;
    for (const auto g : {TraceGroup::SpecInt95, TraceGroup::SpecFP95}) {
        auto part = groupTraces(g, 3);
        traces.insert(traces.end(), part.begin(), part.end());
    }

    Report rep("ablation_banks",
               {{"banks", "banks", Fmt::Int},
                {"predictor", "predictor"},
                {"rate", "rate", Fmt::Pct, 1},
                {"accuracy", "accuracy", Fmt::Pct, 2},
                {"metric(pen=2)", "metric_pen2", Fmt::Fixed, 3}});
    const std::vector<unsigned> bank_counts = {2u, 4u, 8u};
    const std::vector<bool> addr_variants = {false, true};

    // Flatten the (banks × predictor × trace) analysis grid into
    // pool jobs; fold the slots in the original loop order.
    struct Cell
    {
        unsigned banks;
        bool use_addr;
        std::size_t ti;
    };
    std::vector<Cell> cells;
    for (const unsigned banks : bank_counts)
        for (const bool use_addr : addr_variants)
            for (std::size_t ti = 0; ti < traces.size(); ++ti)
                cells.push_back({banks, use_addr, ti});

    std::vector<BankStats> slots(cells.size());
    parallelFor(cells.size(), [&](std::size_t idx) {
        const Cell &c = cells[idx];
        auto trace = TraceLibrary::make(traces[c.ti]);
        const auto pred = makeBankPredictor(
            c.use_addr ? BankPredKind::Addr : BankPredKind::A, c.banks,
            64);
        slots[idx] = analyzeBank(*trace, *pred);
    });

    std::size_t idx = 0;
    for (const unsigned banks : bank_counts) {
        for (const bool use_addr : addr_variants) {
            BankStats agg;
            for (std::size_t ti = 0; ti < traces.size(); ++ti) {
                const BankStats &st = slots[idx++];
                agg.loads += st.loads;
                agg.predicted += st.predicted;
                agg.correct += st.correct;
                agg.wrong += st.wrong;
            }
            rep.row({std::uint64_t{banks}, use_addr ? "addr" : "per-bit(A)",
                     agg.rate(), agg.accuracy(), agg.metric(2.0)});
        }
    }
    rep.print(std::cout);
    rep.write();
    return 0;
}
