/**
 * @file
 * Figure 12 — Bank Predictor Comparison.
 *
 * Statistical evaluation of the four bank predictors (A, B, C, Addr)
 * on SpecINT95 and SpecFP95 with a two-banked cache, plotted via the
 * paper's metric against the misprediction penalty (metric 1 = ideal
 * dual-ported cache). Paper: SpecINT prediction rates ~50% for A/B
 * and ~70% for C/Addr; accuracies ~97-98%; the address predictor and
 * C dominate at high penalties.
 */

#include "core/analysis.hh"

#include "bench_util.hh"

using namespace lrs;
using namespace lrs::benchutil;

namespace
{

BankStats
runGroup(TraceGroup g, BankPredKind kind)
{
    // Analyse each trace of the group as one pool job; fold the
    // per-trace slots in trace order (byte-identical to the old
    // serial loop).
    const auto traces = groupTraces(g, 4);
    std::vector<BankStats> slots(traces.size());
    parallelFor(traces.size(), [&](std::size_t ti) {
        auto trace = TraceLibrary::make(traces[ti]);
        const auto pred = makeBankPredictor(kind, 2, 64);
        slots[ti] = analyzeBank(*trace, *pred);
    });
    BankStats agg;
    for (const BankStats &st : slots) {
        agg.loads += st.loads;
        agg.predicted += st.predicted;
        agg.correct += st.correct;
        agg.wrong += st.wrong;
    }
    return agg;
}

} // namespace

int
main()
{
    printHeader("Figure 12: bank predictor comparison (metric)",
                "rates ~50% (A,B) vs ~70% (C,Addr) on SpecINT; "
                "accuracy ~97-98%");

    const std::vector<std::pair<const char *, TraceGroup>> groups = {
        {"SpecINT", TraceGroup::SpecInt95},
        {"SpecFP", TraceGroup::SpecFP95},
    };
    const std::vector<std::pair<const char *, BankPredKind>> preds = {
        {"A", BankPredKind::A},
        {"B", BankPredKind::B},
        {"C", BankPredKind::C},
        {"Addr", BankPredKind::Addr},
    };

    const std::vector<int> penalties = {0, 1, 2, 4, 6, 8, 10};

    std::vector<Column> columns = {
        {"group", "group"},
        {"pred", "pred"},
        {"rate", "rate", Fmt::Pct, 1},
        {"accuracy", "accuracy", Fmt::Pct, 2},
        {"R", "ratio_r", Fmt::Fixed, 1},
    };
    for (const int pen : penalties)
        columns.push_back({strprintf("pen=%d", pen),
                           strprintf("metric_pen%d", pen), Fmt::Fixed, 3});
    Report rep("fig12_bank_metric", std::move(columns));
    for (const auto &[label, g] : groups) {
        for (const auto &[which, kind] : preds) {
            const BankStats st = runGroup(g, kind);
            std::vector<json::Value> row = {label, which, st.rate(),
                                            st.accuracy(), st.ratioR()};
            for (const int pen : penalties)
                row.push_back(std::max(0.0, st.metric(pen)));
            rep.row(std::move(row));
        }
    }
    rep.printByGroup(std::cout);
    rep.write();
    return 0;
}
