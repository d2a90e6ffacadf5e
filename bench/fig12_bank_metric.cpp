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

    JsonReport jr("fig12_bank_metric");
    for (const auto &[label, g] : groups) {
        std::cout << "--- " << label << " ---\n";
        TextTable t({"pred", "rate", "accuracy", "R", "pen=0",
                     "pen=1", "pen=2", "pen=4", "pen=6", "pen=8",
                     "pen=10"});
        for (const auto &[which, kind] : preds) {
            const BankStats st = runGroup(g, kind);
            t.startRow();
            t.cell(which);
            t.cellPct(st.rate(), 1);
            t.cellPct(st.accuracy(), 2);
            t.cell(st.ratioR(), 1);
            for (const double pen : {0.0, 1.0, 2.0, 4.0, 6.0, 8.0,
                                     10.0})
                t.cell(std::max(0.0, st.metric(pen)), 3);
            jr.beginRow();
            jr.value("group", label);
            jr.value("pred", which);
            jr.value("rate", st.rate());
            jr.value("accuracy", st.accuracy());
            jr.value("ratio_r", st.ratioR());
            jr.value("metric_pen4", std::max(0.0, st.metric(4.0)));
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    jr.write();
    return 0;
}
