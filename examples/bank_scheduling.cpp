/**
 * @file
 * Bank prediction for a two-banked L1D.
 *
 * Evaluates the paper's four bank predictors on one trace, then walks
 * the sliced-pipeline policy of section 2.3: high-confidence loads are
 * steered to their predicted bank's pipe, low-confidence loads are
 * replicated to both pipes, and mispredictions re-execute. Prints the
 * resulting effective-bandwidth estimate next to the paper's analytic
 * metric.
 *
 * Usage: bank_scheduling [trace-name] [length] [penalty]
 */

#include <cstdlib>
#include <iostream>

#include "common/stats.hh"
#include "core/analysis.hh"
#include "core/runner.hh"

using namespace lrs;

namespace
{

/** Outcome of replaying the sliced-pipe policy over the load stream. */
struct SlicedPipeStats
{
    std::uint64_t loads = 0;
    std::uint64_t steered = 0;     ///< sent to one predicted bank
    std::uint64_t replicated = 0;  ///< sent to both pipes
    std::uint64_t mispredicted = 0;

    /**
     * Pipe-slots consumed per load: steered loads use one slot,
     * replicated loads two, mispredicted loads re-execute (two more).
     */
    double
    slotsPerLoad() const
    {
        const double slots =
            static_cast<double>(steered) + 2.0 * replicated +
            2.0 * mispredicted;
        return loads ? slots / static_cast<double>(loads) : 0.0;
    }
};

SlicedPipeStats
runSlicedPipe(const VecTrace &trace, BankPredictor &pred)
{
    SlicedPipeStats st;
    VecTrace cursor = trace;
    cursor.reset();
    while (const Uop *uop = cursor.next()) {
        const Uop &u = *uop;
        if (!u.isLoad())
            continue;
        ++st.loads;
        const auto p = pred.predict(u.pc);
        if (p.valid) {
            ++st.steered;
            if (p.bank != pred.bankOf(u.addr))
                ++st.mispredicted;
        } else {
            ++st.replicated;
        }
        pred.update(u.pc, u.addr);
    }
    return st;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "swim";
    const std::uint64_t length =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 150000;
    const double penalty =
        argc > 3 ? std::strtod(argv[3], nullptr) : 2.0;

    auto trace = TraceLibrary::make(TraceLibrary::byName(name, length));
    std::cout << "bank prediction on trace '" << name << "' ("
              << length << " uops), penalty " << penalty << "\n\n";

    TextTable t({"pred", "KB", "rate", "accuracy", "metric",
                 "slots/load", "mispredicts"});
    const std::pair<const char *, BankPredKind> preds[] = {
        {"A", BankPredKind::A},
        {"B", BankPredKind::B},
        {"C", BankPredKind::C},
        {"Addr", BankPredKind::Addr},
    };
    for (const auto &[which, kind] : preds) {
        const auto pred = makeBankPredictor(kind, 2, 64);
        const auto stats = analyzeBank(*trace, *pred);
        // Fresh predictor for the sliced-pipe replay (the analysis
        // above trained this one).
        const auto pipe =
            runSlicedPipe(*trace, *makeBankPredictor(kind, 2, 64));

        t.startRow();
        t.cell(which);
        t.cell(static_cast<double>(pred->storageBits()) / 8192.0, 2);
        t.cellPct(stats.rate(), 1);
        t.cellPct(stats.accuracy(), 2);
        t.cell(stats.metric(penalty), 3);
        t.cell(pipe.slotsPerLoad(), 2);
        t.cell(strprintf("%llu", static_cast<unsigned long long>(
                                     pipe.mispredicted)));
    }
    t.print(std::cout);

    std::cout
        << "\nslots/load approaches 1.0 for an ideal predictor (every "
           "load steered to one\nbank) and 2.0 when everything must be "
           "replicated — the sliced pipe then has\nno advantage over a "
           "single-ported cache (section 2.3).\n";
    return 0;
}
