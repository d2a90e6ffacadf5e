/**
 * @file
 * SMT thread-switch walkthrough (paper section 2.2).
 *
 * "Another concept in computer architecture that may benefit from
 * hit-miss prediction is multi threading [Tull95]. Here, the
 * prediction may be used to govern a thread switch if a load is
 * predicted to miss the L2 cache, and suffer the large latency of
 * accessing main memory."
 *
 * This example re-targets the paper's hit-miss predictors at
 * misses-to-memory and sweeps the thread-switch overhead, showing for
 * each trace where switch-on-predicted-miss stops paying.
 *
 * Usage: smt_switch [trace-name] [length]
 */

#include <cstdlib>
#include <iostream>

#include "common/stats.hh"
#include "core/analysis.hh"
#include "core/config_io.hh"
#include "trace/library.hh"

using namespace lrs;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "tpcc";
    const std::uint64_t length =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 150000;

    auto trace = TraceLibrary::make(TraceLibrary::byName(name, length));
    std::cout << "thread-switch analysis on trace '" << name << "' ("
              << length << " uops)\n\n";

    // Part 1: how predictable are this trace's memory accesses?
    std::cout << "--- L2 (memory) miss prediction quality ---\n";
    TextTable qt({"predictor", "mem-miss rate", "coverage",
                  "false-switch rate"});
    for (const char *which : {"local", "chooser", "local+timing"}) {
        auto hmp = makeHmp(parseHmpKind(which));
        const auto st = analyzeHitMiss(*trace, *hmp, {}, 2.0,
                                       MissLevel::L2);
        qt.startRow();
        qt.cell(which);
        qt.cellPct(st.missRate(), 2);
        qt.cellPct(st.coverage(), 1);
        qt.cellPct(st.falseMissFrac(), 2);
    }
    qt.print(std::cout);

    // Part 2: net value of switch-on-predicted-miss as the switch
    // overhead grows.
    std::cout << "\n--- net cycles saved per 1000 loads vs switch "
                 "overhead ---\n";
    TextTable st({"predictor", "ovh=5", "ovh=10", "ovh=20", "ovh=40"});
    for (const char *which : {"local", "chooser"}) {
        st.startRow();
        st.cell(which);
        for (const Cycle ovh : {5u, 10u, 20u, 40u}) {
            auto hmp = makeHmp(parseHmpKind(which));
            const auto est =
                estimateThreadSwitch(*trace, *hmp, {}, ovh);
            st.cell(est.netSavedPerKiloLoad(), 1);
        }
    }
    st.print(std::cout);

    std::cout << "\nA switch is worth memLatency - overhead cycles "
                 "when the prediction is right\nand costs the overhead "
                 "when it is wrong; memory-resident workloads (tpcc)\n"
                 "stay profitable at overheads cache-resident ones "
                 "(wd) cannot justify.\n";
    return 0;
}
