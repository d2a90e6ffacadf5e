/**
 * @file
 * Tests for the statistical analyses used by Figures 10 and 12: the
 * functional hit-miss evaluation and the bank-prediction evaluation.
 */

#include <gtest/gtest.h>

#include "core/analysis.hh"
#include "trace/library.hh"

namespace lrs
{
namespace
{

VecTrace
syntheticLoads()
{
    // 400 loads: pc A streams lines (always misses a big region),
    // pc B hammers one line (always hits after warmup).
    std::vector<Uop> uops;
    Addr stream = 0x100000;
    for (int i = 0; i < 400; ++i) {
        Uop u;
        u.cls = UopClass::Load;
        u.memSize = 8;
        u.dst = 1;
        if (i % 2 == 0) {
            u.pc = 0xA000;
            u.addr = stream;
            stream += 4096;
        } else {
            u.pc = 0xB000;
            u.addr = 0x8000;
        }
        uops.push_back(u);
    }
    return VecTrace("hmload", std::move(uops));
}

TEST(AnalyzeHitMiss, CountsPartitionLoads)
{
    auto trace = syntheticLoads();
    auto hmp = makeHmp(HmpKind::Local);
    const auto st = analyzeHitMiss(trace, *hmp);
    EXPECT_EQ(st.loads, 400u);
    EXPECT_EQ(st.ahPh + st.ahPm + st.amPh + st.amPm, st.loads);
    EXPECT_EQ(st.amPh + st.amPm, st.misses);
}

TEST(AnalyzeHitMiss, AlwaysHitNeverPredictsMiss)
{
    auto trace = syntheticLoads();
    AlwaysHitHmp hmp;
    const auto st = analyzeHitMiss(trace, hmp);
    EXPECT_EQ(st.amPm, 0u);
    EXPECT_EQ(st.ahPm, 0u);
    EXPECT_GT(st.misses, 150u); // the streaming half misses
}

TEST(AnalyzeHitMiss, LocalLearnsBimodalLoads)
{
    auto trace = syntheticLoads();
    auto hmp = makeHmp(HmpKind::Local);
    const auto st = analyzeHitMiss(trace, *hmp);
    // Streaming pc misses every time -> local catches most of them.
    EXPECT_GT(st.coverage(), 0.8);
    // Hot pc hits every time -> very few false miss predictions.
    EXPECT_LT(st.falseMissFrac(), 0.05);
}

TEST(AnalyzeHitMiss, RealTraceSane)
{
    auto trace =
        TraceLibrary::make(TraceLibrary::byName("wd", 30000));
    auto hmp = makeHmp(HmpKind::Chooser);
    const auto st = analyzeHitMiss(*trace, *hmp);
    EXPECT_GT(st.loads, 3000u);
    EXPECT_GT(st.missRate(), 0.005);
    EXPECT_LT(st.missRate(), 0.30);
    EXPECT_EQ(st.ahPh + st.ahPm + st.amPh + st.amPm, st.loads);
}

VecTrace
bankLoads()
{
    // pc A: line-strided (bank alternates 0,1,0,1);
    // pc B: same line always (constant bank).
    std::vector<Uop> uops;
    Addr a = 0x100000;
    for (int i = 0; i < 600; ++i) {
        Uop u;
        u.cls = UopClass::Load;
        u.memSize = 8;
        u.dst = 1;
        if (i % 2 == 0) {
            u.pc = 0xA000;
            u.addr = a;
            a += 64;
        } else {
            u.pc = 0xB000;
            u.addr = 0x8000;
        }
        uops.push_back(u);
    }
    return VecTrace("bankload", std::move(uops));
}

TEST(AnalyzeBank, StatsPartition)
{
    auto trace = bankLoads();
    auto pred = makeBankPredictor(BankPredKind::C, 2, 64);
    const auto st = analyzeBank(trace, *pred);
    EXPECT_EQ(st.loads, 600u);
    EXPECT_EQ(st.correct + st.wrong, st.predicted);
    EXPECT_LE(st.predicted, st.loads);
    EXPECT_GE(st.rate(), 0.0);
    EXPECT_LE(st.rate(), 1.0);
}

TEST(AnalyzeBank, CompositesLearnRegularStreams)
{
    auto trace = bankLoads();
    auto pred = makeBankPredictor(BankPredKind::C, 2, 64);
    const auto st = analyzeBank(trace, *pred);
    EXPECT_GT(st.rate(), 0.5);
    EXPECT_GT(st.accuracy(), 0.9);
}

TEST(AnalyzeBank, AddressPredictorNearPerfectOnStrides)
{
    auto trace = bankLoads();
    auto pred = makeBankPredictor(BankPredKind::Addr, 2, 64);
    const auto st = analyzeBank(trace, *pred);
    EXPECT_GT(st.rate(), 0.8);
    EXPECT_GT(st.accuracy(), 0.97);
}

TEST(AnalyzeBank, MetricUsesMeasuredRateAndRatio)
{
    auto trace = bankLoads();
    auto pred = makeBankPredictor(BankPredKind::Addr, 2, 64);
    const auto st = analyzeBank(trace, *pred);
    EXPECT_NEAR(st.metric(0.0),
                bankMetric(st.rate(), st.ratioR(), 0.0), 1e-12);
    EXPECT_GT(st.metric(0.0), 0.7);
}

TEST(AnalyzeBank, RealTraceRatesInRange)
{
    auto trace =
        TraceLibrary::make(TraceLibrary::byName("gcc", 30000));
    for (const BankPredKind kind :
         {BankPredKind::A, BankPredKind::B, BankPredKind::C}) {
        auto pred = makeBankPredictor(kind, 2, 64);
        const auto st = analyzeBank(*trace, *pred);
        EXPECT_GT(st.rate(), 0.15) << pred->name();
        EXPECT_LT(st.rate(), 1.0) << pred->name();
        EXPECT_GT(st.accuracy(), 0.75) << pred->name();
    }
}

TEST(AnalyzeL2, MemoryResidentTraceHasL2Misses)
{
    // TPC-style chases exceed the L2: some accesses go to memory.
    auto trace =
        TraceLibrary::make(TraceLibrary::byName("tpcc", 40000));
    auto hmp = makeHmp(HmpKind::Local);
    const auto l2 = analyzeHitMiss(*trace, *hmp, {}, 2.0,
                                   MissLevel::L2);
    EXPECT_GT(l2.misses, 50u);
    // L2 misses are a subset of L1 misses.
    auto hmp2 = makeHmp(HmpKind::Local);
    const auto l1 = analyzeHitMiss(*trace, *hmp2);
    EXPECT_LT(l2.misses, l1.misses);
}

TEST(AnalyzeL2, CacheResidentTraceHasFewMemoryMisses)
{
    auto trace =
        TraceLibrary::make(TraceLibrary::byName("wd", 40000));
    auto hmp = makeHmp(HmpKind::Local);
    const auto l2 = analyzeHitMiss(*trace, *hmp, {}, 2.0,
                                   MissLevel::L2);
    EXPECT_LT(l2.missRate(), 0.05);
}

TEST(ThreadSwitch, EstimateArithmetic)
{
    ThreadSwitchEstimate est;
    est.stats.loads = 1000;
    est.stats.amPm = 10; // caught memory misses
    est.stats.ahPm = 5;  // false switches
    est.switchOverhead = 20;
    est.memLatency = 60;
    // (10 * (60-20) - 5 * 20) * 1000 / 1000 = 300.
    EXPECT_DOUBLE_EQ(est.netSavedPerKiloLoad(), 300.0);
}

TEST(ThreadSwitch, PositiveOnMemoryBoundTrace)
{
    auto trace =
        TraceLibrary::make(TraceLibrary::byName("tpcc", 40000));
    auto hmp = makeHmp(HmpKind::Local);
    const auto est = estimateThreadSwitch(*trace, *hmp);
    EXPECT_GT(est.netSavedPerKiloLoad(), 0.0);
    EXPECT_EQ(est.memLatency, MemoryHierarchy({}).memLatency());
}

} // namespace
} // namespace lrs
