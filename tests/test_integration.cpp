/**
 * @file
 * Integration tests: full library traces through the full machine,
 * checking cross-module invariants and the qualitative results the
 * paper reports (scheme ordering, window-size trends, predictor
 * benefit).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/analysis.hh"
#include "core/runner.hh"

namespace lrs
{
namespace
{

constexpr std::uint64_t kLen = 40000;

MachineConfig
base()
{
    MachineConfig cfg;
    cfg.cht.trackDistance = true;
    return cfg;
}

TEST(Integration, DeterministicAcrossRuns)
{
    const auto tp = TraceLibrary::byName("wd", kLen);
    const auto a = runSim(tp, base());
    const auto b = runSim(tp, base());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.acPnc, b.acPnc);
}

TEST(Integration, AllUopsRetireUnderEveryScheme)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", kLen));
    const auto results = runAllSchemes(*trace, base());
    for (const auto &r : results) {
        EXPECT_EQ(r.uops, kLen) << r.config;
        EXPECT_EQ(r.classifiedLoads(), r.loads) << r.config;
    }
}

TEST(SharedTrace, RunAllSchemesMatchesPerSchemeRunsAtAnyWorkerCount)
{
    // Every scheme's machine reads the one stored trace through its
    // own cursor; at 1 or 4 workers each result must equal a run over
    // an independently generated trace, byte for byte.
    const auto tp = TraceLibrary::byName("wd", 20000);
    const auto trace = TraceLibrary::make(tp);
    const auto states = [](const std::vector<SimResult> &rs) {
        std::vector<std::string> out;
        for (const auto &r : rs)
            out.push_back(r.saveState().dump(0));
        return out;
    };
    std::vector<std::string> alone;
    for (const OrderingScheme s : allSchemes()) {
        MachineConfig c = base();
        c.scheme = s;
        alone.push_back(runSim(tp, c).saveState().dump(0));
    }
    const char *prior = std::getenv("LRS_JOBS");
    const std::string saved = prior ? prior : "";
    for (const char *jobs : {"1", "4"}) {
        setenv("LRS_JOBS", jobs, 1);
        EXPECT_EQ(states(runAllSchemes(*trace, base())), alone)
            << "LRS_JOBS=" << jobs;
    }
    if (prior)
        setenv("LRS_JOBS", saved.c_str(), 1);
    else
        unsetenv("LRS_JOBS");
    // The caller's own cursor is untouched.
    EXPECT_EQ(trace->next(), &trace->uops()[0]);
}

TEST(Integration, SchemeOrderingMatchesPaper)
{
    // Figure 7's qualitative result: Traditional <= Postponing and
    // Opportunistic <= Inclusive <= Exclusive <= Perfect (within a
    // small tolerance for scheduling noise).
    auto trace = TraceLibrary::make(TraceLibrary::byName("pm", kLen));
    const auto r = runAllSchemes(*trace, base());
    const double trad = static_cast<double>(r[0].cycles);
    const double opp = static_cast<double>(r[1].cycles);
    const double post = static_cast<double>(r[2].cycles);
    const double incl = static_cast<double>(r[3].cycles);
    const double excl = static_cast<double>(r[4].cycles);
    const double perf = static_cast<double>(r[5].cycles);
    EXPECT_LE(post, trad * 1.01);
    EXPECT_LE(incl, opp * 1.01);
    EXPECT_LE(excl, incl * 1.005);
    EXPECT_LE(perf, excl * 1.005);
    EXPECT_LT(perf, trad); // there is real headroom
}

TEST(Integration, PerfectDisambiguationNeverPenalized)
{
    for (const char *name : {"wd", "gcc", "javac"}) {
        MachineConfig cfg = base();
        cfg.scheme = OrderingScheme::Perfect;
        const auto r =
            runSim(TraceLibrary::byName(name, kLen), cfg);
        EXPECT_EQ(r.collisionPenalties, 0u) << name;
        EXPECT_EQ(r.orderViolations, 0u) << name;
    }
}

TEST(Integration, ChtCutsPenaltiesVsOpportunistic)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", kLen));
    MachineConfig opp = base();
    opp.scheme = OrderingScheme::Opportunistic;
    MachineConfig incl = base();
    incl.scheme = OrderingScheme::Inclusive;
    const auto ro = runSim(*trace, opp);
    const auto ri = runSim(*trace, incl);
    EXPECT_LT(ri.collisionPenalties, ro.collisionPenalties / 2);
}

TEST(Integration, WindowGrowthRaisesCollisionShare)
{
    // Figure 6's trend: AC share grows with the scheduling window.
    const auto tp = TraceLibrary::byName("wd", kLen);
    MachineConfig cfg = base();
    cfg.schedWindow = 8;
    const auto small = runSim(tp, cfg);
    cfg.schedWindow = 128;
    const auto big = runSim(tp, cfg);
    const double small_ac =
        static_cast<double>(small.actuallyColliding()) /
        static_cast<double>(small.classifiedLoads());
    const double big_ac =
        static_cast<double>(big.actuallyColliding()) /
        static_cast<double>(big.classifiedLoads());
    EXPECT_GT(big_ac, small_ac);
    // ... and no-conflict shrinks.
    const double small_nc = static_cast<double>(small.notConflicting) /
                            static_cast<double>(small.classifiedLoads());
    const double big_nc = static_cast<double>(big.notConflicting) /
                          static_cast<double>(big.classifiedLoads());
    EXPECT_LT(big_nc, small_nc);
}

TEST(Integration, WiderMachineGainsMoreFromDisambiguation)
{
    // Figure 8's trend, checked on one NT trace.
    auto trace = TraceLibrary::make(TraceLibrary::byName("pm", kLen));
    auto gain = [&](int ints, int mems) {
        MachineConfig cfg = base();
        cfg.intUnits = ints;
        cfg.memUnits = mems;
        cfg.scheme = OrderingScheme::Traditional;
        const auto t = runSim(*trace, cfg);
        cfg.scheme = OrderingScheme::Perfect;
        const auto p = runSim(*trace, cfg);
        return p.speedupOver(t);
    };
    const double narrow = gain(2, 1);
    const double wide = gain(4, 2);
    EXPECT_GT(wide, narrow * 0.98); // at least comparable
}

TEST(Integration, HmpOrderingMatchesPaper)
{
    // Figure 11's qualitative result on one trace: perfect >=
    // local+timing >= always-hit baseline.
    auto trace = TraceLibrary::make(TraceLibrary::byName("gcc", kLen));
    MachineConfig cfg = base();
    cfg.scheme = OrderingScheme::Perfect;
    cfg.intUnits = 4;
    cfg.hmp = HmpKind::AlwaysHit;
    const auto baseline = runSim(*trace, cfg);
    cfg.hmp = HmpKind::LocalTiming;
    const auto timing = runSim(*trace, cfg);
    cfg.hmp = HmpKind::Perfect;
    const auto perfect = runSim(*trace, cfg);
    EXPECT_LE(perfect.cycles, timing.cycles * 1.002);
    EXPECT_LT(perfect.cycles, baseline.cycles);
    EXPECT_GT(baseline.wastedIssues, perfect.wastedIssues);
}

TEST(Integration, HmpCountsConsistent)
{
    MachineConfig cfg = base();
    cfg.hmp = HmpKind::Local;
    const auto r = runSim(TraceLibrary::byName("wd", kLen), cfg);
    EXPECT_EQ(r.ahPh + r.ahPm + r.amPh + r.amPm, r.loads);
    EXPECT_EQ(r.amPh + r.amPm, r.l1Misses);
}

TEST(Integration, StatisticalVsPipelineMissRatesAgree)
{
    // The functional analysis and the pipeline see similar L1 miss
    // rates (they use the same hierarchy model at different timing
    // resolutions).
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", kLen));
    auto hmp = makeHmp(HmpKind::Local);
    const auto st = analyzeHitMiss(*trace, *hmp);
    const auto r = runSim(*trace, base());
    const double stat_rate = st.missRate();
    const double pipe_rate =
        static_cast<double>(r.l1Misses) /
        static_cast<double>(r.loads);
    EXPECT_NEAR(stat_rate, pipe_rate, 0.06);
}

TEST(Integration, AllGroupsRunAllSchemes)
{
    for (const auto g :
         {TraceGroup::SpecInt95, TraceGroup::SpecFP95,
          TraceGroup::SysmarkNT, TraceGroup::Sysmark95,
          TraceGroup::Games, TraceGroup::Java, TraceGroup::TPC}) {
        const auto traces = TraceLibrary::group(g, 10000);
        ASSERT_FALSE(traces.empty());
        auto trace = TraceLibrary::make(traces.front());
        const auto results = runAllSchemes(*trace, base());
        for (const auto &r : results)
            EXPECT_EQ(r.uops, 10000u)
                << traceGroupName(g) << "/" << r.config;
    }
}

TEST(Integration, ShadowChtDoesNotChangeTiming)
{
    // Figure 9's methodology requires the shadow CHT to be purely
    // observational.
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", kLen));
    MachineConfig plain = base();
    plain.scheme = OrderingScheme::Traditional;
    MachineConfig shadow = plain;
    shadow.chtShadow = true;
    const auto rp = runSim(*trace, plain);
    const auto rs = runSim(*trace, shadow);
    EXPECT_EQ(rp.cycles, rs.cycles);
    // But the shadow run has predictions attributed.
    EXPECT_GT(rs.acPc + rs.ancPc, 0u);
    EXPECT_EQ(rp.acPc + rp.ancPc, 0u);
}

} // namespace
} // namespace lrs
