/**
 * @file
 * Event-driven wakeup (docs/PERFORMANCE.md, "Event-driven wakeup"):
 * the issue stage visits only the waiting slots whose cached wake
 * time has passed, and the skip-ahead reads the same wake times. A
 * cached wake time may only ever be too early, never too late, so the
 * suite pins the cases where a producer's visible readiness moves
 * without the producer issuing:
 *  - an AH-PM load retires before its wakeup estimate, so its
 *    consumer becomes ready at the retire, not at the estimate;
 *  - the retired producer's slot is then reused while the consumer
 *    still waits on another source.
 * Issue cycles are pinned to the values of the full per-cycle scan
 * the wakeup replaced, and a sweep over schemes, predictors and bank
 * pipes runs the auditor on every cycle, which recomputes each cached
 * wake time from the SoA lanes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/diag.hh"
#include "common/profiler.hh"
#include "core/core.hh"
#include "core/runner.hh"
#include "core/tracer.hh"
#include "trace/library.hh"

namespace lrs
{
namespace
{

/** Every test must leave the process-wide toggle as it found it. */
class SkipAheadGuard
{
  public:
    SkipAheadGuard() : saved_(cycleSkipAhead()) {}
    ~SkipAheadGuard() { setCycleSkipAhead(saved_); }

  private:
    bool saved_;
};

Uop
loadUop(Addr pc, int dst, Addr addr, int asrc)
{
    Uop u;
    u.pc = pc;
    u.cls = UopClass::Load;
    u.dst = static_cast<std::int8_t>(dst);
    u.src1 = static_cast<std::int8_t>(asrc);
    u.addr = addr;
    u.memSize = 8;
    return u;
}

Uop
aluUop(Addr pc, int dst, int s1 = -1, int s2 = -1)
{
    Uop u;
    u.pc = pc;
    u.cls = UopClass::IntAlu;
    u.dst = static_cast<std::int8_t>(dst);
    u.src1 = static_cast<std::int8_t>(s1);
    u.src2 = static_cast<std::int8_t>(s2);
    return u;
}

/**
 * A pointer chase of cold misses at one PC trains the local hit-miss
 * predictor to predict "miss" there; the chase keeps the loads
 * serialized, so each retires before the next issues. The returned
 * uops end with r1 holding the last chased value.
 */
std::vector<Uop>
trainedMissChase()
{
    std::vector<Uop> uops;
    for (int i = 0; i < 16; ++i) {
        uops.push_back(loadUop(0x2000, 1,
                               0x100000 + static_cast<Addr>(i) * 64,
                               i == 0 ? -1 : 1));
    }
    return uops;
}

MachineConfig
ahpmConfig()
{
    MachineConfig cfg;
    cfg.hmp = HmpKind::Local;
    // A long hit-indication wait puts the wakeup estimate well past
    // the load's retirement.
    cfg.ahpmPenalty = 40;
    cfg.auditInterval = 1;
    return cfg;
}

struct IssueTimes
{
    SimResult result;
    std::vector<Cycle> issue;  ///< first Issue cycle per seq
    std::vector<Cycle> retire; ///< Retire cycle per seq
};

IssueTimes
runTraced(const MachineConfig &cfg, std::vector<Uop> uops, bool skip)
{
    setCycleSkipAhead(skip);
    const std::size_t n = uops.size();
    VecTrace trace("wakeup", std::move(uops));
    PipelineTracer tracer;
    OooCore core(cfg);
    core.attachTracer(&tracer);
    IssueTimes t;
    t.result = core.run(trace);
    t.issue.assign(n, kCycleNever);
    t.retire.assign(n, kCycleNever);
    for (std::size_t i = 0; i < tracer.size(); ++i) {
        const PipelineTracer::Record &r = tracer.at(i);
        if (r.ev == TraceEvent::Issue && t.issue[r.seq] == kCycleNever)
            t.issue[r.seq] = r.cycle;
        if (r.ev == TraceEvent::Retire)
            t.retire[r.seq] = r.cycle;
    }
    return t;
}

TEST(EventWakeup, AhPmProducerRetiringBeforeItsEstimateWakesConsumer)
{
    SkipAheadGuard guard;
    // seq 16: the same PC now hits (its line was fetched by seq 0)
    // while the predictor says miss: AH-PM, estimate = data + 40.
    // seq 17 consumes it. The load reaches the ROB head and retires
    // at its data time; from then on its value is architectural.
    std::vector<Uop> uops = trainedMissChase();
    uops.push_back(loadUop(0x2000, 2, 0x100000, 1));
    uops.push_back(aluUop(0x2100, 3, 2));
    for (const bool skip : {false, true}) {
        const IssueTimes t = runTraced(ahpmConfig(), uops, skip);
        EXPECT_EQ(t.result.ahPm, 1u);
        EXPECT_EQ(t.result.uops, 18u);
        // Pinned to the per-cycle scan: the consumer issues in the
        // producer's retire cycle, 40 cycles before the estimate.
        EXPECT_EQ(t.retire[16], 985u) << "skip=" << skip;
        EXPECT_EQ(t.issue[17], 985u) << "skip=" << skip;
    }
}

TEST(EventWakeup, ProducerSlotReusedWhileConsumerWaits)
{
    SkipAheadGuard guard;
    // seq 16 (P) is the AH-PM load and seq 17 (M) a chased miss; seq
    // 18 (C) needs both. P retires early, M holds the ROB head, and
    // the independent filler behind C wraps the 24-entry ring onto
    // P's slot (seq 40) while C still waits on M.
    std::vector<Uop> uops = trainedMissChase();
    uops.push_back(loadUop(0x2000, 2, 0x100000, 1));
    uops.push_back(loadUop(0x3000, 4, 0x900000, 1));
    uops.push_back(aluUop(0x2100, 5, 2, 4));
    for (int i = 0; i < 40; ++i)
        uops.push_back(aluUop(0x4000 + static_cast<Addr>(i) * 4, -1));
    MachineConfig cfg = ahpmConfig();
    cfg.robSize = 24;
    cfg.schedWindow = 16;
    for (const bool skip : {false, true}) {
        const IssueTimes t = runTraced(cfg, uops, skip);
        EXPECT_EQ(t.result.ahPm, 1u);
        EXPECT_EQ(t.result.uops, uops.size());
        // P's slot was renamed to a new seq before C issued.
        EXPECT_LT(t.retire[16], t.issue[40]);
        EXPECT_LT(t.issue[40], t.issue[18]);
        EXPECT_EQ(t.retire[16], 985u) << "skip=" << skip;
        EXPECT_EQ(t.issue[18], 1042u) << "skip=" << skip;
    }
}

TEST(EventWakeup, StoreDataReopensAnOlderLoadBehindTheIssueWalk)
{
    SkipAheadGuard guard;
    // seq 2 (L) sits between its store's STA (seq 1) and STD (seq 3)
    // and reads the stored bytes, so Perfect holds it until both parts
    // are known. The STA executes at once; the STD waits for seq 0's
    // cold miss. L's gate horizon is kCycleNever until then, and L is
    // older than the STD, so the issue walk has already passed it in
    // the cycle the STD issues: the reopen has to reach back for it.
    std::vector<Uop> uops;
    uops.push_back(loadUop(0x1000, 1, 0x900000, -1));
    Uop sta;
    sta.pc = 0x1100;
    sta.cls = UopClass::StoreAddr;
    sta.addr = 0x5000;
    sta.memSize = 8;
    uops.push_back(sta);
    uops.push_back(loadUop(0x1200, 2, 0x5000, -1));
    Uop std_uop;
    std_uop.pc = 0x1101;
    std_uop.cls = UopClass::StoreData;
    std_uop.src1 = 1;
    uops.push_back(std_uop);
    uops.push_back(aluUop(0x1300, 3, 2));
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Perfect;
    cfg.auditInterval = 1;
    for (const bool skip : {false, true}) {
        const IssueTimes t = runTraced(cfg, uops, skip);
        EXPECT_EQ(t.result.uops, uops.size());
        // The gate opens when the STD's data is known, one cycle after
        // it issues.
        EXPECT_LT(t.issue[1], t.issue[2]);
        EXPECT_EQ(t.issue[2], t.issue[3] + OooCore::kStdLat)
            << "skip=" << skip;
    }
}

TEST(EventWakeup, ProfileWorkCountersAreDeterministic)
{
    SkipAheadGuard guard;
    setCycleSkipAhead(true);
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;
    cfg.cht.trackDistance = true;
    cfg.hmp = HmpKind::Chooser;
    const auto counts = [&cfg] {
        prof::resetAll();
        auto trace =
            TraceLibrary::make(TraceLibrary::byName("gcc", 5000));
        OooCore core(cfg);
        const SimResult r = core.run(*trace);
        std::vector<std::uint64_t> v;
        for (std::size_t c = 0; c < prof::kNumCounters; ++c)
            v.push_back(
                prof::counterValue(static_cast<prof::Counter>(c)));
        v.push_back(r.cycles);
        return v;
    };

    // Off: nothing reaches the profiler.
    const std::vector<std::uint64_t> off = counts();
    for (std::size_t c = 0; c < prof::kNumCounters; ++c)
        EXPECT_EQ(off[c], 0u);

    prof::setEnabled(true);
    const std::vector<std::uint64_t> a = counts();
    const std::vector<std::uint64_t> b = counts();
    const json::Value rep = prof::reportJson(5000, 1.0);
    prof::setEnabled(false);
    prof::resetAll();

    EXPECT_EQ(a, b);
    const std::uint64_t visits = a[0], resets = a[1], stepped = a[2];
    EXPECT_GT(visits, 0u);
    EXPECT_GT(resets, 0u);
    EXPECT_GT(stepped, 0u);
    EXPECT_LE(stepped, a[3]);
    // At most every waiting slot on every stepped cycle.
    EXPECT_LE(visits,
              stepped * static_cast<std::uint64_t>(cfg.schedWindow));
    const json::Value &ctr = rep.at("counters");
    EXPECT_EQ(ctr.at("issue_visits").asU64(), visits);
    EXPECT_EQ(ctr.at("wake_resets").asU64(), resets);
    EXPECT_EQ(ctr.at("stepped_cycles").asU64(), stepped);
}

TEST(EventWakeup, DenseCellVisitsStayEconomical)
{
    // The issue walk visits a slot only when it is due and its unit
    // pool has a free unit, and rename caches a real wake time. On
    // 100k gcc uops under dense_cell's machine that is 1.29 visits per
    // uop (a walk that visited every due slot, with rename forcing a
    // first visit, made 2.56). The bound leaves 13% headroom for
    // model changes; a walk that drifts back toward blind visits
    // fails it.
    SkipAheadGuard guard;
    setCycleSkipAhead(true);
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;
    cfg.cht.trackDistance = true;
    cfg.hmp = HmpKind::Chooser;
    cfg.bankMode = BankMode::Sliced;
    cfg.bankPred = BankPredKind::A;
    auto trace = TraceLibrary::make(TraceLibrary::byName("gcc", 100000));
    prof::resetAll();
    prof::setEnabled(true);
    OooCore core(cfg);
    const SimResult r = core.run(*trace);
    prof::setEnabled(false);
    const std::uint64_t visits =
        prof::counterValue(prof::Counter::IssueVisits);
    prof::resetAll();
    ASSERT_EQ(r.uops, 100000u);
    EXPECT_GT(visits, r.uops); // every uop is visited at least once
    EXPECT_LE(visits * 100, r.uops * 145)
        << visits << " visits for " << r.uops << " uops";
}

TEST(EventWakeup, RestoreRebuildsTheWaitingListAndChecksRsCount)
{
    // The list, links and wake times are derived state: a restored
    // core rebuilds them from the ROB image and audits clean, and an
    // rs_count that disagrees with the Waiting entries is rejected.
    MachineConfig cfg;
    cfg.hmp = HmpKind::Chooser;
    auto t = TraceLibrary::make(TraceLibrary::byName("gcc", 8000));
    OooCore warm(cfg);
    warm.beginRun(*t);
    warm.advanceTo(*t, 3000);
    const json::Value state = warm.saveState();
    const std::uint64_t rs = state.at("core").at("rs_count").asU64();
    ASSERT_GT(rs, 0u);

    auto t2 = TraceLibrary::make(TraceLibrary::byName("gcc", 8000));
    OooCore restored(cfg);
    restored.loadState(state, *t2);
    EXPECT_TRUE(StateAuditor::check(restored.auditView(), 3000).empty());
    EXPECT_EQ(restored.auditView().waitList, warm.auditView().waitList);
    EXPECT_EQ(restored.saveState().dump(0), state.dump(0));

    json::Value bad = json::Value::object();
    for (const auto &m : state.members()) {
        json::Value v = m.second;
        if (m.first == "core")
            v.set("rs_count", json::Value(rs - 1));
        bad.set(m.first, v);
    }
    auto t3 = TraceLibrary::make(TraceLibrary::byName("gcc", 8000));
    OooCore rejected(cfg);
    EXPECT_THROW(rejected.loadState(bad, *t3), ConfigError);
}

/** Audit every cycle across the scheduling-policy matrix. */
class EventWakeupAudit : public testing::TestWithParam<const char *>
{
};

TEST_P(EventWakeupAudit, EveryCycleAuditIsClean)
{
    SkipAheadGuard guard;
    const std::string name = GetParam();
    struct Pipe
    {
        BankMode mode;
        BankPredKind pred;
    };
    const Pipe pipes[] = {{BankMode::Sliced, BankPredKind::A},
                          {BankMode::Conventional, BankPredKind::A}};
    setCycleSkipAhead(true);
    for (const auto scheme : allSchemes()) {
        for (const HmpKind hmp : {HmpKind::AlwaysHit,
                                  HmpKind::Chooser,
                                  HmpKind::Perfect}) {
            for (const Pipe &p : pipes) {
                MachineConfig cfg;
                cfg.scheme = scheme;
                cfg.cht.trackDistance = true;
                cfg.hmp = hmp;
                cfg.bankMode = p.mode;
                cfg.bankPred = p.pred;
                cfg.auditInterval = 1;
                auto trace = TraceLibrary::make(
                    TraceLibrary::byName(name, 1500));
                OooCore core(cfg);
                // A violation throws AuditError out of run().
                const SimResult r = core.run(*trace);
                EXPECT_EQ(r.uops, 1500u)
                    << orderingSchemeName(scheme) << "/"
                    << hmpKindName(hmp) << "/"
                    << bankModeName(p.mode);
                EXPECT_GE(
                    core.statsJson().at("audit").at("checks").asU64(),
                    r.cycles);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Traces, EventWakeupAudit,
                         testing::Values("gcc", "wd", "spoiler4k",
                                         "flipper", "gcmark"));

} // namespace
} // namespace lrs
