/**
 * @file
 * Tests for the structural invariant auditor: a sound machine passes,
 * and each class of hand-crafted corruption is caught with a Diag
 * naming the violated invariant. The auditor works on flattened
 * AuditViews precisely so these tests can corrupt state without
 * reaching into a live core.
 */

#include <gtest/gtest.h>

#include "core/auditor.hh"
#include "core/core.hh"
#include "trace/library.hh"

namespace lrs
{
namespace
{

/** A small, internally consistent view to corrupt per test. */
AuditView
soundView()
{
    AuditView v;
    v.robSize = 8;
    v.schedWindow = 4;
    v.regPool = 16;
    v.headSeq = 10;
    v.nextSeq = 13;
    v.rsCount = 2;
    v.poolUsed = 3;
    for (SeqNum s = 10; s < 13; ++s) {
        AuditView::Entry e;
        e.seq = s;
        e.slot = static_cast<int>(s % 8);
        e.waiting = s != 10;
        v.entries.push_back(e);
    }
    // seq 12 consumes seq 10's result; its producer lane names 10's
    // slot while 10 is in flight.
    v.entries[2].src1Slot = static_cast<int>(10 % 8);
    v.entries[2].src1Seq = 10;
    v.entries[2].prod1 = v.entries[2].src1Slot;
    // seq 12 is an STD paired with STA 11, which the MOB tracks.
    v.entries[2].isPairedStd = true;
    v.entries[2].pairSeq = 11;
    v.mobStores = {11};
    // 11 and 12 wait, in age order. 10 issued: its consumer 12 may
    // wake at 10's estimate (cycle 50), and 12 caches exactly that.
    v.waitList = {11, 12};
    v.entries[0].est = 50;
    v.entries[0].actual = 50;
    v.entries[2].wake = 50;
    return v;
}

bool
hasParam(const std::vector<Diag> &diags, const std::string &needle)
{
    for (const Diag &d : diags) {
        if (d.param.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(Auditor, SoundViewPasses)
{
    EXPECT_TRUE(StateAuditor::check(soundView(), 100).empty());
}

TEST(Auditor, CatchesRobOverflow)
{
    AuditView v = soundView();
    v.nextSeq = v.headSeq + 9; // 9 in-flight in an 8-entry ROB
    const auto diags = StateAuditor::check(v, 1);
    EXPECT_TRUE(hasParam(diags, "occupancy"));
}

TEST(Auditor, CatchesHeadBehindNext)
{
    AuditView v = soundView();
    v.nextSeq = v.headSeq - 1;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "occupancy"));
}

TEST(Auditor, CatchesBrokenAgeOrdering)
{
    AuditView v = soundView();
    v.entries[1].seq = 99; // not headSeq + 1
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "age_order"));
}

TEST(Auditor, CatchesRingSlotMismatch)
{
    AuditView v = soundView();
    v.entries[0].slot = (v.entries[0].slot + 1) % v.robSize;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "ring_slot"));
}

TEST(Auditor, CatchesWindowMiscount)
{
    AuditView v = soundView();
    v.rsCount = 7; // only 2 entries are Waiting
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "rs_count"));
}

TEST(Auditor, CatchesPoolOverflow)
{
    AuditView v = soundView();
    v.poolUsed = v.regPool + 1;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "reg_pool"));
    v.poolUsed = -1;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "reg_pool"));
}

TEST(Auditor, CatchesForwardPointingWakeupEdge)
{
    AuditView v = soundView();
    // Make the oldest entry "depend" on the youngest: impossible.
    v.entries[0].src1Slot = v.entries[2].slot;
    v.entries[0].src1Seq = v.entries[2].seq;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "src1"));
}

TEST(Auditor, CatchesEdgeSlotSeqDisagreement)
{
    AuditView v = soundView();
    v.entries[2].src1Slot = (v.entries[2].src1Slot + 1) % v.robSize;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "src1"));
}

TEST(Auditor, CatchesStdPairedWithYoungerSta)
{
    AuditView v = soundView();
    v.entries[2].pairSeq = v.entries[2].seq + 1;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "std_pair"));
}

TEST(Auditor, CatchesStdWhoseStaTheMobLost)
{
    AuditView v = soundView();
    v.mobStores.clear(); // STA 11 in flight but the MOB forgot it
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "std_pair"));
}

TEST(Auditor, CatchesMobDisorder)
{
    AuditView v = soundView();
    v.mobStores = {12, 11};
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "mob_order"));
}

TEST(Auditor, CatchesMobGhostStore)
{
    AuditView v = soundView();
    v.mobStores = {11, 50}; // 50 was never renamed
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "mob_order"));
}

TEST(Auditor, CatchesWaitListOutOfAgeOrder)
{
    AuditView v = soundView();
    v.waitList = {12, 11};
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "wait_list"));
}

TEST(Auditor, CatchesWaitListMissingAWaitingEntry)
{
    AuditView v = soundView();
    v.waitList = {12};
    v.rsCount = 1;
    // rsCount (1) also disagrees with the two Waiting entries.
    const auto diags = StateAuditor::check(v, 1);
    EXPECT_TRUE(hasParam(diags, "wait_list"));
    EXPECT_TRUE(hasParam(diags, "rs_count"));
}

TEST(Auditor, CatchesWaitListLengthApartFromRsCount)
{
    AuditView v = soundView();
    v.waitList = {11, 12, 12};
    const auto diags = StateAuditor::check(v, 1);
    EXPECT_TRUE(hasParam(diags, "wait_list"));
    EXPECT_FALSE(hasParam(diags, "rs_count"));
}

TEST(Auditor, CatchesLateCachedWakeTime)
{
    AuditView v = soundView();
    // 10's estimate says 50; a cached 60 would skip the visits at
    // cycles 50-59 that can issue 12.
    v.entries[2].wake = 60;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "wake@12"));
    // The cache may be early: it only costs a visit.
    v.entries[2].wake = 20;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
}

TEST(Auditor, CachedWakeTimeAtOrBeforeTheCycleIsAlwaysSafe)
{
    AuditView v = soundView();
    // 10 left the window, so 12's source now reads ready at 0; a
    // cached 50 is stale but 12 is visited on every cycle >= 50.
    v.headSeq = 11;
    v.entries.erase(v.entries.begin());
    v.entries[1].prod1 = -1; // the retire cut 12's producer link
    v.mobStores = {11};
    EXPECT_TRUE(StateAuditor::check(v, 50).empty());
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 49), "wake@12"));
}

TEST(Auditor, UnclassifiedLoadWakesWhenItsDataIsReady)
{
    AuditView v = soundView();
    // As an unclassified load, 12 classifies once 10's data lands,
    // even before the estimate lets it issue.
    v.entries[0].est = 80;
    v.entries[2].unclassifiedLoad = v.entries[2].laneUnclassified = true;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    v.entries[2].wake = 51;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "wake@12"));
}

TEST(Auditor, WakeBoundIncludesTheGateHorizon)
{
    AuditView v = soundView();
    // 12's ordering gate opens at 70, after 10's estimate: a cached
    // 70 is exact, but with a fresh horizon of 60 it is late.
    v.entries[2].gate = v.entries[2].cachedGate = 70;
    v.entries[2].wake = 70;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    v.entries[2].gate = 60;
    v.entries[2].cachedGate = 60;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "wake@12"));
}

TEST(Auditor, CatchesCachedGateLaterThanTheFreshHorizon)
{
    AuditView v = soundView();
    // A store part executed and gave 11's gate a finite horizon (30),
    // but the cache still holds kCycleNever: nothing reopened it.
    v.entries[1].gate = 30;
    v.entries[1].cachedGate = kCycleNever;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "gate@11"));
    // A cached gate above the fresh one is still safe once the cycle
    // has reached it: a store whose time had passed retired.
    v.entries[1].cachedGate = 45;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 44), "gate@11"));
    EXPECT_TRUE(StateAuditor::check(v, 45).empty());
}

TEST(Auditor, StaleEarlyCachedGateIsSafe)
{
    AuditView v = soundView();
    // A reopened gate reads 0 until the next visit recomputes it; the
    // fresh horizon may still be kCycleNever. Early costs a visit.
    v.entries[1].gate = kCycleNever;
    v.entries[1].cachedGate = 0;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    v.entries[1].gate = 30;
    v.entries[1].cachedGate = 12;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
}

TEST(Auditor, CatchesWakeBoundAboveAWaitingWakeTime)
{
    AuditView v = soundView();
    // 11 replays at 70 and 12 wakes at 50: a bound of 50 lets the
    // walk run at cycle 50, a bound of 51 would skip it.
    v.entries[1].stall = v.entries[1].wake = 70;
    v.minWake = 50;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    v.minWake = 51;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "min_wake"));
}

TEST(Auditor, CatchesStaleMobOrdinal)
{
    // Five stores have retired, so MOB store 11 holds ordinal 5: 10
    // (older than it), the STA 11 and its STD 12 all hold 5.
    AuditView v = soundView();
    v.mobRetired = 5;
    for (AuditView::Entry &e : v.entries)
        e.mobOrd = 5;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    v.entries[2].mobOrd = 6; // the STD names the store after its STA
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "mob_ord@12"));
    v.entries[2].mobOrd = 5;
    v.entries[0].mobOrd = 4; // 10 would see a retired store as older
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "mob_ord@10"));
    v.entries[0].mobOrd = 5;
    // An STD whose STA has retired from the ROB still needs the
    // store's MOB record until it retires itself.
    v.headSeq = 12;
    v.entries.erase(v.entries.begin(), v.entries.begin() + 2);
    v.entries[0].src1Slot = -1; // its producer 10 retired too
    v.entries[0].prod1 = -1;
    v.entries[0].wake = 0;
    v.waitList = {12};
    v.rsCount = 1;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    v.mobStores.clear();
    v.mobRetired = 6;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "mob_ord@12"));
}

TEST(Auditor, CatchesStaleProducerLane)
{
    // Rename sets 12's link to 10's slot; without it 12 would read
    // 10's result as ready at 0.
    AuditView v = soundView();
    v.entries[2].prod1 = -1;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "prod1@12"));
    v.entries[2].prod1 = 3; // a slot that does not hold 10
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "prod1@12"));
    // 10 retires and seq 18 reuses its slot 2. A link the retire did
    // not cut would read 18's lanes as 10's.
    v = soundView();
    v.headSeq = 11;
    v.nextSeq = 19;
    v.entries.erase(v.entries.begin());
    for (SeqNum s = 13; s < 19; ++s) {
        AuditView::Entry e;
        e.seq = s;
        e.slot = static_cast<int>(s % 8);
        e.mobOrd = 1; // younger than store 11
        v.entries.push_back(e);
    }
    v.entries[1].wake = 0; // 12's source now reads ready at 0
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "prod1@12"));
    v.entries[1].prod1 = -1;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    v.entries[1].prod2 = 2; // a link with no producer at all
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "prod2@12"));
}

TEST(Auditor, CatchesClassLaneDisagreement)
{
    AuditView v = soundView();
    v.entries[1].uopClass = UopClass::StoreAddr;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "class@11"));
    v.entries[1].laneClass = UopClass::StoreAddr;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "class@11"));
    v.entries[1].lanePool = UnitPool::Mem;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
    // A load that classified but still reads unclassified would keep
    // waking on its sources' data.
    v.entries[1].uopClass = v.entries[1].laneClass = UopClass::Load;
    v.entries[1].laneUnclassified = true;
    EXPECT_TRUE(hasParam(StateAuditor::check(v, 1), "class@11"));
    v.entries[1].unclassifiedLoad = true;
    EXPECT_TRUE(StateAuditor::check(v, 1).empty());
}

TEST(Auditor, ViolationDiagsCarryTheCycle)
{
    AuditView v = soundView();
    v.rsCount = 7;
    const auto diags = StateAuditor::check(v, 4242);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].cycle, 4242u);
    EXPECT_EQ(diags[0].code, DiagCode::AuditViolation);
}

TEST(Auditor, LiveCoreViewIsSound)
{
    MachineConfig cfg;
    OooCore core(cfg);
    EXPECT_TRUE(StateAuditor::check(core.auditView(), 0).empty());
}

TEST(Auditor, AuditedRunCompletesAndCounts)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 20000));
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;
    cfg.auditInterval = 500;
    OooCore core(cfg);
    const SimResult r = core.run(*trace);
    EXPECT_EQ(r.uops, 20000u);
    // One audit per interval plus the final drained-machine audit.
    EXPECT_GE(core.statsJson().at("audit").at("checks").asU64(),
              r.cycles / 500);
}

TEST(Auditor, AuditedRunMatchesUnauditedRun)
{
    // Auditing is observation only: identical results, on or off.
    auto trace = TraceLibrary::make(TraceLibrary::byName("li", 15000));
    MachineConfig cfg;
    OooCore plain(cfg);
    const SimResult a = plain.run(*trace);
    cfg.auditInterval = 100;
    OooCore audited(cfg);
    const SimResult b = audited.run(*trace);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.collisionPenalties, b.collisionPenalties);
}

} // namespace
} // namespace lrs
