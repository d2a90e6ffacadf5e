/**
 * @file
 * Unit tests for the two-level data hierarchy: latency chaining,
 * inclusive fills, dynamic misses across levels and the
 * outstanding-miss / recently-serviced timing information.
 */

#include <gtest/gtest.h>

#include "memory/hierarchy.hh"

namespace lrs
{
namespace
{

HierarchyParams
params()
{
    HierarchyParams p;
    p.l1 = {"L1", 1024, 2, 64, 5};
    p.l2 = {"L2", 8192, 4, 64, 7};
    p.memLatency = 40;
    return p;
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    MemoryHierarchy h(params());
    const auto a = h.access(0x10000, 100);
    EXPECT_FALSE(a.l1Hit);
    EXPECT_EQ(a.level, MemoryHierarchy::Level::Memory);
    EXPECT_EQ(a.readyAt, 100u + 5 + 7 + 40);
}

TEST(Hierarchy, L1HitAfterWarmup)
{
    MemoryHierarchy h(params());
    const auto first = h.access(0x10000, 0);
    const auto again = h.access(0x10000, first.readyAt + 1);
    EXPECT_TRUE(again.l1Hit);
    EXPECT_EQ(again.level, MemoryHierarchy::Level::L1);
    EXPECT_EQ(again.readyAt, first.readyAt + 1 + 5);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    auto p = params();
    MemoryHierarchy h(p);
    // Warm the line past its fill time.
    h.access(0x10000, 0);
    // Thrash L1's set with conflicting lines; L1 has 16 sets, so the
    // set stride is 16 lines = 1024 bytes.
    Cycle t = 1000;
    h.access(0x10000 + 1024, t);
    t += 100;
    h.access(0x10000 + 2048, t);
    t += 100;
    // The original line is now out of L1 but still in L2.
    const auto r = h.access(0x10000, t);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(r.level, MemoryHierarchy::Level::L2);
    EXPECT_EQ(r.readyAt, t + 5 + 7);
}

TEST(Hierarchy, DynamicMissReportsRemainingLatency)
{
    MemoryHierarchy h(params());
    const auto first = h.access(0x20000, 0); // fill lands at 52
    const auto second = h.access(0x20000, 10);
    EXPECT_FALSE(second.l1Hit);
    EXPECT_TRUE(second.dynamicMiss);
    EXPECT_EQ(second.readyAt, first.readyAt);
}

TEST(Hierarchy, TimingInfoOutstandingMiss)
{
    MemoryHierarchy h(params());
    h.access(0x30000, 0); // in flight until 52
    const auto ti = h.timingInfo(0x30000, 10);
    EXPECT_TRUE(ti.outstandingMiss);
    EXPECT_FALSE(ti.recentFill);
}

TEST(Hierarchy, TimingInfoRecentFill)
{
    MemoryHierarchy h(params());
    const auto a = h.access(0x30000, 0);
    const auto ti = h.timingInfo(0x30000, a.readyAt + 5);
    EXPECT_FALSE(ti.outstandingMiss);
    EXPECT_TRUE(ti.recentFill);
    // Outside the window the hint disappears.
    const auto late = h.timingInfo(0x30000, a.readyAt + 100);
    EXPECT_FALSE(late.recentFill);
}

TEST(Hierarchy, TimingInfoUnknownLine)
{
    MemoryHierarchy h(params());
    const auto ti = h.timingInfo(0x77777, 10);
    EXPECT_FALSE(ti.outstandingMiss);
    EXPECT_FALSE(ti.recentFill);
}

TEST(Hierarchy, LatencyAccessors)
{
    MemoryHierarchy h(params());
    EXPECT_EQ(h.l1Latency(), 5u);
    EXPECT_EQ(h.l2Latency(), 12u);
    EXPECT_EQ(h.memLatency(), 52u);
}

TEST(Hierarchy, DefaultsMatchPaperMachine)
{
    HierarchyParams def;
    EXPECT_EQ(def.l1.sizeBytes, 16u * 1024);
    EXPECT_EQ(def.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(def.l2.assoc, 4u);
    EXPECT_EQ(def.l1.lineBytes, 64u);
}

} // namespace
} // namespace lrs
