/**
 * @file
 * Unit tests for the Memory Ordering Buffer: store tracking, the
 * conflict/collision queries of section 2.1 and the store-distance
 * arithmetic the exclusive predictor relies on.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "memory/mob.hh"
#include "trace/library.hh"

namespace lrs
{
namespace
{

TEST(RangesOverlap, Basics)
{
    EXPECT_TRUE(rangesOverlap(100, 8, 100, 8));
    EXPECT_TRUE(rangesOverlap(100, 8, 104, 8));  // partial
    EXPECT_TRUE(rangesOverlap(104, 8, 100, 8));  // partial, reversed
    EXPECT_FALSE(rangesOverlap(100, 4, 104, 4)); // adjacent
    EXPECT_TRUE(rangesOverlap(100, 8, 107, 1));  // last byte
    EXPECT_FALSE(rangesOverlap(100, 8, 108, 1));
}

class MobTest : public ::testing::Test
{
  protected:
    Mob mob;
};

TEST_F(MobTest, EmptyMobHasNoConflicts)
{
    EXPECT_EQ(mob.olderHorizon(100, Mob::kAddr), 0u);
    EXPECT_EQ(mob.olderHorizon(100, Mob::kAddr | Mob::kData), 0u);
    EXPECT_EQ(mob.youngestOverlapOlder(100, 0x1000, 8), nullptr);
}

TEST_F(MobTest, UnknownAddressUntilStaExecutes)
{
    mob.insert(10, 0x1000, 8);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr), kCycleNever);
    mob.staExecuted(10, 7);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr), 7u); // known from 7
}

TEST_F(MobTest, YoungerStoresDoNotAffectOlderLoads)
{
    mob.insert(50, 0x1000, 8);
    EXPECT_EQ(mob.olderHorizon(40, Mob::kAddr), 0u);
    EXPECT_FALSE(mob.collidesAt(40, 0x1000, 8, 0));
    EXPECT_EQ(mob.youngestOverlapOlder(40, 0x1000, 8), nullptr);
}

TEST_F(MobTest, CompletionNeedsBothParts)
{
    mob.insert(10, 0x1000, 8);
    mob.staExecuted(10, 5);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr | Mob::kData),
              kCycleNever);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr), 5u);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kData), kCycleNever);
    mob.stdExecuted(10, 8);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr | Mob::kData), 8u);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kData), 8u);
}

TEST_F(MobTest, CollidesOnlyWithUnknownAddressOverlap)
{
    mob.insert(10, 0x1000, 8);
    // Address unknown: a load to the same address collides.
    EXPECT_TRUE(mob.collidesAt(20, 0x1000, 8, 0));
    // Different address still "collides" conservatively? No —
    // collidesAt uses oracle addresses, so a disjoint load does not.
    EXPECT_FALSE(mob.collidesAt(20, 0x2000, 8, 0));
    // Once the address is known, collidesAt is false (the scheduler
    // can see the dependency explicitly).
    mob.staExecuted(10, 3);
    EXPECT_FALSE(mob.collidesAt(20, 0x1000, 8, 3));
}

TEST_F(MobTest, YoungestOverlapPicksClosestStore)
{
    mob.insert(10, 0x1000, 8);
    mob.insert(12, 0x1000, 8);
    mob.insert(14, 0x2000, 8);
    const auto *m = mob.youngestOverlapOlder(20, 0x1000, 8);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->seq, 12u);
}

TEST_F(MobTest, OverlapDistanceCountsStoresBackward)
{
    mob.insert(10, 0x1000, 8);
    mob.insert(12, 0x2000, 8);
    mob.insert(14, 0x3000, 8);
    // Closest older store is seq 14 (distance 1); the overlap with
    // 0x1000 is at distance 3.
    EXPECT_EQ(mob.overlapDistance(20, 0x3000, 8), 1u);
    EXPECT_EQ(mob.overlapDistance(20, 0x2000, 8), 2u);
    EXPECT_EQ(mob.overlapDistance(20, 0x1000, 8), 3u);
    EXPECT_EQ(mob.overlapDistance(20, 0x9000, 8), 0u);
}

TEST_F(MobTest, OlderAtDistance)
{
    mob.insert(10, 0x1000, 8);
    mob.insert(12, 0x2000, 8);
    ASSERT_NE(mob.olderAtDistance(20, 1), nullptr);
    EXPECT_EQ(mob.olderAtDistance(20, 1)->seq, 12u);
    EXPECT_EQ(mob.olderAtDistance(20, 2)->seq, 10u);
    EXPECT_EQ(mob.olderAtDistance(20, 3), nullptr);
    // A load older than every store sees none.
    EXPECT_EQ(mob.olderAtDistance(5, 1), nullptr);
}

TEST_F(MobTest, PartialOverlapDetected)
{
    mob.insert(10, 0x1004, 4);
    EXPECT_TRUE(mob.collidesAt(20, 0x1000, 8, 0));
    EXPECT_FALSE(mob.collidesAt(20, 0x1000, 4, 0));
}

TEST_F(MobTest, RetireRemovesOldest)
{
    mob.insert(10, 0x1000, 8);
    mob.insert(12, 0x2000, 8);
    EXPECT_EQ(mob.size(), 2u);
    mob.retire(10);
    EXPECT_EQ(mob.size(), 1u);
    EXPECT_EQ(mob.get(10), nullptr);
    ASSERT_NE(mob.get(12), nullptr);
}

TEST_F(MobTest, GetFindsBySeq)
{
    mob.insert(10, 0x1000, 8);
    mob.insert(12, 0x2000, 4);
    const auto *r = mob.get(12);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->addr, 0x2000u);
    EXPECT_EQ(r->size, 4u);
    EXPECT_EQ(mob.get(11), nullptr);
}

TEST_F(MobTest, ClearEmpties)
{
    mob.insert(10, 0x1000, 8);
    mob.clear();
    EXPECT_EQ(mob.size(), 0u);
    EXPECT_EQ(mob.get(10), nullptr);
}

TEST_F(MobTest, IncompleteOlderSeesLateData)
{
    mob.insert(10, 0x1000, 8);
    mob.staExecuted(10, 2);
    // Address known but data not: incomplete but not unknown-address.
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr), 2u);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr | Mob::kData),
              kCycleNever);
    mob.stdExecuted(10, 9);
    EXPECT_EQ(mob.olderHorizon(20, Mob::kAddr | Mob::kData), 9u);
}

TEST_F(MobTest, ManyStoresScale)
{
    for (SeqNum s = 0; s < 100; ++s)
        mob.insert(s * 2, 0x1000 + s * 64, 8);
    EXPECT_EQ(mob.size(), 100u);
    EXPECT_EQ(mob.overlapDistance(1000, 0x1000, 8), 100u);
    EXPECT_EQ(mob.olderAtDistance(1000, 100)->seq, 0u);
}

// ---- partial-address (narrow comparator) disambiguation ----
// The SPOILER-style 4K-aliasing cases (docs/TRACES.md): with a
// 12-bit comparator, a store and a load one page apart share a page
// offset, so the MOB sees a match the full addresses disprove.

TEST_F(MobTest, PartialOffByDefault)
{
    mob.insert(10, 0x1000, 8);
    mob.staExecuted(10, 0);
    // Same page offset, different page — but partial matching is off
    // (partialBits 0), so no alias dependence exists.
    EXPECT_FALSE(mob.partialAliasOlder(20, 0x1000 + 4096, 8, 5));
    EXPECT_EQ(mob.partialAliasMatches(), 0u);
    EXPECT_EQ(mob.partialTrueMatches(), 0u);
}

TEST_F(MobTest, PartialAliasVsTrueCollisionClassified)
{
    mob.setPartialBits(12);
    mob.insert(10, 0x1000, 8);
    mob.staExecuted(10, 0);

    // 4K alias: low 12 bits equal, full addresses a page apart. The
    // narrow comparator must report a (false) dependence and count it
    // as an alias, not a true match.
    EXPECT_TRUE(mob.partialAliasOlder(20, 0x1000 + 4096, 8, 5));
    EXPECT_EQ(mob.partialAliasMatches(), 1u);
    EXPECT_EQ(mob.partialTrueMatches(), 0u);

    // Truly colliding (same full address): the ordinary collision
    // machinery owns it — partialAliasOlder returns false and counts
    // it separately.
    EXPECT_FALSE(mob.partialAliasOlder(20, 0x1000, 8, 5));
    EXPECT_EQ(mob.partialAliasMatches(), 1u);
    EXPECT_EQ(mob.partialTrueMatches(), 1u);

    // Different page offset entirely: no match of any kind.
    EXPECT_FALSE(mob.partialAliasOlder(20, 0x2500, 8, 5));
    EXPECT_EQ(mob.partialAliasMatches(), 1u);
    EXPECT_EQ(mob.partialTrueMatches(), 1u);
}

TEST_F(MobTest, PartialIgnoresUnknownAddressAndYoungerStores)
{
    mob.setPartialBits(12);
    mob.insert(10, 0x1000, 8); // STA not executed: address unknown
    EXPECT_FALSE(mob.partialAliasOlder(20, 0x1000 + 4096, 8, 5));
    EXPECT_EQ(mob.partialAliasMatches(), 0u);

    // Known from cycle 7 on: the comparator sees it only then.
    mob.staExecuted(10, 7);
    EXPECT_FALSE(mob.partialAliasOlder(20, 0x1000 + 4096, 8, 6));
    EXPECT_TRUE(mob.partialAliasOlder(20, 0x1000 + 4096, 8, 7));

    // A younger aliasing store never stalls an older load.
    EXPECT_FALSE(mob.partialAliasOlder(5, 0x1000 + 4096, 8, 7));
}

TEST_F(MobTest, PartialYoungestMatchWins)
{
    mob.setPartialBits(12);
    // Older store truly collides; a younger one merely aliases. The
    // comparator scans youngest-first, so the alias is what a load
    // behind both observes.
    mob.insert(10, 0x3000, 8);
    mob.insert(12, 0x3000 + 8192, 8);
    mob.staExecuted(10, 0);
    mob.staExecuted(12, 0);
    EXPECT_TRUE(mob.partialAliasOlder(20, 0x3000 + 4096, 8, 5));
    EXPECT_EQ(mob.partialAliasMatches(), 1u);
    EXPECT_EQ(mob.partialTrueMatches(), 0u);
}

TEST_F(MobTest, PartialCountersRegisteredOnlyWhenActive)
{
    // The core's export stays byte-identical with the mode off: the
    // mem.mob.partial_* counters appear only when partialBits != 0.
    auto trace = TraceLibrary::make(TraceLibrary::byName("spoiler4k", 5000));
    MachineConfig cfg;
    OooCore plain(cfg);
    plain.run(*trace);
    const json::Value off = plain.statsJson().at("mem").at("mob");
    EXPECT_FALSE(off.has("partial_alias_matches"));
    EXPECT_FALSE(off.has("partial_true_matches"));

    cfg.mobPartialBits = 12;
    OooCore partial(cfg);
    partial.run(*trace);
    const json::Value on = partial.statsJson().at("mem").at("mob");
    EXPECT_GT(on.at("partial_alias_matches").asU64(), 0u);
    EXPECT_TRUE(on.has("partial_true_matches"));

    Mob mob;
    mob.setPartialBits(12);
    mob.insert(10, 0x1000, 8);
    mob.staExecuted(10, 0);
    EXPECT_TRUE(mob.partialAliasOlder(20, 0x1000 + 4096, 8, 5));
    EXPECT_EQ(mob.partialAliasMatches(), 1u);
    EXPECT_EQ(mob.partialTrueMatches(), 0u);
}

// ---- ring-buffer mechanics ----
// The MOB stores its window in a circular buffer (initial capacity
// 16, grow-by-rebuild). A steady insert/retire stream cycles the head
// through the physical array many times; every query must see the
// same program-order window as a naive deque would.

TEST_F(MobTest, RingWrapPreservesWindowAndQueries)
{
    // Keep 5 stores in flight while inserting 200: the head index
    // laps the 16-slot ring a dozen times.
    SeqNum next = 0;
    for (int i = 0; i < 200; ++i) {
        const SeqNum seq = next;
        next += 2;
        mob.insert(seq, 0x1000 + seq * 8, 8);
        mob.staExecuted(seq, i);
        mob.stdExecuted(seq, i + 1);
        if (mob.size() > 5)
            mob.retire(mob.storeAt(0).seq);
    }
    ASSERT_EQ(mob.size(), 5u);
    // storeAt() walks oldest to youngest in program order.
    for (std::size_t i = 0; i + 1 < mob.size(); ++i)
        EXPECT_LT(mob.storeAt(i).seq, mob.storeAt(i + 1).seq);
    // The retired majority is gone; the survivors are addressable.
    EXPECT_EQ(mob.get(0), nullptr);
    const SeqNum youngest = mob.storeAt(4).seq;
    ASSERT_NE(mob.get(youngest), nullptr);
    EXPECT_EQ(mob.get(youngest)->addr, 0x1000 + youngest * 8);
    // Ordering queries against the wrapped window.
    EXPECT_EQ(mob.olderAtDistance(next, 1)->seq, youngest);
    EXPECT_EQ(mob.olderAtDistance(next, 5)->seq, mob.storeAt(0).seq);
    EXPECT_EQ(mob.olderAtDistance(next, 6), nullptr);
    EXPECT_EQ(
        mob.overlapDistance(next, 0x1000 + mob.storeAt(0).seq * 8, 8),
        5u);
    EXPECT_LE(mob.olderHorizon(next, Mob::kAddr | Mob::kData), 1000u);
    EXPECT_EQ(mob.inserted(), 200u);
}

TEST_F(MobTest, GrowthWhileWrappedKeepsProgramOrder)
{
    // Drive head_ to mid-ring, then fill past the 16-slot capacity so
    // the grow-by-rebuild path runs while the window straddles the
    // physical wrap point.
    for (SeqNum s = 0; s < 10; ++s)
        mob.insert(s, 0x100 * (s + 1), 8);
    for (SeqNum s = 0; s < 9; ++s)
        mob.retire(s);
    ASSERT_EQ(mob.size(), 1u);
    for (SeqNum s = 10; s < 40; ++s)
        mob.insert(s, 0x100 * (s + 1), 8);
    ASSERT_EQ(mob.size(), 31u);
    for (std::size_t i = 0; i < mob.size(); ++i) {
        EXPECT_EQ(mob.storeAt(i).seq, 9 + i);
        EXPECT_EQ(mob.storeAt(i).addr, 0x100 * (9 + i + 1));
    }
    EXPECT_EQ(mob.youngestOverlapOlder(100, 0x100 * 10, 8)->seq, 9u);
    // The untouched stores all have unknown addresses.
    EXPECT_EQ(mob.olderHorizon(100, Mob::kAddr), kCycleNever);
}

TEST_F(MobTest, StateRoundTripsAfterWrap)
{
    // Wrap the ring, mutate some records, then serialize: a restored
    // MOB must answer every query identically and keep the lifetime
    // counters.
    for (SeqNum s = 0; s < 30; ++s) {
        mob.insert(s * 3, 0x2000 + s * 16, 8, /*pc=*/0x400 + s,
                   /*barrier=*/s % 7 == 0);
        if (s >= 4)
            mob.retire((s - 4) * 3);
    }
    mob.staExecuted(27 * 3, 500);
    mob.markViolation(27 * 3);
    const json::Value st = stateio::save(mob);

    Mob back;
    stateio::load(back, st);
    EXPECT_EQ(back.size(), mob.size());
    EXPECT_EQ(back.inserted(), 30u);
    EXPECT_EQ(back.violationsMarked(), 1u);
    for (std::size_t i = 0; i < mob.size(); ++i) {
        const Mob::StoreRec &a = mob.storeAt(i);
        const Mob::StoreRec &b = back.storeAt(i);
        EXPECT_EQ(b.seq, a.seq);
        EXPECT_EQ(b.addr, a.addr);
        EXPECT_EQ(b.pc, a.pc);
        EXPECT_EQ(b.barrier, a.barrier);
        EXPECT_EQ(b.causedViolation, a.causedViolation);
        EXPECT_EQ(b.staDoneAt, a.staDoneAt);
        EXPECT_EQ(b.stdDoneAt, a.stdDoneAt);
    }
    EXPECT_EQ(stateio::save(back).dump(0), st.dump(0));
    // And the restored ring keeps working past another wrap.
    for (SeqNum s = 30; s < 60; ++s) {
        back.insert(s * 3, 0x2000 + s * 16, 8);
        back.retire(back.storeAt(0).seq);
    }
    EXPECT_EQ(back.size(), mob.size());
    EXPECT_EQ(back.storeAt(back.size() - 1).seq, 59u * 3);
}

} // namespace
} // namespace lrs
