/**
 * @file
 * Unit tests for the set-associative cache model, including the
 * fill-timing (dynamic miss) behaviour the timing-assisted hit-miss
 * predictor depends on.
 */

#include <gtest/gtest.h>

#include "memory/cache.hh"

namespace lrs
{
namespace
{

CacheParams
smallCache()
{
    // 8 sets x 2 ways x 64B = 1KB.
    return {"test", 1024, 2, 64, 3};
}

TEST(Cache, GeometryDerivation)
{
    Cache c(smallCache());
    EXPECT_EQ(c.numSets(), 8u);
}

TEST(Cache, MissThenHitAfterFill)
{
    Cache c(smallCache());
    auto r = c.access(0x1000, 10);
    EXPECT_FALSE(r.present);
    c.fill(0x1000, 20);
    r = c.access(0x1000, 25);
    EXPECT_TRUE(r.present);
    EXPECT_TRUE(r.ready);
}

TEST(Cache, DynamicMissWhileFillInFlight)
{
    Cache c(smallCache());
    c.access(0x2000, 0);
    c.fill(0x2000, 50);
    const auto r = c.access(0x2000, 10);
    EXPECT_TRUE(r.present);
    EXPECT_FALSE(r.ready); // still in flight
    EXPECT_EQ(r.fillTime, 50u);
    EXPECT_EQ(c.dynamicMisses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit)
{
    Cache c(smallCache());
    c.fill(0x3000, 0);
    EXPECT_TRUE(c.access(0x3000, 1).present);
    EXPECT_TRUE(c.access(0x303f, 2).present); // last byte of the line
    EXPECT_FALSE(c.access(0x3040, 3).present); // next line
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    // Three lines mapping to the same set (set stride = 8 lines).
    const Addr a = 0x0000, b = 0x0000 + 8 * 64, d = 0x0000 + 16 * 64;
    c.fill(a, 0);
    c.fill(b, 1);
    c.access(a, 10); // make A recently used
    c.fill(d, 20);   // evicts B (LRU)
    EXPECT_TRUE(c.access(a, 30).present);
    EXPECT_FALSE(c.access(b, 31).present);
    EXPECT_TRUE(c.access(d, 32).present);
}

TEST(Cache, RefillOfPresentLineUpdatesInPlace)
{
    Cache c(smallCache());
    c.fill(0x4000, 5);
    c.fill(0x4000, 90); // refill, not a second way
    const auto r = c.probe(0x4000, 100);
    EXPECT_TRUE(r.present);
    EXPECT_EQ(r.fillTime, 90u);
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    Cache c(smallCache());
    const Addr a = 0x0000, b = 0x0000 + 8 * 64, d = 0x0000 + 16 * 64;
    c.fill(a, 0);
    c.fill(b, 1);
    c.probe(a, 50); // must NOT refresh a's recency
    c.fill(d, 60);  // evicts a (still LRU despite the probe)
    EXPECT_FALSE(c.probe(a, 70).present);
    EXPECT_TRUE(c.probe(b, 71).present);
}

TEST(Cache, FlushEmptiesEverything)
{
    Cache c(smallCache());
    c.fill(0x1000, 0);
    c.fill(0x2000, 0);
    c.flush();
    EXPECT_FALSE(c.access(0x1000, 10).present);
    EXPECT_FALSE(c.access(0x2000, 10).present);
}

TEST(Cache, HitMissCounters)
{
    Cache c(smallCache());
    c.access(0x5000, 0); // miss
    c.fill(0x5000, 1);
    c.access(0x5000, 5); // hit
    c.access(0x5000, 6); // hit
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, FullyAssociativeDegenerateCase)
{
    // One set: size 1KB, 16 ways, 64B lines.
    Cache c({"fa", 1024, 16, 64, 1});
    EXPECT_EQ(c.numSets(), 1u);
    for (int i = 0; i < 16; ++i)
        c.fill(static_cast<Addr>(i) * 64, static_cast<Cycle>(i));
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(
            c.probe(static_cast<Addr>(i) * 64, 100).present);
    c.fill(16 * 64, 100); // evicts line 0 (oldest lastUse)
    EXPECT_FALSE(c.probe(0, 101).present);
}

} // namespace
} // namespace lrs
