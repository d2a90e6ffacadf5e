/**
 * @file
 * Unit tests for the common module: deterministic RNG, saturating
 * counters, sticky bits, bit utilities, the bank-of-address rule and
 * the statistics package.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/bitutils.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace lrs
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    const auto first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, ZeroSeedDoesNotCollapse)
{
    Rng a(0);
    std::set<std::uint64_t> vals;
    for (int i = 0; i < 100; ++i)
        vals.insert(a.next());
    EXPECT_GT(vals.size(), 90u);
}

TEST(Rng, BelowRespectsBound)
{
    Rng a(42);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(a.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng a(42);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(a.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive)
{
    Rng a(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = a.between(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        hit_lo |= v == 3;
        hit_hi |= v == 6;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng a(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(a.chance(0.0));
        EXPECT_TRUE(a.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng a(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += a.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng a(11);
    for (int i = 0; i < 10000; ++i) {
        const double u = a.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, BurstBounds)
{
    Rng a(13);
    for (int i = 0; i < 1000; ++i) {
        const auto b = a.burst(0.5, 8);
        ASSERT_GE(b, 1u);
        ASSERT_LE(b, 8u);
    }
}

TEST(SatCounter, TwoBitBasics)
{
    SatCounter c(2);
    EXPECT_FALSE(c.predict());
    c.update(true);
    EXPECT_FALSE(c.predict()); // 1 < threshold 2
    c.update(true);
    EXPECT_TRUE(c.predict());
    c.update(true);
    EXPECT_EQ(c.value(), 3);
    c.update(true); // saturates
    EXPECT_EQ(c.value(), 3);
    c.update(false);
    EXPECT_TRUE(c.predict()); // 2 >= 2
    c.update(false);
    c.update(false);
    EXPECT_EQ(c.value(), 0);
    c.update(false); // saturates at 0
    EXPECT_EQ(c.value(), 0);
}

TEST(SatCounter, OneBitIsLastOutcome)
{
    SatCounter c(1);
    c.update(true);
    EXPECT_TRUE(c.predict());
    c.update(false);
    EXPECT_FALSE(c.predict());
}

TEST(SatCounter, InitialValue)
{
    SatCounter c(2, 2);
    EXPECT_TRUE(c.predict());
}

TEST(SatCounter, ConfidenceMonotonic)
{
    SatCounter c(3);
    c.set(4); // weakly taken
    const double weak = c.confidence();
    c.set(7); // saturated
    EXPECT_GT(c.confidence(), weak);
    EXPECT_DOUBLE_EQ(c.confidence(), 1.0);
}

TEST(StickyBit, OnlySetsNeverClears)
{
    StickyBit s;
    EXPECT_FALSE(s.predict());
    s.update(false);
    EXPECT_FALSE(s.predict());
    s.update(true);
    EXPECT_TRUE(s.predict());
    s.update(false); // sticky: stays set
    EXPECT_TRUE(s.predict());
    s.clear();
    EXPECT_FALSE(s.predict());
}

TEST(BitUtils, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
}

TEST(BitUtils, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(BitUtils, MaskAndBits)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
    EXPECT_EQ(bits(0xabcd, 4, 8), 0xbcu);
}

TEST(BitUtils, FoldXorStableAndBounded)
{
    const auto f1 = foldXor(0x123456789abcdef0ULL, 11);
    EXPECT_EQ(f1, foldXor(0x123456789abcdef0ULL, 11));
    EXPECT_LE(f1, mask(11));
}

TEST(BitUtils, FoldXorMatchesSliceXorAtEveryWidth)
{
    // The power-of-two widths fold by halving; every width must still
    // equal the plain xor of its width-bit slices.
    const auto slices = [](std::uint64_t v, unsigned width) {
        std::uint64_t r = 0;
        for (; v != 0; v >>= width)
            r ^= v & mask(width);
        return r;
    };
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t v = rng.next();
        for (unsigned width = 1; width < 64; ++width)
            ASSERT_EQ(foldXor(v, width), slices(v, width))
                << "width " << width << " v " << v;
    }
}

TEST(BitUtils, Mix64Decorrelates)
{
    // Consecutive inputs should map to very different outputs.
    const auto a = mix64(1000);
    const auto b = mix64(1001);
    EXPECT_NE(a, b);
    EXPECT_NE(a >> 32, b >> 32);
}

TEST(BankOfAddr, InterleavesByLine)
{
    // Two banks of 64-byte lines.
    EXPECT_EQ(bankOfAddr(0x0000, 64, 2), 0u);
    EXPECT_EQ(bankOfAddr(0x0040, 64, 2), 1u);
    EXPECT_EQ(bankOfAddr(0x0080, 64, 2), 0u);
    EXPECT_EQ(bankOfAddr(0x003f, 64, 2), 0u); // same line as 0x0
}

TEST(TextTable, AlignsColumns)
{
    TextTable t({"a", "bbbb"});
    t.startRow();
    t.cell("xxxxx");
    t.cell(1.5, 1);
    const std::string s = t.toString();
    EXPECT_NE(s.find("xxxxx"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, PercentCell)
{
    TextTable t({"p"});
    t.startRow();
    t.cellPct(0.1234, 1);
    EXPECT_NE(t.toString().find("12.3%"), std::string::npos);
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
    EXPECT_EQ(strprintf("%s", ""), "");
}

} // namespace
} // namespace lrs
