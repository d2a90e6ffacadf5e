/**
 * @file
 * Unit tests for the stride load-address predictor ([Beke99]-style
 * simplified) used by the address-based bank predictor.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "predictors/addr_pred.hh"

namespace lrs
{
namespace
{

TEST(AddrPred, ColdEntryDoesNotPredict)
{
    LoadAddressPredictor p(256);
    EXPECT_FALSE(p.predict(0x4000).valid);
}

TEST(AddrPred, LearnsConstantStride)
{
    LoadAddressPredictor p(256);
    Addr a = 0x10000;
    for (int i = 0; i < 8; ++i) {
        p.update(0x4000, a);
        a += 64;
    }
    const auto pred = p.predict(0x4000);
    ASSERT_TRUE(pred.valid);
    EXPECT_EQ(pred.addr, a);
}

TEST(AddrPred, LearnsZeroStride)
{
    LoadAddressPredictor p(256);
    for (int i = 0; i < 8; ++i)
        p.update(0x4000, 0x8000);
    const auto pred = p.predict(0x4000);
    ASSERT_TRUE(pred.valid);
    EXPECT_EQ(pred.addr, 0x8000u);
}

TEST(AddrPred, LearnsNegativeStride)
{
    LoadAddressPredictor p(256);
    Addr a = 0x20000;
    for (int i = 0; i < 8; ++i) {
        p.update(0x4000, a);
        a -= 16;
    }
    const auto pred = p.predict(0x4000);
    ASSERT_TRUE(pred.valid);
    EXPECT_EQ(pred.addr, a);
}

TEST(AddrPred, ConfidenceGatesRandomStreams)
{
    LoadAddressPredictor p(256);
    // Pseudo-random addresses: strides effectively never repeat, so
    // confidence never reaches the threshold.
    Rng rng(31);
    for (int i = 0; i < 64; ++i)
        p.update(0x4000, 0x1000 + rng.below(1 << 20) * 8);
    EXPECT_FALSE(p.predict(0x4000).valid);
}

TEST(AddrPred, RecoversAfterStrideChange)
{
    LoadAddressPredictor p(256);
    Addr a = 0x10000;
    for (int i = 0; i < 8; ++i) {
        p.update(0x4000, a);
        a += 8;
    }
    EXPECT_TRUE(p.predict(0x4000).valid);
    // Stride changes from 8 to 128: confidence dips, then recovers.
    for (int i = 0; i < 12; ++i) {
        p.update(0x4000, a);
        a += 128;
    }
    const auto pred = p.predict(0x4000);
    ASSERT_TRUE(pred.valid);
    EXPECT_EQ(pred.addr, a);
}

TEST(AddrPred, SeparatePcsSeparateStreams)
{
    LoadAddressPredictor p(256);
    Addr a = 0x10000, b = 0x90000;
    for (int i = 0; i < 8; ++i) {
        p.update(0x4000, a);
        p.update(0x5000, b);
        a += 8;
        b += 64;
    }
    EXPECT_EQ(p.predict(0x4000).addr, a);
    EXPECT_EQ(p.predict(0x5000).addr, b);
}

TEST(AddrPred, TagConflictReplacesEntry)
{
    // Two PCs that collide in a 1-entry table: the second evicts the
    // first (tag covers pc bits [1,13), so 0x4002 differs).
    LoadAddressPredictor p(1);
    for (int i = 0; i < 8; ++i)
        p.update(0x4000, 0x1000 + i * 8);
    ASSERT_TRUE(p.predict(0x4000).valid);
    p.update(0x4002, 0x2000); // different tag, same (only) index
    EXPECT_FALSE(p.predict(0x4000).valid);
}

TEST(AddrPred, StorageBitsScaleWithEntries)
{
    EXPECT_GT(LoadAddressPredictor(2048).storageBits(),
              LoadAddressPredictor(256).storageBits());
}

} // namespace
} // namespace lrs
