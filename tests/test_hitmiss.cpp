/**
 * @file
 * Unit tests for the hit-miss predictor configurations: the always-hit
 * baseline, the table adapters, the timing-assisted wrapper and the
 * factory.
 */

#include <gtest/gtest.h>

#include "core/config_io.hh"
#include "predictors/hitmiss.hh"
#include "predictors/local.hh"

namespace lrs
{
namespace
{

TEST(AlwaysHitHmp, NeverPredictsMiss)
{
    AlwaysHitHmp hmp;
    EXPECT_FALSE(hmp.predictMiss(0x4000, nullptr));
    hmp.update(0x4000, true, kAddrInvalid);
    hmp.update(0x4000, true, kAddrInvalid);
    EXPECT_FALSE(hmp.predictMiss(0x4000, nullptr));
    EXPECT_EQ(hmp.storageBits(), 0u);
}

TEST(TableHmp, LearnsPerPcMissBias)
{
    TableHmp hmp(std::make_unique<LocalPredictor>(2048, 8));
    for (int i = 0; i < 50; ++i) {
        hmp.update(0x4000, true, kAddrInvalid);  // streaming load: always misses
        hmp.update(0x8000, false, kAddrInvalid); // hot load: always hits
    }
    EXPECT_TRUE(hmp.predictMiss(0x4000, nullptr));
    EXPECT_FALSE(hmp.predictMiss(0x8000, nullptr));
}

TEST(TableHmp, LearnsPeriodicMissPattern)
{
    // A stride-16B load missing every 4th access: the local history
    // ...0001 repeats, which an 8-bit-history local predictor learns.
    TableHmp hmp(std::make_unique<LocalPredictor>(2048, 8));
    for (int warm = 0; warm < 64; ++warm)
        hmp.update(0x4000, warm % 4 == 3, kAddrInvalid);
    int correct = 0;
    for (int i = 0; i < 64; ++i) {
        const bool miss = i % 4 == 3;
        correct += hmp.predictMiss(0x4000, nullptr) == miss;
        hmp.update(0x4000, miss, kAddrInvalid);
    }
    EXPECT_GE(correct, 60);
}

TEST(TimingHmp, OutstandingMissOverrides)
{
    TimingHmp hmp(std::make_unique<AlwaysHitHmp>());
    const HitMissPredictor::Hint h{/*outstandingMiss=*/true,
                                   /*recentFill=*/false};
    EXPECT_TRUE(hmp.predictMiss(0x4000, &h));
}

TEST(TimingHmp, RecentFillOverrides)
{
    // Inner predictor says miss; a recent fill forces a hit
    // prediction.
    auto inner = std::make_unique<TableHmp>(
        std::make_unique<LocalPredictor>(64, 4));
    for (int i = 0; i < 20; ++i)
        inner->update(0x4000, true, kAddrInvalid);
    TimingHmp hmp(std::move(inner));
    const HitMissPredictor::Hint h{false, true};
    EXPECT_FALSE(hmp.predictMiss(0x4000, &h));
    // Without the hint, the inner prediction stands.
    EXPECT_TRUE(hmp.predictMiss(0x4000, nullptr));
}

TEST(TimingHmp, NoHintFallsThrough)
{
    TimingHmp hmp(std::make_unique<AlwaysHitHmp>());
    const HitMissPredictor::Hint h{false, false};
    EXPECT_FALSE(hmp.predictMiss(0x4000, &h));
    EXPECT_FALSE(hmp.predictMiss(0x4000, nullptr));
}

TEST(HmpFactory, BuildsAllNamedConfigurations)
{
    for (const HmpKind kind :
         {HmpKind::AlwaysHit, HmpKind::Local, HmpKind::Chooser,
          HmpKind::LocalTiming, HmpKind::Perfect}) {
        auto hmp = makeHmp(kind);
        // The core models always-hit and perfect without a predictor.
        if (kind == HmpKind::AlwaysHit || kind == HmpKind::Perfect) {
            EXPECT_EQ(hmp, nullptr) << hmpKindName(kind);
            continue;
        }
        ASSERT_NE(hmp, nullptr) << hmpKindName(kind);
        EXPECT_EQ(hmp->name().find("unknown"), std::string::npos);
        EXPECT_EQ(makeHmp(parseHmpKind(hmpKindName(kind)))->name(),
                  hmp->name());
    }
    EXPECT_THROW(parseHmpKind("nonsense"), std::invalid_argument);
}

TEST(HmpFactory, PaperBudgets)
{
    // Paper section 2.2: local-only ~2KB; chooser < 2KB total.
    const auto local = makeHmp(HmpKind::Local);
    EXPECT_LE(local->storageBits(), 3 * 8 * 1024);
    EXPECT_GE(local->storageBits(), 1 * 8 * 1024);
    const auto chooser = makeHmp(HmpKind::Chooser);
    EXPECT_LE(chooser->storageBits(), 3 * 8 * 1024);
}

TEST(HmpChooser, MajorityRejectsSingleOutlier)
{
    auto hmp = makeHmp(HmpKind::Chooser);
    // Uniform always-miss training: all components agree.
    for (int i = 0; i < 100; ++i)
        hmp->update(0x4000, true, kAddrInvalid);
    EXPECT_TRUE(hmp->predictMiss(0x4000, nullptr));
}

} // namespace
} // namespace lrs
