/**
 * @file
 * Unit and property tests for the binary predictor components
 * (bimodal, local, gshare, gskew) and the chooser composites.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "common/random.hh"
#include "predictors/bimodal.hh"
#include "predictors/chooser.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/local.hh"

namespace lrs
{
namespace
{

using MakeFn = std::function<std::unique_ptr<BinaryPredictor>()>;

/** Train on a repeating pattern at one PC; return final accuracy. */
double
accuracyOnPattern(BinaryPredictor &p, Addr pc,
                  const std::vector<bool> &pattern, int reps)
{
    int correct = 0, total = 0;
    for (int r = 0; r < reps; ++r) {
        for (const bool outcome : pattern) {
            const auto pred = p.predict(pc);
            if (r >= reps / 2) { // measure after warmup
                ++total;
                correct += pred.taken == outcome;
            }
            p.update(pc, outcome);
        }
    }
    return total ? static_cast<double>(correct) / total : 0.0;
}

struct PredictorSpec
{
    std::string name;
    MakeFn make;
};

// gtest would otherwise print the struct's raw bytes, heap pointers
// included, into each ctest name; the name keeps them reproducible.
void
PrintTo(const PredictorSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

class BinaryPredictorSuite
    : public ::testing::TestWithParam<PredictorSpec>
{
};

TEST_P(BinaryPredictorSuite, LearnsConstantTaken)
{
    auto p = GetParam().make();
    EXPECT_GT(accuracyOnPattern(*p, 0x4000, {true}, 100), 0.99);
}

TEST_P(BinaryPredictorSuite, LearnsConstantNotTaken)
{
    auto p = GetParam().make();
    EXPECT_GT(accuracyOnPattern(*p, 0x4000, {false}, 100), 0.99);
}

TEST_P(BinaryPredictorSuite, LearnsShortPeriodicPattern)
{
    auto p = GetParam().make();
    // T T N repeated: history-based predictors should nail this;
    // bimodal converges to majority (2/3).
    const double acc =
        accuracyOnPattern(*p, 0x4000, {true, true, false}, 200);
    EXPECT_GT(acc, 0.6);
}

TEST_P(BinaryPredictorSuite, StorageBitsPositive)
{
    auto p = GetParam().make();
    EXPECT_GT(p->storageBits(), 0u);
}

TEST_P(BinaryPredictorSuite, TakenMatchesPredict)
{
    // taken() is predict().taken without the confidence.
    auto p = GetParam().make();
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const Addr pc = 0x4000 + rng.below(64) * 4;
        ASSERT_EQ(p->taken(pc), p->predict(pc).taken) << i;
        p->update(pc, rng.chance(0.5));
    }
}

TEST_P(BinaryPredictorSuite, ConfidenceWithinUnitRange)
{
    auto p = GetParam().make();
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const Addr pc = 0x4000 + rng.below(64) * 4;
        const auto pred = p->predict(pc);
        ASSERT_GE(pred.confidence, 0.0);
        ASSERT_LE(pred.confidence, 1.0);
        p->update(pc, rng.chance(0.5));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryPredictors, BinaryPredictorSuite,
    ::testing::Values(
        PredictorSpec{"bimodal",
                      [] { return std::make_unique<BimodalPredictor>(
                               2048); }},
        PredictorSpec{"local",
                      [] { return std::make_unique<LocalPredictor>(
                               2048, 8); }},
        PredictorSpec{"gshare",
                      [] { return std::make_unique<GsharePredictor>(
                               11); }},
        PredictorSpec{"gskew",
                      [] { return std::make_unique<GskewPredictor>(
                               1024, 17); }}),
    [](const auto &info) { return info.param.name; });

TEST(LocalPredictor, TracksPerPcPatternsIndependently)
{
    LocalPredictor p(2048, 8);
    // Two PCs with opposite constant behaviour.
    for (int i = 0; i < 100; ++i) {
        p.update(0x4000, true);
        p.update(0x8000, false);
    }
    EXPECT_TRUE(p.predict(0x4000).taken);
    EXPECT_FALSE(p.predict(0x8000).taken);
}

TEST(LocalPredictor, LearnsLongerPeriodThanBimodalCan)
{
    LocalPredictor local(2048, 8);
    BimodalPredictor bimodal(2048);
    // Period-4 pattern with 3:1 bias: N N N T.
    const std::vector<bool> pat = {false, false, false, true};
    const double la = accuracyOnPattern(local, 0x4000, pat, 300);
    const double ba = accuracyOnPattern(bimodal, 0x4000, pat, 300);
    EXPECT_GT(la, 0.95);
    EXPECT_LT(ba, 0.85); // bimodal predicts the majority only
}

TEST(GsharePredictor, InitialBiasHonoured)
{
    GsharePredictor p(10, 2, 2); // weakly taken
    EXPECT_TRUE(p.predict(0x1234).taken);
    GsharePredictor q(10, 2, 0);
    EXPECT_FALSE(q.predict(0x1234).taken);
}

TEST(GskewPredictor, MajorityOfBanks)
{
    GskewPredictor p(256, 10);
    for (int i = 0; i < 20; ++i)
        p.update(0x4000, true);
    EXPECT_TRUE(p.predict(0x4000).taken);
}

TEST(Chooser, MajorityAlwaysPredicts)
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(8), 1.0});
    comps.push_back({std::make_unique<GskewPredictor>(256, 8), 1.0});
    CompositePredictor c(std::move(comps), ChoosePolicy::Majority);
    const auto m = c.predictMaybe(0x4000);
    EXPECT_TRUE(m.valid);
}

TEST(Chooser, MajorityFollowsComponents)
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(8), 1.0});
    comps.push_back({std::make_unique<GskewPredictor>(256, 8), 1.0});
    CompositePredictor c(std::move(comps), ChoosePolicy::Majority);
    for (int i = 0; i < 50; ++i)
        c.update(0x4000, true);
    EXPECT_TRUE(c.predict(0x4000).taken);
}

TEST(Chooser, UnanimityThresholdDeclinesOnDisagreement)
{
    // Two components trained in opposite directions can never reach a
    // +-2 unanimous sum.
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(8, 2, 3), 1.0});
    CompositePredictor c(std::move(comps),
                         ChoosePolicy::WeightedThreshold, 2.0);
    // bimodal starts at 0 (not-taken) while gshare starts saturated
    // taken: they disagree before training.
    const auto m = c.predictMaybe(0x4000);
    EXPECT_FALSE(m.valid);
}

TEST(Chooser, UnanimityThresholdPredictsOnAgreement)
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(8), 1.0});
    CompositePredictor c(std::move(comps),
                         ChoosePolicy::WeightedThreshold, 2.0);
    for (int i = 0; i < 30; ++i)
        c.update(0x4000, true);
    const auto m = c.predictMaybe(0x4000);
    EXPECT_TRUE(m.valid);
    EXPECT_TRUE(m.taken);
}

TEST(Chooser, WeightsBias)
{
    // A weight-3 taken-biased component outvotes two not-taken ones
    // under a weighted threshold.
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<GsharePredictor>(8, 2, 3), 3.0});
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    CompositePredictor c(std::move(comps),
                         ChoosePolicy::WeightedThreshold, 1.0);
    const auto m = c.predictMaybe(0x4000);
    EXPECT_TRUE(m.valid);
    EXPECT_TRUE(m.taken); // +3 - 1 - 1 = +1 >= 1
}

TEST(Chooser, ConfidenceFilteredNeedsConfidentComponents)
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    CompositePredictor c(std::move(comps),
                         ChoosePolicy::ConfidenceFiltered,
                         /*threshold=*/1.0, /*conf_cutoff=*/0.9);
    // Untrained counter at 0 is fully confident not-taken (distance
    // from threshold is max), so it votes; after one taken update the
    // counter sits at 1 (weakly not-taken) with low confidence and is
    // filtered out.
    c.update(0x4000, true);
    const auto m = c.predictMaybe(0x4000);
    EXPECT_FALSE(m.valid);
}

TEST(Chooser, NameAndStorageAggregate)
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<BimodalPredictor>(256), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(8), 2.0});
    CompositePredictor c(std::move(comps), ChoosePolicy::Majority);
    EXPECT_EQ(c.name(), "bimodal+2*gshare");
    EXPECT_EQ(c.storageBits(), 256u * 2 + (256u * 2 + 8));
    EXPECT_EQ(c.numComponents(), 2u);
}

} // namespace
} // namespace lrs
