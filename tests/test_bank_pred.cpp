/**
 * @file
 * Unit tests for the bank predictors and the paper's section-4.3
 * evaluation metric.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/diag.hh"
#include "common/random.hh"
#include "predictors/bank_pred.hh"

namespace lrs
{
namespace
{

TEST(BankMetric, PerfectPredictorScoresOneAtZeroPenalty)
{
    // P=1, R->inf, penalty 0: metric -> 2 * 0.5*R/(R+1) -> 1.
    EXPECT_NEAR(bankMetric(1.0, 1e9, 0.0), 1.0, 1e-6);
}

TEST(BankMetric, NoPredictionsScoreZero)
{
    EXPECT_DOUBLE_EQ(bankMetric(0.0, 10.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(bankMetric(0.5, 0.0, 0.0), 0.0);
}

TEST(BankMetric, MatchesClosedForm)
{
    // Metric = P * (0.5R + 1 - pen) / (R+1) / 0.5.
    const double P = 0.7, R = 32.0, pen = 4.0;
    const double expect = P * (0.5 * R + 1 - pen) / (R + 1) / 0.5;
    EXPECT_NEAR(bankMetric(P, R, pen), expect, 1e-12);
}

TEST(BankMetric, DecreasesWithPenalty)
{
    const double m0 = bankMetric(0.7, 30, 0);
    const double m4 = bankMetric(0.7, 30, 4);
    const double m8 = bankMetric(0.7, 30, 8);
    EXPECT_GT(m0, m4);
    EXPECT_GT(m4, m8);
}

TEST(BankMetric, AccuratePredictorDegradesSlower)
{
    // Paper: "a small penalty means we must choose a predictor with a
    // high prediction rate, even if it is less accurate; a higher
    // penalty calls for a more accurate predictor."
    const double rate_heavy_0 = bankMetric(0.9, 10, 0);   // 90%/~91%
    const double acc_heavy_0 = bankMetric(0.6, 100, 0);   // 60%/~99%
    EXPECT_GT(rate_heavy_0, acc_heavy_0);
    const double rate_heavy_8 = bankMetric(0.9, 10, 8);
    const double acc_heavy_8 = bankMetric(0.6, 100, 8);
    EXPECT_LT(rate_heavy_8, acc_heavy_8);
}

/** Line-start address of @p bank on a 64-byte-line machine. */
Addr
bankAddr(unsigned bank)
{
    return 0x10000 + 64 * Addr{bank};
}

TEST(CompositeBankPredictor, LearnsAlternatingBanks)
{
    auto pred = makeBankPredictor(BankPredKind::C, 2, 64);
    // Strided load alternating banks 0,1,0,1... is a period-2
    // pattern; history components learn it.
    for (int i = 0; i < 200; ++i)
        pred->update(0x4000, bankAddr(i % 2));
    int correct = 0, predicted = 0;
    for (int i = 0; i < 100; ++i) {
        const auto p = pred->predict(0x4000);
        if (p.valid) {
            ++predicted;
            correct += p.bank == static_cast<unsigned>(i % 2);
        }
        pred->update(0x4000, bankAddr(i % 2));
    }
    EXPECT_GT(predicted, 80);
    EXPECT_GT(static_cast<double>(correct) / predicted, 0.95);
}

TEST(CompositeBankPredictor, UnanimityDeclinesOnRandomStream)
{
    auto pred = makeBankPredictor(BankPredKind::A, 2, 64);
    Rng rng(5);
    int predicted = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const unsigned bank = static_cast<unsigned>(rng.below(2));
        if (pred->predict(0x4000).valid)
            ++predicted;
        pred->update(0x4000, bankAddr(bank));
    }
    // On an unpredictable stream the unanimous composite should often
    // withhold its prediction.
    EXPECT_LT(static_cast<double>(predicted) / n, 0.8);
}

TEST(AddressBankPredictor, PredictsBankOfStridedStream)
{
    auto pred = makeBankPredictor(BankPredKind::Addr, 2, 64);
    Addr a = 0x10000;
    for (int i = 0; i < 8; ++i) {
        pred->update(0x4000, a);
        a += 64;
    }
    const auto p = pred->predict(0x4000);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.bank, static_cast<unsigned>((a / 64) % 2));
}

TEST(AddressBankPredictor, StaysWithinOneBankForSmallStride)
{
    auto pred = makeBankPredictor(BankPredKind::Addr, 2, 64);
    // Stride 8 within one line: bank stays put for 8 accesses.
    Addr a = 0x10000;
    for (int i = 0; i < 6; ++i) {
        pred->update(0x4000, a);
        a += 8;
    }
    const auto p = pred->predict(0x4000);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.bank, 0u);
}

TEST(AddressBankPredictor, DeclinesOnIrregularStream)
{
    auto pred = makeBankPredictor(BankPredKind::Addr, 2, 64);
    Rng rng(17);
    for (int i = 0; i < 64; ++i)
        pred->update(0x4000, 0x10000 + rng.below(4096) * 16);
    EXPECT_FALSE(pred->predict(0x4000).valid);
}

TEST(BankFactories, PaperBudgetsAndNames)
{
    // Paper: local 0.5KB, gshare 0.5KB, gskew 0.75KB -> composites
    // stay under ~2.5KB.
    for (const auto &[kind, name] :
         {std::pair{BankPredKind::A, "A"}, std::pair{BankPredKind::B, "B"},
          std::pair{BankPredKind::C, "C"}}) {
        const auto pred = makeBankPredictor(kind, 2, 64);
        EXPECT_EQ(pred->name(), name);
        EXPECT_LE(pred->storageBits(), 8u * 4096);
    }
    EXPECT_EQ(makeBankPredictor(BankPredKind::None, 2, 64), nullptr);
    EXPECT_THROW(makeBankPredictor(BankPredKind::A, 3, 64), ConfigError);
}

TEST(BankPredictorState, WalkRoundTripsEveryKind)
{
    // A trained predictor restored through its state walk must predict
    // and re-save identically; a walk over another geometry must be
    // refused rather than misread.
    for (const BankPredKind kind :
         {BankPredKind::A, BankPredKind::B, BankPredKind::C,
          BankPredKind::Addr}) {
        for (const unsigned banks : {1u, 2u, 4u, 8u}) {
            auto trained = makeBankPredictor(kind, banks, 64);
            Rng rng(11);
            for (int i = 0; i < 3000; ++i) {
                trained->update(0x4000 + rng.below(64) * 4,
                                0x10000 + rng.below(512) * 64);
            }
            const json::Value st = stateio::save(*trained);
            auto back = makeBankPredictor(kind, banks, 64);
            stateio::load(*back, st);
            EXPECT_EQ(stateio::save(*back).dump(0), st.dump(0))
                << trained->name() << " " << banks;
            for (Addr pc = 0x4000; pc < 0x4100; pc += 4) {
                const auto a = trained->predict(pc);
                const auto b = back->predict(pc);
                EXPECT_EQ(a.valid, b.valid) << trained->name();
                EXPECT_EQ(a.bank, b.bank) << trained->name();
                EXPECT_LT(a.bank, banks) << trained->name();
            }
        }
    }
    auto eight = makeBankPredictor(BankPredKind::A, 8, 64);
    EXPECT_THROW(stateio::load(*eight,
                               stateio::save(*makeBankPredictor(
                                   BankPredKind::A, 4, 64))),
                 ConfigError);
}

} // namespace
} // namespace lrs
