#include "predictors/bank_pred.hh"

#include <vector>

#include "common/bitutils.hh"
#include "common/diag.hh"
#include "predictors/addr_pred.hh"
#include "predictors/bimodal.hh"
#include "predictors/chooser.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/local.hh"

namespace lrs
{

namespace
{

/** One bank-ID bit's composite under the recipe of @p kind. */
std::unique_ptr<CompositePredictor>
bankComposite(BankPredKind kind)
{
    // Paper: local - 512 entries (untagged), 8-bit history (0.5KB).
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({std::make_unique<LocalPredictor>(512, 8), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(11),
                     kind == BankPredKind::C ? 2.0 : 1.0});
    if (kind == BankPredKind::B)
        comps.push_back({std::make_unique<BimodalPredictor>(2048), 1.0});
    else
        comps.push_back(
            {std::make_unique<GskewPredictor>(1024, 17), 1.0});
    // A and B predict only when all three components agree; C's
    // gshare-weighted vote clears a lower bar, so it predicts more
    // often at somewhat lower accuracy.
    return std::make_unique<CompositePredictor>(
        std::move(comps), ChoosePolicy::WeightedThreshold,
        kind == BankPredKind::C ? 2.0 : 3.0);
}

/** Predictors A, B and C: one binary composite per bank-ID bit. */
class CompositeBankPredictor final : public BankPredictor
{
  public:
    CompositeBankPredictor(BankPredKind kind, unsigned num_banks,
                           unsigned line_bytes)
        : BankPredictor(num_banks, line_bytes),
          name_(kind == BankPredKind::A   ? "A"
                : kind == BankPredKind::B ? "B"
                                          : "C")
    {
        for (unsigned b = 0; b < floorLog2(num_banks); ++b)
            bits_.push_back(bankComposite(kind));
    }

    Prediction
    predict(Addr pc) const override
    {
        unsigned bank = 0;
        for (std::size_t b = 0; b < bits_.size(); ++b) {
            const auto m = bits_[b]->predictMaybe(pc);
            if (!m.valid) {
                // One undecided bit is enough to withhold the whole
                // prediction (the load is replicated).
                return {false, 0};
            }
            bank |= (m.taken ? 1u : 0u) << b;
        }
        return {true, bank};
    }

    void
    update(Addr pc, Addr addr) override
    {
        const unsigned bank = bankOf(addr);
        for (std::size_t b = 0; b < bits_.size(); ++b)
            bits_[b]->update(pc, ((bank >> b) & 1u) != 0);
    }

    std::size_t
    storageBits() const override
    {
        std::size_t total = 0;
        for (const auto &b : bits_)
            total += b->storageBits();
        return total;
    }

    std::string name() const override { return name_; }

    void
    walkState(stateio::Archive &a) override
    {
        // Bit 0 keeps the key the two-bank predictor has always used,
        // so a machine with more banks cannot read a fewer-bank state.
        for (std::size_t b = 0; b < bits_.size(); ++b) {
            a.component(b == 0 ? "composite"
                               : "composite" + std::to_string(b),
                        *bits_[b]);
        }
    }

  private:
    std::string name_;
    std::vector<std::unique_ptr<CompositePredictor>> bits_;
};

/**
 * Bank predictor derived from the stride load-address predictor: the
 * predicted bank is the bank of the predicted effective address.
 */
class AddressBankPredictor final : public BankPredictor
{
  public:
    using BankPredictor::BankPredictor;

    Prediction
    predict(Addr pc) const override
    {
        const auto p = ap_.predict(pc);
        if (!p.valid)
            return {false, 0};
        return {true, bankOf(p.addr)};
    }

    void update(Addr pc, Addr addr) override { ap_.update(pc, addr); }

    std::size_t storageBits() const override
    {
        return ap_.storageBits();
    }

    std::string name() const override { return "addr"; }

    void
    walkState(stateio::Archive &a) override
    {
        a.component("ap", ap_);
    }

  private:
    LoadAddressPredictor ap_{1024};
};

} // namespace

std::unique_ptr<BankPredictor>
makeBankPredictor(BankPredKind kind, unsigned num_banks,
                  unsigned line_bytes)
{
    if (num_banks == 0 || !isPowerOf2(num_banks)) {
        throwConfig("pred.bank", "num_banks",
                    "bank predictor needs a power-of-two bank count "
                    "(got " + std::to_string(num_banks) + ")");
    }
    switch (kind) {
      case BankPredKind::A:
      case BankPredKind::B:
      case BankPredKind::C:
        return std::make_unique<CompositeBankPredictor>(
            kind, num_banks, line_bytes);
      case BankPredKind::Addr:
        return std::make_unique<AddressBankPredictor>(num_banks,
                                                      line_bytes);
      case BankPredKind::None:
        break;
    }
    return nullptr;
}

double
bankMetric(double prediction_rate, double ratio_r, double penalty)
{
    if (ratio_r <= 0.0)
        return 0.0;
    const double gain_per_load = prediction_rate *
                                 (0.5 * ratio_r + 1.0 - penalty) /
                                 (ratio_r + 1.0);
    return gain_per_load / 0.5;
}

} // namespace lrs
