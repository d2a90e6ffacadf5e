#include "predictors/bank_pred.hh"

#include "common/bitutils.hh"
#include "common/diag.hh"
#include "predictors/bimodal.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/local.hh"

namespace lrs
{

namespace
{

std::unique_ptr<LocalPredictor>
bankLocal()
{
    // Paper: local - 512 entries (untagged), 8-bit history (0.5KB).
    return std::make_unique<LocalPredictor>(512, 8);
}

} // namespace

std::unique_ptr<BankPredictor>
makeBankPredictorA()
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({bankLocal(), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(11), 1.0});
    comps.push_back({std::make_unique<GskewPredictor>(1024, 17), 1.0});
    // Unanimity: predict only when all three components agree.
    auto comp = std::make_unique<CompositePredictor>(
        std::move(comps), ChoosePolicy::WeightedThreshold, 3.0);
    return std::make_unique<BinaryBankPredictor>("A", std::move(comp));
}

std::unique_ptr<BankPredictor>
makeBankPredictorB()
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({bankLocal(), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(11), 1.0});
    comps.push_back({std::make_unique<BimodalPredictor>(2048), 1.0});
    auto comp = std::make_unique<CompositePredictor>(
        std::move(comps), ChoosePolicy::WeightedThreshold, 3.0);
    return std::make_unique<BinaryBankPredictor>("B", std::move(comp));
}

std::unique_ptr<BankPredictor>
makeBankPredictorC()
{
    std::vector<CompositePredictor::Component> comps;
    comps.push_back({bankLocal(), 1.0});
    comps.push_back({std::make_unique<GsharePredictor>(11), 2.0});
    comps.push_back({std::make_unique<GskewPredictor>(1024, 17), 1.0});
    // Gshare-weighted vote with a lower bar than unanimity: predicts
    // more often than A at somewhat lower accuracy.
    auto comp = std::make_unique<CompositePredictor>(
        std::move(comps), ChoosePolicy::WeightedThreshold, 2.0);
    return std::make_unique<BinaryBankPredictor>("C", std::move(comp));
}

std::unique_ptr<AddressBankPredictor>
makeAddressBankPredictor()
{
    return std::make_unique<AddressBankPredictor>(64, 2, 1024);
}

PerBitBankPredictor::PerBitBankPredictor(
    unsigned num_banks,
    const std::function<std::unique_ptr<CompositePredictor>()>
        &make_bit)
    : numBanks_(num_banks)
{
    if (num_banks < 2 || !isPowerOf2(num_banks)) {
        throwConfig("pred.bank", "num_banks",
                    "per-bit bank predictor needs a power-of-two bank "
                    "count >= 2 (got " +
                        std::to_string(num_banks) + ")");
    }
    const unsigned bits = floorLog2(num_banks);
    bits_.reserve(bits);
    for (unsigned b = 0; b < bits; ++b)
        bits_.push_back(make_bit());
}

BankPredictor::Prediction
PerBitBankPredictor::predict(Addr pc) const
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
PerBitBankPredictor::update(Addr pc, unsigned bank)
{
    for (std::size_t b = 0; b < bits_.size(); ++b)
        bits_[b]->update(pc, ((bank >> b) & 1u) != 0);
}

std::size_t
PerBitBankPredictor::storageBits() const
{
    std::size_t total = 0;
    for (const auto &b : bits_)
        total += b->storageBits();
    return total;
}

std::string
PerBitBankPredictor::name() const
{
    return "perbit-" + std::to_string(numBanks_) + "banks";
}

void
PerBitBankPredictor::walkState(stateio::Archive &a)
{
    a.sections("bits", bits_.size(),
               [this](std::size_t b, stateio::Archive &sub) {
                   bits_[b]->walkState(sub);
               });
}

std::unique_ptr<PerBitBankPredictor>
makePerBitBankPredictor(unsigned num_banks)
{
    return std::make_unique<PerBitBankPredictor>(num_banks, [] {
        std::vector<CompositePredictor::Component> comps;
        comps.push_back({bankLocal(), 1.0});
        comps.push_back({std::make_unique<GsharePredictor>(11), 1.0});
        comps.push_back(
            {std::make_unique<GskewPredictor>(1024, 17), 1.0});
        return std::make_unique<CompositePredictor>(
            std::move(comps), ChoosePolicy::WeightedThreshold, 3.0);
    });
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
