/**
 * @file
 * Cache-bank predictors (paper sections 2.3 and 4.3).
 *
 * With two banks the bank bit is a binary prediction; the paper's
 * evaluated configurations are composites of binary components under a
 * chooser policy, plus one based on the load-address predictor:
 *
 *   Predictor A = local + gshare + gskew
 *   Predictor B = local + gshare + bimodal
 *   Predictor C = local + 2*gshare + gskew
 *   Addr        = stride address predictor
 *     (Local: 512 entries, 8-bit history; Gshare: 11-bit history;
 *      GSkew: 3 tables of 1024 entries, 17-bit history.)
 *
 * A bank predictor may *decline* to predict (low confidence); such
 * loads are replicated to all banks. The paper's evaluation metric
 * combining prediction rate P, correct/wrong ratio R and the
 * misprediction penalty is implemented by bankMetric().
 */

#ifndef LRS_PREDICTORS_BANK_PRED_HH
#define LRS_PREDICTORS_BANK_PRED_HH

#include <functional>
#include <memory>
#include <string>

#include "common/stats_registry.hh"
#include "predictors/addr_pred.hh"
#include "predictors/chooser.hh"

namespace lrs
{

/**
 * Predicts which of two cache banks a load will access.
 */
class BankPredictor
{
  public:
    virtual ~BankPredictor() = default;

    struct Prediction
    {
        bool valid;      ///< false = no prediction (replicate)
        unsigned bank;   ///< predicted bank, meaningful when valid
    };

    virtual Prediction predict(Addr pc) const = 0;

    /** Train with the actual bank. */
    virtual void update(Addr pc, unsigned bank) = 0;

    /**
     * Train with the full effective address (address-based
     * configurations need it; the default derives nothing more than
     * the bank).
     */
    virtual void
    updateAddr(Addr pc, Addr /*addr*/, unsigned bank)
    {
        update(pc, bank);
    }

    virtual std::size_t storageBits() const = 0;
    virtual std::string name() const = 0;

    /**
     * Register predictor-level stats under @p g (e.g. "pred.bank").
     * The base registers the hardware budget; subclasses may extend.
     * Outcome counts (mispredicts, replications) are scored by the
     * core, which registers them alongside.
     */
    virtual void
    registerStats(StatsGroup g)
    {
        g.derived("storage_bits", [this] {
            return static_cast<double>(storageBits());
        });
    }

    /**
     * Machine-snapshot support (common/state_io.hh). Default: nothing
     * to walk (no stateless bank predictor exists today, but the
     * interface mirrors HitMissPredictor's).
     */
    virtual void walkState(stateio::Archive & /*a*/) {}
};

/**
 * Bank predictor built from a binary composite (2 banks: taken maps
 * to bank 1).
 */
class BinaryBankPredictor : public BankPredictor
{
  public:
    BinaryBankPredictor(std::string name,
                        std::unique_ptr<CompositePredictor> composite)
        : name_(std::move(name)), composite_(std::move(composite))
    {
    }

    Prediction
    predict(Addr pc) const override
    {
        const auto m = composite_->predictMaybe(pc);
        return {m.valid, m.taken ? 1u : 0u};
    }

    void
    update(Addr pc, unsigned bank) override
    {
        composite_->update(pc, bank != 0);
    }

    std::size_t storageBits() const override
    {
        return composite_->storageBits();
    }

    std::string name() const override { return name_; }

    void
    walkState(stateio::Archive &a) override
    {
        a.component("composite", *composite_);
    }

  private:
    std::string name_;
    std::unique_ptr<CompositePredictor> composite_;
};

/**
 * Bank predictor derived from the stride load-address predictor: the
 * predicted bank is the bank of the predicted effective address.
 */
class AddressBankPredictor : public BankPredictor
{
  public:
    /**
     * @param line_bytes cache line size (bank interleave granularity)
     * @param num_banks number of banks (power of two)
     */
    explicit AddressBankPredictor(unsigned line_bytes = 64,
                                  unsigned num_banks = 2,
                                  std::size_t entries = 1024)
        : lineBytes_(line_bytes), numBanks_(num_banks), ap_(entries)
    {
    }

    Prediction
    predict(Addr pc) const override
    {
        const auto p = ap_.predict(pc);
        if (!p.valid)
            return {false, 0};
        const unsigned bank =
            static_cast<unsigned>(p.addr / lineBytes_) % numBanks_;
        return {true, bank};
    }

    void
    update(Addr /*pc*/, unsigned /*bank*/) override
    {
        // Needs the full address, not just the bank; use updateAddr().
    }

    void
    updateAddr(Addr pc, Addr addr, unsigned /*bank*/) override
    {
        ap_.update(pc, addr);
    }

    /** Train with the actual effective address. */
    void updateAddr(Addr pc, Addr addr) { ap_.update(pc, addr); }

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
    unsigned lineBytes_;
    unsigned numBanks_;
    LoadAddressPredictor ap_;
};

/**
 * Bank predictor for more than two banks, built the way section 2.3
 * proposes scaling binary prediction: "each bit of the bank ID can be
 * independently predicted and assigned a confidence rating. If the
 * confidence level of a particular bit is low, the load will be sent
 * to both banks". One binary composite per bank-ID bit; the combined
 * prediction is withheld if any bit's composite declines.
 */
class PerBitBankPredictor : public BankPredictor
{
  public:
    /**
     * @param num_banks power-of-two bank count
     * @param make_bit factory for the per-bit binary composite
     */
    PerBitBankPredictor(
        unsigned num_banks,
        const std::function<std::unique_ptr<CompositePredictor>()>
            &make_bit);

    Prediction predict(Addr pc) const override;
    void update(Addr pc, unsigned bank) override;
    std::size_t storageBits() const override;
    std::string name() const override;

    void walkState(stateio::Archive &a) override;

    unsigned numBanks() const { return numBanks_; }

  private:
    unsigned numBanks_;
    std::vector<std::unique_ptr<CompositePredictor>> bits_;
};

/** A PerBitBankPredictor using predictor-A-style composites per bit. */
std::unique_ptr<PerBitBankPredictor>
makePerBitBankPredictor(unsigned num_banks);

/** Paper predictor A: local + gshare + gskew (unanimity). */
std::unique_ptr<BankPredictor> makeBankPredictorA();
/** Paper predictor B: local + gshare + bimodal (unanimity). */
std::unique_ptr<BankPredictor> makeBankPredictorB();
/** Paper predictor C: local + 2*gshare + gskew (weighted threshold). */
std::unique_ptr<BankPredictor> makeBankPredictorC();
/** The address-predictor-based bank predictor. */
std::unique_ptr<AddressBankPredictor> makeAddressBankPredictor();

/**
 * The paper's bank-predictor quality metric (section 4.3):
 *   Metric = GainPerLoad / IdealGain
 *          = P * (0.5*R + 1 - Penalty) / (R + 1) / 0.5
 * where P is the prediction rate, R the correct:wrong prediction
 * ratio, and Penalty the per-misprediction cost in load-units. A
 * perfect dual-ported cache scores 1.
 */
double bankMetric(double prediction_rate, double ratio_r,
                  double penalty);

} // namespace lrs

#endif // LRS_PREDICTORS_BANK_PRED_HH
