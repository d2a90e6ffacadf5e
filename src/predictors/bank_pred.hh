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
 * Section 2.3 scales binary prediction beyond two banks: "each bit of
 * the bank ID can be independently predicted and assigned a confidence
 * rating. If the confidence level of a particular bit is low, the load
 * will be sent to both banks". A, B and C therefore run one composite
 * per bank-ID bit, and the prediction is withheld if any bit's
 * composite declines; a one-bank machine has no bits and always names
 * bank 0. The address predictor names the bank of the predicted
 * address at any bank count.
 *
 * A bank predictor may *decline* to predict (low confidence); such
 * loads are replicated to all banks. The paper's evaluation metric
 * combining prediction rate P, correct/wrong ratio R and the
 * misprediction penalty is implemented by bankMetric().
 */

#ifndef LRS_PREDICTORS_BANK_PRED_HH
#define LRS_PREDICTORS_BANK_PRED_HH

#include <memory>
#include <string>

#include "common/state_io.hh"
#include "common/stats_registry.hh"
#include "common/types.hh"

namespace lrs
{

/** Which bank predictor the machine uses (section 4.3 configs). */
enum class BankPredKind
{
    None,
    A,    ///< local+gshare+gskew, unanimity
    B,    ///< local+gshare+bimodal, unanimity
    C,    ///< local+2*gshare+gskew, weighted
    Addr, ///< stride address predictor
};

/**
 * Predicts which cache bank a load will access. The predictor knows
 * the machine's bank geometry, so it trains on effective addresses.
 */
class BankPredictor
{
  public:
    BankPredictor(unsigned num_banks, unsigned line_bytes)
        : numBanks_(num_banks), lineBytes_(line_bytes)
    {
    }

    virtual ~BankPredictor() = default;

    struct Prediction
    {
        bool valid;      ///< false = no prediction (replicate)
        unsigned bank;   ///< predicted bank, meaningful when valid
    };

    virtual Prediction predict(Addr pc) const = 0;

    /** Train with the load's actual effective address. */
    virtual void update(Addr pc, Addr addr) = 0;

    virtual std::size_t storageBits() const = 0;
    virtual std::string name() const = 0;

    unsigned numBanks() const { return numBanks_; }

    /** The bank @p addr lies in under this predictor's geometry. */
    unsigned bankOf(Addr addr) const
    {
        return bankOfAddr(addr, lineBytes_, numBanks_);
    }

    /**
     * Register predictor-level stats under @p g (e.g. "pred.bank"):
     * the hardware budget. Outcome counts (mispredicts, replications)
     * are scored by the core, which registers them alongside.
     */
    void
    registerStats(StatsGroup g)
    {
        g.derived("storage_bits", [this] {
            return static_cast<double>(storageBits());
        });
    }

    /** Machine-snapshot support (common/state_io.hh). */
    virtual void walkState(stateio::Archive &a) = 0;

  private:
    unsigned numBanks_;
    unsigned lineBytes_;
};

/**
 * Build the bank predictor @p kind for @p num_banks banks (a power of
 * two) interleaved by @p line_bytes lines; null for None.
 *
 * @throws ConfigError when @p num_banks is not a power of two.
 */
std::unique_ptr<BankPredictor>
makeBankPredictor(BankPredKind kind, unsigned num_banks,
                  unsigned line_bytes);

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
