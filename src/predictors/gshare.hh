/**
 * @file
 * Gshare predictor [Mcfa93]: a PHT of saturating counters indexed by
 * the xor of global outcome history and the PC. Used as a hit-miss
 * component ("history length of 11 loads") and in the bank-predictor
 * composites.
 */

#ifndef LRS_PREDICTORS_GSHARE_HH
#define LRS_PREDICTORS_GSHARE_HH

#include <vector>

#include "common/bitutils.hh"
#include "common/sat_counter.hh"
#include "predictors/binary.hh"

namespace lrs
{

class GsharePredictor : public BinaryPredictor
{
  public:
    /**
     * @param history_bits global history length; the PHT has
     *        2^history_bits counters
     */
    /**
     * @param initial initial counter value; a weakly-taken bias
     *        (e.g. 2 for 2-bit counters) suits branch streams, while 0
     *        (not-taken = hit / non-colliding) suits the load
     *        adaptations.
     */
    explicit GsharePredictor(unsigned history_bits = 11,
                             unsigned counter_bits = 2,
                             std::uint8_t initial = 0)
        : histBits_((checkGshareParams(history_bits), history_bits)),
          pht_(std::size_t{1} << history_bits,
               SatCounter(counter_bits, initial))
    {
    }

    Prediction
    predict(Addr pc) const override
    {
        const auto &c = pht_[index(pc)];
        return {c.predict(), c.confidence()};
    }

    bool
    taken(Addr pc) const override
    {
        return pht_[index(pc)].predict();
    }

    void
    update(Addr pc, bool taken) override
    {
        pht_[index(pc)].update(taken);
        ghist_ = ((ghist_ << 1) | (taken ? 1 : 0)) & mask(histBits_);
    }

    std::size_t
    storageBits() const override
    {
        return pht_.size() * 2 + histBits_;
    }

    std::string name() const override { return "gshare"; }

    void
    walkState(stateio::Archive &a) override
    {
        a("ghist", ghist_, 0, mask(histBits_));
        a.counters("pht", pht_);
    }

  private:
    /** PHT size is 2^history_bits; cap it before the allocation. */
    static void
    checkGshareParams(unsigned history_bits)
    {
        if (history_bits < 1 || history_bits > 24) {
            throwConfig("pred.gshare", "history_bits",
                        "history length must be 1..24 (got " +
                            std::to_string(history_bits) + ")");
        }
    }

    std::size_t
    index(Addr pc) const
    {
        return (foldXor(pc >> 1, histBits_) ^ ghist_) & mask(histBits_);
    }

    unsigned histBits_;
    std::uint64_t ghist_ = 0;
    std::vector<SatCounter> pht_;
};

} // namespace lrs

#endif // LRS_PREDICTORS_GSHARE_HH
