/**
 * @file
 * Bimodal predictor: a tagless, direct-mapped table of saturating
 * counters indexed by (folded) PC. The simplest history-free component
 * used in the paper's bank-predictor composites.
 */

#ifndef LRS_PREDICTORS_BIMODAL_HH
#define LRS_PREDICTORS_BIMODAL_HH

#include <vector>

#include "common/bitutils.hh"
#include "common/sat_counter.hh"
#include "predictors/binary.hh"

namespace lrs
{

class BimodalPredictor : public BinaryPredictor
{
  public:
    /**
     * @param entries number of counters (power of two)
     * @param counter_bits counter width
     */
    explicit BimodalPredictor(std::size_t entries = 2048,
                              unsigned counter_bits = 2)
        : indexBits_(floorLog2(entries)),
          table_(entries, SatCounter(counter_bits))
    {
        if (!isPowerOf2(entries)) {
            throwConfig("pred.bimodal", "entries",
                        "table size must be a power of two (got " +
                            std::to_string(entries) + ")");
        }
    }

    Prediction
    predict(Addr pc) const override
    {
        const auto &c = table_[index(pc)];
        return {c.predict(), c.confidence()};
    }

    bool
    taken(Addr pc) const override
    {
        return table_[index(pc)].predict();
    }

    void
    update(Addr pc, bool taken) override
    {
        table_[index(pc)].update(taken);
    }

    std::size_t
    storageBits() const override
    {
        return table_.size() * 2;
    }

    std::string name() const override { return "bimodal"; }

    void
    walkState(stateio::Archive &a) override
    {
        a.counters("table", table_);
    }

  private:
    std::size_t index(Addr pc) const
    {
        return foldXor(pc >> 1, indexBits_) & mask(indexBits_);
    }

    unsigned indexBits_;
    std::vector<SatCounter> table_;
};

} // namespace lrs

#endif // LRS_PREDICTORS_BIMODAL_HH
