/**
 * @file
 * Enhanced-skewed (gskew) predictor [Mich97]: three counter banks
 * indexed by decorrelated hashes of (PC, global history); the
 * prediction is the majority of the three banks. Trades conflict
 * aliasing for capacity aliasing exactly as the paper's hit-miss and
 * bank composites require ("each table has 1K entries, and the hash
 * functions operate on a history of 20 loads").
 */

#ifndef LRS_PREDICTORS_GSKEW_HH
#define LRS_PREDICTORS_GSKEW_HH

#include <array>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/sat_counter.hh"
#include "predictors/binary.hh"

namespace lrs
{

class GskewPredictor : public BinaryPredictor
{
  public:
    /**
     * @param table_entries counters per bank (power of two)
     * @param history_bits global history folded into the hashes
     */
    explicit GskewPredictor(std::size_t table_entries = 1024,
                            unsigned history_bits = 20,
                            unsigned counter_bits = 2)
        : idxBits_(floorLog2(table_entries)), histBits_(history_bits)
    {
        if (!isPowerOf2(table_entries)) {
            throwConfig("pred.gskew", "table_entries",
                        "bank size must be a power of two (got " +
                            std::to_string(table_entries) + ")");
        }
        for (auto &t : banks_)
            t.assign(table_entries, SatCounter(counter_bits));
    }

    Prediction
    predict(Addr pc) const override
    {
        int votes = 0;
        double conf = 0.0;
        for (unsigned b = 0; b < 3; ++b) {
            const auto &c = banks_[b][index(pc, b)];
            votes += c.predict() ? 1 : -1;
            conf += c.confidence();
        }
        return {votes > 0, conf / 3.0};
    }

    bool
    taken(Addr pc) const override
    {
        int votes = 0;
        for (unsigned b = 0; b < 3; ++b)
            votes += banks_[b][index(pc, b)].predict() ? 1 : -1;
        return votes > 0;
    }

    void
    update(Addr pc, bool taken) override
    {
        for (unsigned b = 0; b < 3; ++b)
            banks_[b][index(pc, b)].update(taken);
        ghist_ = ((ghist_ << 1) | (taken ? 1 : 0)) & mask(histBits_);
    }

    std::size_t
    storageBits() const override
    {
        return 3 * banks_[0].size() * 2 + histBits_;
    }

    std::string name() const override { return "gskew"; }

    void
    walkState(stateio::Archive &a) override
    {
        a("ghist", ghist_, 0, mask(histBits_));
        for (std::size_t b = 0; b < banks_.size(); ++b)
            a.counters("bank" + std::to_string(b), banks_[b]);
    }

  private:
    std::size_t
    index(Addr pc, unsigned bank) const
    {
        const std::uint64_t h =
            mix64((pc >> 1) * 0x9e3779b97f4a7c15ULL + bank * 0x7f4a7c15 +
                  (ghist_ << 3));
        return h & mask(idxBits_);
    }

    unsigned idxBits_;
    unsigned histBits_;
    std::uint64_t ghist_ = 0;
    std::array<std::vector<SatCounter>, 3> banks_;
};

} // namespace lrs

#endif // LRS_PREDICTORS_GSKEW_HH
