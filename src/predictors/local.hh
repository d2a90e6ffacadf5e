/**
 * @file
 * Local (two-level, per-PC history) predictor.
 *
 * The paper's baseline hit-miss predictor is exactly this adaptation:
 * "instead of recording the taken/not-taken history of each branch, we
 * record the hit/miss history of each load ... a tagless table of 2048
 * entries and a history length of 8 (~2KBytes in size)" (section 2.2).
 */

#ifndef LRS_PREDICTORS_LOCAL_HH
#define LRS_PREDICTORS_LOCAL_HH

#include <vector>

#include "common/bitutils.hh"
#include "common/sat_counter.hh"
#include "predictors/binary.hh"

namespace lrs
{

class LocalPredictor : public BinaryPredictor
{
  public:
    /**
     * @param entries history-table entries (power of two)
     * @param history_bits per-PC history length
     * @param pht_pc_bits PC bits concatenated into the PHT index to
     *        reduce cross-load aliasing (0 = pure PAg)
     */
    explicit LocalPredictor(std::size_t entries = 2048,
                            unsigned history_bits = 8,
                            unsigned pht_pc_bits = 2,
                            unsigned counter_bits = 2)
        : htBits_((checkLocalParams(entries, history_bits, pht_pc_bits),
                   floorLog2(entries))),
          histBits_(history_bits),
          phtPcBits_(pht_pc_bits),
          histories_(entries, 0),
          pht_(std::size_t{1} << (history_bits + pht_pc_bits),
               SatCounter(counter_bits))
    {
    }

    Prediction
    predict(Addr pc) const override
    {
        const auto &c = pht_[phtIndex(pc)];
        return {c.predict(), c.confidence()};
    }

    bool
    taken(Addr pc) const override
    {
        return pht_[phtIndex(pc)].predict();
    }

    void
    update(Addr pc, bool taken) override
    {
        pht_[phtIndex(pc)].update(taken);
        auto &h = histories_[htIndex(pc)];
        h = ((h << 1) | (taken ? 1 : 0)) & mask(histBits_);
    }

    std::size_t
    storageBits() const override
    {
        return histories_.size() * histBits_ + pht_.size() * 2;
    }

    std::string name() const override { return "local"; }

    void
    walkState(stateio::Archive &a) override
    {
        a.ints("histories", histories_, 0, mask(histBits_));
        a.counters("pht", pht_);
    }

  private:
    /** The PHT is 2^(history+pc) entries; validate before allocating. */
    static void
    checkLocalParams(std::size_t entries, unsigned history_bits,
                     unsigned pht_pc_bits)
    {
        if (!isPowerOf2(entries)) {
            throwConfig("pred.local", "entries",
                        "history-table size must be a power of two "
                        "(got " +
                            std::to_string(entries) + ")");
        }
        if (history_bits + pht_pc_bits > 24) {
            throwConfig("pred.local", "history_bits",
                        "history + PC index bits must be <= 24 (got " +
                            std::to_string(history_bits) + " + " +
                            std::to_string(pht_pc_bits) + ")");
        }
    }

    std::size_t
    htIndex(Addr pc) const
    {
        return foldXor(pc >> 1, htBits_) & mask(htBits_);
    }

    std::size_t
    phtIndex(Addr pc) const
    {
        const std::uint64_t h = histories_[htIndex(pc)];
        const std::uint64_t pcb = foldXor(pc >> 1, phtPcBits_);
        return ((pcb << histBits_) | h) & mask(histBits_ + phtPcBits_);
    }

    unsigned htBits_;
    unsigned histBits_;
    unsigned phtPcBits_;
    std::vector<std::uint32_t> histories_;
    std::vector<SatCounter> pht_;
};

} // namespace lrs

#endif // LRS_PREDICTORS_LOCAL_HH
