/**
 * @file
 * Load address predictor, a simplified stride-based version of the
 * correlated load-address predictor of [Beke99] that the paper adapts
 * for bank prediction ("an address predictor is obviously extremely
 * well suited to be adapted for bank prediction, since the bank is
 * based solely on the load's effective address").
 *
 * Per static load: last address, current stride, and a confidence
 * counter. A prediction (last + stride) is offered only when the
 * stride has repeated, which is what gives the address-based bank
 * predictor its high accuracy at a high prediction rate.
 */

#ifndef LRS_PREDICTORS_ADDR_PRED_HH
#define LRS_PREDICTORS_ADDR_PRED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace lrs
{

class LoadAddressPredictor
{
  public:
    struct Prediction
    {
        bool valid;
        Addr addr;
        /** The learned stride (0 for same-address loads). */
        std::int64_t stride;
        double confidence;
    };

    /**
     * @param entries table entries (power of two)
     * @param conf_bits width of the per-entry confidence counter
     * @param conf_threshold counter value needed to emit a prediction
     */
    explicit LoadAddressPredictor(std::size_t entries = 1024,
                                  unsigned conf_bits = 2,
                                  unsigned conf_threshold = 2);

    /** Predict the next effective address of the load at @p pc. */
    Prediction predict(Addr pc) const;

    /** Train with the actual effective address. */
    void update(Addr pc, Addr addr);

    std::size_t storageBits() const;
    std::string name() const { return "stride-addr"; }

    /** Machine-snapshot support: every table entry, exactly. */
    void walkState(stateio::Archive &a);

  private:
    struct Entry
    {
        std::uint32_t tag = 0;
        bool valid = false;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t conf = 0;
    };

    std::size_t index(Addr pc) const
    {
        return foldXor(pc >> 1, idxBits_) & mask(idxBits_);
    }

    std::uint32_t tagOf(Addr pc) const
    {
        return static_cast<std::uint32_t>((pc >> (1 + idxBits_)) &
                                          mask(12));
    }

    unsigned idxBits_;
    std::uint8_t confMax_;
    std::uint8_t confThreshold_;
    std::vector<Entry> table_;
};

} // namespace lrs

#endif // LRS_PREDICTORS_ADDR_PRED_HH
