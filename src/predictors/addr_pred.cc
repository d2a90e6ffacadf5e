#include "predictors/addr_pred.hh"

#include "common/diag.hh"

namespace lrs
{

LoadAddressPredictor::LoadAddressPredictor(std::size_t entries,
                                           unsigned conf_bits,
                                           unsigned conf_threshold)
    : idxBits_(floorLog2(entries)),
      confMax_(static_cast<std::uint8_t>((1u << conf_bits) - 1)),
      confThreshold_(static_cast<std::uint8_t>(conf_threshold)),
      table_(entries)
{
    if (entries == 0 || !isPowerOf2(entries)) {
        throwConfig("pred.addr", "entries",
                    "table size must be a nonzero power of two (got " +
                        std::to_string(entries) + ")");
    }
    if (conf_bits < 1 || conf_bits > 7) {
        throwConfig("pred.addr", "conf_bits",
                    "confidence width must be 1..7 bits (got " +
                        std::to_string(conf_bits) + ")");
    }
    if (conf_threshold > confMax_) {
        throwConfig("pred.addr", "conf_threshold",
                    "threshold " + std::to_string(conf_threshold) +
                        " exceeds the " + std::to_string(conf_bits) +
                        "-bit confidence maximum " +
                        std::to_string(confMax_));
    }
}

LoadAddressPredictor::Prediction
LoadAddressPredictor::predict(Addr pc) const
{
    const Entry &e = table_[index(pc)];
    if (!e.valid || e.tag != tagOf(pc) || e.conf < confThreshold_)
        return {false, 0, 0, 0.0};
    return {true,
            static_cast<Addr>(static_cast<std::int64_t>(e.lastAddr) +
                              e.stride),
            e.stride, static_cast<double>(e.conf) / confMax_};
}

void
LoadAddressPredictor::update(Addr pc, Addr addr)
{
    Entry &e = table_[index(pc)];
    if (!e.valid || e.tag != tagOf(pc)) {
        e = Entry{};
        e.valid = true;
        e.tag = tagOf(pc);
        e.lastAddr = addr;
        e.stride = 0;
        e.conf = 0;
        return;
    }
    const std::int64_t observed =
        static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(e.lastAddr);
    if (observed == e.stride) {
        if (e.conf < confMax_)
            ++e.conf;
    } else {
        if (e.conf > 0) {
            --e.conf;
        } else {
            e.stride = observed;
        }
    }
    e.lastAddr = addr;
}

void
LoadAddressPredictor::walkState(stateio::Archive &a)
{
    a.rows("table", table_.size(),
           [this](std::size_t i, stateio::Row &r) {
               Entry &e = table_[i];
               r(e.tag)(e.valid)(e.lastAddr)(e.stride)(e.conf);
           });
}

std::size_t
LoadAddressPredictor::storageBits() const
{
    // tag(12) + last addr (32 stored) + stride (16) + conf(2)
    return table_.size() * (12 + 32 + 16 + 2);
}

} // namespace lrs
