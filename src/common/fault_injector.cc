#include "common/fault_injector.hh"

namespace lrs
{

bool
FaultInjector::corruptRecord(std::uint8_t *record, std::size_t size)
{
    if (size == 0 || cfg_.traceRate <= 0.0 ||
        !rng_.chance(cfg_.traceRate)) {
        return false;
    }
    // 1..3 byte sites, random values. A same-value rewrite is
    // possible and fine: the *rate* stats count corruption attempts,
    // the reader's stats count what it actually had to skip.
    const std::size_t sites =
        1 + static_cast<std::size_t>(rng_.below(3));
    for (std::size_t i = 0; i < sites; ++i) {
        record[rng_.below(size)] =
            static_cast<std::uint8_t>(rng_.next());
    }
    ++traceFaults_;
    return true;
}

std::size_t
FaultInjector::corruptBuffer(std::uint8_t *data, std::size_t size,
                             std::size_t protect_prefix,
                             std::size_t record_bytes)
{
    if (record_bytes == 0 || size <= protect_prefix)
        return 0;
    std::size_t corrupted = 0;
    for (std::size_t off = protect_prefix;
         off + record_bytes <= size; off += record_bytes) {
        if (corruptRecord(data + off, record_bytes))
            ++corrupted;
    }
    return corrupted;
}

json::Value
FaultInjector::statsJson() const
{
    json::Value v = json::Value::object();
    v.set("trace_records_corrupted", traceFaults_);
    v.set("predictor_bit_flips", bitFlips_);
    v.set("latency_perturbs", latencyPerturbs_);
    v.set("trace_rate", cfg_.traceRate);
    v.set("bit_rate", cfg_.bitRate);
    v.set("lat_rate", cfg_.latRate);
    return v;
}

} // namespace lrs
