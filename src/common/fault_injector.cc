#include "common/fault_injector.hh"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parse.hh"

namespace lrs
{

namespace
{

double
envRate(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    double d = fallback;
    if (v)
        tryParseRate(v, d); // a bad value leaves the fallback
    return d;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    // Strict base-10 only: the old strtoull(.., 0) path accepted
    // "-1" (wrapping to 2^64-1) and clamped out-of-range input to
    // ULLONG_MAX without any errno check. Bad overrides now warn and
    // keep the fallback instead of silently injecting with a
    // nonsense seed or latency bound.
    std::uint64_t n = 0;
    if (!tryParseU64(v, n)) {
        std::fprintf(stderr,
                     "lrs: ignoring %s='%s' (want a base-10 unsigned "
                     "64-bit integer); using %llu\n",
                     name, v,
                     static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return n;
}

} // namespace

FaultConfig
FaultConfig::fromEnv()
{
    FaultConfig cfg;
    cfg.seed = envU64("LRS_FAULT_SEED", cfg.seed);
    cfg.traceRate = envRate("LRS_FAULT_TRACE_RATE", cfg.traceRate);
    cfg.bitRate = envRate("LRS_FAULT_BIT_RATE", cfg.bitRate);
    cfg.latRate = envRate("LRS_FAULT_LAT_RATE", cfg.latRate);
    cfg.maxLatencyDelta =
        envU64("LRS_FAULT_LAT_MAX", cfg.maxLatencyDelta);
    if (cfg.maxLatencyDelta == 0)
        cfg.maxLatencyDelta = 1;
    return cfg;
}

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

void
FaultInjector::registerStats(StatsGroup g)
{
    g.bindCounter("trace_records_corrupted", &traceFaults_);
    g.bindCounter("predictor_bit_flips", &bitFlips_);
    g.bindCounter("latency_perturbs", &latencyPerturbs_);
    g.derived("trace_rate", [this] { return cfg_.traceRate; });
    g.derived("bit_rate", [this] { return cfg_.bitRate; });
    g.derived("lat_rate", [this] { return cfg_.latRate; });
}

} // namespace lrs
