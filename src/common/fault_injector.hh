/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * The simulator's failure handling is only trustworthy if it is
 * exercised: this component deliberately corrupts trace bytes, flips
 * predictor table bits, and perturbs memory latencies, under a single
 * seed, so that every fault scenario is bit-reproducible. The intended
 * contract for the rest of the system is *recover or fail loudly* —
 * an injected fault must never silently change a result without a
 * trail in the stats registry ("fault.*", "trace.*") or a thrown
 * diagnostic.
 *
 * The three fault classes map to the three trust boundaries:
 *  - trace bytes  (external input: must be survivable — see the
 *    TraceReader recovery mode),
 *  - predictor bits (internal *hint* state: corruption may change
 *    timing but must never change correctness),
 *  - latency perturbation (timing robustness: results must degrade
 *    gracefully, never hang or wedge the scheduler).
 */

#ifndef LRS_COMMON_FAULT_INJECTOR_HH
#define LRS_COMMON_FAULT_INJECTOR_HH

#include <cstddef>
#include <cstdint>

#include "common/random.hh"
#include "common/state_io.hh"
#include "common/stats_registry.hh"
#include "common/types.hh"

namespace lrs
{

/** What to inject, how often, under which seed. */
struct FaultConfig
{
    std::uint64_t seed = 0xfa0175ULL;

    /** Per-record probability of corrupting a trace record's bytes. */
    double traceRate = 0.0;
    /** Per-query probability that a predictor bit flip fires. */
    double bitRate = 0.0;
    /** Per-access probability of perturbing a memory latency. */
    double latRate = 0.0;
    /** Upper bound on added latency cycles (perturbation only adds —
     *  shrinking a latency could move data readiness into the past). */
    Cycle maxLatencyDelta = 16;

    bool
    enabled() const
    {
        return traceRate > 0.0 || bitRate > 0.0 || latRate > 0.0;
    }
};

/**
 * Seeded fault source. One instance per run; every decision flows
 * from the seed, so a failing fault scenario can be replayed exactly
 * with `--fault-seed`.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg = FaultConfig{})
        : cfg_(cfg), rng_(cfg.seed)
    {}

    bool enabled() const { return cfg_.enabled(); }
    const FaultConfig &config() const { return cfg_; }

    /**
     * Maybe corrupt one trace record of @p size bytes in place
     * (probability traceRate; 1..3 bytes are rewritten to random
     * values). Returns true if the record was corrupted.
     */
    bool corruptRecord(std::uint8_t *record, std::size_t size);

    /**
     * Corrupt a whole serialized trace image: every @p record_bytes
     * window past @p protect_prefix (the header) is a corruption
     * candidate at traceRate. Returns the number of corrupted
     * records.
     */
    std::size_t corruptBuffer(std::uint8_t *data, std::size_t size,
                              std::size_t protect_prefix,
                              std::size_t record_bytes);

    /** Should a predictor-bit flip fire for this query? */
    bool
    fireBitFlip()
    {
        if (cfg_.bitRate <= 0.0 || !rng_.chance(cfg_.bitRate))
            return false;
        ++bitFlips_;
        return true;
    }

    /**
     * Extra cycles to add to a memory access latency (0 = leave it
     * alone). Strictly additive: injected timing faults slow the
     * machine down, they never teleport data into the past.
     */
    Cycle
    perturbLatency()
    {
        if (cfg_.latRate <= 0.0 || !rng_.chance(cfg_.latRate))
            return 0;
        ++latencyPerturbs_;
        return 1 + rng_.below(cfg_.maxLatencyDelta);
    }

    /** The injector's private stream (for callers picking WHICH bit). */
    Rng &rng() { return rng_; }

    std::uint64_t traceFaults() const { return traceFaults_; }
    std::uint64_t bitFlips() const { return bitFlips_; }
    std::uint64_t latencyPerturbs() const { return latencyPerturbs_; }

    /** Register injected-fault counters under @p g ("fault.*"). */
    void registerStats(StatsGroup g);

    /**
     * Machine-snapshot support (common/state_io.hh): the RNG stream
     * position and the fault counters, exactly. The configuration
     * itself is NOT saved — it travels with the machine config, and a
     * restored run must be given the same FaultConfig to be
     * bit-reproducible.
     */
    void
    walkState(stateio::Archive &a)
    {
        std::uint64_t s0 = rng_.state0(), s1 = rng_.state1();
        a("rng0", s0);
        a("rng1", s1);
        rng_.setState(s0, s1);
        a("trace_faults", traceFaults_);
        a("bit_flips", bitFlips_);
        a("latency_perturbs", latencyPerturbs_);
    }

  private:
    FaultConfig cfg_;
    Rng rng_;

    std::uint64_t traceFaults_ = 0;     ///< trace records corrupted
    std::uint64_t bitFlips_ = 0;        ///< predictor table bits flipped
    std::uint64_t latencyPerturbs_ = 0; ///< accesses given extra latency
};

} // namespace lrs

#endif // LRS_COMMON_FAULT_INJECTOR_HH
