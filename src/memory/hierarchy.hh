/**
 * @file
 * The data-side memory hierarchy: L1D -> unified L2 -> main memory,
 * matching the paper's simulated machine (16K D-cache, 256K unified
 * 4-way L2, 64-byte lines). Also exposes the outstanding-miss /
 * recently-serviced timing information the timing-assisted hit-miss
 * predictor uses (paper section 2.2).
 */

#ifndef LRS_MEMORY_HIERARCHY_HH
#define LRS_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <deque>

#include "common/state_io.hh"
#include "common/types.hh"
#include "memory/cache.hh"

namespace lrs
{

/** Parameters of the full data hierarchy. */
struct HierarchyParams
{
    CacheParams l1 = {"L1D", 16 * 1024, 4, 64, /*latency=*/5};
    CacheParams l2 = {"L2", 256 * 1024, 4, 64, /*latency=*/7};
    /** Additional latency of main memory beyond L1+L2. */
    Cycle memLatency = 45;
};

/**
 * Two-level data hierarchy with fill timing.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /** Memory level that serviced an access. */
    enum class Level { L1, L2, Memory };

    struct Access
    {
        /** True L1 hit: line present and filled at access time. */
        bool l1Hit;
        /** L1 had the line allocated but still in flight. */
        bool dynamicMiss;
        Level level;
        /** Cycle at which the data is available to consumers. */
        Cycle readyAt;
    };

    /**
     * Perform a load/store access to @p addr starting at @p now.
     * Allocates into both levels on miss (inclusive fill).
     */
    Access access(Addr addr, Cycle now);

    /**
     * Timing information for the timing-assisted hit-miss predictor:
     * does @p addr's line have an outstanding (in-flight) miss at
     * @p now, and was it recently filled?
     */
    struct TimingInfo
    {
        bool outstandingMiss; ///< line allocated, fill in the future
        bool recentFill;      ///< fill completed within the window
    };
    TimingInfo timingInfo(Addr addr, Cycle now) const;

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const HierarchyParams &params() const { return params_; }

    /** Machine-snapshot support: both levels, exactly. */
    void
    walkState(stateio::Archive &a)
    {
        a.component("l1", l1_);
        a.component("l2", l2_);
    }

    /** Total latency of an L1 hit. */
    Cycle l1Latency() const { return params_.l1.latency; }
    /** Total latency of an L1 miss / L2 hit. */
    Cycle l2Latency() const
    {
        return params_.l1.latency + params_.l2.latency;
    }
    /** Total latency of a miss to memory. */
    Cycle memLatency() const
    {
        return l2Latency() + params_.memLatency;
    }

  private:
    HierarchyParams params_;
    Cache l1_;
    Cache l2_;
};

} // namespace lrs

#endif // LRS_MEMORY_HIERARCHY_HH
