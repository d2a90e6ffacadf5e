/**
 * @file
 * Set-associative cache model with fill timing.
 *
 * Unlike a purely functional cache, each line records the cycle its
 * fill completes. An access that finds its line still in flight is a
 * *dynamic miss* (paper section 2.2): it observes the remaining fill
 * latency rather than a fresh full miss or an instant hit. The
 * timing-assisted hit-miss predictor keys on exactly this behaviour via
 * the outstanding-miss-queue interface of the hierarchy.
 */

#ifndef LRS_MEMORY_CACHE_HH
#define LRS_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/diag.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace lrs
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    /** Access latency of this level, in cycles. */
    Cycle latency = 5;

    /**
     * Every violated geometry constraint, all at once (empty =
     * valid). Diags are named under @p component (e.g. "mem.l1").
     */
    std::vector<Diag> validate(const std::string &component) const;
};

/**
 * One level of cache: LRU, write-allocate, with per-line fill times.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** Outcome of a lookup (without timing chaining to lower levels). */
    struct LookupResult
    {
        bool present;     ///< tag matched
        bool ready;       ///< present and fill complete at access time
        Cycle fillTime;   ///< when the line's data arrived/arrives
    };

    /**
     * Look up @p addr at time @p now without modifying LRU state or
     * allocating. Used by oracle/statistical probes.
     */
    LookupResult probe(Addr addr, Cycle now) const;

    /**
     * Access @p addr at time @p now: update LRU, return the lookup
     * outcome. Does not allocate on miss — the hierarchy decides that
     * once the fill time is known (see fill()).
     */
    LookupResult access(Addr addr, Cycle now);

    /** Install the line of @p addr with its fill completing at @p fill. */
    void fill(Addr addr, Cycle fill_time);

    /** Drop every line (used by tests and phase experiments). */
    void flush();

    const CacheParams &params() const { return params_; }

    Addr lineAddr(Addr addr) const { return addr / params_.lineBytes; }

    std::uint64_t numSets() const { return numSets_; }

    // Aggregate statistics (over all access() calls): hits are
    // serviced by a filled line, misses allocate a new line, dynamic
    // misses find their line still in flight.
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t dynamicMisses() const { return dynMisses_; }

    /**
     * Machine-snapshot support (common/state_io.hh): every line's tag
     * / fill time / LRU stamp / valid bit plus the aggregate counters,
     * exactly. A loading walk requires the same geometry (line count)
     * and throws ConfigError(E_JOURNAL_INVALID) otherwise.
     */
    void walkState(stateio::Archive &a);

  private:
    struct Line
    {
        Addr tag = kAddrInvalid;
        Cycle fillTime = 0;
        Cycle lastUse = 0;
        bool valid = false;
    };

    CacheParams params_;
    std::uint64_t numSets_;
    std::vector<Line> lines_; // numSets_ * assoc, set-major

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dynMisses_ = 0;
};

} // namespace lrs

#endif // LRS_MEMORY_CACHE_HH
