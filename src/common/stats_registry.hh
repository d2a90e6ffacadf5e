/**
 * @file
 * Named, hierarchically grouped statistics registry.
 *
 * Components (the core, the MOB, each cache level, each predictor)
 * register their counters and log2 histograms under dotted names
 * ("core.uops", "mem.l1.hits", "pred.cht.updates"); the registry
 * then provides uniform lookup and JSON export — replacing
 * per-component hand-rolled printf tables as the machine-readable
 * output path.
 *
 * Two registration styles, plus log2 histograms:
 *  - bound:     the counter lives in the component (e.g. a SimResult
 *               field, bound from SimResult::kCounters) and the
 *               registry holds a pointer (`bindCounter()`);
 *  - derived:   a getter evaluated at export time (`derived()`), for
 *               rates and component-internal values exposed through
 *               accessors (e.g. cache hit counts);
 *  - histogram: the registry owns a Log2Histogram and hands it back
 *               for recording (`log2hist()`).
 *
 * Names must be unique; re-registering a name throws
 * std::logic_error. Export order is registration order.
 */

#ifndef LRS_COMMON_STATS_REGISTRY_HH
#define LRS_COMMON_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/json.hh"

namespace lrs
{

class StatsGroup;

class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** Register a counter living elsewhere (e.g. a SimResult field). */
    void bindCounter(const std::string &name, std::uint64_t *slot);

    /** Register an owned log2 histogram (common/histogram.hh). */
    Log2Histogram &log2hist(const std::string &name);

    /** Register a derived (computed-at-export) scalar. */
    void derived(const std::string &name,
                 std::function<double()> getter);

    /** A prefixed view for hierarchical registration. */
    StatsGroup group(const std::string &prefix);

    bool has(const std::string &name) const;
    std::size_t size() const { return stats_.size(); }

    /**
     * Current scalar value of a stat: counter value, log2 histogram
     * sample count, or derived getter result. Throws
     * std::out_of_range for unknown names.
     */
    double value(const std::string &name) const;

    /**
     * Export as a nested JSON object: dotted names become nested
     * objects ("mem.l1.hits" -> {"mem":{"l1":{"hits":N}}}).
     * Log2 histograms export their component values as sub-objects.
     */
    json::Value toJson() const;

  private:
    enum class Kind
    {
        BoundCounter,
        OwnedLog2Histogram,
        Derived,
    };

    struct Stat
    {
        std::string name;
        Kind kind;
        std::uint64_t *boundCounter = nullptr;
        std::unique_ptr<Log2Histogram> log2hist;
        std::function<double()> getter;
    };

    Stat &add(const std::string &name, Kind kind);

    json::Value leafJson(const Stat &s) const;

    std::vector<std::unique_ptr<Stat>> stats_; ///< registration order
};

/**
 * Thin prefixing view over a registry: group("mem").derived("l1.hits",
 * ...) registers "mem.l1.hits". Groups may be nested.
 */
class StatsGroup
{
  public:
    StatsGroup(StatsRegistry &reg, std::string prefix)
        : reg_(reg), prefix_(std::move(prefix))
    {}

    void
    bindCounter(const std::string &name, std::uint64_t *slot)
    {
        reg_.bindCounter(join(name), slot);
    }

    Log2Histogram &
    log2hist(const std::string &name)
    {
        return reg_.log2hist(join(name));
    }

    void
    derived(const std::string &name, std::function<double()> getter)
    {
        reg_.derived(join(name), std::move(getter));
    }

    StatsGroup
    group(const std::string &sub)
    {
        return StatsGroup(reg_, join(sub));
    }

    const std::string &prefix() const { return prefix_; }

  private:
    std::string
    join(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    StatsRegistry &reg_;
    std::string prefix_;
};

} // namespace lrs

#endif // LRS_COMMON_STATS_REGISTRY_HH
