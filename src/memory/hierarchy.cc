#include "memory/hierarchy.hh"

namespace lrs
{

/** How long a serviced line stays in the recently-filled window. */
constexpr Cycle kRecentFillWindow = 32;

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params), l1_(params.l1), l2_(params.l2)
{
}

void
MemoryHierarchy::registerStats(StatsGroup g)
{
    // The caches own their tallies; export them as derived views so
    // the registry never outlives-or-mutates component internals.
    const auto level = [&](StatsGroup lg, const Cache *c) {
        lg.derived("hits",
                   [c] { return static_cast<double>(c->hits()); });
        lg.derived("misses",
                   [c] { return static_cast<double>(c->misses()); });
        lg.derived("dynamic_misses", [c] {
            return static_cast<double>(c->dynamicMisses());
        });
    };
    level(g.group("l1"), &l1_);
    level(g.group("l2"), &l2_);
}

MemoryHierarchy::Access
MemoryHierarchy::access(Addr addr, Cycle now)
{
    const auto r1 = l1_.access(addr, now);
    if (r1.present) {
        if (r1.ready) {
            return {true, false, Level::L1, now + params_.l1.latency};
        }
        // Dynamic miss: data arrives when the in-flight fill lands.
        // Keep L2 LRU state warm for the line as a real access would.
        l2_.access(addr, now);
        const Cycle ready =
            std::max(r1.fillTime, now + params_.l1.latency);
        return {false, true, Level::L2, ready};
    }

    const auto r2 = l2_.access(addr, now);
    if (r2.present && r2.ready) {
        const Cycle ready = now + l2Latency();
        l1_.fill(addr, ready);
        return {false, false, Level::L2, ready};
    }
    if (r2.present) {
        // In flight in L2 as well.
        const Cycle ready =
            std::max(r2.fillTime, now + l2Latency());
        l1_.fill(addr, ready);
        return {false, true, Level::L2, ready};
    }

    const Cycle ready = now + memLatency();
    l2_.fill(addr, ready);
    l1_.fill(addr, ready);
    return {false, false, Level::Memory, ready};
}

MemoryHierarchy::TimingInfo
MemoryHierarchy::timingInfo(Addr addr, Cycle now) const
{
    const auto p = l1_.probe(addr, now);
    TimingInfo info{false, false};
    if (p.present) {
        if (p.fillTime > now)
            info.outstandingMiss = true;
        else if (now - p.fillTime <= kRecentFillWindow)
            info.recentFill = true;
    }
    return info;
}

} // namespace lrs
