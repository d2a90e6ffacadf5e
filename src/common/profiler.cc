#include "common/profiler.hh"

#include <chrono>
#include <mutex>
#include <vector>

#include "common/stats.hh"

namespace lrs::prof
{

namespace
{

/**
 * Per-thread accumulator. Relaxed atomics: each slot is written only
 * by its owning thread; report() reads cross-thread while workers are
 * quiescent, and relaxed loads keep the hot path free of fences while
 * staying within the data-race rules under TSan.
 */
struct Block
{
    std::atomic<std::uint64_t> ticks[kNumStages] = {};
    std::atomic<std::uint64_t> counts[kNumCounters] = {};
};

std::mutex g_blocksMutex;
std::vector<Block *> &
blocks()
{
    static std::vector<Block *> v;
    return v;
}

Block &
threadBlock()
{
    thread_local Block *b = [] {
        auto *nb = new Block(); // lives for the process; threads are
                                // pooled, so the set stays tiny
        std::lock_guard<std::mutex> lock(g_blocksMutex);
        blocks().push_back(nb);
        return nb;
    }();
    return *b;
}

thread_local Scope *t_current = nullptr;

#if defined(__x86_64__)
inline std::uint64_t
rawTicks()
{
    return __builtin_ia32_rdtsc();
}
constexpr bool kRawIsTsc = true;
#else
inline std::uint64_t
rawTicks()
{
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
}
constexpr bool kRawIsTsc = false;
#endif

double
calibrate()
{
    if (!kRawIsTsc) {
        using period = std::chrono::steady_clock::period;
        return static_cast<double>(period::den) /
               static_cast<double>(period::num);
    }
    // Measure the TSC against steady_clock over a few milliseconds;
    // good to well under a percent, which is plenty for a profile.
    const auto w0 = std::chrono::steady_clock::now();
    const std::uint64_t t0 = rawTicks();
    for (;;) {
        const auto w1 = std::chrono::steady_clock::now();
        const std::chrono::duration<double> dt = w1 - w0;
        if (dt.count() >= 5e-3) {
            const std::uint64_t t1 = rawTicks();
            return static_cast<double>(t1 - t0) / dt.count();
        }
    }
}

} // namespace

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Rename:  return "rename";
      case Stage::Issue:   return "issue";
      case Stage::Execute: return "execute";
      case Stage::Commit:  return "commit";
      case Stage::Predict: return "predict";
    }
    return "?";
}

const char *
counterName(Counter c)
{
    switch (c) {
      case Counter::IssueVisits:   return "issue_visits";
      case Counter::WakeResets:    return "wake_resets";
      case Counter::SteppedCycles: return "stepped_cycles";
    }
    return "?";
}

void
addCount(Counter c, std::uint64_t n)
{
    threadBlock()
        .counts[static_cast<std::size_t>(c)]
        .fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
counterValue(Counter c)
{
    std::lock_guard<std::mutex> lock(g_blocksMutex);
    std::uint64_t sum = 0;
    for (const Block *b : blocks()) {
        sum += b->counts[static_cast<std::size_t>(c)].load(
            std::memory_order_relaxed);
    }
    return sum;
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t
nowTicks()
{
    return rawTicks();
}

double
ticksPerSecond()
{
    static const double rate = calibrate();
    return rate;
}

void
Scope::begin()
{
    active_ = true;
    childTicks_ = 0;
    parent_ = t_current;
    t_current = this;
    start_ = rawTicks();
}

void
Scope::end()
{
    const std::uint64_t total = rawTicks() - start_;
    const std::uint64_t self =
        total >= childTicks_ ? total - childTicks_ : 0;
    threadBlock()
        .ticks[static_cast<std::size_t>(stage_)]
        .fetch_add(self, std::memory_order_relaxed);
    if (parent_)
        parent_->childTicks_ += total;
    t_current = parent_;
}

void
resetAll()
{
    std::lock_guard<std::mutex> lock(g_blocksMutex);
    for (Block *b : blocks()) {
        for (std::size_t s = 0; s < kNumStages; ++s)
            b->ticks[s].store(0, std::memory_order_relaxed);
        for (std::size_t c = 0; c < kNumCounters; ++c)
            b->counts[c].store(0, std::memory_order_relaxed);
    }
}

std::uint64_t
stageTicks(Stage s)
{
    std::lock_guard<std::mutex> lock(g_blocksMutex);
    std::uint64_t sum = 0;
    for (const Block *b : blocks()) {
        sum += b->ticks[static_cast<std::size_t>(s)].load(
            std::memory_order_relaxed);
    }
    return sum;
}

json::Value
reportJson(std::uint64_t uops, double wallSeconds)
{
    const double tps = ticksPerSecond();
    std::uint64_t ticks[kNumStages];
    std::uint64_t totalTicks = 0;
    for (std::size_t s = 0; s < kNumStages; ++s) {
        ticks[s] = stageTicks(static_cast<Stage>(s));
        totalTicks += ticks[s];
    }
    json::Value v = json::Value::object();
    json::Value stages = json::Value::object();
    for (std::size_t s = 0; s < kNumStages; ++s) {
        json::Value e = json::Value::object();
        const double sec = static_cast<double>(ticks[s]) / tps;
        e.set("seconds", json::Value(sec));
        e.set("share",
              json::Value(totalTicks
                              ? static_cast<double>(ticks[s]) /
                                    static_cast<double>(totalTicks)
                              : 0.0));
        stages.set(stageName(static_cast<Stage>(s)), std::move(e));
    }
    v.set("stages", std::move(stages));
    json::Value counters = json::Value::object();
    for (std::size_t c = 0; c < kNumCounters; ++c) {
        const auto id = static_cast<Counter>(c);
        counters.set(counterName(id), json::Value(counterValue(id)));
    }
    v.set("counters", std::move(counters));
    v.set("instrumented_seconds",
          json::Value(static_cast<double>(totalTicks) / tps));
    v.set("wall_seconds", json::Value(wallSeconds));
    v.set("uops", json::Value(uops));
    v.set("uops_per_sec",
          json::Value(wallSeconds > 0.0
                          ? static_cast<double>(uops) / wallSeconds
                          : 0.0));
    return v;
}

std::string
reportText(std::uint64_t uops, double wallSeconds)
{
    const json::Value v = reportJson(uops, wallSeconds);
    std::string out = "self-profile (host time):\n";
    for (const auto &kv : v.at("stages").members()) {
        out += strprintf("  %-8s %10.4f s  %5.1f%%\n",
                         kv.first.c_str(),
                         kv.second.at("seconds").asDouble(),
                         kv.second.at("share").asDouble() * 100.0);
    }
    out += strprintf("  %-8s %10.4f s (instrumented)\n", "total",
                     v.at("instrumented_seconds").asDouble());
    out += strprintf("  wall     %10.4f s   %.0f uops/sec\n",
                     wallSeconds, v.at("uops_per_sec").asDouble());
    out += "kernel work (simulated, deterministic):\n";
    for (const auto &kv : v.at("counters").members()) {
        out += strprintf("  %-15s %llu\n", kv.first.c_str(),
                         static_cast<unsigned long long>(
                             kv.second.asU64()));
    }
    return out;
}

} // namespace lrs::prof
