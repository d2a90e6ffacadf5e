#include "core/runner.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/diag.hh"
#include "common/parse.hh"
#include "core/parallel.hh"

namespace lrs
{

namespace
{

/** Lock-free so a signal handler can store to it (see runner.hh). */
std::atomic<bool> gSweepInterrupt{false};

/** Relaxed atomic: pool workers read it while tests/CLI flip it. */
std::atomic<bool> gCycleSkipAhead{true};

} // namespace

void
requestSweepInterrupt() noexcept
{
    gSweepInterrupt.store(true, std::memory_order_relaxed);
}

bool
sweepInterruptRequested() noexcept
{
    return gSweepInterrupt.load(std::memory_order_relaxed);
}

void
clearSweepInterrupt() noexcept
{
    gSweepInterrupt.store(false, std::memory_order_relaxed);
}

void
setCycleSkipAhead(bool enabled) noexcept
{
    gCycleSkipAhead.store(enabled, std::memory_order_relaxed);
}

bool
cycleSkipAhead() noexcept
{
    return gCycleSkipAhead.load(std::memory_order_relaxed);
}

SimResult
runSim(VecTrace &trace, const MachineConfig &cfg)
{
    OooCore core(cfg);
    return core.run(trace);
}

SimResult
runSim(const TraceParams &params, const MachineConfig &cfg)
{
    auto trace = TraceLibrary::make(params);
    return runSim(*trace, cfg);
}

const std::vector<OrderingScheme> &
allSchemes()
{
    static const std::vector<OrderingScheme> kSchemes = {
        OrderingScheme::Traditional,   OrderingScheme::Opportunistic,
        OrderingScheme::Postponing,    OrderingScheme::Inclusive,
        OrderingScheme::Exclusive,     OrderingScheme::Perfect,
    };
    return kSchemes;
}

std::vector<SimResult>
runAllSchemes(const VecTrace &trace, MachineConfig cfg, unsigned workers)
{
    const auto &schemes = allSchemes();
    std::vector<SimResult> out(schemes.size());
    // One job per scheme; each job runs an independent machine over a
    // private cursor on the shared uops (a VecTrace copy), and writes
    // its slot, so the vector is identical to the serial loop no
    // matter how many workers ran it (or whether this call was itself
    // a parallelFor() job, in which case it runs inline).
    parallelFor(
        schemes.size(),
        [&](std::size_t i) {
            MachineConfig c = cfg;
            c.scheme = schemes[i];
            VecTrace local = trace;
            out[i] = runSim(local, c);
        },
        workers);
    return out;
}

double
geomean(const std::vector<double> &values)
{
    double acc = 0.0;
    std::size_t counted = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double v = values[i];
        // log() of zero or a negative value (a crashed scheme's 0.0
        // "speedup", or NaN from an unran baseline) would silently
        // poison the whole mean with -inf/NaN; skip it and say so.
        if (!(v > 0.0)) {
            const Diag d = makeDiag(
                DiagCode::DataInvalid, "core.runner", "geomean",
                "skipping non-positive value " + std::to_string(v) +
                    " (element " + std::to_string(i) + " of " +
                    std::to_string(values.size()) + ")");
            std::fprintf(stderr, "warning: %s\n", d.toString().c_str());
            continue;
        }
        acc += std::log(v);
        ++counted;
    }
    if (counted == 0)
        return 0.0;
    return std::exp(acc / static_cast<double>(counted));
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    // An override that was set but cannot be parsed — or one so large
    // it would clamp, or a negative that would silently wrap — is
    // almost certainly a typo'd experiment; silently running with
    // anything else would fake a result. Warn once per lookup.
    std::uint64_t v = 0;
    if (!tryParseU64(s, v)) {
        std::fprintf(stderr,
                     "warning: ignoring unparsable %s=\"%s\" "
                     "(using %llu)\n",
                     name, s,
                     static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return v;
}

} // namespace lrs
