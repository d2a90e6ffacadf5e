/**
 * @file
 * Microbenchmarks (google-benchmark) of the predictor and substrate
 * hot paths: per-lookup cost of each CHT organisation, the binary
 * predictors, the address predictor, cache access, trace generation
 * and a short end-to-end core run. These back the DESIGN.md cost
 * claims (e.g. the CHT being "much more cost effective" than
 * fully-associative pair tables is only credible if its lookup is
 * table-index cheap).
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/runner.hh"
#include "memory/cache.hh"
#include "predictors/addr_pred.hh"
#include "predictors/cht.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/local.hh"
#include "memory/hierarchy.hh"
#include "memory/mob.hh"
#include "trace/library.hh"
#include "trace/serialize.hh"

#include <sstream>

using namespace lrs;

namespace
{

std::vector<Addr>
pcStream(std::size_t n, std::size_t uniq)
{
    Rng rng(42);
    std::vector<Addr> pcs(n);
    for (auto &p : pcs)
        p = 0x400000 + rng.below(uniq) * 16;
    return pcs;
}

void
BM_ChtPredictUpdate(benchmark::State &state)
{
    ChtParams p;
    p.kind = static_cast<ChtKind>(state.range(0));
    p.entries = 2048;
    p.counterBits = p.kind == ChtKind::Tagless ? 1 : 2;
    Cht cht(p);
    const auto pcs = pcStream(4096, 700);
    Rng rng(7);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr pc = pcs[i++ % pcs.size()];
        benchmark::DoNotOptimize(cht.predict(pc));
        cht.update(pc, rng.chance(0.1), 1 + rng.below(8));
    }
}

void
BM_Gshare(benchmark::State &state)
{
    GsharePredictor p(11);
    const auto pcs = pcStream(4096, 700);
    Rng rng(7);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr pc = pcs[i++ % pcs.size()];
        benchmark::DoNotOptimize(p.predict(pc));
        p.update(pc, rng.chance(0.5));
    }
}

void
BM_Local(benchmark::State &state)
{
    LocalPredictor p(2048, 8);
    const auto pcs = pcStream(4096, 700);
    Rng rng(7);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr pc = pcs[i++ % pcs.size()];
        benchmark::DoNotOptimize(p.predict(pc));
        p.update(pc, rng.chance(0.5));
    }
}

void
BM_Gskew(benchmark::State &state)
{
    GskewPredictor p(1024, 17);
    const auto pcs = pcStream(4096, 700);
    Rng rng(7);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr pc = pcs[i++ % pcs.size()];
        benchmark::DoNotOptimize(p.predict(pc));
        p.update(pc, rng.chance(0.5));
    }
}

void
BM_AddressPredictor(benchmark::State &state)
{
    LoadAddressPredictor p(1024);
    const auto pcs = pcStream(4096, 300);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr pc = pcs[i++ % pcs.size()];
        benchmark::DoNotOptimize(p.predict(pc));
        p.update(pc, 0x10000000 + i * 8);
    }
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache({"L1D", 16 * 1024, 4, 64, 5});
    Rng rng(11);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr a = rng.below(64 * 1024);
        auto r = cache.access(a, ++now);
        if (!r.present)
            cache.fill(a, now + 12);
        benchmark::DoNotOptimize(r);
    }
}

void
BM_TraceGeneration(benchmark::State &state)
{
    TraceParams p = TraceLibrary::byName("wd", 50000);
    for (auto _ : state) {
        auto t = TraceLibrary::make(p);
        benchmark::DoNotOptimize(t->size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 50000);
}

void
BM_CoreRun(benchmark::State &state)
{
    TraceParams p = TraceLibrary::byName("wd", 20000);
    auto trace = TraceLibrary::make(p);
    MachineConfig cfg;
    cfg.scheme = static_cast<OrderingScheme>(state.range(0));
    cfg.cht.trackDistance = true;
    for (auto _ : state) {
        const SimResult r = runSim(*trace, cfg);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 20000);
}

void
BM_MobQueries(benchmark::State &state)
{
    // A realistically full window: 24 stores, queries from a younger
    // load — the per-dispatch cost of the ordering checks.
    Mob mob;
    Rng rng(3);
    for (SeqNum s = 0; s < 24; ++s) {
        mob.insert(s * 4, 0x1000 + rng.below(64) * 8, 8);
        if (rng.chance(0.7))
            mob.staExecuted(s * 4, s);
        if (rng.chance(0.5))
            mob.stdExecuted(s * 4, s + 2);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(mob.olderHorizon(1000, Mob::kAddr));
        benchmark::DoNotOptimize(
            mob.youngestOverlapOlder(1000, 0x1100, 8));
        benchmark::DoNotOptimize(
            mob.olderHorizon(1000, Mob::kAddr | Mob::kData));
    }
}

void
BM_HierarchyAccess(benchmark::State &state)
{
    MemoryHierarchy h({});
    Rng rng(11);
    Cycle now = 0;
    for (auto _ : state) {
        // 90% hot region, 10% cold tail.
        const Addr a = rng.chance(0.9) ? rng.below(8 * 1024)
                                       : rng.below(1 << 22);
        benchmark::DoNotOptimize(h.access(a, ++now));
    }
}

void
BM_TraceSerialize(benchmark::State &state)
{
    auto t = TraceLibrary::make(TraceLibrary::byName("wd", 20000));
    for (auto _ : state) {
        std::stringstream ss;
        writeTrace(ss, *t);
        auto back = readTrace(ss);
        benchmark::DoNotOptimize(back->size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 20000);
}

} // namespace

BENCHMARK(BM_MobQueries);
BENCHMARK(BM_HierarchyAccess);
BENCHMARK(BM_TraceSerialize);
BENCHMARK(BM_ChtPredictUpdate)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->ArgName("kind");
BENCHMARK(BM_Gshare);
BENCHMARK(BM_Local);
BENCHMARK(BM_Gskew);
BENCHMARK(BM_AddressPredictor);
BENCHMARK(BM_CacheAccess);
BENCHMARK(BM_TraceGeneration);
BENCHMARK(BM_CoreRun)->Arg(0)->Arg(5)->ArgName("scheme");

BENCHMARK_MAIN();
