/**
 * @file
 * Fault-injection tests: the simulator must *recover or fail loudly*
 * under deliberately corrupted traces, flipped predictor bits, and
 * perturbed latencies — and every fault must leave an accounting
 * trail. Determinism matters as much as survival: the same seed must
 * reproduce the same faults bit-for-bit.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/fault_injector.hh"
#include "core/core.hh"
#include "predictors/cht.hh"
#include "trace/library.hh"
#include "trace/serialize.hh"

namespace lrs
{
namespace
{

std::string
serializedTraceBytes(const VecTrace &t)
{
    std::stringstream ss;
    writeTrace(ss, t);
    return ss.str();
}

TEST(FaultInjector, DisabledByDefault)
{
    FaultInjector fi;
    EXPECT_FALSE(fi.enabled());
    EXPECT_EQ(fi.perturbLatency(), 0u);
    EXPECT_FALSE(fi.fireBitFlip());
}

TEST(FaultInjector, SameSeedSameFaults)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 5000));
    const std::string orig = serializedTraceBytes(*trace);

    FaultConfig fc;
    fc.seed = 42;
    fc.traceRate = 0.05;
    std::string a = orig, b = orig;
    FaultInjector fia(fc), fib(fc);
    fia.corruptBuffer(reinterpret_cast<std::uint8_t *>(a.data()),
                      a.size(), traceHeaderBytes(trace->name()),
                      kTraceRecordBytes);
    fib.corruptBuffer(reinterpret_cast<std::uint8_t *>(b.data()),
                      b.size(), traceHeaderBytes(trace->name()),
                      kTraceRecordBytes);
    EXPECT_GT(fia.traceFaults(), 0u);
    EXPECT_EQ(fia.traceFaults(), fib.traceFaults());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, orig);
}

TEST(FaultInjector, HeaderIsProtected)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 2000));
    const std::string orig = serializedTraceBytes(*trace);
    FaultConfig fc;
    fc.traceRate = 1.0; // corrupt every record
    FaultInjector fi(fc);
    std::string bytes = orig;
    fi.corruptBuffer(reinterpret_cast<std::uint8_t *>(bytes.data()),
                     bytes.size(), traceHeaderBytes(trace->name()),
                     kTraceRecordBytes);
    EXPECT_EQ(bytes.substr(0, traceHeaderBytes(trace->name())),
              orig.substr(0, traceHeaderBytes(trace->name())));
}

TEST(FaultInjector, CorruptedTraceRecoversWithAccounting)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 20000));
    std::string bytes = serializedTraceBytes(*trace);
    FaultConfig fc;
    fc.seed = 7;
    fc.traceRate = 0.02; // ~2% of records, over the 1% bar
    FaultInjector fi(fc);
    fi.corruptBuffer(reinterpret_cast<std::uint8_t *>(bytes.data()),
                     bytes.size(), traceHeaderBytes(trace->name()),
                     kTraceRecordBytes);
    ASSERT_GE(fi.traceFaults(), 20000u / 100);

    std::stringstream ss(bytes);
    TraceReadOptions opts;
    opts.recover = true;
    TraceReadStats st;
    auto back = readTrace(ss, opts, &st);
    EXPECT_GT(st.skippedRecords, 0u);
    EXPECT_GT(back->size(), 15000u); // most of the trace survives

    // The degraded trace must still simulate to completion, with the
    // reader's accounting visible through the core's registry.
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;
    OooCore core(cfg);
    st.registerStats(core.stats().group("trace"));
    const SimResult r = core.run(*back);
    EXPECT_EQ(r.uops, back->size());
    EXPECT_GT(core.stats().value("trace.skipped_records"), 0.0);
}

TEST(FaultInjector, ExhaustedBudgetFailsLoudly)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 20000));
    std::string bytes = serializedTraceBytes(*trace);
    FaultConfig fc;
    fc.traceRate = 0.10;
    FaultInjector fi(fc);
    fi.corruptBuffer(reinterpret_cast<std::uint8_t *>(bytes.data()),
                     bytes.size(), traceHeaderBytes(trace->name()),
                     kTraceRecordBytes);

    std::stringstream ss(bytes);
    TraceReadOptions opts;
    opts.recover = true;
    opts.badRecordBudget = 10; // far fewer than ~10% of 20k records
    EXPECT_THROW(readTrace(ss, opts), TraceError);
}

TEST(FaultInjector, ChtBitFlipsNeverChangeRetiredWork)
{
    // The CHT is a hint structure: flipping its bits may cost cycles
    // but the same uops must retire. Run the same trace with and
    // without aggressive bit flipping and compare the books.
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 30000));
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;

    OooCore clean(cfg);
    const SimResult base = clean.run(*trace);

    FaultConfig fc;
    fc.seed = 99;
    fc.bitRate = 0.10;
    FaultInjector fi(fc);
    OooCore faulty(cfg);
    faulty.attachFaultInjector(&fi);
    const SimResult hit = faulty.run(*trace);

    EXPECT_GT(fi.bitFlips(), 0u);
    EXPECT_EQ(hit.uops, base.uops);
    EXPECT_EQ(hit.loads, base.loads);
    EXPECT_EQ(hit.stores, base.stores);
}

TEST(FaultInjector, LatencyPerturbationOnlySlowsTheMachine)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName("li", 30000));
    MachineConfig cfg;

    OooCore clean(cfg);
    const SimResult base = clean.run(*trace);

    FaultConfig fc;
    fc.seed = 5;
    fc.latRate = 0.20;
    FaultInjector fi(fc);
    OooCore slow(cfg);
    slow.attachFaultInjector(&fi);
    const SimResult hit = slow.run(*trace);

    EXPECT_GT(fi.latencyPerturbs(), 0u);
    EXPECT_EQ(hit.uops, base.uops);
    EXPECT_GE(hit.cycles, base.cycles); // strictly additive faults
}

TEST(FaultInjector, PerturbedLatencyIsBounded)
{
    FaultConfig fc;
    fc.latRate = 1.0;
    fc.maxLatencyDelta = 8;
    FaultInjector fi(fc);
    for (int i = 0; i < 1000; ++i) {
        const Cycle d = fi.perturbLatency();
        EXPECT_GE(d, 1u);
        EXPECT_LE(d, 8u);
    }
}

TEST(FaultInjector, CorruptRandomBitKeepsChtUsable)
{
    // Hammer a small CHT with bit flips interleaved with traffic; the
    // structure must stay internally consistent (no crash, sane
    // predictions) because scheduling treats it as a pure hint.
    ChtParams p;
    p.entries = 64;
    p.kind = ChtKind::Full;
    p.trackDistance = true;
    Cht cht(p);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const Addr pc = 0x1000 + (i % 37) * 4;
        cht.update(pc, (i % 3) == 0, 1 + (i % 4), 0);
        cht.corruptRandomBit(rng);
        (void)cht.predict(pc, 0);
    }
    SUCCEED();
}

} // namespace
} // namespace lrs
