/**
 * @file
 * The idle-cycle skip-ahead equivalence contract
 * (docs/PERFORMANCE.md): a run with the skip-ahead fast path enabled
 * must be byte-identical — every counter, interval sample, histogram
 * bucket and the final machine state — to the same run stepping every
 * cycle. The suite pins the contract on dense synthetic traces, on
 * the sparse long-latency workloads the fast path was built for, on
 * the adversarial families, on the golden ChampSim fixture, at
 * awkward stop_at boundaries (including the 16K interrupt-poll
 * cadence), and through a snapshot taken in the middle of a skipped
 * idle region. KernelDigest pins the results themselves, per ordering
 * scheme, so a kernel change that claims to alter no result is held
 * to the figures of the code before it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc.hh"
#include "core/core.hh"
#include "core/runner.hh"
#include "core/snapshot.hh"
#include "trace/champsim_reader.hh"
#include "trace/library.hh"
#include "tmp_path.hh"

namespace lrs
{
namespace
{

/** Every test must leave the process-wide toggle as it found it. */
class SkipAheadGuard
{
  public:
    SkipAheadGuard() : saved_(cycleSkipAhead()) {}
    ~SkipAheadGuard() { setCycleSkipAhead(saved_); }

  private:
    bool saved_;
};

/** Long-latency memory under a perfect hit-miss predictor: consumers
 *  sleep until data arrives, so the machine freezes for thousands of
 *  cycles at a time — the regime where the skip-ahead jumps furthest
 *  and any accounting slip would show. */
MachineConfig
sparseConfig()
{
    MachineConfig cfg;
    cfg.cht.trackDistance = true;
    cfg.mem.memLatency = 2000;
    cfg.hmp = HmpKind::Perfect;
    return cfg;
}

/** Run to completion and return the complete lossless state: the
 *  drained machine plus the full result serialization. */
std::string
runDump(const MachineConfig &cfg, VecTrace &trace, bool skip)
{
    setCycleSkipAhead(skip);
    OooCore core(cfg);
    const SimResult r = core.run(trace);
    return core.saveState().dump(0) + "\n" + r.saveState().dump(0);
}

std::string
runDumpNamed(const MachineConfig &cfg, const std::string &name,
             std::uint64_t len, bool skip)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName(name, len));
    return runDump(cfg, *trace, skip);
}

TEST(ThroughputIdentity, SyntheticTracesMatchStepping)
{
    SkipAheadGuard guard;
    for (const char *name : {"wd", "gcc", "li", "compress"}) {
        MachineConfig cfg;
        cfg.cht.trackDistance = true;
        EXPECT_EQ(runDumpNamed(cfg, name, 20000, false),
                  runDumpNamed(cfg, name, 20000, true))
            << name;
    }
}

TEST(ThroughputIdentity, EverySchemeMatchesStepping)
{
    SkipAheadGuard guard;
    for (const auto scheme : allSchemes()) {
        MachineConfig cfg;
        cfg.scheme = scheme;
        cfg.cht.trackDistance = true;
        EXPECT_EQ(runDumpNamed(cfg, "wd", 15000, false),
                  runDumpNamed(cfg, "wd", 15000, true))
            << orderingSchemeName(scheme);
    }
}

TEST(ThroughputIdentity, EveryOrderingGateMatchesSteppingUnderAudit)
{
    SkipAheadGuard guard;
    // allSchemes() holds only the paper's six; the two baselines and
    // Exclusive's speculative forwarding gate loads on other store
    // times. Every gate must open on the same cycle whether the idle
    // cycles are stepped or skipped, and the auditor checks the
    // cached wake times on every cycle of both runs.
    struct Gate
    {
        OrderingScheme scheme;
        bool specForward;
    };
    const Gate gates[] = {
        {OrderingScheme::Traditional, false},
        {OrderingScheme::Opportunistic, false},
        {OrderingScheme::Postponing, false},
        {OrderingScheme::Inclusive, false},
        {OrderingScheme::Exclusive, false},
        {OrderingScheme::Exclusive, true},
        {OrderingScheme::Perfect, false},
        {OrderingScheme::StoreBarrier, false},
        {OrderingScheme::StoreSets, false},
    };
    for (const char *name : {"wd", "gcc", "gcmark"}) {
        for (const Gate &g : gates) {
            MachineConfig cfg;
            cfg.scheme = g.scheme;
            cfg.exclusiveSpecForward = g.specForward;
            cfg.cht.trackDistance = true;
            cfg.auditInterval = 1;
            EXPECT_EQ(runDumpNamed(cfg, name, 2500, false),
                      runDumpNamed(cfg, name, 2500, true))
                << name << "/" << orderingSchemeName(g.scheme)
                << (g.specForward ? "+spec_forward" : "");
        }
    }
}

TEST(ThroughputIdentity, SparseLongLatencyMatchesStepping)
{
    SkipAheadGuard guard;
    // The big-win regime, with every periodic accounting stream on:
    // histograms record occupancies every cycle and interval samples
    // fire on a fixed cadence, so a bulk-accounting slip of even one
    // cycle breaks the comparison.
    MachineConfig cfg = sparseConfig();
    cfg.collectHistograms = true;
    cfg.statsInterval = 777; // deliberately not a divisor of anything
    cfg.auditInterval = 1000;
    for (const char *name : {"gcmark", "wd"}) {
        EXPECT_EQ(runDumpNamed(cfg, name, 20000, false),
                  runDumpNamed(cfg, name, 20000, true))
            << name;
    }
}

TEST(ThroughputIdentity, AdversarialFamiliesMatchStepping)
{
    SkipAheadGuard guard;
    // The default machine, and one with every predictor the families
    // are built to fool switched on.
    MachineConfig dflt;
    dflt.cht.trackDistance = true;
    MachineConfig hostile = dflt;
    hostile.scheme = OrderingScheme::Inclusive;
    hostile.hmp = HmpKind::Chooser;
    hostile.bankMode = BankMode::Sliced;
    hostile.bankPred = BankPredKind::Addr;
    for (const MachineConfig &cfg : {dflt, hostile}) {
        for (const std::string &name :
             TraceLibrary::names(TraceGroup::Adversarial)) {
            EXPECT_EQ(runDumpNamed(cfg, name, 20000, false),
                      runDumpNamed(cfg, name, 20000, true))
                << name << "/" << orderingSchemeName(cfg.scheme);
        }
    }
}

TEST(ThroughputIdentity, GoldenChampSimTraceMatchesStepping)
{
    SkipAheadGuard guard;
    const std::string path =
        std::string(LRS_TEST_DATA_DIR) + "/golden.champsim";
    MachineConfig dflt;
    dflt.cht.trackDistance = true;
    const auto load = [&path] { return readChampSimFile(path); };
    for (const MachineConfig &cfg : {dflt, sparseConfig()}) {
        auto ta = load();
        auto tb = load();
        EXPECT_EQ(runDump(cfg, *ta, false), runDump(cfg, *tb, true))
            << "memLatency " << cfg.mem.memLatency;
    }
}

TEST(ThroughputIdentity, ArbitraryStopBoundariesMatchStepping)
{
    SkipAheadGuard guard;
    // advanceTo() must land on any stop_at with bit-identical state,
    // including boundaries adjacent to the 16K interrupt-poll cadence
    // that the skip-ahead specifically must not glide over.
    const MachineConfig cfg = sparseConfig();
    for (const Cycle stop :
         {Cycle{1}, Cycle{1000}, Cycle{16383}, Cycle{16384},
          Cycle{16385}, Cycle{100000}}) {
        std::string dumps[2];
        for (int mode = 0; mode < 2; ++mode) {
            auto trace = TraceLibrary::make(
                TraceLibrary::byName("gcmark", 20000));
            setCycleSkipAhead(mode == 1);
            OooCore core(cfg);
            core.beginRun(*trace);
            core.advanceTo(*trace, stop);
            dumps[mode] = core.saveState().dump(0);
        }
        EXPECT_EQ(dumps[0], dumps[1]) << "stop=" << stop;
    }
}

TEST(ThroughputIdentity, SnapshotMidSkipRegionIsBitIdentical)
{
    SkipAheadGuard guard;
    setCycleSkipAhead(true);
    // With 2000-cycle memory stalls, most cycles sit inside idle
    // regions the fast path jumps over. Checkpointing there forces
    // advanceTo() to land exactly on the requested cycle; the resumed
    // run must finish byte-identical to the uninterrupted one.
    const MachineConfig cfg = sparseConfig();
    const std::string path = tmpPath("throughput_midskip.snap");

    auto full_trace =
        TraceLibrary::make(TraceLibrary::byName("gcmark", 20000));
    OooCore full(cfg);
    const SimResult r_full = full.run(*full_trace);
    ASSERT_GT(r_full.cycles, 10000u); // sparse enough to mean it

    for (const Cycle stop :
         {r_full.cycles / 7, r_full.cycles / 2, r_full.cycles - 3}) {
        {
            auto trace = TraceLibrary::make(
                TraceLibrary::byName("gcmark", 20000));
            OooCore warm(cfg);
            warm.beginRun(*trace);
            warm.advanceTo(*trace, stop);
            EXPECT_EQ(warm.now(), stop);
            writeSnapshot(path, warm, *trace, stop);
        }
        auto trace = TraceLibrary::make(
            TraceLibrary::byName("gcmark", 20000));
        OooCore resumed(cfg);
        loadSnapshotInto(path, resumed, *trace);
        resumed.advanceTo(*trace);
        const SimResult r = resumed.finishRun();
        EXPECT_EQ(r_full.saveState().dump(0), r.saveState().dump(0))
            << "stop=" << stop;
    }
    std::remove(path.c_str());
}


/** One pinned kernel configuration of KernelDigest. */
struct KernelPin
{
    const char *name;
    MachineConfig cfg;
    std::uint32_t gcc;    ///< CRC-32 of the gcc result
    std::uint32_t gcmark; ///< CRC-32 of the gcmark result
};

MachineConfig
schemeConfig(OrderingScheme scheme)
{
    MachineConfig cfg;
    cfg.scheme = scheme;
    cfg.cht.trackDistance = true;
    return cfg;
}

TEST(KernelDigest, EverySchemeIsPinned)
{
    // ThroughputIdentity compares the kernel only with itself; these
    // digests pin its results. Every ordering scheme runs, plus the
    // gate variants that read other MOB state (Exclusive's speculative
    // forwarding, the partial-address comparator) and the dense_cell
    // machine. A kernel refactor that claims to change no result must
    // leave every CRC as it is.
    MachineConfig specForward = schemeConfig(OrderingScheme::Exclusive);
    specForward.exclusiveSpecForward = true;
    MachineConfig partial = schemeConfig(OrderingScheme::Traditional);
    partial.mobPartialBits = 12;
    MachineConfig dense = schemeConfig(OrderingScheme::Exclusive);
    dense.hmp = HmpKind::Chooser;
    dense.bankMode = BankMode::Sliced;
    dense.bankPred = BankPredKind::A;
    const std::vector<KernelPin> pins = {
        {"traditional", schemeConfig(OrderingScheme::Traditional),
         0xf89c2768u, 0x675063c1u},
        {"opportunistic", schemeConfig(OrderingScheme::Opportunistic),
         0x4b248470u, 0x85b4efbbu},
        {"postponing", schemeConfig(OrderingScheme::Postponing),
         0x2b13c5e2u, 0xc33d80bdu},
        {"inclusive", schemeConfig(OrderingScheme::Inclusive),
         0x3741e8fau, 0x91429649u},
        {"exclusive", schemeConfig(OrderingScheme::Exclusive),
         0xfc152ff8u, 0x5504cb0fu},
        {"perfect", schemeConfig(OrderingScheme::Perfect),
         0xd9be450bu, 0x24d5efcfu},
        {"storebarrier", schemeConfig(OrderingScheme::StoreBarrier),
         0xa36f2521u, 0x3f653001u},
        {"storesets", schemeConfig(OrderingScheme::StoreSets),
         0xab3e39a6u, 0xbdbb63fbu},
        {"exclusive+spec_forward", specForward,
         0xfc152ff8u, 0x24d18156u},
        {"traditional+partial12", partial,
         0x50e5ecedu, 0x9b7dfdabu},
        {"dense_cell", dense,
         0xff9e1c44u, 0xf642a363u},
    };
    for (const KernelPin &pin : pins) {
        for (const char *trace : {"gcc", "gcmark"}) {
            auto t = TraceLibrary::make(TraceLibrary::byName(trace, 20000));
            OooCore core(pin.cfg);
            const std::uint32_t crc =
                crc32(core.run(*t).saveState().dump(0));
            EXPECT_EQ(crc, std::string(trace) == "gcc" ? pin.gcc
                                                         : pin.gcmark)
                << pin.name << "/" << trace << std::hex << " crc 0x"
                << crc;
        }
    }
}

} // namespace
} // namespace lrs
