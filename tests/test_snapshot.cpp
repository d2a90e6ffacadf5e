/**
 * @file
 * Tests of checkpointed machine snapshots (core/snapshot.hh): the
 * bit-identity contract (a restored run finishes with statistics
 * byte-identical to the uninterrupted run, doubles included), strict
 * rejection of every damaged-file shape (the same every-byte
 * truncation sweep the journal recovery tests run, but expecting
 * rejection instead of resync), format/trace/geometry mismatch
 * rejection, and the warm-once grid protocol's determinism across
 * worker counts.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common/crc.hh"
#include "common/diag.hh"
#include "common/fault_injector.hh"
#include "common/histogram.hh"
#include "common/journal.hh"
#include "core/config_io.hh"
#include "core/core.hh"
#include "core/grid.hh"
#include "core/parallel.hh"
#include "core/runner.hh"
#include "core/snapshot.hh"
#include "trace/library.hh"
#include "tmp_path.hh"

namespace lrs
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

/** The statistics fingerprint identity is compared on: the lossless
 *  state serialization, which packs every double as its IEEE-754 bit
 *  pattern — stricter than any formatted report. */
std::string
fingerprint(const SimResult &r)
{
    return r.saveState().dump(0);
}

/** A feature-heavy config that exercises every optional component the
 *  snapshot serializes: CHT with distance, histograms, intervals,
 *  store-set/banked machinery off to keep it fast but variable. */
MachineConfig
richConfig()
{
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;
    cfg.cht.trackDistance = true;
    cfg.exclusiveSpecForward = true;
    cfg.stridePrefetch = true;
    cfg.hmp = HmpKind::Chooser;
    cfg.bankMode = BankMode::Conventional;
    cfg.bankPred = BankPredKind::A;
    cfg.statsInterval = 500;
    cfg.collectHistograms = true;
    return cfg;
}

SimResult
runFull(const MachineConfig &cfg, const std::string &trace_name,
        std::uint64_t len, FaultInjector *fi = nullptr)
{
    auto trace = TraceLibrary::make(TraceLibrary::byName(trace_name, len));
    OooCore core(cfg);
    core.attachFaultInjector(fi);
    return core.run(*trace);
}

/** Warm to @p stop, checkpoint, restore into a FRESH core, finish. */
SimResult
runThroughSnapshot(const MachineConfig &cfg,
                   const std::string &trace_name, std::uint64_t len,
                   Cycle stop, const std::string &path,
                   FaultInjector *warm_fi = nullptr,
                   FaultInjector *resume_fi = nullptr)
{
    {
        auto trace =
            TraceLibrary::make(TraceLibrary::byName(trace_name, len));
        OooCore warm(cfg);
        warm.attachFaultInjector(warm_fi);
        warm.beginRun(*trace);
        warm.advanceTo(*trace, stop);
        writeSnapshot(path, warm, *trace, stop);
    }
    auto trace =
        TraceLibrary::make(TraceLibrary::byName(trace_name, len));
    OooCore core(cfg);
    core.attachFaultInjector(resume_fi);
    loadSnapshotInto(path, core, *trace);
    core.advanceTo(*trace);
    return core.finishRun();
}

TEST(Snapshot, RestoredRunIsBitIdenticalAcrossSchemes)
{
    // The tentpole contract, per scheme: full run vs
    // warm-save-restore-continue must agree on every counter, every
    // interval sample and every histogram bucket, bit for bit.
    for (const auto scheme :
         {OrderingScheme::Traditional, OrderingScheme::Opportunistic,
          OrderingScheme::Exclusive, OrderingScheme::StoreSets,
          OrderingScheme::StoreBarrier}) {
        MachineConfig cfg;
        cfg.scheme = scheme;
        cfg.cht.trackDistance = true;
        const SimResult full = runFull(cfg, "wd", 20000);
        const std::string path = tmpPath("scheme.snap");
        const SimResult resumed = runThroughSnapshot(
            cfg, "wd", 20000, full.cycles / 2, path);
        EXPECT_EQ(fingerprint(full), fingerprint(resumed))
            << orderingSchemeName(scheme);
        std::remove(path.c_str());
    }
}

TEST(Snapshot, RestoredRunIsBitIdenticalWithEverythingOn)
{
    // Histograms, interval samples, bank predictor, prefetcher,
    // chooser HMP — the checkpoint must carry all of it.
    const MachineConfig cfg = richConfig();
    const SimResult full = runFull(cfg, "gcc", 20000);
    const std::string path = tmpPath("rich.snap");
    for (const Cycle stop : {Cycle{1}, full.cycles / 3,
                             full.cycles - 1, full.cycles + 1000}) {
        const SimResult resumed =
            runThroughSnapshot(cfg, "gcc", 20000, stop, path);
        EXPECT_EQ(fingerprint(full), fingerprint(resumed))
            << "stop=" << stop;
    }
    std::remove(path.c_str());
}

TEST(Snapshot, MobOrdinalsSurviveRestore)
{
    // Each uop's MOB ordinal is derived state, never saved: a restore
    // rebuilds it from the sequence numbers once the MOB is back.
    // Checkpoint where that is easiest to get wrong: stores have
    // retired, so ordinals no longer start at 0; a load waits; and an
    // STD is in flight whose STA has retired, so only the MOB still
    // holds the store the STD updates.
    MachineConfig dense;
    dense.scheme = OrderingScheme::Exclusive;
    dense.cht.trackDistance = true;
    dense.hmp = HmpKind::Chooser;
    dense.bankMode = BankMode::Sliced;
    dense.bankPred = BankPredKind::A;
    MachineConfig partial;
    partial.scheme = OrderingScheme::Traditional;
    partial.mobPartialBits = 12;
    const std::string path = tmpPath("mob_ord.snap");
    for (const MachineConfig &cfg : {dense, partial}) {
        const std::string name = orderingSchemeName(cfg.scheme);
        auto trace = TraceLibrary::make(TraceLibrary::byName("gcc", 20000));
        OooCore probe(cfg);
        probe.beginRun(*trace);
        const auto hard = [](const AuditView &v) {
            bool load = false, std_after_sta = false;
            for (const AuditView::Entry &e : v.entries) {
                load |= e.unclassifiedLoad && e.waiting;
                std_after_sta |= e.isPairedStd && e.pairSeq < v.headSeq;
            }
            return v.mobRetired > 0 && load && std_after_sta;
        };
        while (!hard(probe.auditView()))
            ASSERT_FALSE(probe.advanceTo(*trace, probe.now() + 1)) << name;
        const Cycle stop = probe.now();

        const SimResult full = runFull(cfg, "gcc", 20000);
        const SimResult resumed =
            runThroughSnapshot(cfg, "gcc", 20000, stop, path);
        EXPECT_EQ(fingerprint(full), fingerprint(resumed))
            << name << " stop=" << stop;

        // The rebuilt ordinals are the ones a search finds.
        auto again = TraceLibrary::make(TraceLibrary::byName("gcc", 20000));
        OooCore restored(cfg);
        loadSnapshotInto(path, restored, *again);
        EXPECT_TRUE(StateAuditor::check(restored.auditView(), stop).empty())
            << name;
    }
    std::remove(path.c_str());
}

TEST(Snapshot, ProducerLanesSurviveRestore)
{
    // The producer links and class lanes are derived state, never
    // saved: a restore rebuilds them from the ROB image. Checkpoint
    // where a stale link would show: a Waiting consumer's producer has
    // retired and another uop already sits in the producer's slot.
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;
    cfg.cht.trackDistance = true;
    cfg.hmp = HmpKind::Chooser;
    cfg.bankMode = BankMode::Sliced;
    cfg.bankPred = BankPredKind::A;
    const std::string path = tmpPath("prod_lanes.snap");
    auto trace = TraceLibrary::make(TraceLibrary::byName("gcc", 20000));
    OooCore probe(cfg);
    probe.beginRun(*trace);
    // The last cycle each Waiting consumer was seen linked to its
    // first source's producer.
    std::map<SeqNum, Cycle> linkedAt;
    const auto orphan = [&linkedAt](const AuditView &v, Cycle now) {
        for (const AuditView::Entry &e : v.entries) {
            if (!e.waiting || e.src1Slot < 0)
                continue;
            if (e.src1Seq >= v.headSeq) {
                linkedAt[e.seq] = now;
                continue;
            }
            for (const AuditView::Entry &o : v.entries) {
                if (o.slot == e.src1Slot)
                    return e.seq;
            }
        }
        return SeqNum{0};
    };
    SeqNum consumer = 0;
    while ((consumer = orphan(probe.auditView(), probe.now())) == 0)
        ASSERT_FALSE(probe.advanceTo(*trace, probe.now() + 1));
    const Cycle stop = probe.now();
    ASSERT_EQ(linkedAt.count(consumer), 1u);

    const SimResult full = runFull(cfg, "gcc", 20000);
    const SimResult resumed =
        runThroughSnapshot(cfg, "gcc", 20000, stop, path);
    EXPECT_EQ(fingerprint(full), fingerprint(resumed)) << "stop=" << stop;

    // The rebuilt lanes are the ones the uninterrupted run holds, and
    // they audit clean, even restored into a core stopped at a cycle
    // where the consumer's link was still live: that stale link must
    // not survive the restore.
    OooCore restored(cfg);
    auto again = TraceLibrary::make(TraceLibrary::byName("gcc", 20000));
    restored.beginRun(*again);
    restored.advanceTo(*again, linkedAt[consumer]);
    loadSnapshotInto(path, restored, *again);
    const AuditView a = probe.auditView(), b = restored.auditView();
    EXPECT_TRUE(StateAuditor::check(b, stop).empty());
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        const AuditView::Entry &x = a.entries[i], &y = b.entries[i];
        EXPECT_EQ(x.prod1, y.prod1) << "seq " << x.seq;
        EXPECT_EQ(x.prod2, y.prod2) << "seq " << x.seq;
        EXPECT_EQ(x.laneClass, y.laneClass) << "seq " << x.seq;
        EXPECT_EQ(x.lanePool, y.lanePool) << "seq " << x.seq;
        EXPECT_EQ(x.laneUnclassified, y.laneUnclassified)
            << "seq " << x.seq;
    }
    std::remove(path.c_str());
}

TEST(Snapshot, HistogramsResetOnRestoreFromHistlessDonor)
{
    // Warm-fork with histograms newly enabled: the donor state has no
    // "hist" section, so the restoring core must start its seven
    // distributions cold — even if that core already ran a different
    // workload and its histograms hold counts. Leaking those dirty
    // counts into the resumed run is exactly the bug the single
    // resetHistograms() path closes.
    MachineConfig off = richConfig();
    off.collectHistograms = false;
    const MachineConfig on = richConfig();

    auto dt = TraceLibrary::make(TraceLibrary::byName("wd", 15000));
    OooCore donor(off);
    donor.beginRun(*dt);
    donor.advanceTo(*dt, 3000);
    const json::Value state = donor.saveState();
    ASSERT_EQ(state.find("hist"), nullptr);

    // Reference: a fresh histogram-collecting core resumes from it.
    auto t1 = TraceLibrary::make(TraceLibrary::byName("wd", 15000));
    OooCore fresh(on);
    fresh.loadState(state, *t1);
    fresh.advanceTo(*t1);
    const SimResult r_fresh = fresh.finishRun();
    const json::Value *fh = r_fresh.histograms.find("occ_rob");
    ASSERT_NE(fh, nullptr);
    EXPECT_GT(fh->at("count").asU64(), 0u);

    // Dirty core: run a full unrelated workload first, then resume.
    auto warm = TraceLibrary::make(TraceLibrary::byName("gcc", 15000));
    auto t2 = TraceLibrary::make(TraceLibrary::byName("wd", 15000));
    OooCore dirty(on);
    dirty.run(*warm);
    ASSERT_GT(dirty.saveState()
                  .at("hist")
                  .at("occ_rob")
                  .at("count")
                  .asU64(),
              0u);
    dirty.loadState(state, *t2);
    dirty.advanceTo(*t2);
    const SimResult r_dirty = dirty.finishRun();

    EXPECT_EQ(fingerprint(r_dirty), fingerprint(r_fresh));
}

TEST(Snapshot, HistogramSectionMustContainAllSevenDistributions)
{
    // A partial "hist" section must be rejected atomically: restoring
    // only some distributions would mix donor counts with whatever
    // this core held before.
    const MachineConfig cfg = richConfig();
    auto t = TraceLibrary::make(TraceLibrary::byName("wd", 15000));
    OooCore core(cfg);
    core.beginRun(*t);
    core.advanceTo(*t, 2000);
    const json::Value state = core.saveState();
    const json::Value *h = state.find("hist");
    ASSERT_NE(h, nullptr);
    ASSERT_EQ(h->size(), 7u);

    const auto restore = [&cfg](const json::Value &st) {
        auto tr =
            TraceLibrary::make(TraceLibrary::byName("wd", 15000));
        OooCore c(cfg);
        c.loadState(st, *tr);
    };
    restore(state); // the intact section is accepted

    for (const auto &victim : h->members()) {
        json::Value damaged = json::Value::object();
        for (const auto &m : state.members()) {
            if (m.first != "hist") {
                damaged.set(m.first, m.second);
                continue;
            }
            json::Value sub = json::Value::object();
            for (const auto &k : h->members())
                if (k.first != victim.first)
                    sub.set(k.first, k.second);
            damaged.set("hist", std::move(sub));
        }
        EXPECT_THROW(restore(damaged), ConfigError) << victim.first;
    }

    // An extra eighth distribution is just as malformed.
    json::Value extra = json::Value::object();
    for (const auto &m : state.members()) {
        json::Value v = m.second;
        if (m.first == "hist")
            v.set("mystery", Log2Histogram{}.toJson());
        extra.set(m.first, v);
    }
    EXPECT_THROW(restore(extra), ConfigError);
}

TEST(Snapshot, HistSectionIgnoredWhenCollectionDisabled)
{
    // The reverse fork: a histogram-collecting donor restored into a
    // histograms-off core. The section is surplus telemetry, not an
    // error, and since histograms never influence timing the resumed
    // run must match an uninterrupted histograms-off run bit for bit.
    const MachineConfig on = richConfig();
    MachineConfig off = richConfig();
    off.collectHistograms = false;

    auto dt = TraceLibrary::make(TraceLibrary::byName("wd", 15000));
    OooCore donor(on);
    donor.beginRun(*dt);
    donor.advanceTo(*dt, 3000);
    const json::Value state = donor.saveState();
    ASSERT_NE(state.find("hist"), nullptr);

    auto t = TraceLibrary::make(TraceLibrary::byName("wd", 15000));
    OooCore core(off);
    core.loadState(state, *t);
    core.advanceTo(*t);
    const SimResult r = core.finishRun();
    EXPECT_EQ(fingerprint(r), fingerprint(runFull(off, "wd", 15000)));
    EXPECT_TRUE(r.histograms.isNull());
}

TEST(Snapshot, CheckpointAtCycleZeroAndPastDrain)
{
    MachineConfig cfg;
    cfg.statsInterval = 300;
    const SimResult full = runFull(cfg, "swim", 15000);
    const std::string path = tmpPath("edges.snap");
    // Stop at 0: the snapshot holds a freshly-begun machine.
    SimResult resumed =
        runThroughSnapshot(cfg, "swim", 15000, 0, path);
    EXPECT_EQ(fingerprint(full), fingerprint(resumed));
    // Stop past drain: advanceTo() completed the whole run before the
    // checkpoint; the restored core's advanceTo() is a no-op and
    // finishRun() emits the same statistics.
    resumed = runThroughSnapshot(cfg, "swim", 15000, kCycleNever, path);
    EXPECT_EQ(fingerprint(full), fingerprint(resumed));
    std::remove(path.c_str());
}

TEST(Snapshot, FaultInjectorRngStreamRoundTrips)
{
    // A fault-injected run is deterministic under its seed; the
    // injector's xorshift state and counters must survive the
    // checkpoint or the resumed half would draw a different stream.
    FaultConfig fc;
    fc.bitRate = 0.01;
    fc.latRate = 0.01;
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Exclusive;
    cfg.cht.trackDistance = true;

    FaultInjector full_fi(fc);
    const SimResult full = runFull(cfg, "wd", 20000, &full_fi);

    FaultInjector warm_fi(fc), resume_fi(fc);
    const std::string path = tmpPath("faults.snap");
    const SimResult resumed = runThroughSnapshot(
        cfg, "wd", 20000, full.cycles / 2, path, &warm_fi, &resume_fi);
    EXPECT_EQ(fingerprint(full), fingerprint(resumed));
    EXPECT_EQ(stateio::save(full_fi).dump(0),
              stateio::save(resume_fi).dump(0));
    std::remove(path.c_str());
}

TEST(Snapshot, HeaderRecordsRunIdentity)
{
    MachineConfig cfg;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 15000));
    OooCore core(cfg);
    core.beginRun(*trace);
    core.advanceTo(*trace, 2000);
    const std::string path = tmpPath("header.snap");
    writeSnapshot(path, core, *trace, 2000);

    const SnapshotImage img = readSnapshot(path);
    EXPECT_EQ(img.version, kSnapshotFormatVersion);
    EXPECT_EQ(img.cycle, Cycle{2000});
    EXPECT_EQ(img.target, Cycle{2000});
    EXPECT_EQ(img.traceName, "wd");
    EXPECT_EQ(img.traceSize, trace->size());
    EXPECT_EQ(img.configIni, machineConfigToIni(cfg));
    EXPECT_TRUE(img.state.find("core"));
    EXPECT_TRUE(img.state.find("rob"));
    EXPECT_TRUE(img.state.find("result"));
    std::remove(path.c_str());
}

TEST(Snapshot, EveryByteTruncationIsRejectedNeverMisread)
{
    // Unlike the journal's resync-and-continue, a snapshot must treat
    // ANY truncation as fatal: restoring from a prefix would build a
    // subtly different machine. Only the complete byte string loads.
    MachineConfig cfg;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
    OooCore core(cfg);
    core.beginRun(*trace);
    core.advanceTo(*trace, 500);
    const std::string path = tmpPath("trunc.snap");
    writeSnapshot(path, core, *trace, 500);
    const std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 100u);

    const std::string cut = tmpPath("trunc_cut.snap");
    // Every-byte sweeps on a multi-kilobyte file are slow; cover every
    // byte of the first and last lines (framing, header, end marker)
    // and stride through the interior.
    const std::size_t firstNl = bytes.find('\n');
    ASSERT_NE(firstNl, std::string::npos);
    std::vector<std::size_t> lens;
    for (std::size_t len = 0; len <= firstNl + 1; ++len)
        lens.push_back(len);
    for (std::size_t len = firstNl + 2; len + 120 < bytes.size();
         len += 97)
        lens.push_back(len);
    for (std::size_t len = bytes.size() - 120; len < bytes.size(); ++len)
        lens.push_back(len);
    for (const std::size_t len : lens) {
        spit(cut, bytes.substr(0, len));
        EXPECT_THROW(readSnapshot(cut), ConfigError) << "len=" << len;
    }
    spit(cut, bytes);
    EXPECT_NO_THROW(readSnapshot(cut));
    std::remove(cut.c_str());
    std::remove(path.c_str());
}

TEST(Snapshot, CorruptBytesAnywhereAreRejected)
{
    MachineConfig cfg;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
    OooCore core(cfg);
    core.beginRun(*trace);
    core.advanceTo(*trace, 500);
    const std::string path = tmpPath("corrupt.snap");
    writeSnapshot(path, core, *trace, 500);
    const std::string bytes = slurp(path);

    // Flip a bit in the framing tag, the CRC hex, the header JSON, a
    // mid-file section and the end marker.
    const std::vector<std::size_t> offsets = {
        0, 7, 20, bytes.size() / 2, bytes.size() - 5};
    for (const std::size_t off : offsets) {
        std::string damaged = bytes;
        damaged[off] ^= 0x1;
        spit(path, damaged);
        EXPECT_THROW(readSnapshot(path), ConfigError) << "off=" << off;
    }
    std::remove(path.c_str());
}

TEST(Snapshot, UnsupportedVersionAndForeignFilesAreRejected)
{
    const std::string path = tmpPath("version.snap");
    // A future format version.
    json::Value header = json::Value::object();
    header.set("kind", json::Value("lrs-snapshot"));
    header.set("version", json::Value(std::uint64_t{999}));
    header.set("cycle", json::Value(std::uint64_t{0}));
    header.set("target", json::Value(std::uint64_t{0}));
    header.set("trace", json::Value("wd"));
    header.set("trace_size", json::Value(std::uint64_t{1}));
    header.set("config", json::Value(""));
    header.set("sections", json::Value(std::uint64_t{0}));
    json::Value end = json::Value::object();
    end.set("kind", json::Value("lrs-snapshot-end"));
    end.set("sections", json::Value(std::uint64_t{0}));
    spit(path, journalLine(header) + journalLine(end));
    EXPECT_THROW(readSnapshot(path), ConfigError);

    // A perfectly valid *journal* is not a snapshot.
    json::Value rec = json::Value::object();
    rec.set("cell", json::Value(std::uint64_t{0}));
    rec.set("status", json::Value("OK"));
    spit(path, journalLine(rec) + journalLine(rec));
    EXPECT_THROW(readSnapshot(path), ConfigError);

    std::remove(path.c_str());
    EXPECT_THROW(readSnapshot(path), IoError); // absent file
}

TEST(Snapshot, TraceAndGeometryMismatchesAreRejected)
{
    MachineConfig cfg;
    auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
    OooCore core(cfg);
    core.beginRun(*trace);
    core.advanceTo(*trace, 500);
    const std::string path = tmpPath("mismatch.snap");
    writeSnapshot(path, core, *trace, 500);

    // Wrong trace entirely.
    {
        auto other =
            TraceLibrary::make(TraceLibrary::byName("gcc", 8000));
        OooCore fresh(cfg);
        EXPECT_THROW(loadSnapshotInto(path, fresh, *other),
                     ConfigError);
    }
    // Right name, wrong length (a different sampling run).
    {
        auto other =
            TraceLibrary::make(TraceLibrary::byName("wd", 4000));
        OooCore fresh(cfg);
        EXPECT_THROW(loadSnapshotInto(path, fresh, *other),
                     ConfigError);
    }
    // Structurally incompatible machine: smaller ROB.
    {
        MachineConfig small = cfg;
        small.robSize = 64;
        auto same = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
        OooCore fresh(small);
        EXPECT_THROW(loadSnapshotInto(path, fresh, *same), ConfigError);
    }
    std::remove(path.c_str());
}

TEST(Snapshot, CrossSchemeWarmForkIsDeterministic)
{
    // The warm-once grid protocol: one base-config warmup per trace,
    // every scheme forked from it. The forked sweep must be
    // bit-identical for any worker count, and re-preparing must reuse
    // the checkpoints (same file bytes) rather than re-warm.
    std::istringstream grid_is("traces = wd gcc\n"
                               "schemes = traditional, exclusive, "
                               "storesets\n"
                               "len = 15000\n"
                               "warmup_snapshot = 2000\n"
                               "cht_track_distance = 1\n");
    BatchGrid grid = parseBatchGrid(grid_is, "test");
    const std::string dir = tmpPath("warmdir");

    prepareWarmupSnapshots(grid, dir, 2);
    const std::string before =
        slurp(warmupSnapshotPath(dir, "wd"));
    ASSERT_FALSE(before.empty());
    prepareWarmupSnapshots(grid, dir, 1); // second call: pure reuse
    EXPECT_EQ(slurp(warmupSnapshotPath(dir, "wd")), before);

    std::vector<SimJob> jobs;
    std::vector<std::string> keys;
    buildGridJobs(grid, jobs, keys);
    attachWarmupSnapshots(grid, dir, jobs);
    for (const auto &job : jobs)
        EXPECT_FALSE(job.fromSnapshot.empty());

    std::vector<std::string> serial;
    for (const auto &job : jobs) {
        const JobOutcome o = runOneSimJob(job);
        ASSERT_FALSE(o.failed()) << o.error;
        serial.push_back(fingerprint(o.result));
    }
    const auto outcomes = runJobs(jobs, 4);
    ASSERT_EQ(outcomes.size(), serial.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_FALSE(outcomes[i].failed()) << outcomes[i].error;
        EXPECT_EQ(fingerprint(outcomes[i].result), serial[i])
            << keys[i];
    }

    // The base-scheme cell is bit-identical to warm+finish by hand —
    // the fork really does resume, not re-run.
    {
        auto trace =
            TraceLibrary::make(TraceLibrary::byName("wd", 15000));
        MachineConfig base = grid.base;
        base.scheme = grid.schemes[0];
        OooCore core(base);
        loadSnapshotInto(warmupSnapshotPath(dir, "wd"), core, *trace);
        core.advanceTo(*trace);
        EXPECT_EQ(fingerprint(core.finishRun()), serial[0]);
    }

    for (const char *name : {"wd", "gcc"})
        std::remove(warmupSnapshotPath(dir, name).c_str());
    ::rmdir(dir.c_str());
}

TEST(Snapshot, StaleCheckpointsAreRegenerated)
{
    std::istringstream a_is("traces = wd\nlen = 12000\n"
                            "warmup_snapshot = 1000\n");
    BatchGrid a = parseBatchGrid(a_is, "test");
    const std::string dir = tmpPath("staledir");
    prepareWarmupSnapshots(a, dir, 1);
    const std::string path = warmupSnapshotPath(dir, "wd");
    EXPECT_EQ(readSnapshot(path).target, Cycle{1000});

    // Different warmup target → regenerate.
    std::istringstream b_is("traces = wd\nlen = 12000\n"
                            "warmup_snapshot = 2000\n");
    BatchGrid b = parseBatchGrid(b_is, "test");
    prepareWarmupSnapshots(b, dir, 1);
    EXPECT_EQ(readSnapshot(path).target, Cycle{2000});

    // Different base config → regenerate.
    std::istringstream c_is("traces = wd\nlen = 12000\n"
                            "warmup_snapshot = 2000\n"
                            "sched_window = 48\n");
    BatchGrid c = parseBatchGrid(c_is, "test");
    prepareWarmupSnapshots(c, dir, 1);
    EXPECT_EQ(readSnapshot(path).configIni, machineConfigToIni(c.base));

    // A torn file on disk → silently rewritten.
    const std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() / 2));
    prepareWarmupSnapshots(c, dir, 1);
    EXPECT_NO_THROW(readSnapshot(path));

    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

/** One pinned checkpoint: a config, whether a fault injector rides
 *  along, and the CRC-32 of the snapshot file it writes. */
struct SnapshotPin
{
    const char *name;
    MachineConfig cfg;
    bool faults;
    std::uint32_t crc;
};

MachineConfig
pinConfig(OrderingScheme scheme, HmpKind hmp, BankPredKind bank)
{
    MachineConfig cfg;
    cfg.scheme = scheme;
    cfg.hmp = hmp;
    cfg.bankMode = BankMode::Sliced;
    cfg.bankPred = bank;
    return cfg;
}

TEST(Snapshot, FileBytesArePinned)
{
    // The on-disk format is a contract with every checkpoint already
    // written: these CRCs may only change with kSnapshotFormatVersion.
    // Together the cases write every section a machine can carry.
    MachineConfig rich = pinConfig(OrderingScheme::Exclusive,
                                   HmpKind::Local, BankPredKind::A);
    rich.stridePrefetch = true;
    rich.collectHistograms = true;
    rich.statsInterval = 400;
    const std::vector<SnapshotPin> pins = {
        {"exclusive/local/A+faults", rich, true, 0x33f68924u},
        {"storebarrier/chooser/B",
         pinConfig(OrderingScheme::StoreBarrier, HmpKind::Chooser,
                   BankPredKind::B),
         false, 0x60754622u},
        {"storesets/local+timing/C",
         pinConfig(OrderingScheme::StoreSets, HmpKind::LocalTiming,
                   BankPredKind::C),
         false, 0xe9e37802u},
        {"inclusive/local/addr",
         pinConfig(OrderingScheme::Inclusive, HmpKind::Local,
                   BankPredKind::Addr),
         false, 0x39049129u},
    };
    const std::string path = tmpPath("pinned.snap");
    std::vector<std::string> seen;
    for (const SnapshotPin &pin : pins) {
        FaultConfig fc;
        fc.bitRate = 0.01;
        fc.latRate = 0.01;
        FaultInjector fi(fc);
        auto trace = TraceLibrary::make(TraceLibrary::byName("gcc", 6000));
        OooCore core(pin.cfg);
        if (pin.faults)
            core.attachFaultInjector(&fi);
        core.beginRun(*trace);
        core.advanceTo(*trace, 2500);
        writeSnapshot(path, core, *trace, 2500);
        EXPECT_EQ(crc32(slurp(path)), pin.crc)
            << pin.name << std::hex << " crc 0x" << crc32(slurp(path));
        const SnapshotImage img = readSnapshot(path);
        for (const auto &m : img.state.members())
            seen.push_back(m.first);
    }
    for (const char *section :
         {"cht", "hmp", "bank_pred", "barrier_cache", "store_sets",
          "prefetcher", "faults", "hist"}) {
        EXPECT_NE(std::find(seen.begin(), seen.end(), section),
                  seen.end())
            << section;
    }
    std::remove(path.c_str());
}

/** Rewrite section @p name of the snapshot at @p path through
 *  @p edit, re-framing every record so the CRCs stay valid. */
template <typename F>
void
tamperSection(const std::string &path, const std::string &name,
              F &&edit)
{
    std::string out;
    for (json::Value rec : readJournal(path)) {
        if (const json::Value *sec = rec.find("section");
            sec && sec->asString() == name) {
            rec.set("state", edit(rec.at("state")));
        }
        out += journalLine(rec);
    }
    spit(path, out);
}

/** Copy of array @p arr with element @p i replaced by @p v. */
json::Value
withElement(const json::Value &arr, std::size_t i, json::Value v)
{
    json::Value out = json::Value::array();
    for (std::size_t k = 0; k < arr.size(); ++k)
        out.push(k == i ? v : arr.at(k));
    return out;
}

TEST(Snapshot, ImpossibleSlotsAndRegistersAreRejected)
{
    // CRC framing proves the bytes are the writer's, not that they
    // describe a machine: a slot or register index outside the
    // configured geometry must be refused on restore, before any
    // cycle could dereference it.
    MachineConfig cfg;
    const std::string clean = tmpPath("tamper_clean.snap");
    {
        auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
        OooCore core(cfg);
        core.beginRun(*trace);
        core.advanceTo(*trace, 700);
        writeSnapshot(clean, core, *trace, 700);
    }
    const std::string bytes = slurp(clean);
    const std::string path = tmpPath("tamper.snap");
    const auto rejects = [&](const char *what, const char *section,
                             auto edit) {
        spit(path, bytes);
        tamperSection(path, section, edit);
        auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
        OooCore fresh(cfg);
        EXPECT_THROW(loadSnapshotInto(path, fresh, *trace), ConfigError)
            << what;
    };
    // The untouched bytes restore, so each rejection below is the
    // edited value's doing.
    {
        spit(path, bytes);
        tamperSection(path, "core",
                      [](const json::Value &st) { return st; });
        auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
        OooCore fresh(cfg);
        EXPECT_NO_THROW(loadSnapshotInto(path, fresh, *trace));
    }
    const auto renameSlot = [](json::Value v) {
        return [v](const json::Value &st) {
            json::Value core = st;
            core.set("rename_table",
                     withElement(st.at("rename_table"), 0, v));
            return core;
        };
    };
    rejects("rename slot 1000000", "core",
            renameSlot(json::Value(std::int64_t{1000000})));
    rejects("rename slot rob_size", "core",
            renameSlot(json::Value(std::int64_t{cfg.robSize})));
    rejects("rename slot -2", "core",
            renameSlot(json::Value(std::uint64_t{0} - 2)));
    const auto robField = [](std::size_t k, json::Value v) {
        return [k, v](const json::Value &rob) {
            return withElement(rob, 0, withElement(rob.at(0), k, v));
        };
    };
    rejects("rob src1 slot", "rob",
            robField(2, json::Value(std::int64_t{1000000})));
    rejects("rob src2 slot", "rob",
            robField(3, json::Value(std::int64_t{-2})));
    rejects("uop src1 register", "rob",
            robField(31, json::Value(std::int64_t{kNumArchRegs})));
    rejects("uop src2 register", "rob",
            robField(32, json::Value(std::int64_t{300})));
    rejects("uop dst register", "rob",
            robField(33, json::Value(std::int64_t{-2})));
    std::remove(path.c_str());
    std::remove(clean.c_str());
}

TEST(Snapshot, StuckOrInconsistentRestoredMachineFailsTheCell)
{
    // A CRC-valid, in-range snapshot can still describe a machine
    // that cannot finish. Running one must fail its cell with a
    // diagnostic carrying the cycle, never abort the process.
    MachineConfig cfg;
    const std::string clean = tmpPath("stuck_clean.snap");
    {
        auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
        OooCore core(cfg);
        core.beginRun(*trace);
        core.advanceTo(*trace, 700);
        writeSnapshot(clean, core, *trace, 700);
    }
    const std::string bytes = slurp(clean);
    std::uint64_t headSeq = 0;
    json::Value rob;
    for (const json::Value &rec : readJournal(clean)) {
        const json::Value *sec = rec.find("section");
        if (sec && sec->asString() == "core")
            headSeq = rec.at("state").at("head_seq").asU64();
        if (sec && sec->asString() == "rob")
            rob = rec.at("state");
    }
    // Row fields (OooCore::walkState): 0 seq, 1 state, 8 completion
    // cycle, 11 load class, 30 uop class.
    constexpr std::size_t kSeq = 0, kState = 1, kComplete = 8,
                          kLoadClass = 11, kUopClass = 30;
    const auto isIssuedLiveLoad = [&](const json::Value &row) {
        return row.at(kSeq).asU64() >= headSeq &&
               row.at(kState).asU64() == 1 /* Issued */ &&
               row.at(kUopClass).asU64() ==
                   static_cast<std::uint64_t>(UopClass::Load) &&
               row.at(kLoadClass).asU64() != 0 /* Unclassified */;
    };
    std::size_t slot = rob.size();
    for (std::size_t s = 0; s < rob.size(); ++s) {
        if (isIssuedLiveLoad(rob.at(s)) &&
            (slot == rob.size() ||
             rob.at(s).at(kSeq).asU64() < rob.at(slot).at(kSeq).asU64()))
            slot = s;
    }
    ASSERT_LT(slot, rob.size()) << "no issued load in flight at 700";

    const std::string path = tmpPath("stuck.snap");
    const auto expectFailure = [&](const char *what, std::size_t field,
                                   json::Value v, const char *message) {
        spit(path, bytes);
        tamperSection(path, "rob", [&](const json::Value &st) {
            return withElement(st, slot,
                               withElement(st.at(slot), field, v));
        });
        auto trace = TraceLibrary::make(TraceLibrary::byName("wd", 8000));
        OooCore core(cfg);
        ASSERT_NO_THROW(loadSnapshotInto(path, core, *trace)) << what;
        try {
            core.advanceTo(*trace);
            ADD_FAILURE() << what << ": the run finished";
        } catch (const AuditError &e) {
            ASSERT_EQ(e.diags().size(), 1u) << what;
            EXPECT_EQ(e.diags()[0].code, DiagCode::AuditViolation);
            EXPECT_GT(e.diags()[0].cycle, 700u) << what;
            EXPECT_NE(e.diags()[0].message.find(message),
                      std::string::npos)
                << e.what();
        }

        SimJob job;
        job.trace = TraceLibrary::byName("wd", 8000);
        job.cfg = cfg;
        job.fromSnapshot = path;
        const JobOutcome o = runOneSimJob(job);
        EXPECT_EQ(o.status, CellStatus::Failed) << what;
        EXPECT_EQ(o.code, "E_AUDIT_VIOLATION") << what;
    };
    expectFailure("unclassified issued load", kLoadClass,
                  json::Value(std::uint64_t{0}), "unclassified load");
    expectFailure("completion that never comes", kComplete,
                  json::Value(std::uint64_t{1} << 50), "deadlocked");
    std::remove(path.c_str());
    std::remove(clean.c_str());
}

TEST(Snapshot, DirForAndPathHelpers)
{
    BatchGrid grid;
    EXPECT_EQ(snapshotDirFor(grid, "/tmp/fig07.ini"),
              "/tmp/fig07.ini.snapshots");
    grid.snapshotDir = "/var/snaps";
    EXPECT_EQ(snapshotDirFor(grid, "/tmp/fig07.ini"), "/var/snaps");
    EXPECT_EQ(warmupSnapshotPath("/var/snaps", "wd"),
              "/var/snaps/wd.warmup.snap");
}

} // namespace
} // namespace lrs
