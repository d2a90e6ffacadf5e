/**
 * @file
 * Tests of the per-cell flight recorder (core/flight_recorder.hh):
 * ring bounding and wrap accounting, CRC-framed dumps readable by the
 * journal reader, the failed-cell dump path through runOneSimJob(),
 * plus the host-time self-profiler (common/profiler.hh) and build
 * provenance block (common/buildinfo.hh) that ride in the same
 * telemetry layer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/buildinfo.hh"
#include "common/journal.hh"
#include "common/profiler.hh"
#include "core/flight_recorder.hh"
#include "core/parallel.hh"
#include "trace/library.hh"
#include "tmp_path.hh"

namespace lrs
{
namespace
{

void
recordN(FlightRecorder &fr, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        fr.record(TraceEvent::Issue, /*cycle=*/i, /*seq=*/i,
                  /*pc=*/0x1000 + i, UopClass::Load);
    }
}

TEST(FlightRecorder, RingIsBoundedAndWraps)
{
    FlightRecorder fr(8);
    EXPECT_EQ(fr.capacity(), 8u);
    recordN(fr, 5);
    EXPECT_EQ(fr.size(), 5u);
    EXPECT_FALSE(fr.wrapped());
    recordN(fr, 15);
    EXPECT_EQ(fr.size(), 8u);
    EXPECT_EQ(fr.totalRecorded(), 20u);
    EXPECT_TRUE(fr.wrapped());
}

TEST(FlightRecorder, DumpIsCrcValidJournal)
{
    const std::string path = tmpPath("dump.jsonl");
    std::filesystem::remove(path);
    FlightRecorder fr(16);
    fr.setIdentity(7, "wd/exclusive");
    fr.setDumpPath(path);
    // The initial (header-only) snapshot must already be valid: this
    // is what a SIGKILL right after arming would leave behind.
    {
        JournalReadStats st;
        const auto recs = readJournal(path, &st);
        EXPECT_EQ(st.badLines, 0u);
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].at("type").asString(), "flight_recorder");
    }
    recordN(fr, 40); // wraps a 16-entry ring
    fr.note("test", "note text");
    JournalReadStats st;
    const std::vector<json::Value> recs = readJournal(path, &st);
    EXPECT_EQ(st.badLines, 0u);
    EXPECT_FALSE(st.truncatedTail);
    // Header + one record per retained event.
    ASSERT_EQ(recs.size(), 1u + 16u);
    const json::Value &hdr = recs[0];
    EXPECT_EQ(hdr.at("cell").asU64(), 7u);
    EXPECT_EQ(hdr.at("key").asString(), "wd/exclusive");
    EXPECT_EQ(hdr.at("total_recorded").asU64(), 40u);
    EXPECT_TRUE(hdr.at("wrapped").asBool());
    EXPECT_EQ(hdr.at("notes").size(), 1u);
    // Events are oldest-first: the ring kept cycles 24..39.
    EXPECT_EQ(recs[1].at("c").asU64(), 24u);
    EXPECT_EQ(recs.back().at("c").asU64(), 39u);
    EXPECT_EQ(recs[1].at("e").asString(), "issue");
    fr.removeDump();
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FlightRecorder, NotesAreBounded)
{
    const std::string path = tmpPath("notes.jsonl");
    std::filesystem::remove(path);
    FlightRecorder fr(4);
    fr.setDumpPath(path);
    for (int i = 0; i < 40; ++i)
        fr.note("k", "note " + std::to_string(i));
    JournalReadStats st;
    const auto recs = readJournal(path, &st);
    EXPECT_EQ(st.badLines, 0u);
    EXPECT_EQ(recs[0].at("notes").size(), FlightRecorder::kMaxNotes);
    EXPECT_EQ(recs[0].at("dropped_notes").asU64(),
              40u - FlightRecorder::kMaxNotes);
    fr.removeDump();
}

TEST(FlightRecorder, FailedCellLeavesClassifiedDump)
{
    const std::string path = tmpPath("failed.jsonl");
    std::filesystem::remove(path);
    FlightRecorder fr;
    fr.setIdentity(3, "wd/traditional");
    fr.setDumpPath(path);

    SimJob job;
    job.trace = TraceLibrary::byName("wd", 50000);
    job.cfg.maxCycles = 100; // deterministic in-core deadline
    const JobOutcome o = runOneSimJob(job, &fr);
    EXPECT_EQ(o.status, CellStatus::Timeout);

    JournalReadStats st;
    const auto recs = readJournal(path, &st);
    EXPECT_EQ(st.badLines, 0u);
    ASSERT_GE(recs.size(), 1u);
    // The outcome classification was noted into the dump before the
    // outcome was returned, so the dump is self-describing.
    bool found = false;
    for (std::size_t i = 0; i < recs[0].at("notes").size(); ++i) {
        const json::Value &n = recs[0].at("notes").at(i);
        if (n.at("kind").asString() == "outcome" &&
            n.at("text").asString().find("E_DEADLINE_EXCEEDED") !=
                std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found);
    // And the ring captured real pipeline events up to the deadline.
    EXPECT_GT(recs[0].at("total_recorded").asU64(), 0u);
    fr.removeDump();
}

TEST(FlightRecorder, SuccessfulCellCostsNothingOnDisk)
{
    SimJob job;
    job.trace = TraceLibrary::byName("wd", 20000);
    FlightRecorder fr; // no dump path set
    const JobOutcome o = runOneSimJob(job, &fr);
    EXPECT_EQ(o.status, CellStatus::Ok);
    EXPECT_GT(fr.totalRecorded(), 0u);
    EXPECT_TRUE(fr.dumpPath().empty());
}

TEST(Profiler, DisabledScopeIsInert)
{
    prof::setEnabled(false);
    prof::resetAll();
    {
        prof::Scope s(prof::Stage::Issue);
    }
    EXPECT_EQ(prof::stageTicks(prof::Stage::Issue), 0u);
}

TEST(Profiler, CollectsPerStageSelfTime)
{
    prof::setEnabled(true);
    prof::resetAll();
    {
        prof::Scope outer(prof::Stage::Issue);
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 100000; ++i)
            sink = sink + static_cast<std::uint64_t>(i);
        {
            prof::Scope inner(prof::Stage::Predict);
            for (int i = 0; i < 100000; ++i)
                sink = sink + static_cast<std::uint64_t>(i);
        }
    }
    prof::setEnabled(false);
    EXPECT_GT(prof::stageTicks(prof::Stage::Issue), 0u);
    EXPECT_GT(prof::stageTicks(prof::Stage::Predict), 0u);
    EXPECT_EQ(prof::stageTicks(prof::Stage::Commit), 0u);

    const json::Value rep = prof::reportJson(12345, 0.5);
    EXPECT_EQ(rep.at("uops").asU64(), 12345u);
    EXPECT_DOUBLE_EQ(rep.at("uops_per_sec").asDouble(), 24690.0);
    EXPECT_GT(
        rep.at("stages").at("issue").at("seconds").asDouble(), 0.0);
    const std::string text = prof::reportText(12345, 0.5);
    EXPECT_NE(text.find("uops/sec"), std::string::npos);
    prof::resetAll();
}

TEST(Profiler, CountsOfExitedThreadsAreKept)
{
    // parallelFor() threads exit when each call returns; what they
    // counted must still be reported after they are gone, and a reset
    // must still clear it.
    prof::resetAll();
    for (int call = 0; call < 20; ++call) {
        parallelFor(
            8,
            [](std::size_t) {
                prof::addCount(prof::Counter::WakeResets, 3);
            },
            4);
    }
    EXPECT_EQ(prof::counterValue(prof::Counter::WakeResets), 20u * 8 * 3);
    prof::resetAll();
    EXPECT_EQ(prof::counterValue(prof::Counter::WakeResets), 0u);
}

TEST(BuildInfo, ProvenanceBlockIsComplete)
{
    const json::Value b = buildProvenanceJson();
    EXPECT_FALSE(b.at("compiler").asString().empty());
    EXPECT_FALSE(b.at("compiler_version").asString().empty());
    EXPECT_FALSE(b.at("build_type").asString().empty());
    EXPECT_FALSE(b.at("sanitize").asString().empty());
    EXPECT_FALSE(b.at("git_sha").asString().empty());
}

} // namespace
} // namespace lrs
