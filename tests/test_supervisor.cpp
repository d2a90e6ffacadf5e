/**
 * @file
 * Tests of the resilient sweep supervisor (core/supervisor.hh):
 * journaling + resume byte-identity, grid-mismatch rejection, the
 * bounded retry policy, deterministic per-cell deadlines, failure
 * containment (an AuditError fails one cell, not the sweep), and —
 * in the SupervisorIsolate suite — the fork-per-cell isolation mode.
 *
 * Both suites run under every sanitizer pass: "ParallelSupervisor"
 * exercises the supervisor over the thread pool, "SupervisorIsolate"
 * its forked children, which the sweep's own thread forks while no
 * other thread runs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/diag.hh"
#include "common/journal.hh"
#include "core/runner.hh"
#include "core/supervisor.hh"
#include "trace/library.hh"
#include "tmp_path.hh"

namespace lrs
{
namespace
{

/** Clear the process-wide interrupt flag however the test exits. */
struct InterruptGuard
{
    InterruptGuard() { clearSweepInterrupt(); }
    ~InterruptGuard() { clearSweepInterrupt(); }
};

std::vector<std::string>
makeKeys(std::size_t n)
{
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back("cell" + std::to_string(i));
    return keys;
}

/** A cheap deterministic "simulation": cell i yields cycles 1000+i. */
JobOutcome
fakeCell(std::size_t cell)
{
    JobOutcome o;
    o.result.trace = "t" + std::to_string(cell);
    o.result.config = "c";
    o.result.cycles = 1000 + cell;
    o.result.uops = 500;
    return o;
}

/** Sweep @p jobs as --batch does: cell i simulates jobs[i]. */
std::vector<JobOutcome>
sweepJobs(SweepSupervisor &sup, const std::vector<SimJob> &jobs,
          const std::vector<std::string> &keys)
{
    return sup.run(jobs.size(), keys, [&jobs](std::size_t i, unsigned) {
        return runOneSimJob(jobs[i]);
    });
}

/** A small real (trace × scheme) grid, as --batch would build it. */
std::vector<SimJob>
realGrid()
{
    std::vector<SimJob> jobs;
    for (const char *name : {"wd", "gcc"}) {
        for (const auto scheme :
             {OrderingScheme::Traditional, OrderingScheme::Exclusive}) {
            SimJob j;
            j.trace = TraceLibrary::byName(name, 20000);
            j.cfg.scheme = scheme;
            j.cfg.cht.trackDistance = true;
            jobs.push_back(j);
        }
    }
    return jobs;
}

std::string
dumpResults(const std::vector<JobOutcome> &outcomes)
{
    std::string out;
    for (const auto &o : outcomes) {
        EXPECT_TRUE(o.status == CellStatus::Ok ||
                    o.status == CellStatus::Skipped)
            << o.error;
        out += o.resultJson.dump(0);
        out += "\n";
    }
    return out;
}

TEST(ParallelSupervisor, RunsEveryCellAndFillsResultJson)
{
    InterruptGuard guard;
    SweepOptions opts;
    opts.workers = 4;
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        8, makeKeys(8),
        [](std::size_t cell, unsigned) { return fakeCell(cell); });
    ASSERT_EQ(outcomes.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(outcomes[i].status, CellStatus::Ok);
        EXPECT_EQ(outcomes[i].attempts, 1u);
        EXPECT_FALSE(outcomes[i].resultJson.isNull());
        EXPECT_EQ(outcomes[i].resultJson.at("cycles").asU64(),
                  1000 + i);
    }
    EXPECT_EQ(sup.sweepStats().ok, 8u);
    EXPECT_EQ(sup.sweepStats().gaveUp, 0u);
    EXPECT_FALSE(sup.interrupted());
}

TEST(ParallelSupervisor, ResumeSkipsJournaledCellsWithoutRerunning)
{
    InterruptGuard guard;
    const std::string path = tmpPath("resume_skip.jsonl");
    std::remove(path.c_str());

    SweepOptions opts;
    opts.journalPath = path;
    opts.workers = 2;
    {
        SweepSupervisor sup(opts);
        sup.run(6, makeKeys(6), [](std::size_t cell, unsigned) {
            return fakeCell(cell);
        });
    }

    opts.resume = true;
    SweepSupervisor sup(opts);
    std::atomic<unsigned> reran{0};
    const auto outcomes =
        sup.run(6, makeKeys(6), [&](std::size_t cell, unsigned) {
            reran.fetch_add(1);
            return fakeCell(cell);
        });
    EXPECT_EQ(reran.load(), 0u);
    EXPECT_EQ(sup.sweepStats().skipped, 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(outcomes[i].status, CellStatus::Skipped);
        EXPECT_EQ(outcomes[i].attempts, 0u);
        EXPECT_EQ(outcomes[i].resultJson.at("cycles").asU64(),
                  1000 + i);
        // The restored summary feeds the report table.
        EXPECT_EQ(outcomes[i].result.cycles, 1000 + i);
    }
    std::remove(path.c_str());
}

TEST(ParallelSupervisor, ProgressHeartbeatsCountOnlyFreshWorkOnResume)
{
    InterruptGuard guard;
    const std::string path = tmpPath("resume_progress.jsonl");
    std::remove(path.c_str());

    SweepOptions opts;
    opts.journalPath = path;
    opts.workers = 2;
    {
        // First pass: cells 0-2 succeed and journal OK records; 3-5
        // fail, so the resume below must re-run exactly those three.
        SweepSupervisor sup(opts);
        sup.run(6, makeKeys(6),
                [](std::size_t cell, unsigned) -> JobOutcome {
                    if (cell >= 3)
                        throwConfig("test", "cell", "induced failure");
                    return fakeCell(cell);
                });
    }

    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    opts.resume = true;
    opts.progressFd = fds[1];
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        6, makeKeys(6),
        [](std::size_t cell, unsigned) { return fakeCell(cell); });
    close(fds[1]);

    ASSERT_EQ(sup.sweepStats().skipped, 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(outcomes[i].status, CellStatus::Skipped);
    for (std::size_t i = 3; i < 6; ++i)
        EXPECT_EQ(outcomes[i].status, CellStatus::Ok);

    std::string stream;
    char buf[4096];
    for (ssize_t k; (k = read(fds[0], buf, sizeof buf)) > 0;)
        stream.append(buf, static_cast<std::size_t>(k));
    close(fds[0]);

    // Every heartbeat: journal-restored cells ride in "skipped" and
    // never leak into done/uops (the rate and ETA basis). The
    // regression counted them as fresh completions, which inflated
    // the uops/sec rate with work this process never did.
    std::size_t lines = 0;
    json::Value last;
    std::istringstream is(stream);
    for (std::string line; std::getline(is, line);) {
        ++lines;
        const json::Value hb = json::Value::parse(line);
        EXPECT_EQ(hb.at("type").asString(), "progress");
        EXPECT_EQ(hb.at("total").asU64(), 6u);
        EXPECT_EQ(hb.at("skipped").asU64(), 3u);
        const std::uint64_t done = hb.at("done").asU64();
        EXPECT_LE(done, 3u);
        EXPECT_EQ(hb.at("uops").asU64(), done * 500u);
        // No rate basis until the first FRESH completion.
        if (done == 0) {
            EXPECT_TRUE(hb.at("eta_ms").isNull());
        }
        last = hb;
    }
    ASSERT_GE(lines, 2u); // at least the initial + final heartbeats
    EXPECT_EQ(last.at("done").asU64(), 3u);
    EXPECT_EQ(last.at("ok").asU64(), 3u);
    EXPECT_EQ(last.at("uops").asU64(), 1500u);
    // Nothing remains: the closing ETA is exactly zero, not a
    // skipped-cells-made-it-negative artifact.
    EXPECT_EQ(last.at("eta_ms").asU64(), 0u);
    std::remove(path.c_str());
}

TEST(ParallelSupervisor, ResumeIsByteIdenticalToUninterruptedRun)
{
    InterruptGuard guard;
    const auto jobs = realGrid();
    const auto keys = makeKeys(jobs.size());
    const std::string path = tmpPath("resume_ident.jsonl");
    std::remove(path.c_str());

    SweepOptions opts;
    opts.journalPath = path;
    opts.workers = 2;
    std::string full;
    {
        SweepSupervisor sup(opts);
        full = dumpResults(sweepJobs(sup, jobs, keys));
    }

    // Simulate a crash after two cells: keep only the first two
    // journal lines (whatever order they landed in).
    std::string bytes;
    {
        std::vector<json::Value> recs = readJournal(path);
        ASSERT_EQ(recs.size(), jobs.size());
        bytes = journalLine(recs[0]) + journalLine(recs[1]);
    }
    std::remove(path.c_str());

    for (const unsigned workers : {1u, 2u, 8u}) {
        SweepOptions ro = opts;
        ro.resume = true;
        ro.workers = workers;
        // Resume into a scratch copy so each loop iteration starts
        // from the same two-record journal.
        const std::string scratch =
            tmpPath("resume_ident_scratch.jsonl");
        {
            std::ofstream os(scratch,
                             std::ios::binary | std::ios::trunc);
            os << bytes;
        }
        ro.journalPath = scratch;
        SweepSupervisor sup(ro);
        const auto resumed = sweepJobs(sup, jobs, keys);
        EXPECT_EQ(sup.sweepStats().skipped, 2u);
        EXPECT_EQ(dumpResults(resumed), full)
            << "workers=" << workers;
        std::remove(scratch.c_str());
    }
    std::remove(path.c_str());
}

TEST(ParallelSupervisor, JournalFromDifferentGridIsRejected)
{
    InterruptGuard guard;
    const std::string path = tmpPath("mismatch.jsonl");
    std::remove(path.c_str());

    SweepOptions opts;
    opts.journalPath = path;
    opts.workers = 1;
    {
        SweepSupervisor sup(opts);
        sup.run(4, makeKeys(4), [](std::size_t cell, unsigned) {
            return fakeCell(cell);
        });
    }

    opts.resume = true;
    // Same size, different keys: must be rejected, not half-resumed.
    std::vector<std::string> other = makeKeys(4);
    other[2] = "someone_elses_grid";
    SweepSupervisor sup(opts);
    try {
        sup.run(4, other, [](std::size_t cell, unsigned) {
            return fakeCell(cell);
        });
        FAIL() << "mismatched journal was accepted";
    } catch (const ConfigError &e) {
        ASSERT_FALSE(e.diags().empty());
        EXPECT_EQ(e.diags().front().code, DiagCode::JournalInvalid);
    }

    // A journal larger than the grid is a mismatch too.
    SweepSupervisor small(opts);
    EXPECT_THROW(small.run(2, makeKeys(2),
                           [](std::size_t cell, unsigned) {
                               return fakeCell(cell);
                           }),
                 ConfigError);
    std::remove(path.c_str());
}

TEST(ParallelSupervisor, TransientFailureClearsWithinRetryBudget)
{
    InterruptGuard guard;
    SweepOptions opts;
    opts.retries = 2;
    opts.workers = 2;
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        5, makeKeys(5), [](std::size_t cell, unsigned attempt) {
            if (cell == 3 && attempt < 3) {
                throw AuditError({makeDiag(DiagCode::AuditViolation,
                                           "test", "",
                                           "transient fault")});
            }
            return fakeCell(cell);
        });
    EXPECT_EQ(outcomes[3].status, CellStatus::Ok);
    EXPECT_EQ(outcomes[3].attempts, 3u);
    EXPECT_EQ(sup.sweepStats().ok, 5u);
    EXPECT_EQ(sup.sweepStats().retries, 2u);
    EXPECT_EQ(sup.sweepStats().gaveUp, 0u);
}

TEST(ParallelSupervisor, PersistentFailureGivesUpWithTaxonomy)
{
    InterruptGuard guard;
    SweepOptions opts;
    opts.retries = 1;
    opts.workers = 2;
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        4, makeKeys(4), [](std::size_t cell, unsigned) -> JobOutcome {
            if (cell == 1)
                throwConfig("test", "knob", "always invalid");
            return fakeCell(cell);
        });
    EXPECT_EQ(outcomes[1].status, CellStatus::Failed);
    EXPECT_EQ(outcomes[1].code, "E_CONFIG_INVALID");
    EXPECT_EQ(outcomes[1].attempts, 2u);
    EXPECT_EQ(sup.sweepStats().retries, 1u);
    EXPECT_EQ(sup.sweepStats().gaveUp, 1u);
    EXPECT_EQ(sup.sweepStats().ok, 3u);
}

TEST(ParallelSupervisor, AuditErrorFailsOnlyItsCellAndIsJournaled)
{
    InterruptGuard guard;
    const std::string path = tmpPath("audit.jsonl");
    std::remove(path.c_str());
    SweepOptions opts;
    opts.journalPath = path;
    opts.workers = 2;
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        4, makeKeys(4), [](std::size_t cell, unsigned) -> JobOutcome {
            if (cell == 2) {
                throw AuditError({makeDiag(
                    DiagCode::AuditViolation, "core.auditor", "rob",
                    "head sequence regressed", 4242)});
            }
            return fakeCell(cell);
        });
    for (std::size_t i = 0; i < 4; ++i) {
        if (i == 2) {
            EXPECT_EQ(outcomes[i].status, CellStatus::Failed);
            EXPECT_EQ(outcomes[i].code, "E_AUDIT_VIOLATION");
        } else {
            EXPECT_EQ(outcomes[i].status, CellStatus::Ok)
                << outcomes[i].error;
        }
    }
    // The violation is in the journal — a resumed sweep re-runs the
    // poisoned cell but trusts the three clean ones.
    const auto recs = readJournal(path);
    ASSERT_EQ(recs.size(), 4u);
    unsigned failedRecords = 0;
    for (const auto &r : recs) {
        if (r.at("status").asString() == "FAILED") {
            ++failedRecords;
            EXPECT_EQ(r.at("cell").asU64(), 2u);
            EXPECT_EQ(r.at("code").asString(), "E_AUDIT_VIOLATION");
        }
    }
    EXPECT_EQ(failedRecords, 1u);
    std::remove(path.c_str());
}

TEST(ParallelSupervisor, MaxCyclesBudgetIsDeterministicTimeout)
{
    InterruptGuard guard;
    SimJob job;
    job.trace = TraceLibrary::byName("wd", 50000);
    job.cfg.scheme = OrderingScheme::Exclusive;
    job.cfg.maxCycles = 1000; // far below what 50k uops need

    SweepOptions opts;
    opts.workers = 1;
    SweepSupervisor sup(opts);
    const auto outcomes = sweepJobs(sup, {job}, {"wd/Exclusive"});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, CellStatus::Timeout);
    EXPECT_EQ(outcomes[0].code, "E_DEADLINE_EXCEEDED");
    EXPECT_EQ(sup.sweepStats().timeout, 1u);
    EXPECT_EQ(sup.sweepStats().gaveUp, 1u);
}

TEST(ParallelSupervisor, InterruptedSweepResumesWhereItStopped)
{
    InterruptGuard guard;
    const std::string path = tmpPath("interrupt.jsonl");
    std::remove(path.c_str());

    SweepOptions opts;
    opts.journalPath = path;
    opts.workers = 1; // serial: cells run in ascending id order
    {
        SweepSupervisor sup(opts);
        const auto outcomes = sup.run(
            6, makeKeys(6), [](std::size_t cell, unsigned) {
                if (cell == 2)
                    requestSweepInterrupt(); // "SIGINT" mid-sweep
                return fakeCell(cell);
            });
        EXPECT_TRUE(sup.interrupted());
        // Cells 0..2 completed (2's interrupt lands after its own
        // simulation); 3..5 were never started and not journaled.
        EXPECT_EQ(sup.sweepStats().ok, 3u);
        EXPECT_EQ(sup.sweepStats().interrupted, 3u);
        for (std::size_t i = 3; i < 6; ++i)
            EXPECT_EQ(outcomes[i].code, "E_INTERRUPTED");
        EXPECT_EQ(readJournal(path).size(), 3u);
    }

    clearSweepInterrupt();
    opts.resume = true;
    SweepSupervisor sup(opts);
    std::vector<std::atomic<unsigned>> reran(6);
    const auto outcomes =
        sup.run(6, makeKeys(6), [&](std::size_t cell, unsigned) {
            reran[cell].fetch_add(1);
            return fakeCell(cell);
        });
    EXPECT_FALSE(sup.interrupted());
    EXPECT_EQ(sup.sweepStats().skipped, 3u);
    EXPECT_EQ(sup.sweepStats().ok, 3u);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(reran[i].load(), i < 3 ? 0u : 1u) << "cell " << i;
    std::remove(path.c_str());
}

/** Write @p records as a journal at @p path through JournalWriter. */
void
writeJournalRecords(const std::string &path,
                    const std::vector<json::Value> &records)
{
    JournalWriter w(path, /*truncate=*/true);
    for (const json::Value &r : records)
        w.append(r);
}

TEST(ParallelSupervisor, MalformedJournalRecordIsJournalInvalid)
{
    InterruptGuard guard;
    const std::string path = tmpPath("malformed.jsonl");
    // CRC-valid records that this build never writes: an unknown
    // status, and a cell id that is not a number.
    json::Value bogus = json::Value::object();
    bogus.set("v", 1);
    bogus.set("cell", std::uint64_t{0});
    bogus.set("key", "cell0");
    bogus.set("status", "BOGUS");
    bogus.set("attempts", std::uint64_t{1});
    json::Value named = json::Value::object();
    named.set("v", 1);
    named.set("cell", "zero");
    named.set("key", "cell0");
    named.set("status", "FAILED");
    named.set("attempts", std::uint64_t{1});
    named.set("code", "E_INTERNAL");
    named.set("error", "x");
    for (const json::Value &rec : {bogus, named}) {
        writeJournalRecords(path, {rec});
        SweepOptions opts;
        opts.journalPath = path;
        opts.resume = true;
        opts.workers = 1;
        SweepSupervisor sup(opts);
        try {
            sup.run(2, makeKeys(2), [](std::size_t cell, unsigned) {
                return fakeCell(cell);
            });
            FAIL() << "malformed record accepted: " << rec.dump(0);
        } catch (const ConfigError &e) {
            ASSERT_FALSE(e.diags().empty());
            EXPECT_EQ(e.diags().front().code, DiagCode::JournalInvalid)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

TEST(ParallelSupervisor, JournalLinesArePinned)
{
    InterruptGuard guard;
    const std::string path = tmpPath("pinned.jsonl");
    std::remove(path.c_str());
    SweepOptions opts;
    opts.journalPath = path;
    opts.workers = 1; // serial: records land in cell order
    const auto cell = [](std::size_t i, unsigned) {
        JobOutcome o;
        if (i == 0) {
            o.result.trace = "t0";
            o.result.config = "c";
            o.result.cycles = 1000;
            o.result.uops = 500;
            o.resultJson = json::Value::object();
            o.resultJson.set("trace", "t0");
            o.resultJson.set("config", "c");
            o.resultJson.set("cycles", std::uint64_t{1000});
            o.resultJson.set("uops", std::uint64_t{500});
        } else if (i == 1) {
            o.status = CellStatus::Failed;
            o.code = "E_CONFIG_INVALID";
            o.error = "induced";
        } else {
            o.status = CellStatus::Crashed;
            o.code = "E_CELL_CRASHED";
            o.error = "killed";
            o.signal = 9;
        }
        return o;
    };
    {
        SweepSupervisor sup(opts);
        sup.run(3, makeKeys(3), cell);
    }
    // These bytes are what earlier builds wrote; a change here breaks
    // --resume of their journals.
    const std::string want =
        "LRSJ1 bbd9f8e6 {\"v\":1,\"cell\":0,\"key\":\"cell0\","
        "\"status\":\"OK\",\"attempts\":1,\"result\":{\"trace\":"
        "\"t0\",\"config\":\"c\",\"cycles\":1000,\"uops\":500}}\n"
        "LRSJ1 7a699926 {\"v\":1,\"cell\":1,\"key\":\"cell1\","
        "\"status\":\"FAILED\",\"attempts\":1,\"code\":"
        "\"E_CONFIG_INVALID\",\"error\":\"induced\"}\n"
        "LRSJ1 2fc79751 {\"v\":1,\"cell\":2,\"key\":\"cell2\","
        "\"status\":\"CRASHED\",\"attempts\":1,\"code\":"
        "\"E_CELL_CRASHED\",\"error\":\"killed\",\"signal\":9}\n";
    std::ifstream is(path, std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(got, want);

    // The pinned bytes resume: the OK cell is restored with its
    // summary, the failed and crashed cells run again.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << want;
    }
    opts.resume = true;
    SweepSupervisor sup(opts);
    std::vector<std::atomic<unsigned>> reran(3);
    const auto outcomes =
        sup.run(3, makeKeys(3), [&](std::size_t i, unsigned) {
            reran[i].fetch_add(1);
            return fakeCell(i);
        });
    EXPECT_EQ(outcomes[0].status, CellStatus::Skipped);
    EXPECT_EQ(outcomes[0].result.cycles, 1000u);
    EXPECT_EQ(outcomes[0].result.trace, "t0");
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(reran[i].load(), i == 0 ? 0u : 1u) << "cell " << i;
    std::remove(path.c_str());
}

TEST(ParallelSupervisor, OutcomeRecordRoundTrips)
{
    JobOutcome crashed;
    crashed.status = CellStatus::Crashed;
    crashed.code = "E_CELL_CRASHED";
    crashed.error = "killed";
    crashed.signal = 11;
    crashed.attempts = 3;
    const JobOutcome back =
        outcomeFromRecord(outcomeRecord(4, "k", crashed));
    EXPECT_EQ(back.status, CellStatus::Crashed);
    EXPECT_TRUE(back.failed());
    EXPECT_EQ(back.code, crashed.code);
    EXPECT_EQ(back.error, crashed.error);
    EXPECT_EQ(back.signal, 11);
    EXPECT_EQ(back.attempts, 3u);

    JobOutcome ok = fakeCell(7);
    ok.resultJson = ok.result.toJson();
    const JobOutcome okBack = outcomeFromRecord(outcomeRecord(7, "k", ok));
    EXPECT_FALSE(okBack.failed());
    EXPECT_EQ(okBack.resultJson.dump(0), ok.resultJson.dump(0));
    EXPECT_EQ(okBack.result.cycles, 1007u);
    EXPECT_EQ(okBack.result.uops, 500u);
    EXPECT_EQ(okBack.result.trace, "t7");
}

TEST(ParallelSupervisor, InterruptedRetryEndsNotRunNotFailed)
{
    InterruptGuard guard;
    SweepOptions opts;
    opts.retries = 1;
    opts.workers = 1; // serial: the retry round runs cell 0, then 1
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        3, makeKeys(3), [](std::size_t cell, unsigned attempt) {
            if (cell < 2 && attempt == 1)
                throwConfig("test", "cell", "induced failure");
            if (cell == 0)
                requestSweepInterrupt(); // lands before cell 1's retry
            return fakeCell(cell);
        });
    EXPECT_TRUE(sup.interrupted());
    EXPECT_EQ(outcomes[0].status, CellStatus::Ok);
    EXPECT_EQ(outcomes[1].code, "E_INTERRUPTED");
    const SweepStats &st = sup.sweepStats();
    EXPECT_EQ(st.ok, 2u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.gaveUp, 0u);
    EXPECT_EQ(st.interrupted, 1u);
    EXPECT_EQ(st.retries, 2u);
}

TEST(ParallelSupervisor, RetriedCellsCountOnceInHeartbeats)
{
    InterruptGuard guard;
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    SweepOptions opts;
    opts.retries = 2;
    opts.workers = 2;
    opts.progressFd = fds[1];
    SweepSupervisor sup(opts);
    sup.run(4, makeKeys(4), [](std::size_t cell, unsigned attempt) {
        if (cell == 2 || (cell == 3 && attempt < 3))
            throwConfig("test", "cell", "induced failure");
        return fakeCell(cell);
    });
    close(fds[1]);
    std::string stream;
    char buf[4096];
    for (ssize_t k; (k = read(fds[0], buf, sizeof buf)) > 0;)
        stream.append(buf, static_cast<std::size_t>(k));
    close(fds[0]);

    json::Value last;
    std::istringstream is(stream);
    for (std::string line; std::getline(is, line);) {
        last = json::Value::parse(line);
        EXPECT_LE(last.at("done").asU64(), 4u) << line;
    }
    ASSERT_TRUE(last.isObject());
    // Four fresh cells, however many attempts they took.
    EXPECT_EQ(last.at("done").asU64(), 4u);
    EXPECT_EQ(last.at("ok").asU64(), 3u);
    EXPECT_EQ(last.at("failed").asU64(), 1u);
    EXPECT_EQ(last.at("uops").asU64(), 1500u);
    EXPECT_EQ(sup.sweepStats().retries, 4u); // cells 2, 3 twice each
    EXPECT_EQ(sup.sweepStats().gaveUp, 1u);
}

TEST(SupervisorIsolate, CrashedCellIsContainedAndAttributed)
{
    InterruptGuard guard;
    const std::string path = tmpPath("crash.jsonl");
    std::remove(path.c_str());
    SweepOptions opts;
    opts.isolate = true;
    opts.journalPath = path;
    opts.workers = 2;
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        4, makeKeys(4), [](std::size_t cell, unsigned) {
            if (cell == 1) {
                // SIGKILL: uninterceptable, so the child dies the
                // same way under ASan/UBSan as in a plain build.
                std::raise(SIGKILL);
            }
            return fakeCell(cell);
        });
    for (std::size_t i = 0; i < 4; ++i) {
        if (i == 1) {
            EXPECT_EQ(outcomes[i].status, CellStatus::Crashed);
            EXPECT_EQ(outcomes[i].code, "E_CELL_CRASHED");
            EXPECT_EQ(outcomes[i].signal, SIGKILL);
        } else {
            EXPECT_EQ(outcomes[i].status, CellStatus::Ok)
                << outcomes[i].error;
            EXPECT_EQ(outcomes[i].resultJson.at("cycles").asU64(),
                      1000 + i);
        }
    }
    EXPECT_EQ(sup.sweepStats().crashed, 1u);
    EXPECT_EQ(sup.sweepStats().ok, 3u);

    // CRASHED is journaled but not final: a resume re-runs it. Run
    // the resume in-process — a forked child could not report back
    // through the reran counters below.
    opts.resume = true;
    opts.isolate = false;
    SweepSupervisor again(opts);
    std::vector<std::atomic<unsigned>> reran(4);
    again.run(4, makeKeys(4), [&](std::size_t cell, unsigned) {
        reran[cell].fetch_add(1);
        return fakeCell(cell);
    });
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(reran[i].load(), i == 1 ? 1u : 0u) << "cell " << i;
    EXPECT_EQ(again.sweepStats().ok, 1u);
    EXPECT_EQ(again.sweepStats().skipped, 3u);
    std::remove(path.c_str());
}

TEST(SupervisorIsolate, ForksFromTheSweepThreadOnly)
{
    InterruptGuard guard;
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    SweepOptions opts;
    opts.isolate = true;
    opts.workers = 4;
    opts.progressFd = fds[1];
    SweepSupervisor sup(opts);
    // Each child reports the thread count its parent had while it ran:
    // a fork beside a running thread can inherit a lock that thread
    // held, which no one in the child will ever release.
    const auto outcomes = sup.run(
        8, makeKeys(8), [](std::size_t cell, unsigned) {
            JobOutcome o = fakeCell(cell);
            o.result.cycles = 0;
            std::ifstream status("/proc/" + std::to_string(getppid()) +
                                 "/status");
            for (std::string line; std::getline(status, line);)
                if (line.rfind("Threads:", 0) == 0)
                    o.result.cycles = std::stoull(line.substr(8));
            return o;
        });
    close(fds[1]);
    for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(outcomes[i].status, CellStatus::Ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].result.cycles, 1u) << "cell " << i;
    }

    // --jobs bounds the live children, and none outlives the sweep.
    std::string stream;
    char buf[4096];
    for (ssize_t k; (k = read(fds[0], buf, sizeof buf)) > 0;)
        stream.append(buf, static_cast<std::size_t>(k));
    close(fds[0]);
    json::Value last;
    std::istringstream is(stream);
    for (std::string line; std::getline(is, line);) {
        last = json::Value::parse(line);
        EXPECT_LE(last.at("in_flight").asU64(), 4u) << line;
    }
    ASSERT_TRUE(last.isObject());
    EXPECT_EQ(last.at("done").asU64(), 8u);
    EXPECT_EQ(last.at("in_flight").asU64(), 0u);
}

TEST(SupervisorIsolate, IsolatedResultMatchesInProcessByteForByte)
{
    InterruptGuard guard;
    SimJob job;
    job.trace = TraceLibrary::byName("wd", 20000);
    job.cfg.scheme = OrderingScheme::Exclusive;
    job.cfg.cht.trackDistance = true;

    SweepOptions inproc;
    inproc.workers = 1;
    SweepSupervisor a(inproc);
    const auto direct = sweepJobs(a, {job}, {"wd/Exclusive"});

    SweepOptions forked = inproc;
    forked.isolate = true;
    SweepSupervisor b(forked);
    const auto isolated = sweepJobs(b, {job}, {"wd/Exclusive"});

    ASSERT_EQ(direct[0].status, CellStatus::Ok);
    ASSERT_EQ(isolated[0].status, CellStatus::Ok) << isolated[0].error;
    EXPECT_EQ(isolated[0].resultJson.dump(0),
              direct[0].resultJson.dump(0));
    EXPECT_EQ(isolated[0].result.cycles, direct[0].result.cycles);
}

TEST(SupervisorIsolate, WallClockWatchdogKillsWedgedCell)
{
    InterruptGuard guard;
    SweepOptions opts;
    opts.isolate = true;
    opts.cellTimeoutMs = 300;
    opts.workers = 1;
    opts.retries = 1; // a wedged cell stays wedged: still TIMEOUT
    SweepSupervisor sup(opts);
    const auto outcomes = sup.run(
        2, makeKeys(2), [](std::size_t cell, unsigned) {
            if (cell == 0) {
                for (;;) {
                    struct timespec ts = {1, 0};
                    ::nanosleep(&ts, nullptr);
                }
            }
            return fakeCell(cell);
        });
    EXPECT_EQ(outcomes[0].status, CellStatus::Timeout);
    EXPECT_EQ(outcomes[0].code, "E_DEADLINE_EXCEEDED");
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_EQ(outcomes[1].status, CellStatus::Ok) << outcomes[1].error;
    EXPECT_EQ(sup.sweepStats().timeout, 1u);
    EXPECT_EQ(sup.sweepStats().retries, 1u);
}

} // namespace
} // namespace lrs
