/**
 * @file
 * Tests of the parallel sweep engine (core/parallel.hh) and the
 * aggregation-layer fixes that rode along with it: parallelFor()'s
 * determinism contract (bit-identical results for any worker count),
 * its edge cases (empty batches, more workers than jobs, throwing
 * jobs, nesting), the hardened geomean()/envU64() paths and the
 * benches' Report. Suite names start with "Parallel" so the whole
 * group runs under `ctest -R Parallel` (tools/run_sanitized.sh --tsan
 * uses this).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/diag.hh"
#include "core/parallel.hh"
#include "core/runner.hh"
#include "trace/library.hh"

#include "../bench/bench_util.hh"
#include "tmp_path.hh"

namespace lrs
{
namespace
{

TEST(Parallel, ForEachRunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kN = 257; // not a multiple of the workers
    std::vector<std::atomic<int>> hits(kN);
    parallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ZeroJobsIsANoop)
{
    bool called = false;
    parallelFor(0, [&](std::size_t) { called = true; }, 4);
    EXPECT_FALSE(called);
    EXPECT_TRUE(runJobs({}, 4).empty());
}

TEST(Parallel, MoreWorkersThanJobs)
{
    // Width is min(workers, n): surplus workers start no threads.
    std::vector<std::atomic<int>> hits(3);
    std::vector<std::thread::id> ran(3);
    parallelFor(
        3,
        [&](std::size_t i) {
            hits[i].fetch_add(1);
            ran[i] = std::this_thread::get_id();
        },
        8);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
    EXPECT_LE(std::set<std::thread::id>(ran.begin(), ran.end()).size(),
              3u);
}

TEST(Parallel, RepeatedBatchesOnOnePool)
{
    // Back-to-back calls share nothing: each owns its cursor, so a
    // thread of call k can never claim an id of call k+1.
    for (int round = 0; round < 50; ++round) {
        const std::size_t n = 1 + static_cast<std::size_t>(round) % 7;
        std::atomic<std::size_t> ran{0};
        parallelFor(n, [&](std::size_t) { ran.fetch_add(1); }, 4);
        EXPECT_EQ(ran.load(), n) << "round " << round;
    }
}

TEST(Parallel, NestedForEachRunsInline)
{
    // Benches parallelise their outer loop; runAllSchemes() inside a
    // job runs its own parallelFor() inline on that job's thread.
    std::vector<std::atomic<int>> hits(16);
    std::vector<std::thread::id> outerId(4), innerId(16);
    parallelFor(
        4,
        [&](std::size_t outer) {
            outerId[outer] = std::this_thread::get_id();
            parallelFor(4, [&](std::size_t inner) {
                hits[outer * 4 + inner].fetch_add(1);
                innerId[outer * 4 + inner] = std::this_thread::get_id();
            });
        },
        4);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
        EXPECT_EQ(innerId[i], outerId[i / 4]) << "cell " << i;
    }
}

TEST(Parallel, ForEachPropagatesExceptionAfterAllJobsRan)
{
    std::atomic<std::size_t> ran{0};
    const auto body = [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 3 || i == 6)
            throw std::runtime_error("job " + std::to_string(i) +
                                     " exploded");
    };
    for (const unsigned workers : {1u, 4u}) {
        ran = 0;
        try {
            parallelFor(8, body, workers);
            ADD_FAILURE() << "no exception, workers=" << workers;
        } catch (const std::runtime_error &e) {
            // The lowest throwing index wins, whatever finished first.
            EXPECT_STREQ(e.what(), "job 3 exploded");
        }
        // One failure poisons the call's result, not its siblings:
        // every job still ran.
        EXPECT_EQ(ran.load(), 8u) << "workers=" << workers;
    }
}

TEST(Parallel, ConfiguredWorkersHonorsLrsJobs)
{
    setenv("LRS_JOBS", "5", 1);
    EXPECT_EQ(configuredWorkers(), 5u);
    setenv("LRS_JOBS", "0", 1);
    EXPECT_GE(configuredWorkers(), 1u);
    unsetenv("LRS_JOBS");
    EXPECT_GE(configuredWorkers(), 1u);
}

TEST(Parallel, ConfiguredWorkersCapsHugeLrsJobs)
{
    // Only the sizing function is called: a typo'd value must resolve
    // to the cap without anything trying to start that many threads.
    setenv("LRS_JOBS", "100000", 1);
    EXPECT_EQ(configuredWorkers(), 1024u);
    unsetenv("LRS_JOBS");
}

/** fig07-shaped grid: every trace crossed with every scheme. */
std::vector<SimJob>
fig07Grid()
{
    std::vector<SimJob> jobs;
    for (const char *name : {"wd", "gcc"}) {
        for (const auto scheme : allSchemes()) {
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
dumpOutcomes(const std::vector<JobOutcome> &outcomes)
{
    std::ostringstream os;
    for (const auto &o : outcomes) {
        EXPECT_FALSE(o.failed()) << o.error;
        os << o.result.toJson().dump(2) << "\n";
    }
    return os.str();
}

TEST(Parallel, RunJobsBitIdenticalForAnyWorkerCount)
{
    const auto jobs = fig07Grid();

    // Serial reference: the exact loop the benches ran before the
    // pool existed.
    std::ostringstream serial;
    for (const auto &j : jobs) {
        const auto trace = TraceLibrary::make(j.trace);
        serial << runSim(*trace, j.cfg).toJson().dump(2) << "\n";
    }

    for (const unsigned workers : {1u, 2u, 8u}) {
        EXPECT_EQ(dumpOutcomes(runJobs(jobs, workers)), serial.str())
            << "workers=" << workers;
    }
}

TEST(Parallel, ThrowingJobFailsItsSlotOnly)
{
    auto jobs = fig07Grid();
    jobs[2].cfg.intUnits = 0; // rejected by MachineConfig::validate()

    const auto outcomes = runJobs(jobs, 4);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i == 2) {
            EXPECT_TRUE(outcomes[i].failed());
            // Machine-readable taxonomy, not just the what() text:
            // the supervisor's journal and the batch failure report
            // both key off this code.
            EXPECT_EQ(outcomes[i].status, CellStatus::Failed);
            EXPECT_EQ(outcomes[i].code, "E_CONFIG_INVALID");
            EXPECT_NE(outcomes[i].error.find("int_units"),
                      std::string::npos)
                << outcomes[i].error;
        } else {
            EXPECT_FALSE(outcomes[i].failed()) << outcomes[i].error;
            EXPECT_GT(outcomes[i].result.cycles, 0u);
        }
    }
}

TEST(ParallelRunnerFixes, GeomeanSkipsNonPositiveValues)
{
    // The old fold took log() of whatever it was given, so a single
    // zero/negative speedup poisoned a whole figure with NaN.
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({-2.0, 0.0, 9.0}), 9.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_FALSE(std::isnan(geomean({0.0, 2.0})));
}

TEST(ParallelRunnerFixes, EnvU64RejectsOverflowAndNegatives)
{
    // 2^64 and beyond: strtoull clamps and sets ERANGE; the old code
    // silently returned ULLONG_MAX.
    setenv("LRS_TEST_ENV_KNOB", "18446744073709551616", 1);
    EXPECT_EQ(envU64("LRS_TEST_ENV_KNOB", 7), 7u);
    setenv("LRS_TEST_ENV_KNOB", "99999999999999999999999", 1);
    EXPECT_EQ(envU64("LRS_TEST_ENV_KNOB", 7), 7u);
    // strtoull accepts "-5" by wrapping it; we reject it.
    setenv("LRS_TEST_ENV_KNOB", "-5", 1);
    EXPECT_EQ(envU64("LRS_TEST_ENV_KNOB", 7), 7u);
    // The largest representable value still parses.
    setenv("LRS_TEST_ENV_KNOB", "18446744073709551615", 1);
    EXPECT_EQ(envU64("LRS_TEST_ENV_KNOB", 7), UINT64_MAX);
    unsetenv("LRS_TEST_ENV_KNOB");
}

TEST(ParallelBenchReport, WritesAtomicallyToEnvPath)
{
    const std::string path = tmpPath("test_report.json");
    std::remove(path.c_str());
    setenv("LRS_BENCH_JSON", path.c_str(), 1);

    benchutil::Report rep("unit", {{"k", "k", benchutil::Fmt::Fixed, 1}});
    rep.row({1.5});
    EXPECT_EQ(rep.write(), path);
    unsetenv("LRS_BENCH_JSON");

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("\"bench\": \"unit\""),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"k\": 1.5"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ParallelBenchReport, DirectoryPathIsAnError)
{
    setenv("LRS_BENCH_JSON", testing::TempDir().c_str(), 1);
    benchutil::Report rep("unit", {{"k", "k", benchutil::Fmt::Fixed, 1}});
    rep.row({1.0});
    EXPECT_THROW(rep.write(), IoError);
    unsetenv("LRS_BENCH_JSON");
}

TEST(ParallelBenchReport, OneRowFeedsTableAndJson)
{
    // Each value is given once: the table formats it per column and
    // the JSON holds it raw, a non-finite number as null.
    using benchutil::Fmt;
    benchutil::Report rep("unit", {{"name", "name"},
                                   {"n", "count", Fmt::Int},
                                   {"hit", "hit_frac", Fmt::Pct, 2},
                                   {"ratio", "ratio", Fmt::Fixed, 1}});
    rep.row({"gcc", 7, 0.1234, HUGE_VAL});
    EXPECT_THROW(rep.row({"short"}), std::logic_error);

    std::ostringstream table;
    rep.print(table);
    EXPECT_EQ(table.str(), "name  n  hit     ratio\n"
                           "----------------------\n"
                           "gcc   7  12.34%  inf  \n");

    const std::string path = tmpPath("test_report_row.json");
    setenv("LRS_BENCH_JSON", path.c_str(), 1);
    rep.write();
    unsetenv("LRS_BENCH_JSON");
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    std::remove(path.c_str());
    const json::Value doc = json::Value::parse(ss.str());
    ASSERT_EQ(doc.at("rows").size(), 1u);
    const json::Value &row = doc.at("rows").at(0);
    ASSERT_EQ(row.members().size(), 4u);
    EXPECT_EQ(row.members()[0].first, "name");
    EXPECT_EQ(row.at("name").asString(), "gcc");
    EXPECT_EQ(row.at("count").asU64(), 7u);
    EXPECT_EQ(row.at("hit_frac").asDouble(), 0.1234);
    EXPECT_TRUE(row.at("ratio").isNull());
}

} // namespace
} // namespace lrs
