/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every bench accepts two environment knobs:
 *   LRS_TRACE_LEN   uops per trace (default 120000; the paper used 30M
 *                   IA-32 instructions per trace — scale up for
 *                   higher-fidelity runs)
 *   LRS_ALL_TRACES  set to 1 to run every trace of each group instead
 *                   of the default subset used to keep bench time low
 */

#ifndef LRS_BENCH_UTIL_HH
#define LRS_BENCH_UTIL_HH

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/buildinfo.hh"
#include "common/io.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "core/parallel.hh"
#include "core/runner.hh"
#include "trace/library.hh"

namespace lrs::benchutil
{

inline std::uint64_t
traceLen(std::uint64_t fallback = 120000)
{
    return envU64("LRS_TRACE_LEN", fallback);
}

/** Trace parameter sets for a group, optionally capped. */
inline std::vector<TraceParams>
groupTraces(TraceGroup g, std::size_t cap = SIZE_MAX)
{
    auto all = TraceLibrary::group(g, traceLen());
    if (envU64("LRS_ALL_TRACES", 0) == 0 && all.size() > cap)
        all.resize(cap);
    return all;
}

/** The paper's baseline CHT: 2K-entry 4-way Full CHT, 2-bit counters,
 *  allocated on first collision, with distance tracking for the
 *  exclusive scheme (section 4.1). */
inline ChtParams
paperCht()
{
    ChtParams c;
    c.kind = ChtKind::Full;
    c.entries = 2048;
    c.assoc = 4;
    c.counterBits = 2;
    c.trackDistance = true;
    return c;
}

/** Arithmetic mean (the paper's per-group averages are arithmetic). */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

inline void
printHeader(const std::string &title, const std::string &paper_note)
{
    std::cout << "=== " << title << " ===\n";
    std::cout << "paper reference: " << paper_note << "\n";
    std::cout << "trace length: " << traceLen() << " uops/trace\n\n";
}

/**
 * Machine-readable companion to the text tables: each bench collects
 * its swept rows ({"label": value, metric: value, ...}) and writes
 *
 *   {"bench": <name>, "trace_len": N, "rows": [...]}
 *
 * to $LRS_BENCH_JSON if set, else ./bench_results.json. The row flow
 * mirrors TextTable (beginRow() then value() per column), so a bench
 * fills both side by side. tools/bench_to_json.sh aggregates the
 * per-bench files into the repo-level BENCH_<pr>.json trajectory.
 *
 * Thread-safety: every member locks an internal mutex, so pool
 * workers may append rows concurrently — though for deterministic
 * row order the benches aggregate serially, in job-id order, after
 * the pool barrier (docs/PARALLELISM.md). write() builds the file
 * next to the target and atomically rename()s it into place, so two
 * processes racing on the same $LRS_BENCH_JSON path end with one
 * intact document instead of an interleaved clobber.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench) : bench_(std::move(bench))
    {
        rows_ = json::Value::array();
    }

    /** Start a new row (finishing the previous one, if any). */
    void
    beginRow()
    {
        std::lock_guard<std::mutex> lk(m_);
        flushRow();
        cur_ = json::Value::object();
        open_ = true;
    }

    template <typename T>
    void
    value(const std::string &key, T v)
    {
        std::lock_guard<std::mutex> lk(m_);
        if (!open_) {
            flushRow();
            cur_ = json::Value::object();
            open_ = true;
        }
        cur_.set(key, json::Value(v));
    }

    /** Write the report atomically; returns the path written. */
    std::string
    write()
    {
        std::lock_guard<std::mutex> lk(m_);
        flushRow();
        json::Value doc = json::Value::object();
        // Provenance leads the document (same contract as lrs_sim
        // --json): consumers that byte-compare bench output across
        // builds strip this first block (tools/check_overhead.sh).
        doc.set("build", buildProvenanceJson());
        doc.set("bench", bench_);
        doc.set("trace_len", traceLen());
        doc.set("rows", std::move(rows_));
        rows_ = json::Value::array();

        const char *env = std::getenv("LRS_BENCH_JSON");
        const std::string path =
            env && *env ? env : "bench_results.json";
        std::error_code ec;
        if (std::filesystem::is_directory(path, ec))
            throw std::runtime_error(
                "JsonReport: LRS_BENCH_JSON points at a directory: " +
                path);

        writeFileAtomically(path, doc.dump(2), "bench.report");
        return path;
    }

  private:
    /** Caller must hold m_. */
    void
    flushRow()
    {
        if (open_)
            rows_.push(std::move(cur_));
        open_ = false;
    }

    std::mutex m_;
    std::string bench_;
    json::Value rows_;
    json::Value cur_;
    bool open_ = false;
};

} // namespace lrs::benchutil

#endif // LRS_BENCH_UTIL_HH
