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
#include <iostream>
#include <numeric>
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

/** The schemes of Figures 7 and 8 in column order, as indices into
 *  runAllSchemes()'s results, whose 0 is Traditional: Postponing,
 *  Opportunistic, Inclusive, Exclusive, Perfect. */
constexpr std::size_t kFigSchemes[] = {2, 1, 3, 4, 5};

/** @p row followed by the arithmetic mean of each of @p series, 0 for
 *  an empty one (the paper's per-group averages are arithmetic). */
inline std::vector<json::Value>
withMeans(std::vector<json::Value> row,
          const std::vector<std::vector<double>> &series)
{
    for (const auto &v : series)
        row.push_back(v.empty() ? 0.0
                                : std::accumulate(v.begin(), v.end(), 0.0) /
                                      static_cast<double>(v.size()));
    return row;
}

inline void
printHeader(const std::string &title, const std::string &paper_note)
{
    std::cout << "=== " << title << " ===\n";
    std::cout << "paper reference: " << paper_note << "\n";
    std::cout << "trace length: " << traceLen() << " uops/trace\n\n";
}

/** How a Column prints its value in the table. */
enum class Fmt
{
    Text,  ///< a string, as is
    Int,   ///< an integer
    Fixed, ///< a double with `decimals` decimals
    Pct,   ///< a fraction as a percentage with `decimals` decimals
};

/** One column of a Report: its table header, its JSON key and its
 *  table format. The JSON holds the raw value. */
struct Column
{
    std::string header;
    std::string key;
    Fmt fmt = Fmt::Text;
    int decimals = 0;
};

/**
 * A bench's results: each row is added once, as one value per column,
 * and both the text table on stdout and the JSON document
 *
 *   {"build": {...}, "bench": <name>, "trace_len": N,
 *    "rows": [{<key>: <value>, ...}, ...]}
 *
 * are made from it. A non-finite number prints as "nan" or "inf" and
 * is written as null. tools/bench_to_json.sh aggregates the per-bench
 * files into one trajectory file.
 *
 * Benches add rows serially, after the pool barrier, in their loop
 * order (docs/PARALLELISM.md).
 */
class Report
{
  public:
    Report(std::string bench, std::vector<Column> columns)
        : bench_(std::move(bench)), columns_(std::move(columns))
    {}

    /** Add a row: one value per column, in column order. */
    void
    row(std::vector<json::Value> values)
    {
        if (values.size() != columns_.size())
            throw std::logic_error(bench_ + ": a row takes one value per "
                                            "column");
        rows_.push_back(std::move(values));
    }

    /** Print every row as one table. */
    void
    print(std::ostream &os) const
    {
        table(0, 0, rows_.size()).print(os);
    }

    /**
     * Print one table per run of rows with the same first column,
     * under a "--- <value> ---" heading and without that column, each
     * followed by a blank line.
     */
    void
    printByGroup(std::ostream &os) const
    {
        for (std::size_t b = 0, e = 0; b < rows_.size(); b = e) {
            const std::string &group = rows_[b][0].asString();
            while (e < rows_.size() && rows_[e][0].asString() == group)
                ++e;
            os << "--- " << group << " ---\n";
            table(1, b, e).print(os);
            os << "\n";
        }
    }

    /**
     * Write the JSON to $LRS_BENCH_JSON if set, else to
     * ./bench_results.json, atomically: two processes racing on one
     * path end with one intact document. Throws IoError (also for a
     * directory path). Returns the path written.
     */
    std::string
    write() const
    {
        json::Value rows = json::Value::array();
        for (const auto &values : rows_) {
            json::Value row = json::Value::object();
            for (std::size_t c = 0; c < columns_.size(); ++c)
                row.set(columns_[c].key, values[c]);
            rows.push(std::move(row));
        }
        json::Value doc = json::Value::object();
        // Provenance leads the document (same contract as lrs_sim
        // --json): consumers that byte-compare bench output across
        // builds strip this first block (tools/check_overhead.sh).
        doc.set("build", buildProvenanceJson());
        doc.set("bench", bench_);
        doc.set("trace_len", traceLen());
        doc.set("rows", std::move(rows));

        const char *env = std::getenv("LRS_BENCH_JSON");
        const std::string path = env && *env ? env : "bench_results.json";
        writeFileAtomically(path, doc.dump(2), "bench.report");
        return path;
    }

  private:
    /** The rows [@p begin, @p end) from column @p first on. */
    TextTable
    table(std::size_t first, std::size_t begin, std::size_t end) const
    {
        std::vector<std::string> headers;
        for (std::size_t c = first; c < columns_.size(); ++c)
            headers.push_back(columns_[c].header);
        TextTable t(std::move(headers));
        for (std::size_t r = begin; r < end; ++r) {
            t.startRow();
            for (std::size_t c = first; c < columns_.size(); ++c) {
                const Column &col = columns_[c];
                const json::Value &v = rows_[r][c];
                switch (col.fmt) {
                  case Fmt::Text: t.cell(v.asString()); break;
                  case Fmt::Int: t.cell(v.dump()); break;
                  case Fmt::Fixed: t.cell(v.asDouble(), col.decimals); break;
                  case Fmt::Pct: t.cellPct(v.asDouble(), col.decimals); break;
                }
            }
        }
        return t;
    }

    std::string bench_;
    std::vector<Column> columns_;
    std::vector<std::vector<json::Value>> rows_;
};

} // namespace lrs::benchutil

#endif // LRS_BENCH_UTIL_HH
