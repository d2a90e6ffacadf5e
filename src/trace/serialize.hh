/**
 * @file
 * Binary trace serialisation, and the record loop both trace readers
 * share.
 *
 * Lets users persist generated traces (for exact cross-machine
 * reproduction) or import uop streams produced by external tools
 * (e.g. a binary-instrumentation pipeline) instead of the synthetic
 * generator. The format is a fixed little-endian record stream with a
 * magic/version header; see writeTrace() for the layout.
 *
 * scanRecords() reads the records of this format and of ChampSim
 * traces (trace/champsim_reader.hh) under one policy:
 *  - strict (default): the first malformed record (named by index and
 *    byte offset), or a stream that ends part-way into a record,
 *    aborts the read with a TraceError. Right for traces the
 *    simulator itself wrote.
 *  - recovery (TraceReadOptions::recover): a malformed record is
 *    skipped. The framing is kept if the next record parses (bytes
 *    damaged in place); otherwise the scan slides one byte at a time
 *    until a window parses (bytes inserted or removed). A partial
 *    record at end of stream is dropped. Every drop is accounted in
 *    TraceReadStats ("trace.*" in the stats registry), and the
 *    bad-record budget turns "mostly good" into a hard failure —
 *    degradation is graceful but never silent.
 *
 * The source is read through a fixed-size window, never slurped, so
 * `-` (stdin) works and a multi-GB file costs only its decoded uops.
 */

#ifndef LRS_TRACE_SERIALIZE_HH
#define LRS_TRACE_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>

#include "common/diag.hh"
#include "common/stats_registry.hh"
#include "trace/stream.hh"

namespace lrs
{

/** Policy for tolerant trace reading. */
struct TraceReadOptions
{
    /** Skip malformed records instead of throwing on the first. */
    bool recover = false;
    /**
     * Give up (TraceError, E_TRACE_BUDGET_EXCEEDED) once more than
     * this many records were dropped: a trace that is mostly garbage
     * should fail loudly, not simulate quietly on its few survivors.
     */
    std::uint64_t badRecordBudget =
        std::numeric_limits<std::uint64_t>::max();
};

/** Accounting of one tolerant read (all zero after a clean read). */
struct TraceReadStats
{
    std::uint64_t recordsRead = 0;    ///< records accepted
    /** Malformed records dropped (recovery mode). */
    std::uint64_t skippedRecords = 0;
    std::uint64_t resyncBytes = 0;    ///< bytes slid over hunting framing
    std::uint64_t truncatedTailBytes = 0; ///< partial record at EOF
    /** Records promised by the header but missing from the stream. */
    std::uint64_t missingRecords = 0;
    /**
     * Store-half uops dropped to restore STA/STD pairing: the core
     * pairs an STD with the STA directly before it, so when recovery
     * drops one half of a store the surviving half must go too or the
     * MOB wedges on a store that never completes.
     */
    std::uint64_t droppedStoreUops = 0;

    /** Bind these counters under @p g (conventionally "trace"). */
    void registerStats(StatsGroup g);
};

/** One fixed-size record format, as scanRecords() sees it. */
struct RecordFormat
{
    std::string component;         ///< Diag component of scan errors
    std::size_t recordBytes = 0;   ///< bytes per record
    std::uint64_t firstOffset = 0; ///< source offset of record 0
    /**
     * Why the window at p is not a record, or nullptr when it is
     * plausible. The test doubles as the resync heuristic, so it must
     * reject a random window with high probability.
     */
    std::function<const char *(const std::uint8_t *p)> fault;
    /** Decode the plausible record at p. */
    std::function<void(const std::uint8_t *p)> decode;
    /** Strict-mode error: the stream ends @p tail bytes into a record
     *  after @p records whole ones. */
    std::function<Diag(std::uint64_t tail, std::uint64_t records)>
        tornTail;
    /** Optional: sees every byte read from the source, in order. */
    std::function<void(const char *bytes, std::size_t n)> fetched;
};

/**
 * Read @p fmt records from @p is until the stream ends or @p cap
 * records were accepted, under @p opts, accounting into @p st. Once
 * the cap is met nothing further is read, so what follows is neither
 * a tail nor an error.
 *
 * @return the number of records accepted (also added to
 *         st.recordsRead).
 * @throws TraceError as described in the file comment, plus whatever
 *         the format's callbacks throw.
 */
std::uint64_t scanRecords(std::istream &is, const RecordFormat &fmt,
                          const TraceReadOptions &opts,
                          std::uint64_t cap, TraceReadStats &st);

/** Serialized size of one uop record, in bytes. */
constexpr std::size_t kTraceRecordBytes = 22;

/**
 * Serialized size of the header of a trace named @p name: magic,
 * name length, name bytes and uop count. Records start right after.
 */
inline std::size_t
traceHeaderBytes(const std::string &name)
{
    return 8 + 4 + name.size() + 8;
}

/**
 * Write @p trace to @p os.
 *
 * Layout: 8-byte magic "LRSTRC01", u32 name length, name bytes,
 * u64 uop count, then per uop: u64 pc, u8 class, i8 src1, i8 src2,
 * i8 dst, u64 addr, u8 memSize, u8 taken.
 *
 * @throws IoError on stream failure.
 */
void writeTrace(std::ostream &os, const VecTrace &trace);

/** Convenience: write to a file path. */
void writeTraceFile(const std::string &path, const VecTrace &trace);

/**
 * Read a trace previously written with writeTrace().
 *
 * The header is never subject to recovery. Its uop count caps the
 * records read; fewer is an error in strict mode and accounted
 * (missingRecords) in recovery mode, which also drops orphaned
 * STA/STD halves.
 *
 * @throws TraceError on bad magic, truncation, or malformed records
 *         (out-of-range class or register numbers) in strict mode;
 *         in recovery mode, only on bad magic/header or an exhausted
 *         bad-record budget.
 */
std::unique_ptr<VecTrace> readTrace(std::istream &is,
                                    const TraceReadOptions &opts = {},
                                    TraceReadStats *stats = nullptr);

/** Convenience: read from a file path. */
std::unique_ptr<VecTrace>
readTraceFile(const std::string &path,
              const TraceReadOptions &opts = {},
              TraceReadStats *stats = nullptr);

} // namespace lrs

#endif // LRS_TRACE_SERIALIZE_HH
