/**
 * @file
 * Per-cell flight recorder: forensic event ring for failed cells.
 *
 * A sweep cell that dies — a diagnostic, a deadline, or an outright
 * crash under --isolate — takes its in-memory state with it. The
 * flight recorder keeps a bounded ring of the most recent pipeline
 * lifecycle events (held in a PipelineTracer, the --trace-events
 * ring) plus a short list of out-of-band notes (diagnostics, audit
 * findings, outcome classification), and dumps them as CRC-framed
 * JSONL using the same `LRSJ1` line discipline as the checkpoint
 * journal (common/journal.hh) — so the dump survives torn tails and
 * is validated by the same reader.
 *
 * Crash-survival strategy: the recorder cannot run code at SIGKILL
 * time, so instead it *periodically* rewrites its dump file
 * (writeFileAtomically(): temp file, fsync, rename) every flushInterval
 * recorded events, plus once when the dump path is set and once from
 * dumpNow() at clean failure classification. Whatever instant the
 * process dies, the last completed rename is a valid, CRC-checkable
 * snapshot of the recent past. Under --isolate the dump file is the
 * transport across the fork: the child (or the pre-fork parent)
 * maintains it in the per-cell path, and the parent references it
 * from the batch JSON failure entry if it exists after the child is
 * reaped.
 *
 * Like the tracer, an unattached recorder costs the core one null
 * test per event; nothing here runs unless --flight-recorder is on.
 */

#ifndef LRS_CORE_FLIGHT_RECORDER_HH
#define LRS_CORE_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"
#include "core/tracer.hh"
#include "trace/uop.hh"

namespace lrs
{

class FlightRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = 4096;
    static constexpr std::uint64_t kDefaultFlushInterval = 1u << 16;
    static constexpr std::size_t kMaxNotes = 32;

    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Identify the cell this recorder flies with; appears in the dump
     * header so a dump directory full of cells stays attributable.
     */
    void setIdentity(std::size_t cell, std::string key);

    /**
     * Arrange periodic dumps to @p path (every @p flushInterval
     * events) and write the initial header-only snapshot immediately,
     * so even an instant SIGKILL leaves a valid dump behind.
     */
    void setDumpPath(std::string path,
                     std::uint64_t flushInterval = kDefaultFlushInterval);

    /** Append one pipeline event (called from the core's hot path). */
    void
    record(TraceEvent ev, Cycle cycle, SeqNum seq, Addr pc,
           UopClass cls)
    {
        ring_.record(ev, cycle, seq, pc, cls);
        if (flushInterval_ && ring_.totalRecorded() % flushInterval_ == 0)
            dumpNow();
    }

    /**
     * Out-of-band annotation (diagnostic code, audit finding, outcome
     * classification). Bounded at kMaxNotes; later notes drop with a
     * count so the dump states what it lost. Triggers a dump when a
     * dump path is set — notes mark the interesting moments.
     */
    void note(const std::string &kind, const std::string &text);

    /** Rewrite the dump file now (no-op without a dump path). */
    void dumpNow();

    /** Delete the dump file (cell completed fine; leave no debris). */
    void removeDump();

    std::size_t capacity() const { return ring_.capacity(); }
    std::size_t size() const { return ring_.size(); }
    std::uint64_t totalRecorded() const { return ring_.totalRecorded(); }
    bool wrapped() const { return ring_.wrapped(); }
    const std::string &dumpPath() const { return path_; }

    /** The dump's header record (also written as the first line). */
    json::Value headerJson() const;

  private:
    struct Note
    {
        std::string kind;
        std::string text;
    };

    PipelineTracer ring_;
    std::vector<Note> notes_;
    std::uint64_t droppedNotes_ = 0;
    std::size_t cell_ = 0;
    std::string key_;
    std::string path_;
    std::uint64_t flushInterval_ = 0;
};

} // namespace lrs

#endif // LRS_CORE_FLIGHT_RECORDER_HH
