/**
 * @file
 * Opt-in pipeline event tracer.
 *
 * Records per-uop lifecycle events (rename, issue, replay, squash,
 * forward, retire) into a fixed-capacity ring buffer — oldest events
 * are overwritten once the buffer wraps, so a trace of the *end* of a
 * long run is always available at bounded memory.
 *
 * The tracer is attached to a core via OooCore::attachTracer(); when
 * none is attached the core's per-event cost is a single null-pointer
 * test, so runs without tracing pay no measurable overhead.
 *
 * The buffer exports Chrome trace_event JSON (the format understood
 * by chrome://tracing and https://ui.perfetto.dev): each lifecycle
 * kind becomes one named thread track, so a replay storm or a
 * squash cascade is visible as a dense burst on its track, aligned
 * in simulated-cycle time with the issues and retires around it.
 */

#ifndef LRS_CORE_TRACER_HH
#define LRS_CORE_TRACER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/uop.hh"

namespace lrs
{

/** Per-uop lifecycle event kinds recorded by the tracer. */
enum class TraceEvent : std::uint8_t
{
    Rename,  ///< entered the ROB / scheduling window
    Issue,   ///< dispatched to an execution unit
    Replay,  ///< issued too early and burnt the slot (wasted issue)
    Squash,  ///< order violation / branch mispredict recovery
    Forward, ///< load serviced by store-to-load forwarding
    Retire,  ///< left the machine
};

/** Number of distinct TraceEvent kinds. */
constexpr std::size_t kNumTraceEvents = 6;

const char *traceEventName(TraceEvent ev);

class PipelineTracer
{
  public:
    struct Record
    {
        Cycle cycle;
        SeqNum seq;
        Addr pc;
        TraceEvent ev;
        UopClass cls;
    };

    /** @p capacity is the ring size in events (must be > 0). */
    explicit PipelineTracer(std::size_t capacity = kDefaultCapacity);

    static constexpr std::size_t kDefaultCapacity = 1u << 18;

    /** Append one event, overwriting the oldest once full. */
    void
    record(TraceEvent ev, Cycle cycle, SeqNum seq, Addr pc,
           UopClass cls)
    {
        Record &r = buf_[next_];
        r.cycle = cycle;
        r.seq = seq;
        r.pc = pc;
        r.ev = ev;
        r.cls = cls;
        next_ = next_ + 1 == buf_.size() ? 0 : next_ + 1;
        if (count_ < buf_.size())
            ++count_;
        ++total_;
    }

    std::size_t capacity() const { return buf_.size(); }
    /** Events currently held (<= capacity). */
    std::size_t size() const { return count_; }
    /** Events ever recorded (counts those overwritten by wrap). */
    std::uint64_t totalRecorded() const { return total_; }
    /** True iff recording has overwritten old events. */
    bool wrapped() const { return total_ > count_; }

    /** The @p i-th buffered event, oldest first. */
    const Record &at(std::size_t i) const;

    void clear();

    /**
     * Serialize the buffered events as a Chrome trace_event document
     * ({"traceEvents": [...]}). One metadata record names each
     * lifecycle track; timestamps are simulated cycles (shown as
     * microseconds by the viewers).
     */
    std::string toChromeTrace() const;

    /** Write toChromeTrace() to @p path; throws IoError on failure. */
    void writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Record> buf_;
    std::size_t next_ = 0;  ///< slot the next record lands in
    std::size_t count_ = 0; ///< live records
    std::uint64_t total_ = 0;
};

} // namespace lrs

#endif // LRS_CORE_TRACER_HH
