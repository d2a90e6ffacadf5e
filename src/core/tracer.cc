#include "core/tracer.hh"

#include <fstream>

#include "common/diag.hh"
#include "common/json.hh"
#include "common/stats.hh"

namespace lrs
{

const char *
traceEventName(TraceEvent ev)
{
    switch (ev) {
      case TraceEvent::Rename:  return "rename";
      case TraceEvent::Issue:   return "issue";
      case TraceEvent::Replay:  return "replay";
      case TraceEvent::Squash:  return "squash";
      case TraceEvent::Forward: return "forward";
      case TraceEvent::Retire:  return "retire";
    }
    return "?";
}

// A zero capacity is clamped to one slot rather than rejected: the
// ring must never be empty or record() would index into nothing.
PipelineTracer::PipelineTracer(std::size_t capacity)
    : buf_(capacity ? capacity : 1)
{}

const PipelineTracer::Record &
PipelineTracer::at(std::size_t i) const
{
    if (i >= count_)
        throw std::out_of_range("PipelineTracer::at");
    // Oldest record: right after the write cursor once wrapped,
    // slot 0 otherwise.
    const std::size_t base = count_ == buf_.size() ? next_ : 0;
    return buf_[(base + i) % buf_.size()];
}

void
PipelineTracer::clear()
{
    next_ = 0;
    count_ = 0;
    total_ = 0;
}

std::string
PipelineTracer::toChromeTrace() const
{
    // Emitted by hand rather than through json::Value: a full trace
    // is hundreds of thousands of events and the value tree would
    // triple peak memory for no benefit.
    std::string out;
    out.reserve(count_ * 96 + 1024);
    out += "{\"traceEvents\":[";

    // Metadata: one named thread track per lifecycle event kind.
    for (std::size_t k = 0; k < kNumTraceEvents; ++k) {
        if (k)
            out += ',';
        out += strprintf(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
            "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
            k, traceEventName(static_cast<TraceEvent>(k)));
    }

    for (std::size_t i = 0; i < count_; ++i) {
        const Record &r = at(i);
        out += ',';
        out += strprintf(
            "{\"name\":\"%s\",\"cat\":\"pipeline\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":%llu,\"pid\":0,\"tid\":%u,"
            "\"args\":{\"seq\":%llu,\"pc\":\"0x%llx\","
            "\"cls\":\"%s\"}}",
            traceEventName(r.ev),
            static_cast<unsigned long long>(r.cycle),
            static_cast<unsigned>(r.ev),
            static_cast<unsigned long long>(r.seq),
            static_cast<unsigned long long>(r.pc),
            uopClassName(r.cls));
    }

    out += "],\"displayTimeUnit\":\"ms\",";
    out += strprintf("\"otherData\":{\"recorded\":%llu,"
                     "\"buffered\":%zu,\"wrapped\":%s}}",
                     static_cast<unsigned long long>(total_), count_,
                     wrapped() ? "true" : "false");
    return out;
}

void
PipelineTracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed, "tracer", "path",
                               "cannot open " + path));
    }
    const std::string doc = toChromeTrace();
    os.write(doc.data(),
             static_cast<std::streamsize>(doc.size()));
    if (!os) {
        throw IoError(makeDiag(DiagCode::IoWriteFailed, "tracer", "path",
                               "write failed: " + path));
    }
}

} // namespace lrs
