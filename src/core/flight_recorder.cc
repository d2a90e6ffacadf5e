#include "core/flight_recorder.hh"

#include <unistd.h>

#include "common/diag.hh"
#include "common/io.hh"
#include "common/journal.hh"

namespace lrs
{

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity)
{
    notes_.reserve(kMaxNotes);
}

void
FlightRecorder::setIdentity(std::size_t cell, std::string key)
{
    cell_ = cell;
    key_ = std::move(key);
}

void
FlightRecorder::setDumpPath(std::string path,
                            std::uint64_t flushInterval)
{
    path_ = std::move(path);
    flushInterval_ = flushInterval;
    dumpNow();
}

void
FlightRecorder::note(const std::string &kind, const std::string &text)
{
    if (notes_.size() < kMaxNotes)
        notes_.push_back({kind, text});
    else
        ++droppedNotes_;
    dumpNow();
}

json::Value
FlightRecorder::headerJson() const
{
    json::Value h = json::Value::object();
    h.set("v", json::Value(1));
    h.set("type", json::Value("flight_recorder"));
    h.set("cell", json::Value(static_cast<std::uint64_t>(cell_)));
    h.set("key", json::Value(key_));
    h.set("capacity",
          json::Value(static_cast<std::uint64_t>(capacity())));
    h.set("events", json::Value(static_cast<std::uint64_t>(size())));
    h.set("total_recorded", json::Value(totalRecorded()));
    h.set("wrapped", json::Value(wrapped()));
    json::Value notes = json::Value::array();
    for (const Note &n : notes_) {
        json::Value nv = json::Value::object();
        nv.set("kind", json::Value(n.kind));
        nv.set("text", json::Value(n.text));
        notes.push(std::move(nv));
    }
    h.set("notes", std::move(notes));
    if (droppedNotes_)
        h.set("dropped_notes", json::Value(droppedNotes_));
    return h;
}

namespace
{

json::Value
eventJson(const PipelineTracer::Record &e)
{
    json::Value v = json::Value::object();
    v.set("c", json::Value(e.cycle));
    v.set("e", json::Value(traceEventName(e.ev)));
    v.set("seq", json::Value(e.seq));
    v.set("pc", json::Value(e.pc));
    v.set("cls", json::Value(uopClassName(e.cls)));
    return v;
}

} // namespace

void
FlightRecorder::dumpNow()
{
    if (path_.empty())
        return;

    std::string out = journalLine(headerJson());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out += journalLine(eventJson(ring_.at(i)));

    // Whatever instant the process is killed, the path holds either
    // the previous complete snapshot or this one.
    writeFileAtomically(path_, out, "core.flight_recorder");
}

void
FlightRecorder::removeDump()
{
    if (path_.empty())
        return;
    ::unlink(path_.c_str());
}

} // namespace lrs
