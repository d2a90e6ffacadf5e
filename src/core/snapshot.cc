#include "core/snapshot.hh"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/diag.hh"
#include "common/io.hh"
#include "common/journal.hh"
#include "core/config_io.hh"
#include "core/core.hh"
#include "core/grid.hh"
#include "core/parallel.hh"
#include "trace/library.hh"
#include "trace/stream.hh"

namespace lrs
{

namespace
{

[[noreturn]] void
badSnapshot(const std::string &path, const std::string &message)
{
    throw ConfigError(makeDiag(DiagCode::JournalInvalid,
                               "core.snapshot", "file",
                               message + " (" + path + ")"));
}

[[noreturn]] void
ioFail(DiagCode code, const std::string &path, const char *what)
{
    throw IoError(makeDiag(code, "core.snapshot", "path",
                           std::string(what) + ": " + path));
}

/** Strict field accessors on a parsed (trusted-framing) record. */
std::uint64_t
fieldU64(const json::Value &rec, const char *key,
         const std::string &path)
{
    const json::Value *v = rec.find(key);
    if (!v || !v->isNumber())
        badSnapshot(path, std::string("missing/non-numeric field '") +
                              key + "'");
    return v->asU64();
}

std::string
fieldString(const json::Value &rec, const char *key,
            const std::string &path)
{
    const json::Value *v = rec.find(key);
    if (!v || !v->isString())
        badSnapshot(path, std::string("missing/non-string field '") +
                              key + "'");
    return v->asString();
}

} // namespace

void
writeSnapshot(const std::string &path, const OooCore &core,
              const VecTrace &trace, Cycle target)
{
    const json::Value state = core.saveState();

    json::Value header = json::Value::object();
    header.set("kind", json::Value("lrs-snapshot"));
    header.set("version", json::Value(kSnapshotFormatVersion));
    header.set("cycle", json::Value(core.now()));
    header.set("target", json::Value(target));
    header.set("trace", json::Value(trace.name()));
    header.set("trace_size",
               json::Value(static_cast<std::uint64_t>(trace.size())));
    // Ingested traces carry a source-content identity; a checkpoint
    // must never be restored against a since-modified trace file.
    if (trace.contentCrc() != 0 || trace.contentBytes() != 0) {
        header.set("trace_bytes", json::Value(trace.contentBytes()));
        header.set("trace_crc32",
                   json::Value(static_cast<std::uint64_t>(
                       trace.contentCrc())));
    }
    header.set("config", json::Value(machineConfigToIni(core.config())));
    header.set("sections", json::Value(static_cast<std::uint64_t>(
                               state.members().size())));

    std::string out = journalLine(header);
    for (const auto &[name, section] : state.members()) {
        json::Value rec = json::Value::object();
        rec.set("section", json::Value(name));
        rec.set("state", section);
        out += journalLine(rec);
    }
    json::Value end = json::Value::object();
    end.set("kind", json::Value("lrs-snapshot-end"));
    end.set("sections", json::Value(static_cast<std::uint64_t>(
                            state.members().size())));
    out += journalLine(end);

    // A SIGKILL at any instant leaves either the previous complete
    // snapshot at @p path or none — never a torn file.
    writeFileAtomically(path, out, "core.snapshot");
}

SnapshotImage
readSnapshot(const std::string &path)
{
    // The journal reader resyncs past damage and keeps counting; a
    // snapshot turns that accounting into a hard rejection — a machine
    // restored from a partially damaged checkpoint would be subtly,
    // silently wrong.
    JournalReadStats stats;
    const std::vector<json::Value> records = readJournal(path, &stats);
    if (stats.badLines)
        badSnapshot(path, "damaged record lines");
    if (stats.truncatedTail)
        badSnapshot(path, "truncated tail");
    if (records.size() < 2)
        badSnapshot(path, "too few records for header + end marker");

    const json::Value &header = records.front();
    if (!header.isObject() ||
        fieldString(header, "kind", path) != "lrs-snapshot")
        badSnapshot(path, "first record is not a snapshot header");
    SnapshotImage img;
    img.version = fieldU64(header, "version", path);
    if (img.version != kSnapshotFormatVersion)
        badSnapshot(path, "unsupported format version " +
                              std::to_string(img.version));
    img.cycle = fieldU64(header, "cycle", path);
    img.target = fieldU64(header, "target", path);
    img.traceName = fieldString(header, "trace", path);
    img.traceSize = fieldU64(header, "trace_size", path);
    // Optional: only ingested-trace snapshots carry these.
    if (const json::Value *v = header.find("trace_bytes")) {
        if (!v->isNumber())
            badSnapshot(path, "non-numeric field 'trace_bytes'");
        img.traceBytes = v->asU64();
        img.traceCrc = static_cast<std::uint32_t>(
            fieldU64(header, "trace_crc32", path));
    }
    img.configIni = fieldString(header, "config", path);
    const std::uint64_t sections = fieldU64(header, "sections", path);

    const json::Value &end = records.back();
    if (!end.isObject() ||
        fieldString(end, "kind", path) != "lrs-snapshot-end")
        badSnapshot(path, "missing end marker");
    if (fieldU64(end, "sections", path) != sections ||
        records.size() != sections + 2)
        badSnapshot(path, "section count mismatch");

    img.state = json::Value::object();
    for (std::size_t i = 1; i + 1 < records.size(); ++i) {
        const json::Value &rec = records[i];
        if (!rec.isObject())
            badSnapshot(path, "section record is not an object");
        const std::string name = fieldString(rec, "section", path);
        const json::Value *state = rec.find("state");
        if (!state)
            badSnapshot(path, "section '" + name + "' has no state");
        if (img.state.find(name))
            badSnapshot(path, "duplicate section '" + name + "'");
        img.state.set(name, *state);
    }
    return img;
}

void
restoreSnapshot(const SnapshotImage &img, OooCore &core,
                VecTrace &trace)
{
    // Trace identity is checked; config identity deliberately is NOT:
    // the warm-fork protocol restores a base-config checkpoint into
    // scheme variants (see file comment in snapshot.hh).
    if (img.traceName != trace.name())
        badSnapshot(img.traceName,
                    "snapshot is for trace '" + img.traceName +
                        "', not '" + trace.name() + "'");
    if (img.traceSize != trace.size())
        badSnapshot(img.traceName,
                    "snapshot trace has " +
                        std::to_string(img.traceSize) + " uops, ours " +
                        std::to_string(trace.size()));
    if (img.traceBytes != trace.contentBytes() ||
        img.traceCrc != trace.contentCrc()) {
        badSnapshot(img.traceName,
                    "snapshot trace content identity mismatch (the "
                    "source file changed since the checkpoint was "
                    "written)");
    }
    core.loadState(img.state, trace);
}

void
loadSnapshotInto(const std::string &path, OooCore &core,
                 VecTrace &trace)
{
    restoreSnapshot(readSnapshot(path), core, trace);
}

bool
snapshotRoundTripIdentical(const MachineConfig &cfg,
                           const FaultConfig &faults, VecTrace &trace,
                           Cycle stop, const std::string &path)
{
    // Each run gets its own core and a fresh injector under the same
    // config, so all three draw the same fault stream.
    const auto attach = [&faults](OooCore &core, FaultInjector &fi) {
        if (fi.enabled())
            core.attachFaultInjector(&fi);
    };
    FaultInjector fullFi(faults);
    OooCore full(cfg);
    attach(full, fullFi);
    const SimResult want = full.run(trace);
    {
        FaultInjector warmFi(faults);
        OooCore warm(cfg);
        attach(warm, warmFi);
        warm.beginRun(trace);
        warm.advanceTo(trace, stop);
        writeSnapshot(path, warm, trace, stop);
    }
    FaultInjector resumedFi(faults);
    OooCore resumed(cfg);
    attach(resumed, resumedFi);
    loadSnapshotInto(path, resumed, trace);
    std::remove(path.c_str());
    resumed.advanceTo(trace);
    return resumed.finishRun().saveState().dump(0) ==
           want.saveState().dump(0);
}

std::string
warmupSnapshotPath(const std::string &dir,
                   const std::string &trace_name)
{
    // Library trace names are bare identifiers and map through
    // unchanged (existing checkpoint paths must not move). ChampSim
    // specs contain ':' and '/' — flatten those to keep the file in
    // @p dir, and disambiguate with a hash of the original so two
    // specs never share a checkpoint after flattening.
    std::string flat;
    bool changed = false;
    for (const char c : trace_name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        flat += ok ? c : '_';
        changed = changed || !ok;
    }
    if (changed) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const char c : trace_name) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(h));
        flat += "-";
        flat += hex;
    }
    return dir + "/" + flat + ".warmup.snap";
}

std::string
snapshotDirFor(const BatchGrid &grid, const std::string &fallback_base)
{
    return grid.snapshotDir.empty() ? fallback_base + ".snapshots"
                                    : grid.snapshotDir;
}

void
prepareWarmupSnapshots(const BatchGrid &grid, const std::string &dir,
                       unsigned workers)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        ioFail(DiagCode::IoOpenFailed, dir, "cannot create directory");
    const std::string wantConfig = machineConfigToIni(grid.base);

    // Worth-reusing check: a leftover checkpoint is only trusted when
    // it validates end to end AND matches this sweep's identity; any
    // mismatch, damage or torn file is rewritten (crash recovery).
    // @p trace is non-null for ingested traces, whose content
    // identity (bytes + CRC of the source file) must also match — a
    // re-downloaded or edited trace file silently invalidates its
    // checkpoint.
    const auto reusable = [&](const std::string &path,
                              const std::string &trace_name,
                              const VecTrace *trace) {
        try {
            const SnapshotImage img = readSnapshot(path);
            return img.target == grid.warmupSnapshot &&
                   img.traceName == trace_name &&
                   img.configIni == wantConfig &&
                   img.traceBytes ==
                       (trace ? trace->contentBytes() : 0) &&
                   img.traceCrc == (trace ? trace->contentCrc() : 0);
        } catch (const IoError &) {
            return false; // absent / unreadable
        } catch (const ConfigError &) {
            return false; // damaged / stale format
        }
    };

    parallelFor(
        grid.traces.size(),
        [&](std::size_t i) {
            const std::string &name = grid.traces[i];
            const std::string path = warmupSnapshotPath(dir, name);
            const TraceParams tp =
                TraceLibrary::byName(name, grid.len);
            // Ingested traces must be read before the reuse check
            // (their identity lives in the file); synthetic traces
            // are only generated when the checkpoint needs rebuilding.
            std::unique_ptr<VecTrace> trace;
            if (!tp.champsimPath.empty())
                trace = TraceLibrary::make(tp);
            if (reusable(path, name, trace.get()))
                return;
            if (!trace)
                trace = TraceLibrary::make(tp);
            OooCore core(grid.base);
            core.beginRun(*trace);
            core.advanceTo(*trace, grid.warmupSnapshot);
            writeSnapshot(path, core, *trace, grid.warmupSnapshot);
        },
        workers);
}

void
attachWarmupSnapshots(const BatchGrid &grid, const std::string &dir,
                      std::vector<SimJob> &jobs)
{
    // buildGridJobs() is trace-major: cell i's trace is i/nschemes.
    const std::size_t nschemes = grid.schemes.size();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].fromSnapshot =
            warmupSnapshotPath(dir, grid.traces[i / nschemes]);
}

} // namespace lrs
