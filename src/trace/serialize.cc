#include "trace/serialize.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/diag.hh"

namespace lrs
{

namespace
{

constexpr char kMagic[8] = {'L', 'R', 'S', 'T', 'R', 'C', '0', '1'};

/** The read window is refilled up to this size when it runs short. */
constexpr std::size_t kWindowBytes = 64 * 1024;
/** Bytes requested from the source per read. */
constexpr std::size_t kChunkBytes = 16 * 1024;

template <typename T>
void
put(std::ostream &os, T v)
{
    // The simulator only targets little-endian hosts; static-assert
    // rather than byte-swap.
    static_assert(std::endian::native == std::endian::little,
                  "serialisation assumes a little-endian host");
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

[[noreturn]] void
throwTrace(DiagCode code, const std::string &param,
           const std::string &message)
{
    throw TraceError(
        makeDiag(code, "trace.serialize", param, message));
}

template <typename T>
T
get(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is) {
        throwTrace(DiagCode::TraceTruncated, "",
                   "trace file truncated in the header");
    }
    return v;
}

template <typename T>
T
load(const std::uint8_t *p)
{
    T v{};
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/**
 * Why the 22-byte window at @p p is not a record, or nullptr when it
 * is plausible. The field bounds double as the resync heuristic: a
 * random window has roughly a 2^-13 chance of passing all of them, so
 * the reader locks back onto real framing within a few records.
 */
const char *
recordFault(const std::uint8_t *p)
{
    if (p[8] > static_cast<std::uint8_t>(UopClass::Branch))
        return "malformed uop class";
    for (int i = 9; i < 12; ++i) {
        const auto r = static_cast<std::int8_t>(p[i]);
        if (r < -1 || r >= kNumArchRegs)
            return "malformed uop registers";
    }
    if (p[20] > 64 || p[21] > 1)
        return "malformed uop record (memSize/taken out of range)";
    return nullptr;
}

/** Decode the plausible record at @p p. */
Uop
decodeRecord(const std::uint8_t *p)
{
    Uop u;
    u.pc = load<std::uint64_t>(p);
    u.cls = static_cast<UopClass>(p[8]);
    u.src1 = static_cast<std::int8_t>(p[9]);
    u.src2 = static_cast<std::int8_t>(p[10]);
    u.dst = static_cast<std::int8_t>(p[11]);
    u.addr = load<std::uint64_t>(p + 12);
    u.memSize = p[20];
    u.taken = p[21] != 0;
    return u;
}

/** Bytes left in @p is, or 0 when it cannot seek. */
std::uint64_t
remainingBytes(std::istream &is)
{
    const auto here = is.tellg();
    if (here < 0)
        return 0;
    if (!is.seekg(0, std::ios::end)) {
        is.clear(); // the stream was good at `here`, which is kept
        return 0;
    }
    const auto end = is.tellg();
    is.seekg(here);
    return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

/**
 * Enforce the stream's structural invariant after recovery dropped
 * records: every STA is immediately followed by its STD and every STD
 * immediately follows its STA (the decomposition the generator emits
 * and the core's positional pairing assumes). Orphaned halves would
 * leave MOB stores that never complete — a guaranteed deadlock — so
 * they are dropped and accounted.
 */
void
repairStorePairs(std::vector<Uop> &uops, TraceReadStats &st)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < uops.size(); ++i) {
        if (uops[i].isSta() && i + 1 < uops.size() &&
            uops[i + 1].isStd()) {
            uops[kept++] = uops[i];
            uops[kept++] = uops[++i];
        } else if (uops[i].isSta() || uops[i].isStd()) {
            ++st.droppedStoreUops; // its other half was lost
        } else {
            uops[kept++] = uops[i];
        }
    }
    uops.resize(kept);
}

} // namespace

void
TraceReadStats::registerStats(StatsGroup g)
{
    g.bindCounter("records_read", &recordsRead);
    g.bindCounter("skipped_records", &skippedRecords);
    g.bindCounter("resync_bytes", &resyncBytes);
    g.bindCounter("truncated_tail_bytes", &truncatedTailBytes);
    g.bindCounter("missing_records", &missingRecords);
    g.bindCounter("dropped_store_uops", &droppedStoreUops);
}

std::uint64_t
scanRecords(std::istream &is, const RecordFormat &fmt,
            const TraceReadOptions &opts, std::uint64_t cap,
            TraceReadStats &st)
{
    const std::size_t rec = fmt.recordBytes;
    std::vector<std::uint8_t> buf;
    buf.reserve(kWindowBytes + kChunkBytes);
    std::size_t off = 0;      // cursor into buf
    std::uint64_t base = 0;   // scan offset of buf[0]
    bool eof = false;

    // Make @p need bytes available at the cursor unless the stream
    // ends first; true when they are. The window is the only
    // input-side allocation.
    const auto fill = [&](std::size_t need) {
        if (buf.size() - off >= need)
            return true;
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(off));
        base += off;
        off = 0;
        while (!eof && buf.size() < kWindowBytes) {
            const std::size_t have = buf.size();
            buf.resize(have + kChunkBytes);
            is.read(reinterpret_cast<char *>(buf.data() + have),
                    kChunkBytes);
            const auto n = static_cast<std::size_t>(is.gcount());
            buf.resize(have + n);
            if (n > 0 && fmt.fetched)
                fmt.fetched(reinterpret_cast<const char *>(
                                buf.data() + have),
                            n);
            if (!is)
                eof = true;
        }
        return buf.size() - off >= need;
    };

    const auto plausible = [&](std::size_t at) {
        return fmt.fault(buf.data() + at) == nullptr;
    };
    // The window is refilled before the cap is checked, so a read
    // capped at a window edge fetches the next window too: ChampSim's
    // content identity covers every fetched byte.
    std::uint64_t accepted = 0;
    while (fill(rec) && accepted < cap) {
        const char *why = fmt.fault(buf.data() + off);
        if (!why) {
            fmt.decode(buf.data() + off);
            ++accepted;
            ++st.recordsRead;
            off += rec;
            continue;
        }
        if (!opts.recover) {
            throw TraceError(makeDiag(
                DiagCode::TraceBadRecord, fmt.component,
                "record " + std::to_string(accepted),
                std::string(why) + " (byte offset " +
                    std::to_string(fmt.firstOffset + base + off) + ")"));
        }
        ++st.skippedRecords;
        if (st.skippedRecords > opts.badRecordBudget) {
            throw TraceError(makeDiag(
                DiagCode::TraceBudgetExceeded, fmt.component,
                "bad_record_budget",
                "skipped " + std::to_string(st.skippedRecords) +
                    " malformed records, budget allows " +
                    std::to_string(opts.badRecordBudget) +
                    " — the trace is damaged beyond graceful "
                    "degradation"));
        }
        // Prefer preserved framing: bytes corrupted in place leave the
        // next record boundary parseable. A damaged last record is
        // dropped whole; what follows it is the tail.
        if (!fill(2 * rec) || plausible(off + rec)) {
            off += rec;
            continue;
        }
        // Framing lost (bytes inserted or removed): slide one byte at
        // a time until some window parses again.
        do {
            ++off;
            ++st.resyncBytes;
        } while (fill(rec) && !plausible(off));
    }

    if (accepted < cap) {
        const std::size_t tail = buf.size() - off;
        if (tail > 0) {
            if (!opts.recover)
                throw TraceError(fmt.tornTail(tail, accepted));
            st.truncatedTailBytes += tail;
        }
    }
    return accepted;
}

void
writeTrace(std::ostream &os, const VecTrace &trace)
{
    os.write(kMagic, sizeof(kMagic));
    put<std::uint32_t>(os,
                       static_cast<std::uint32_t>(trace.name().size()));
    os.write(trace.name().data(),
             static_cast<std::streamsize>(trace.name().size()));
    put<std::uint64_t>(os, trace.size());
    for (const Uop &u : trace.uops()) {
        put<std::uint64_t>(os, u.pc);
        put<std::uint8_t>(os, static_cast<std::uint8_t>(u.cls));
        put<std::int8_t>(os, u.src1);
        put<std::int8_t>(os, u.src2);
        put<std::int8_t>(os, u.dst);
        put<std::uint64_t>(os, u.addr);
        put<std::uint8_t>(os, u.memSize);
        put<std::uint8_t>(os, u.taken ? 1 : 0);
    }
    if (!os) {
        throw IoError(makeDiag(DiagCode::IoWriteFailed,
                               "trace.serialize", "",
                               "trace write failed"));
    }
}

void
writeTraceFile(const std::string &path, const VecTrace &trace)
{
    std::ofstream f(path, std::ios::binary);
    if (!f) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed,
                               "trace.serialize", "path",
                               "cannot open for write: " + path));
    }
    writeTrace(f, trace);
}

std::unique_ptr<VecTrace>
readTrace(std::istream &is, const TraceReadOptions &opts,
          TraceReadStats *stats)
{
    TraceReadStats local;
    TraceReadStats &st = stats ? *stats : local;

    // Header: never subject to recovery. A damaged header means we
    // cannot even trust the record framing, so fail outright.
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        throwTrace(DiagCode::TraceBadMagic, "magic",
                   "not an LRS trace file (expected LRSTRC01)");
    }

    const auto name_len = get<std::uint32_t>(is);
    if (name_len > 4096) {
        throwTrace(DiagCode::TraceBadHeader, "name_len",
                   "implausible trace name length " +
                       std::to_string(name_len) + " (max 4096)");
    }
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    if (!is) {
        throwTrace(DiagCode::TraceTruncated, "name",
                   "trace file truncated inside the name");
    }

    const auto count = get<std::uint64_t>(is);

    // A corrupted count must not drive allocation: reserve no more
    // records than the rest of the source can hold.
    std::vector<Uop> uops;
    const std::uint64_t room = remainingBytes(is) / kTraceRecordBytes;
    uops.reserve(static_cast<std::size_t>(std::min(count, room)));
    RecordFormat fmt;
    fmt.component = "trace.serialize";
    fmt.recordBytes = kTraceRecordBytes;
    fmt.firstOffset = traceHeaderBytes(name);
    fmt.fault = recordFault;
    fmt.decode = [&uops](const std::uint8_t *p) {
        uops.push_back(decodeRecord(p));
    };
    fmt.tornTail = [count](std::uint64_t, std::uint64_t got) {
        return makeDiag(DiagCode::TraceTruncated, "trace.serialize",
                        "records",
                        "trace file truncated: header promises " +
                            std::to_string(count) + " records, got " +
                            std::to_string(got));
    };
    const std::uint64_t got = scanRecords(is, fmt, opts, count, st);
    if (got < count) {
        st.missingRecords = count - got;
        if (!opts.recover)
            throw TraceError(fmt.tornTail(0, got));
    }

    if (opts.recover && (st.skippedRecords || st.missingRecords))
        repairStorePairs(uops, st);
    // Dropped records, or an unseekable source, leave slack the trace
    // would otherwise keep for its lifetime.
    uops.shrink_to_fit();

    return std::make_unique<VecTrace>(std::move(name),
                                      std::move(uops));
}

std::unique_ptr<VecTrace>
readTraceFile(const std::string &path, const TraceReadOptions &opts,
              TraceReadStats *stats)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed,
                               "trace.serialize", "path",
                               "cannot open for read: " + path));
    }
    return readTrace(f, opts, stats);
}

} // namespace lrs
