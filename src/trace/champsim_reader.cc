#include "trace/champsim_reader.hh"

#include <bit>
#include <cstring>
#include <fstream>
#include <iostream>
#include <istream>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/crc.hh"
#include "common/diag.hh"

namespace lrs
{

namespace
{

/** ChampSim register numbers with reserved meanings (Pin encoding). */
constexpr std::uint8_t kCsRegInvalid = 0;
constexpr std::uint8_t kCsRegStackPointer = 6;

[[noreturn]] void
throwTrace(DiagCode code, const std::string &param,
           const std::string &message)
{
    throw TraceError(makeDiag(code, "trace.champsim", param, message));
}

template <typename T>
T
load(const std::uint8_t *p)
{
    static_assert(std::endian::native == std::endian::little,
                  "trace decoding assumes a little-endian host");
    T v{};
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/**
 * Map a ChampSim (Pin-encoded) register number onto our architectural
 * register file. 0 means "no register"; the stack pointer keeps its
 * special identity; everything else folds deterministically into the
 * integer file, skipping the stack-pointer slot so arbitrary registers
 * never alias the stack. High Pin numbers (vector/FP state) land in
 * the same fold — the core only needs dependence edges, not ISA
 * semantics.
 */
std::int8_t
mapReg(std::uint8_t r)
{
    if (r == kCsRegInvalid)
        return -1;
    if (r == kCsRegStackPointer)
        return kStackPtrReg;
    int idx = r % (kNumIntRegs - 1); // [0, 15)
    if (idx >= kStackPtrReg)
        ++idx;
    return static_cast<std::int8_t>(idx);
}

/**
 * Why the 64-byte window at @p p is not a record, or nullptr when it
 * is plausible. The field bounds hold for every record a real tracer
 * emits, and a random/corrupt window fails them with probability
 * ~1 - 2^-14 — strict validation and resync heuristic in one.
 */
const char *
recordFault(const std::uint8_t *p)
{
    if (load<std::uint64_t>(p) == 0)
        return "instruction pointer is zero";
    if (p[8] > 1)
        return "is_branch is not 0/1";
    if (p[9] > 1)
        return "branch_taken is not 0/1";
    if (p[9] == 1 && p[8] == 0)
        return "branch_taken set on a non-branch";
    // The all-ones address is our internal "invalid" sentinel
    // (kAddrInvalid); a record carrying it could confuse the core's
    // address-known logic, and no real trace addresses live there.
    for (std::size_t off = 16; off < kChampSimRecordBytes; off += 8) {
        if (load<std::uint64_t>(p + off) == kAddrInvalid)
            return "memory operand is the reserved all-ones address";
    }
    return nullptr;
}

} // namespace

bool
champSimRecordPlausible(const std::uint8_t *p)
{
    return recordFault(p) == nullptr;
}

bool
looksLikeChampSimFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::uint8_t head[4096];
    f.read(reinterpret_cast<char *>(head), sizeof(head));
    const std::size_t n = static_cast<std::size_t>(f.gcount());
    const std::size_t windows = n / kChampSimRecordBytes;
    if (windows == 0)
        return false;
    // A short file must be whole records; a longer head just needs
    // every complete window to parse.
    if (n < sizeof(head) && n % kChampSimRecordBytes != 0)
        return false;
    for (std::size_t w = 0; w < windows; ++w) {
        if (!champSimRecordPlausible(head + w * kChampSimRecordBytes))
            return false;
    }
    return true;
}

namespace
{

/** Decode one validated record into @p uops. Bounded: <= 13 uops. */
void
decodeRecord(const std::uint8_t *p, std::vector<Uop> &uops)
{
    const Addr ip = load<std::uint64_t>(p);
    const bool is_branch = p[8] != 0;
    const bool taken = p[9] != 0;
    const std::uint8_t *dreg = p + 10;
    const std::uint8_t *sreg = p + 12;

    bool any_mem = false;
    int load_slot = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const Addr a = load<std::uint64_t>(p + 32 + 8 * i);
        if (a == 0)
            continue;
        Uop u;
        u.pc = ip;
        u.cls = UopClass::Load;
        u.addr = a;
        u.memSize = 8;
        u.src1 = mapReg(sreg[i]);
        // The first loads feed the instruction's destinations.
        u.dst = load_slot < 2 ? mapReg(dreg[load_slot]) : -1;
        if (u.dst < 0)
            u.dst = mapReg(dreg[0]);
        ++load_slot;
        any_mem = true;
        uops.push_back(u);
    }
    for (std::size_t j = 0; j < 2; ++j) {
        const Addr a = load<std::uint64_t>(p + 16 + 8 * j);
        if (a == 0)
            continue;
        Uop sta;
        sta.pc = ip;
        sta.cls = UopClass::StoreAddr;
        sta.addr = a;
        sta.memSize = 8;
        sta.src1 = mapReg(sreg[0]);
        uops.push_back(sta);
        Uop std_;
        std_.pc = ip;
        std_.cls = UopClass::StoreData;
        std_.src1 = mapReg(sreg[1]);
        uops.push_back(std_);
        any_mem = true;
    }
    if (is_branch) {
        Uop b;
        b.pc = ip;
        b.cls = UopClass::Branch;
        b.taken = taken;
        b.src1 = mapReg(sreg[0]);
        uops.push_back(b);
    } else if (!any_mem) {
        // Register-only instruction: one ALU uop. High Pin register
        // numbers carry vector/x87 state, so route those to the FP
        // unit; everything else is integer work.
        Uop a;
        a.pc = ip;
        a.cls = UopClass::IntAlu;
        for (std::size_t i = 0; i < 4; ++i) {
            if ((i < 2 && dreg[i] >= 32) || sreg[i] >= 32)
                a.cls = UopClass::FpAlu;
        }
        a.src1 = mapReg(sreg[0]);
        a.src2 = mapReg(sreg[1]);
        const std::int8_t d = mapReg(dreg[0]);
        if (a.cls == UopClass::FpAlu)
            a.dst = d < 0 ? -1 : static_cast<std::int8_t>(
                                     kNumIntRegs + d % kNumFpRegs);
        else
            a.dst = d;
        uops.push_back(a);
    }
}

} // namespace

std::unique_ptr<VecTrace>
readChampSimTrace(std::istream &is, const std::string &name,
                  const ChampSimReadOptions &opts,
                  TraceReadStats *stats, ChampSimTraceInfo *info)
{
    TraceReadStats local;
    TraceReadStats &st = stats ? *stats : local;
    ChampSimTraceInfo local_info;
    ChampSimTraceInfo &in = info ? *info : local_info;

    TraceBuilder out;
    std::vector<Uop> uops; // one record's uops
    std::unordered_set<std::uint64_t> pages;

    RecordFormat fmt;
    fmt.component = "trace.champsim";
    fmt.recordBytes = kChampSimRecordBytes;
    fmt.fault = recordFault;
    fmt.decode = [&](const std::uint8_t *p) {
        uops.clear();
        decodeRecord(p, uops);
        for (const Uop &u : uops) {
            out.push(u);
            if (!u.isMem())
                continue;
            pages.insert(u.addr >> 12);
            if (pages.size() > opts.maxPages) {
                throwTrace(DiagCode::TraceLimitExceeded, "max_pages",
                           "trace touches more than " +
                               std::to_string(opts.maxPages) +
                               " distinct 4KiB pages — raise "
                               "--max-pages if this is intentional");
            }
        }
    };
    fmt.tornTail = [](std::uint64_t tail, std::uint64_t records) {
        return makeDiag(DiagCode::TraceTruncated, "trace.champsim",
                        "tail",
                        "stream ends mid-record: " +
                            std::to_string(tail) +
                            " trailing bytes after " +
                            std::to_string(records) +
                            " records (torn download?)");
    };
    // Enforce the source-size cap and fold every fetched byte into the
    // identity CRC.
    fmt.fetched = [&](const char *bytes, std::size_t n) {
        in.bytes += n;
        if (in.bytes > opts.maxFileBytes) {
            throwTrace(DiagCode::TraceLimitExceeded, "max_file_bytes",
                       "trace source exceeds the " +
                           std::to_string(opts.maxFileBytes) +
                           "-byte cap — raise --max-file-bytes if "
                           "this is intentional");
        }
        in.crc = crc32(bytes, n, in.crc);
    };
    // The instruction cap truncates like --len on a synthetic trace.
    in.instructions = scanRecords(
        is, fmt, opts.read,
        opts.maxInstructions != 0
            ? opts.maxInstructions
            : std::numeric_limits<std::uint64_t>::max(),
        st);

    if (out.size() == 0) {
        if (in.bytes < kChampSimRecordBytes) {
            throwTrace(DiagCode::TraceTruncated, "size",
                       "source holds " + std::to_string(in.bytes) +
                           " bytes — not even one 64-byte ChampSim "
                           "record");
        }
        throwTrace(DiagCode::TraceBadRecord, "records",
                   "no usable ChampSim records in " +
                       std::to_string(in.bytes) + " bytes");
    }

    in.pages = pages.size();
    auto trace = out.finish(name);
    trace->setContentId(in.bytes, in.crc);
    return trace;
}

std::unique_ptr<VecTrace>
readChampSimFile(const std::string &path,
                 const ChampSimReadOptions &opts,
                 TraceReadStats *stats, ChampSimTraceInfo *info)
{
    if (path == "-")
        return readChampSimTrace(std::cin, "champsim:-", opts, stats,
                                 info);
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        throw IoError(makeDiag(DiagCode::IoOpenFailed,
                               "trace.champsim", "path",
                               "cannot open for read: " + path));
    }
    return readChampSimTrace(f, "champsim:" + path, opts, stats,
                             info);
}

} // namespace lrs
