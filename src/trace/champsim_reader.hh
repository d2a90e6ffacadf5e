/**
 * @file
 * ChampSim trace ingestion — the hostile-input front end.
 *
 * ChampSim distributes instruction traces as a raw stream of fixed
 * 64-byte little-endian `input_instr` records (no header, no framing,
 * usually xz-compressed on disk):
 *
 *   offset  field
 *   ------  ----------------------------------------------
 *    0      u64 ip          instruction pointer
 *    8      u8  is_branch   0/1
 *    9      u8  branch_taken 0/1 (only with is_branch)
 *   10      u8  destination_registers[2]   0 = none
 *   12      u8  source_registers[4]        0 = none
 *   16      u64 destination_memory[2]      0 = none
 *   32      u64 source_memory[4]           0 = none
 *
 * These files come from outside the trust boundary: they are
 * downloaded, re-hosted, re-compressed and occasionally torn. This
 * reader therefore treats every byte as adversarial:
 *
 *  - plausibility validation of each record before decode (the same
 *    bounds double as the recovery resync heuristic — a random
 *    64-byte window passes with probability ~2^-14);
 *  - the strict/recovery policy, bad-record budget and bounded-memory
 *    window of scanRecords() (trace/serialize.hh), shared with the
 *    LRSTRC reader;
 *  - hard resource caps: maximum file bytes and maximum distinct
 *    4 KiB pages touched (E_TRACE_LIMIT_EXCEEDED when exceeded), plus
 *    a maximum instruction count that truncates like `--len`.
 *
 * Decode mapping (see docs/TRACES.md): every uop of an instruction
 * carries pc = ip (instruction-granularity predictor indexing, as on
 * real hardware); each non-zero source_memory slot becomes a Load;
 * each non-zero destination_memory slot becomes an STA+STD pair
 * (emitted adjacently, so the core's positional pairing invariant
 * holds by construction); is_branch becomes a Branch uop; an
 * instruction with neither memory nor branch work becomes one ALU uop.
 */

#ifndef LRS_TRACE_CHAMPSIM_READER_HH
#define LRS_TRACE_CHAMPSIM_READER_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>

#include "trace/serialize.hh"
#include "trace/stream.hh"

namespace lrs
{

/** Size of one ChampSim input_instr record, in bytes. */
constexpr std::size_t kChampSimRecordBytes = 64;

/** Policy for reading one ChampSim trace. */
struct ChampSimReadOptions
{
    /** Strict/recovery discipline, shared with the LRSTRC reader. */
    TraceReadOptions read;
    /**
     * Stop after this many instructions (records) — the ChampSim
     * equivalent of `--len`. 0 = read the whole stream.
     */
    std::uint64_t maxInstructions = 0;
    /**
     * Refuse (E_TRACE_LIMIT_EXCEEDED) a trace touching more distinct
     * 4 KiB pages than this: a bound on the page-tracking set and a
     * tripwire for address-field garbage that validation cannot see.
     */
    std::uint64_t maxPages = 1u << 20;
    /**
     * Refuse (E_TRACE_LIMIT_EXCEEDED) a source larger than this many
     * bytes — a decompression bomb piped through stdin must not run
     * the host out of memory before maxInstructions can bite.
     */
    std::uint64_t maxFileBytes = 1ull << 31;
};

/** What was actually ingested (identity + resource accounting). */
struct ChampSimTraceInfo
{
    /** Bytes fetched from the source (the identity domain). */
    std::uint64_t bytes = 0;
    /** CRC-32 over those bytes; snapshot restore validates it. */
    std::uint32_t crc = 0;
    /** Instructions (records) accepted. */
    std::uint64_t instructions = 0;
    /** Distinct 4 KiB pages touched by memory operands. */
    std::uint64_t pages = 0;
};

/**
 * Field-bounds plausibility of one 64-byte window. Exposed for the
 * `--check-journal` file sniffer and the fuzzer harness.
 */
bool champSimRecordPlausible(const std::uint8_t *p);

/**
 * Cheap sniff: does @p path look like a raw ChampSim trace? True when
 * the head of the file is a run of plausible 64-byte records. Never
 * throws (unreadable file → false).
 */
bool looksLikeChampSimFile(const std::string &path);

/**
 * Decode a ChampSim record stream into a materialised trace named
 * @p name. The returned trace carries the source byte count and CRC
 * (VecTrace::contentBytes()/contentCrc()) for snapshot identity.
 *
 * @throws TraceError (E_TRACE_BAD_RECORD / E_TRACE_TRUNCATED /
 *         E_TRACE_BUDGET_EXCEEDED / E_TRACE_LIMIT_EXCEEDED) as
 *         described in the file comment.
 */
std::unique_ptr<VecTrace>
readChampSimTrace(std::istream &is, const std::string &name,
                  const ChampSimReadOptions &opts = {},
                  TraceReadStats *stats = nullptr,
                  ChampSimTraceInfo *info = nullptr);

/**
 * Convenience: read from @p path; "-" reads stdin (single pass — a
 * piped trace cannot be re-read, so grids reject it).
 *
 * @throws IoError (E_IO_OPEN_FAILED) when the file cannot be opened.
 */
std::unique_ptr<VecTrace>
readChampSimFile(const std::string &path,
                 const ChampSimReadOptions &opts = {},
                 TraceReadStats *stats = nullptr,
                 ChampSimTraceInfo *info = nullptr);

} // namespace lrs

#endif // LRS_TRACE_CHAMPSIM_READER_HH
