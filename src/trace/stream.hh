/**
 * @file
 * The in-memory trace every run consumes.
 *
 * The simulator is trace driven (paper section 3): it consumes a
 * sequence of uops in correct-path program order. Benches run the same
 * trace under several machine configurations, so traces are generated
 * (or read from a file) once and held in memory.
 *
 * A trace is a walk over a program of static uops, so it is stored as
 * one: a table of the distinct static uops, one 32-bit word per dynamic
 * uop naming its static uop and carrying the branch outcome, and the
 * effective addresses of only the uops that have one. A uop costs
 * about 6 bytes instead of sizeof(Uop).
 */

#ifndef LRS_TRACE_STREAM_HH
#define LRS_TRACE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/uop.hh"

namespace lrs
{

/**
 * The immutable storage of one trace, built by TraceBuilder and read
 * through VecTrace cursors.
 */
struct TraceStore
{
    /** A word's branch outcome (Uop::taken). */
    static constexpr std::uint32_t kTaken = 1;
    /** A word's uop carries an address, the next one in @c addrs. */
    static constexpr std::uint32_t kHasAddr = 2;
    /** Bits below a word's static-uop index. */
    static constexpr int kIndexShift = 2;
    /** Uops between two entries of @c marks. */
    static constexpr std::size_t kMarkEvery = 4096;

    /** Distinct static uops: every field but addr and taken, which
     *  stay kAddrInvalid and false. */
    std::vector<Uop> statics;
    /** Per dynamic uop: static index << kIndexShift | flags. */
    std::vector<std::uint32_t> words;
    /** The addresses of the uops whose word has kHasAddr, in order. */
    std::vector<Addr> addrs;
    /** marks[k]: the index in @c addrs of uop k * kMarkEvery's
     *  address, or of the next one after it. */
    std::vector<std::size_t> marks;

    /** Heap bytes the store holds, counted from its capacities. */
    std::size_t
    bytes() const
    {
        return statics.capacity() * sizeof(Uop) +
               words.capacity() * sizeof(std::uint32_t) +
               addrs.capacity() * sizeof(Addr) +
               marks.capacity() * sizeof(std::size_t);
    }
};

class VecTrace;

/**
 * Encodes a uop stream into a TraceStore. Every trace source (the
 * generator, the native reader, ChampSim decode) pushes its uops here.
 */
class TraceBuilder
{
  public:
    /** @p expected uops are reserved up front when the count is known. */
    explicit TraceBuilder(std::size_t expected = 0);

    /** Append @p u to the trace. */
    void
    push(const Uop &u)
    {
        if (s_.words.size() % TraceStore::kMarkEvery == 0)
            s_.marks.push_back(s_.addrs.size());
        std::uint32_t w = intern(u) << TraceStore::kIndexShift;
        if (u.taken)
            w |= TraceStore::kTaken;
        if (u.addr != kAddrInvalid) {
            w |= TraceStore::kHasAddr;
            s_.addrs.push_back(u.addr);
        }
        s_.words.push_back(w);
    }

    /** Uops pushed so far. */
    std::size_t size() const { return s_.words.size(); }

    /** The trace named @p name, holding no growth slack. Call once;
     *  the builder is spent afterwards. */
    std::unique_ptr<VecTrace> finish(std::string name);

  private:
    /** A slot of the static-uop table: a pc, and below the slot's
     *  static index + 1 (0: empty) the uop's class, registers and size
     *  packed into kTailBits. */
    struct Slot
    {
        Addr pc = 0;
        std::uint64_t tagged = 0;
    };
    static constexpr int kTailBits = 40;
    static constexpr std::uint64_t kTailMask =
        (std::uint64_t(1) << kTailBits) - 1;

    /** The static fields of @p u after pc, five bytes packed. */
    static std::uint64_t
    tailOf(const Uop &u)
    {
        return static_cast<std::uint64_t>(u.cls) |
               std::uint64_t(static_cast<std::uint8_t>(u.src1)) << 8 |
               std::uint64_t(static_cast<std::uint8_t>(u.src2)) << 16 |
               std::uint64_t(static_cast<std::uint8_t>(u.dst)) << 24 |
               std::uint64_t(u.memSize) << 32;
    }

    /** The table slot a static uop's search starts at. */
    std::size_t
    home(Addr pc, std::uint64_t tail) const
    {
        // Multiplicative hashing: the top bits mix every input bit.
        return ((pc ^ (tail << 24 | tail >> 40)) *
                0x9e3779b97f4a7c15ULL) >> tableShift_;
    }

    /** The index of @p u's static uop, added if new. */
    std::uint32_t
    intern(const Uop &u)
    {
        const std::uint64_t tail = tailOf(u);
        const std::size_t mask = table_.size() - 1;
        for (std::size_t i = home(u.pc, tail);; i = (i + 1) & mask) {
            const Slot &e = table_[i];
            if (e.tagged == 0)
                return insert(u, i);
            if (((e.pc ^ u.pc) | ((e.tagged ^ tail) & kTailMask)) == 0)
                return static_cast<std::uint32_t>((e.tagged >> kTailBits) -
                                                  1);
        }
    }

    std::uint32_t insert(const Uop &u, std::size_t slot);
    void rehash(std::size_t slots);

    TraceStore s_;
    /** Open addressing over s_.statics, at most half full. */
    std::vector<Slot> table_;
    int tableShift_ = 0;
};

/**
 * A trace held in memory, read through a cursor.
 *
 * The store is immutable and shared: copying a VecTrace makes a new
 * cursor over the same storage, so several machines can run one trace
 * concurrently (runAllSchemes()) while it exists once in memory.
 */
class VecTrace
{
  public:
    /** A trace of @p uops, encoded through a TraceBuilder. */
    VecTrace(std::string name, const std::vector<Uop> &uops);

    /**
     * Next uop, or nullptr at end of trace. The uop is decoded into
     * this cursor and stays valid until its next next().
     */
    const Uop *
    next()
    {
        if (pos_ >= store_->words.size())
            return nullptr;
        const std::uint32_t w = store_->words[pos_++];
        cur_ = store_->statics[w >> TraceStore::kIndexShift];
        cur_.taken = (w & TraceStore::kTaken) != 0;
        if (w & TraceStore::kHasAddr)
            cur_.addr = store_->addrs[addrPos_++];
        return &cur_;
    }

    /** Restart the cursor from the beginning. */
    void reset() { pos_ = addrPos_ = 0; }

    /** Human-readable trace name. */
    const std::string &name() const { return name_; }

    /** Total number of uops in the trace. */
    std::size_t size() const { return store_->words.size(); }

    /**
     * Reposition the cursor so the next() call returns uop @p n (or
     * end-of-trace when @p n >= size()). Snapshot restore
     * (core/snapshot.hh) uses this to fast-forward a fresh cursor to
     * where the checkpointed machine had consumed the trace. Costs at
     * most TraceStore::kMarkEvery word reads.
     */
    void seek(std::size_t n);

    /** The shared storage; copies of one trace return the same one. */
    const TraceStore &store() const { return *store_; }

    /** Stamp the source-content identity (external readers only). */
    void
    setContentId(std::uint64_t bytes, std::uint32_t crc)
    {
        contentBytes_ = bytes;
        contentCrc_ = crc;
    }

    /**
     * Content identity of an externally ingested trace: the byte count
     * and CRC-32 of the source bytes the decoder consumed. Zero for
     * synthesised traces (whose identity is their name + length — both
     * already checked on snapshot restore). Snapshot restore uses this
     * to refuse a checkpoint taken from a since-modified trace file.
     */
    std::uint64_t contentBytes() const { return contentBytes_; }
    std::uint32_t contentCrc() const { return contentCrc_; }

  private:
    friend class TraceBuilder;
    VecTrace() = default;

    std::string name_;
    std::shared_ptr<const TraceStore> store_;
    std::size_t pos_ = 0;
    std::size_t addrPos_ = 0; ///< index in addrs of uop pos_'s address
    Uop cur_;
    std::uint64_t contentBytes_ = 0;
    std::uint32_t contentCrc_ = 0;
};

} // namespace lrs

#endif // LRS_TRACE_STREAM_HH
