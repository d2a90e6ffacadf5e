/**
 * @file
 * Memory Ordering Buffer.
 *
 * Tracks every store in the instruction window — STA (address) and STD
 * (data) status separately, P6-style — and answers the ordering queries
 * the scheduler and the collision-classification logic need
 * (paper sections 1.1 and 2.1):
 *
 *  - is there an older store whose address is still unknown?
 *    (the load is then *conflicting*)
 *  - does an older store with unknown-at-schedule-time address overlap
 *    this load's address? (the load is then *actually colliding*)
 *  - which is the youngest older overlapping store, and when do its
 *    STA/STD complete? (forwarding and penalty timing)
 *  - what is the store-distance between a load and its collider?
 *    (the exclusive predictor's distance annotation)
 *
 * The MOB also knows each store's *oracle* address (from the trace)
 * before the STA executes; only the Perfect scheme and the ground-truth
 * classification consult it ahead of STA execution.
 */

#ifndef LRS_MEMORY_MOB_HH
#define LRS_MEMORY_MOB_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/stats_registry.hh"
#include "common/types.hh"

namespace lrs
{

/**
 * Store-tracking half of a P6-style MOB/ROB pair.
 */
class Mob
{
  public:
    /** Store parts an ordering query waits on, as a bit mask. */
    enum Part : unsigned
    {
        kAddr = 1, ///< the STA: address known
        kData = 2, ///< the STD: data available
    };

    /** Status of one in-window store. */
    struct StoreRec
    {
        SeqNum seq;          ///< sequence number of the STA uop
        Addr addr;           ///< oracle address (known to the trace)
        Addr pc = 0;         ///< static PC of the STA (for training)
        std::uint8_t size;
        /** Store Barrier Cache: this store fences following loads. */
        bool barrier = false;
        /** A load was wrongly ordered against this store. */
        bool causedViolation = false;
        Cycle staDoneAt = kCycleNever; ///< address known from here on
        Cycle stdDoneAt = kCycleNever; ///< data available from here on

        bool addrKnownAt(Cycle now) const { return staDoneAt <= now; }
        bool dataKnownAt(Cycle now) const { return stdDoneAt <= now; }
        bool completeAt(Cycle now) const { return doneAt() <= now; }

        /** First cycle with both parts known (kCycleNever until). */
        Cycle doneAt() const { return partsDoneAt(kAddr | kData); }

        /** First cycle with every part in @p parts (a mask) known. */
        Cycle
        partsDoneAt(unsigned parts) const
        {
            Cycle t = 0;
            if (parts & kAddr)
                t = staDoneAt;
            if ((parts & kData) && stdDoneAt > t)
                t = stdDoneAt;
            return t;
        }
    };

    /**
     * A position in the MOB's lifetime store order. Store o is the
     * o-th store ever inserted; a uop's ordinal is the number of
     * stores inserted before it, so a store's own ordinal is its
     * insertion index and the stores older than a load are exactly
     * those with an ordinal below the load's. While store o is in
     * the window it sits at logical index o - retired(), which makes
     * every query below O(1) to start: the core records each uop's
     * ordinal at rename and never searches by sequence number on its
     * per-cycle paths (docs/PERFORMANCE.md).
     */
    struct Ordinal
    {
        std::uint64_t value = 0;
    };
    /** An ordinal that names no store. */
    static constexpr Ordinal kNoStore{~std::uint64_t{0}};

    /** A new store (STA+STD pair) entered the window at rename. */
    void insert(SeqNum sta_seq, Addr addr, std::uint8_t size,
                Addr pc = 0, bool barrier = false);

    /** Record that a load was wrongly ordered against store @p o. */
    void markViolation(Ordinal o);
    void
    markViolation(SeqNum sta_seq)
    {
        markViolation(storeOrdinal(sta_seq));
    }

    /** The STA executed: address becomes architecturally known. */
    void staExecuted(Ordinal o, Cycle when);
    void
    staExecuted(SeqNum sta_seq, Cycle when)
    {
        staExecuted(storeOrdinal(sta_seq), when);
    }

    /** The STD executed: data becomes available for forwarding. */
    void stdExecuted(Ordinal o, Cycle when);
    void
    stdExecuted(SeqNum sta_seq, Cycle when)
    {
        stdExecuted(storeOrdinal(sta_seq), when);
    }

    /** The store retired: remove it from the window. */
    void retire(SeqNum sta_seq);

    /** Remove every store (window flush). */
    void clear();

    /** Number of stores currently in the window. */
    std::size_t size() const { return count_; }

    /** Stores ever inserted (lifetime of this MOB). */
    std::uint64_t inserted() const { return inserted_; }
    /** Stores marked as having caused a wrong load ordering. */
    std::uint64_t violationsMarked() const { return violations_; }

    /** Stores that left the window: the ordinal of the oldest one in
     *  it, when there is one. */
    std::uint64_t retired() const { return inserted_ - count_; }

    /**
     * The ordinal of the uop with sequence number @p seq: the stores
     * inserted before it, by a binary search over the window. Exact
     * for in-window stores and for uops younger than every retired
     * store — the conversion a seq makes once, at restore or in a
     * test, before the O(1) ordinal queries take over.
     */
    Ordinal
    ordinalOf(SeqNum seq) const
    {
        return {retired() + olderCount(seq)};
    }

    /** Ordinal of the in-window store @p sta_seq; kNoStore if none. */
    Ordinal storeOrdinal(SeqNum sta_seq) const;

    /** Register this MOB's stats under @p g (e.g. "mem.mob"). */
    void registerStats(StatsGroup g);

    /**
     * Enable partial-address disambiguation: queries through
     * partialAliasOlder() compare only the low @p bits of addresses,
     * the way a real MOB's narrow comparators do (and the way SPOILER
     * exploits — 4K-aliasing stores/loads match on the low 12+ bits
     * while the full addresses are disjoint). 0 = full addresses
     * (default; nothing changes). Must be set before registerStats()
     * so the partial counters appear only when the mode is active.
     */
    void setPartialBits(unsigned bits) { partialBits_ = bits; }
    unsigned partialBits() const { return partialBits_; }

    /** Loads stalled on a false (alias-only, e.g. 4K-alias) partial
     *  match. */
    std::uint64_t partialAliasMatches() const
    {
        return partialAliasMatches_;
    }
    /** Loads whose partial match was a true (full-overlap) match. */
    std::uint64_t partialTrueMatches() const
    {
        return partialTrueMatches_;
    }

    /**
     * First cycle from which @p parts (a Part mask) of every store
     * older than @p load_seq are known: the max of their staDoneAt /
     * stdDoneAt, kCycleNever while one of those parts has not
     * executed, 0 with no older store. "Every older address is known
     * at now" is olderHorizon(seq, kAddr) <= now. With
     * @p barrier_only only barrier-marked stores count — the Store
     * Barrier Cache's load fence ([Hess95]).
     */
    Cycle olderHorizon(Ordinal load, unsigned parts,
                       bool barrier_only = false) const;
    Cycle
    olderHorizon(SeqNum load_seq, unsigned parts,
                 bool barrier_only = false) const
    {
        return olderHorizon(ordinalOf(load_seq), parts, barrier_only);
    }

    /**
     * Youngest older store overlapping [addr, addr+size), using oracle
     * addresses. Returns nullptr if none.
     */
    const StoreRec *youngestOverlapOlder(Ordinal load, Addr addr,
                                         std::uint8_t size) const;
    const StoreRec *
    youngestOverlapOlder(SeqNum load_seq, Addr addr,
                         std::uint8_t size) const
    {
        return youngestOverlapOlder(ordinalOf(load_seq), addr, size);
    }

    /**
     * True iff an older store whose address is unknown at @p now
     * overlaps the load's address — the paper's *actually colliding*
     * condition evaluated at schedule time.
     */
    bool collidesAt(SeqNum load_seq, Addr addr, std::uint8_t size,
                    Cycle now) const;

    /**
     * Partial-address check against *known*-address older stores: the
     * narrow comparator a real MOB runs when a load executes. Returns
     * true iff the youngest older known-address store whose low
     * partialBits() match the load does NOT actually overlap it —
     * a false 4K-alias dependence the load must conservatively stall
     * on (counted in partial_alias_matches). A matching store that
     * really overlaps counts as partial_true_matches and returns
     * false (the ordinary collision machinery handles it). Always
     * false when partial matching is off.
     */
    bool partialAliasOlder(Ordinal load, Addr addr, std::uint8_t size,
                           Cycle now) const;
    bool
    partialAliasOlder(SeqNum load_seq, Addr addr, std::uint8_t size,
                      Cycle now) const
    {
        return partialAliasOlder(ordinalOf(load_seq), addr, size, now);
    }

    /**
     * Store-distance of the youngest older overlapping store: 1 means
     * the closest older store, 2 the one before it, etc. Returns 0 if
     * no overlap.
     */
    unsigned overlapDistance(Ordinal load, Addr addr,
                             std::uint8_t size) const;
    unsigned
    overlapDistance(SeqNum load_seq, Addr addr, std::uint8_t size) const
    {
        return overlapDistance(ordinalOf(load_seq), addr, size);
    }

    /**
     * The @p distance-th closest older store (1 = youngest older).
     * Returns nullptr if fewer than @p distance older stores exist.
     */
    const StoreRec *olderAtDistance(Ordinal load,
                                    unsigned distance) const;
    const StoreRec *
    olderAtDistance(SeqNum load_seq, unsigned distance) const
    {
        return olderAtDistance(ordinalOf(load_seq), distance);
    }

    /** The in-window store with ordinal @p o; nullptr once it retired
     *  and for kNoStore. */
    const StoreRec *
    get(Ordinal o) const
    {
        const std::uint64_t i = o.value - retired();
        return i < count_ ? &at(i) : nullptr;
    }
    /** The in-window store with STA sequence @p sta_seq, if any. */
    const StoreRec *
    get(SeqNum sta_seq) const
    {
        return get(storeOrdinal(sta_seq));
    }

    /** Ordinal of @p r, a record this MOB returned. */
    Ordinal ordinalOf(const StoreRec &r) const;

    /**
     * The @p i-th in-window store in program order (0 = oldest).
     * Together with size() this is the read-only view the invariant
     * auditor uses to cross-check the MOB against the ROB.
     */
    const StoreRec &storeAt(std::size_t i) const { return at(i); }

    /**
     * Machine-snapshot support (common/state_io.hh): every in-window
     * store record plus the lifetime counters, exactly.
     */
    void walkState(stateio::Archive &a);

  private:
    /**
     * Stores in program order as a ring over one flat array: logical
     * index i lives at ring_[(head_ + i) % ring_.size()]. A flat ring
     * keeps every age-ordered CAM walk on contiguous cache lines
     * (docs/PERFORMANCE.md) where the former std::deque chased
     * block-map pointers. Grown (with a contiguous rebuild) only when
     * count_ hits capacity; pointers returned by the query API are
     * invalidated only by that growth, and no caller holds one across
     * an insert().
     */
    std::vector<StoreRec> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;

    std::size_t
    physIndex(std::size_t logical) const
    {
        std::size_t i = head_ + logical;
        if (i >= ring_.size())
            i -= ring_.size();
        return i;
    }

    StoreRec &at(std::size_t logical) { return ring_[physIndex(logical)]; }
    const StoreRec &
    at(std::size_t logical) const
    {
        return ring_[physIndex(logical)];
    }

    /**
     * Number of in-window stores older than @p load_seq: a binary
     * search over the seq-sorted ring, for ordinalOf(SeqNum) and
     * collidesAt().
     */
    std::size_t olderCount(SeqNum load_seq) const;

    /**
     * Number of in-window stores older than the uop at ordinal
     * @p load — the logical prefix [0, olderIn) every ordering query
     * iterates, so queries never touch the younger suffix at all.
     */
    std::size_t
    olderIn(Ordinal load) const
    {
        assert(load.value >= retired() && load.value <= inserted_);
        return static_cast<std::size_t>(load.value - retired());
    }

    /** Mutable record of the in-window store @p o (must exist). */
    StoreRec &
    storeRec(Ordinal o)
    {
        assert(get(o) != nullptr);
        return at(static_cast<std::size_t>(o.value - retired()));
    }

    /** Append @p r as the youngest store, growing the ring if full. */
    void append(const StoreRec &r);

    std::uint64_t inserted_ = 0;
    std::uint64_t violations_ = 0;

    /** Comparator width; 0 = full-address disambiguation. */
    unsigned partialBits_ = 0;
    // Mutable: the queries are logically const but the accounting of
    // alias vs true matches is a measurement side effect.
    mutable std::uint64_t partialAliasMatches_ = 0;
    mutable std::uint64_t partialTrueMatches_ = 0;
};

/** Do two byte ranges overlap? */
inline bool
rangesOverlap(Addr a1, std::uint8_t s1, Addr a2, std::uint8_t s2)
{
    return a1 < a2 + s2 && a2 < a1 + s1;
}

} // namespace lrs

#endif // LRS_MEMORY_MOB_HH
