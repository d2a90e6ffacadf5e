/**
 * @file
 * Store-set memory dependence predictor, after Chrysos & Emer
 * [Chry98] — the mechanism the paper positions its CHT against
 * ("similar ... but much more cost effective").
 *
 * Two tables: the SSIT maps instruction PCs (loads AND stores) to a
 * store-set ID; the LFST tracks, per set, the last fetched store of
 * that set still in flight. A load whose PC maps to a set must wait
 * for that store to complete. Sets are built by merging the PCs of a
 * load and a store that caused an ordering violation, and the tables
 * are cleared cyclically to shed stale assignments (as the original
 * paper prescribes).
 *
 * Simplification vs [Chry98]: store-to-store ordering within a set is
 * not enforced (our pipeline model already executes STAs in order of
 * readiness, and the load-store edge is what the evaluation needs).
 */

#ifndef LRS_PREDICTORS_STORE_SETS_HH
#define LRS_PREDICTORS_STORE_SETS_HH

#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"

namespace lrs
{

class StoreSets
{
  public:
    /** Marker for "no store set" / "no store to wait for". */
    static constexpr std::uint32_t kNoSet = 0xffffffff;

    /**
     * @param ssit_entries SSIT entries (power of two)
     * @param num_sets LFST entries (maximum live store sets)
     * @param clear_interval training events between cyclic clears
     *        (0 = never)
     */
    explicit StoreSets(std::size_t ssit_entries = 4096,
                       std::size_t num_sets = 128,
                       std::uint64_t clear_interval = 30000);

    /**
     * A store at @p pc with sequence number @p seq was renamed:
     * if the store belongs to a set, it becomes that set's last
     * fetched store.
     */
    void storeRenamed(Addr pc, SeqNum seq);

    /**
     * A store completed (or retired): if it is still its set's last
     * fetched store, the set empties.
     */
    void storeCompleted(Addr pc, SeqNum seq);

    /**
     * A load at @p pc was renamed: returns the sequence number of the
     * store it must wait for, or kNoStoreSeq if unconstrained.
     */
    static constexpr SeqNum kNoStoreSeq =
        ~static_cast<SeqNum>(0);
    SeqNum loadRenamed(Addr pc) const;

    /**
     * Train on an ordering violation between the load at @p load_pc
     * and the store at @p store_pc (Chrysos-Emer assignment rules).
     */
    void violation(Addr load_pc, Addr store_pc);

    /** Drop every assignment. */
    void clear();

    /** Hardware budget in bits. */
    std::size_t storageBits() const;

    /**
     * Machine-snapshot support (core/snapshot.hh): both tables, the
     * allocation cursor and the cyclic-clear event count, exactly.
     */
    void walkState(stateio::Archive &a);

  private:
    std::size_t index(Addr pc) const;

    std::vector<std::uint32_t> ssit_; ///< pc -> set id (kNoSet = none)
    struct Lfst
    {
        SeqNum seq = 0;
        bool valid = false;
    };
    std::vector<Lfst> lfst_;
    std::uint32_t nextSet_ = 0;
    std::uint64_t clearInterval_;
    std::uint64_t events_ = 0;
};

} // namespace lrs

#endif // LRS_PREDICTORS_STORE_SETS_HH
