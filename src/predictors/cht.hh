/**
 * @file
 * Collision History Tables (paper section 2.1).
 *
 * The CHT predicts whether a load will *collide* with some older,
 * not-yet-executed store in the scheduling window. Four practical
 * structures from the paper are implemented:
 *
 *  - Full CHT: tagged, set-associative, an n-bit counter per entry and
 *    optionally a collision distance; allocated on first collision.
 *  - Implicit-predictor (tag-only) CHT: tags only; a hit *is* the
 *    colliding prediction (a sticky, effectively 0-bit predictor).
 *  - Tagless CHT: direct-mapped counters indexed by PC bits; small
 *    entries allow many of them but aliasing interferes.
 *  - Combined: tag-only + tagless; in the conservative mode a load is
 *    predicted non-colliding only when the tag misses AND the tagless
 *    state is non-colliding (maximises AC-PC); the alternate mode
 *    requires both tables to agree on colliding (maximises ANC-PNC).
 *
 * The *exclusive* variant annotates each entry with the minimal
 * observed store-distance to the collider, letting a colliding load
 * still bypass every store younger than the predicted one.
 */

#ifndef LRS_PREDICTORS_CHT_HH
#define LRS_PREDICTORS_CHT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/diag.hh"
#include "common/state_io.hh"
#include "common/parse.hh"
#include "common/types.hh"

namespace lrs
{

class Rng;

/** The four CHT organisations of Figure 2 / section 4.1. */
enum class ChtKind
{
    Full,
    TagOnly,
    Tagless,
    Combined,
};

/** Config spellings and display names of the CHT kinds. */
inline constexpr EnumName<ChtKind> kChtKindNames[] = {
    {ChtKind::Full, "full", "Full"},
    {ChtKind::TagOnly, "tagonly", "TagOnly"},
    {ChtKind::Tagless, "tagless", "Tagless"},
    {ChtKind::Combined, "combined", "Combined"},
};

const char *chtKindName(ChtKind k);

/** Configuration of a CHT instance. */
struct ChtParams
{
    ChtKind kind = ChtKind::Full;
    /** Entries of the primary table (power of two). */
    std::size_t entries = 2048;
    /** Associativity of tagged tables. */
    unsigned assoc = 4;
    /** Counter width for Full/Tagless (1 or 2 in the paper). */
    unsigned counterBits = 2;
    /** Sticky predictor instead of a counter (Full only). */
    bool sticky = false;
    /** Keep the minimal collision distance (exclusive predictor). */
    bool trackDistance = false;
    /** Tagless-table entries for the Combined kind. */
    std::size_t taglessEntries = 4096;
    /** Clear the table every N updates (0 = never), cf. [Chry98]. */
    std::uint64_t clearInterval = 0;
    /**
     * Fold this many bits of branch-path history into the index,
     * giving the same static load different table entries on
     * different execution paths — the paper's trace-cache hint idea
     * ("different behaviors for the same load instruction based on
     * execution path", section 2.1). 0 = plain PC indexing.
     */
    unsigned pathBits = 0;
    /**
     * Combined mode: true = predict colliding when EITHER table says
     * so (conservative, maximises AC-PC); false = only when BOTH do.
     */
    bool combineConservative = true;

    /**
     * Every violated constraint of this parameter set, all at once
     * (empty = valid). Diags are named under @p component
     * ("pred.cht" by default).
     */
    std::vector<Diag> validate(
        const std::string &component = "pred.cht") const;
};

/**
 * A Collision History Table.
 */
class Cht
{
  public:
    /** Saturation limit of the stored collision distance. */
    static constexpr unsigned kMaxDistance = 63;

    struct Prediction
    {
        bool colliding;
        /** Predicted store-distance (1 = closest); 0 = unknown. */
        unsigned distance;
        /**
         * Raw saturating-counter value behind the prediction (0 on a
         * structural miss; tag-only hits report 1). Telemetry feeds
         * this to the confidence histogram; it plays no part in the
         * prediction itself.
         */
        unsigned confidence = 0;
    };

    explicit Cht(const ChtParams &params);

    /**
     * Predict for the load at @p pc. @p path is the branch-path
     * history at prediction time (ignored unless pathBits > 0).
     */
    Prediction predict(Addr pc, std::uint64_t path = 0) const;

    /**
     * Train with the load's actual behaviour. @p distance is the
     * store-distance of the actual collider (ignored if !collided or
     * distance tracking is off); @p path must be the history the
     * prediction was made with.
     */
    void update(Addr pc, bool collided, unsigned distance = 0,
                std::uint64_t path = 0);

    /** Drop all state (also used by the cyclic-clearing policy). */
    void clear();

    /**
     * Fault injection: flip one random state bit (a counter,
     * distance, tag or valid bit chosen by @p rng). Collision
     * predictions are speculation hints, so corrupted state may only
     * change timing, never correctness — the fault-injection tests
     * rely on this method to prove it.
     */
    void corruptRandomBit(Rng &rng);

    /** Hardware budget in bits. */
    std::size_t storageBits() const;

    const ChtParams &params() const { return params_; }

    std::string name() const;

    /** Training updates applied so far. */
    std::uint64_t updates() const { return updates_; }

    /**
     * Machine-snapshot support (common/state_io.hh): every tagged
     * entry, both tagless tables, the LRU tick and the update count,
     * exactly. A loading walk requires the same geometry.
     */
    void walkState(stateio::Archive &a);

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint8_t counter = 0;
        std::uint8_t distance = 0; // 0 = none recorded
        std::uint64_t lastUse = 0;
    };

    /** PC with the configured slice of path history mixed in. */
    Addr keyOf(Addr pc, std::uint64_t path) const;

    // Tagged-table helpers (Full / TagOnly / Combined's tag part).
    const Entry *lookupTagged(Addr key) const;
    Entry *lookupTagged(Addr key);
    Entry *allocateTagged(Addr key);
    std::size_t setIndex(Addr key) const;
    std::uint32_t tagOf(Addr key) const;

    // Tagless-table helpers (Tagless / Combined's tagless part).
    std::size_t taglessIndex(Addr key) const;

    bool counterPredicts(std::uint8_t c) const;
    void counterTrain(std::uint8_t &c, bool up) const;

    void maybeCyclicClear();

    ChtParams params_;
    unsigned setBits_ = 0;      // tagged table
    unsigned taglessBits_ = 0;  // tagless table
    std::vector<Entry> tagged_;
    std::vector<std::uint8_t> taglessCtr_;
    std::vector<std::uint8_t> taglessDist_;
    std::uint64_t tick_ = 0;
    std::uint64_t updates_ = 0;
};

} // namespace lrs

#endif // LRS_PREDICTORS_CHT_HH
