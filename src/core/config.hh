/**
 * @file
 * Machine configuration of the simulated out-of-order core.
 *
 * Defaults follow the paper's simulated machine (section 3.1):
 * 6 uops fetched/renamed per clock, a 128-entry renamer register pool,
 * a 32-entry scheduling window, 2 integer / 2 memory / 1 FP / 2 complex
 * execution units, up to 6 uops retired per clock, 16K L1D with a 256K
 * unified 4-way L2 (64-byte lines), and an 8-cycle load-store collision
 * penalty.
 */

#ifndef LRS_CORE_CONFIG_HH
#define LRS_CORE_CONFIG_HH

#include <string>
#include <vector>

#include "common/diag.hh"
#include "common/types.hh"
#include "memory/hierarchy.hh"
#include "predictors/bank_pred.hh"
#include "predictors/cht.hh"
#include "predictors/hitmiss.hh"

namespace lrs
{

/**
 * The six memory ordering schemes of section 3.1, plus the Store
 * Barrier Cache of Hesson et al. [Hess95] that the paper positions
 * its CHT against ("similar ... yet more refined, since it deals with
 * specific loads").
 */
enum class OrderingScheme
{
    Traditional,   ///< I: wait for all STAs, may pass STDs
    Opportunistic, ///< II: never wait, pay on actual collisions
    Postponing,    ///< III: Traditional + predicted colliders wait STDs
    Inclusive,     ///< IV: CHT; predicted colliders wait for all stores
    Exclusive,     ///< V: CHT + distance; wait for the predicted store
    Perfect,       ///< VI: oracle disambiguation
    StoreBarrier,  ///< [Hess95]: barrier-predicted stores fence loads
    StoreSets,     ///< [Chry98]: SSIT/LFST store-set prediction
};

const char *orderingSchemeName(OrderingScheme s);

/**
 * Memory-pipeline organisations of Figure 4. TrueMultiPorted has no
 * conflicts and no extra latency; Conventional multi-banked pays a
 * crossbar/decision-stage latency and suffers bank conflicts (with an
 * optional bank predictor steering the scheduler away from them);
 * DualScheduled eliminates conflicts through a second-level scheduler
 * at extra load latency; Sliced hard-wires each pipe to one bank —
 * ideal latency, but it *requires* a bank predictor: low-confidence
 * loads are replicated to every pipe and mispredicted loads
 * re-execute.
 */
enum class BankMode
{
    TrueMultiPorted,
    Conventional,
    DualScheduled,
    Sliced,
};

const char *bankModeName(BankMode m);

const char *hmpKindName(HmpKind k);

/** Full machine configuration. */
struct MachineConfig
{
    // Front end.
    int fetchWidth = 6;
    int retireWidth = 6;
    int robSize = 128;
    int regPool = 128;
    /** Scheduling window (reservation stations). */
    int schedWindow = 32;
    Cycle branchMispredictPenalty = 8;

    // Execution units.
    int intUnits = 2;
    int memUnits = 2;
    int fpUnits = 1;
    int complexUnits = 2;
    int stdPorts = 2;

    // Load-related speculation machinery.
    OrderingScheme scheme = OrderingScheme::Traditional;
    ChtParams cht;              ///< used by schemes III-V
    /**
     * Exclusive-scheme extension (section 2.1): use the predicted
     * distance as a load-store *pairing* and speculatively forward
     * the paired store's data to the load as soon as the STD
     * completes — without waiting for the STA. A wrong pairing is
     * detected when the STA resolves and costs a squash like any
     * other ordering violation.
     */
    bool exclusiveSpecForward = false;
    /**
     * Stride prefetch engine: the load-address predictor that backs
     * bank prediction also drives next-address prefetches into L1
     * (the paper notes the Full CHT can host "additional load related
     * information such as data prefetch ... information",
     * section 2.1; the predictor itself is the [Beke99] machinery).
     * Prefetches are issued off the critical path and modelled as
     * free of port cost.
     */
    bool stridePrefetch = false;
    /** How many strides ahead the prefetcher runs. */
    unsigned prefetchDegree = 2;
    /**
     * Attach the CHT in shadow mode: it predicts and trains (so the
     * classification counters include predictions) without affecting
     * scheduling. Used by the CHT design-space study (Figure 9).
     */
    bool chtShadow = false;
    HmpKind hmp = HmpKind::AlwaysHit;
    Cycle collisionPenalty = 8; ///< wrong-ordering re-execution cost
    Cycle replayBackoff = 3;    ///< retry delay after a wasted issue
    /**
     * Recovery delay of replayed uops: the hit/miss indication arrives
     * several cycles after dependents started scheduling (Figure 3 of
     * the paper shows 5), and the re-scheduling pipeline cannot
     * restart instantly.
     */
    Cycle reschedulePenalty = 5;
    Cycle ahpmPenalty = 5;      ///< AH-PM: wait for the hit indication

    // Banked-cache pipeline (Figure 4).
    BankMode bankMode = BankMode::TrueMultiPorted;
    unsigned numBanks = 2;
    BankPredKind bankPred = BankPredKind::None;

    /**
     * MOB partial-address disambiguation: compare only the low this
     * many address bits when a load checks older known-address stores,
     * the narrow comparator real MOBs use (and the effect SPOILER
     * measures — 4K-aliasing accesses match at 12+ bits while being
     * disjoint in full addresses). A false (alias-only) match stalls
     * the load for collisionPenalty cycles. 0 (default) = full-address
     * comparison, timing byte-identical to the pre-existing model.
     */
    unsigned mobPartialBits = 0;

    // Memory hierarchy.
    HierarchyParams mem;

    // Observability.
    /**
     * Snapshot an IntervalSample (IPC, replay rate, predictor
     * mispredict rates, occupancies) every this many cycles into
     * SimResult::intervals. 0 disables interval collection (no
     * per-cycle accounting is done then).
     */
    std::uint64_t statsInterval = 0;

    /**
     * Collect the telemetry histograms (load-to-use delay, replay
     * distance, window/ROB/MOB occupancy, CHT/HMP confidence) into
     * SimResult::histograms. Default off: the off path costs one null
     * test per sample site and leaves every export byte-identical
     * (tools/check_overhead.sh). Deterministic when on: histograms
     * record simulated quantities only, so grid aggregates are
     * bit-identical for any worker count (docs/OBSERVABILITY.md,
     * "Histograms").
     */
    bool collectHistograms = false;

    // Robustness.
    /**
     * Walk the ROB / scheduling window / MOB every this many cycles
     * checking structural invariants (see core/auditor.hh). 0
     * disables auditing (the default: audits cost a full window walk
     * each time). A violation raises AuditError — corrupted state
     * must never silently turn into plausible-but-wrong results.
     */
    std::uint64_t auditInterval = 0;

    /**
     * Deterministic per-run cycle budget: run() raises DeadlineError
     * once the simulated clock reaches this many cycles. 0 (default)
     * means unlimited. Batch sweeps use it as the per-cell deadline
     * that turns a wedged or fault-perturbed cell into a TIMEOUT
     * outcome instead of hanging the whole grid — and because it is
     * counted in simulated cycles, the same budget trips at the same
     * point on any host (docs/ROBUSTNESS.md, "Sweep supervisor").
     */
    std::uint64_t maxCycles = 0;

    /** Convenience: does the scheme use a CHT at all? */
    bool
    usesCht() const
    {
        return scheme == OrderingScheme::Postponing ||
               scheme == OrderingScheme::Inclusive ||
               scheme == OrderingScheme::Exclusive;
    }

    /**
     * Check every parameter of the machine (core widths and sizing,
     * execution units, bank configuration, the memory hierarchy
     * geometry, and whichever predictors the selected scheme
     * instantiates). Returns ALL violations at once so a user fixes
     * a config file in one pass; empty = valid.
     */
    std::vector<Diag> validate() const;

    /** Throw ConfigError carrying every violation, if any. */
    void validateOrThrow() const;
};

} // namespace lrs

#endif // LRS_CORE_CONFIG_HH
