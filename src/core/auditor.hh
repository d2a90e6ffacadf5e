/**
 * @file
 * Structural invariant auditing of the in-flight machine state.
 *
 * The core's correctness rests on a handful of structural invariants
 * (ROB ring discipline, scheduling-window accounting, wakeup edges
 * pointing at live producers, MOB/ROB agreement on in-flight stores).
 * A bug — or an injected fault — that breaks one of them usually does
 * not crash; it silently produces plausible-but-wrong timing. The
 * auditor makes such corruption *loud*: every `audit_interval` cycles
 * (or `--audit` / `LRS_AUDIT=1`) the core snapshots its state into an
 * AuditView and StateAuditor::check() walks every invariant,
 * reporting each violation as a Diag with the offending sequence
 * numbers and the cycle it was caught.
 *
 * The auditor is deliberately decoupled from OooCore: it audits a
 * flattened AuditView, so tests can hand-craft corrupt views and
 * verify each invariant fires, without needing to corrupt a live
 * core's private state.
 */

#ifndef LRS_CORE_AUDITOR_HH
#define LRS_CORE_AUDITOR_HH

#include <cstdint>
#include <vector>

#include "common/diag.hh"
#include "common/types.hh"

namespace lrs
{

/** Flattened snapshot of the core's in-flight state, for auditing. */
struct AuditView
{
    // Configured bounds.
    int robSize = 0;
    int schedWindow = 0;
    int regPool = 0;

    // Window occupancy accounting as the core believes it.
    SeqNum headSeq = 0;
    SeqNum nextSeq = 0;
    int rsCount = 0;
    int poolUsed = 0;

    /** One in-flight ROB entry (subset relevant to the invariants). */
    struct Entry
    {
        SeqNum seq = 0;
        int slot = -1;
        bool waiting = false; ///< still in the scheduling window
        int src1Slot = -1, src2Slot = -1;
        SeqNum src1Seq = 0, src2Seq = 0;
        bool isPairedStd = false;
        SeqNum pairSeq = 0;
        // Timing lanes and the cached wake time (Waiting entries).
        Cycle est = kCycleNever;    ///< wakeup estimate it shows
        Cycle actual = kCycleNever; ///< true data-ready time
        Cycle stall = 0;            ///< replay backoff horizon
        Cycle wake = 0;             ///< cached earliest useful visit
        /** Ordering-gate horizon recomputed from the MOB at audit
         *  time (0 for a uop no scheme gates). */
        Cycle gate = 0;
        Cycle cachedGate = 0;       ///< gate horizon of the last visit
        bool unclassifiedLoad = false;
        /** MOB ordinal the core holds for the uop (Mob::Ordinal). */
        std::uint64_t mobOrd = 0;
    };
    /** In-flight entries, oldest first (seq == headSeq + index). */
    std::vector<Entry> entries;

    /** The core's waiting list, as seqs in list order. */
    std::vector<SeqNum> waitList;
    /** The core's lower bound on the Waiting entries' wake times. */
    Cycle minWake = 0;

    /** MOB stores' STA sequence numbers, queue order (oldest first). */
    std::vector<SeqNum> mobStores;
    /** Stores that have left the MOB (Mob::retired()). */
    std::uint64_t mobRetired = 0;
};

/**
 * Stateless invariant checker over an AuditView.
 *
 * Invariants checked (each yields an AuditViolation Diag naming the
 * entry and values involved):
 *  1. occupancy: headSeq <= nextSeq and nextSeq - headSeq <= robSize;
 *     entries.size() matches the occupancy.
 *  2. age ordering: entries are contiguous ascending from headSeq.
 *  3. ring discipline: every entry sits at slot seq % robSize.
 *  4. window accounting: rsCount equals the number of Waiting
 *     entries and never exceeds schedWindow.
 *  5. register pool: 0 <= poolUsed <= regPool.
 *  6. wakeup edges: a source reference (slot, seq) must satisfy
 *     slot == seq % robSize, point strictly backwards in program
 *     order, and — when the producer is still in flight — the slot
 *     must actually hold that producer (no orphaned edges onto
 *     recycled slots).
 *  7. STD pairing: a paired STD's STA is strictly older, and while
 *     the STA is still in flight the MOB must know it.
 *  8. MOB ordering: store seqs strictly ascending, all < nextSeq,
 *     and no more in-window stores than ROB entries.
 *  9. waiting list: exactly the Waiting entries' seqs, oldest first,
 *     and as long as rsCount.
 * 10. wake times: no Waiting entry's cached wake time is later than
 *     max(threshold, cycle), where the threshold is recomputed from
 *     the timing lanes — max(stall, both sources' estimates, the
 *     fresh gate horizon), or for an unclassified load the smaller
 *     of that and both sources' data time. A source reads as ready
 *     at 0 when it has no producer or its producer left the window.
 *     A cached time at or below the cycle is always safe: the slot
 *     is visited anyway.
 * 11. gate horizons: no Waiting entry's cached gate is later than
 *     max(fresh gate horizon, cycle). A store part that executed
 *     without reopening the kCycleNever gates of younger loads
 *     fails here.
 * 12. wake bound: minWake is no later than any Waiting entry's cached
 *     wake time. The issue stage skips its whole walk while minWake
 *     is ahead of the cycle.
 * 13. MOB ordinals: every entry's mobOrd equals the answer of a
 *     search over mobStores — mobRetired plus the stores older than
 *     it, or for a paired STD its STA's index. The core's per-cycle
 *     MOB queries start from that ordinal without searching.
 */
class StateAuditor
{
  public:
    /**
     * Walk every invariant; returns ALL violations found (empty =
     * state is structurally sound). @p cycle is stamped into each
     * Diag so reports locate the corruption in time.
     */
    static std::vector<Diag> check(const AuditView &v, Cycle cycle);
};

} // namespace lrs

#endif // LRS_CORE_AUDITOR_HH
