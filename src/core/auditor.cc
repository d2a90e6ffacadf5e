#include "core/auditor.hh"

#include <algorithm>
#include <string>

namespace lrs
{

namespace
{

std::string
seqStr(SeqNum s)
{
    return std::to_string(s);
}

} // namespace

std::vector<Diag>
StateAuditor::check(const AuditView &v, Cycle cycle)
{
    std::vector<Diag> diags;
    const auto bad = [&](const std::string &what,
                         const std::string &msg) {
        Diag d = makeDiag(DiagCode::AuditViolation, "audit", what, msg);
        d.cycle = cycle;
        diags.push_back(std::move(d));
    };

    // 1. Occupancy.
    if (v.nextSeq < v.headSeq) {
        bad("occupancy", "nextSeq " + seqStr(v.nextSeq) +
                             " behind headSeq " + seqStr(v.headSeq));
        return diags; // every entry-walk below would be nonsense
    }
    const std::uint64_t occ = v.nextSeq - v.headSeq;
    if (v.robSize > 0 &&
        occ > static_cast<std::uint64_t>(v.robSize)) {
        bad("occupancy", "window holds " + std::to_string(occ) +
                             " uops but the ROB has only " +
                             std::to_string(v.robSize) + " entries");
    }
    if (v.entries.size() != occ) {
        bad("occupancy",
            "snapshot has " + std::to_string(v.entries.size()) +
                " entries for an occupancy of " + std::to_string(occ));
    }

    // 2+3. Age ordering and ring discipline.
    int waiting = 0;
    for (std::size_t i = 0; i < v.entries.size(); ++i) {
        const AuditView::Entry &e = v.entries[i];
        const SeqNum expect = v.headSeq + i;
        if (e.seq != expect) {
            bad("age_order", "entry " + std::to_string(i) +
                                 " has seq " + seqStr(e.seq) +
                                 ", expected " + seqStr(expect) +
                                 " (ages must be contiguous)");
        }
        if (v.robSize > 0 &&
            e.slot != static_cast<int>(
                          e.seq % static_cast<SeqNum>(v.robSize))) {
            bad("ring_slot",
                "seq " + seqStr(e.seq) + " sits in slot " +
                    std::to_string(e.slot) + ", ring demands slot " +
                    seqStr(e.seq % static_cast<SeqNum>(v.robSize)));
        }
        if (e.waiting)
            ++waiting;
    }

    // 4. Scheduling-window accounting.
    if (v.rsCount != waiting) {
        bad("rs_count", "core counts " + std::to_string(v.rsCount) +
                            " waiting uops, the window holds " +
                            std::to_string(waiting));
    }
    if (v.schedWindow > 0 && v.rsCount > v.schedWindow) {
        bad("rs_count", "rsCount " + std::to_string(v.rsCount) +
                            " exceeds the scheduling window of " +
                            std::to_string(v.schedWindow));
    }

    // 5. Register pool.
    if (v.poolUsed < 0 || (v.regPool > 0 && v.poolUsed > v.regPool)) {
        bad("reg_pool", "poolUsed " + std::to_string(v.poolUsed) +
                            " outside [0, " +
                            std::to_string(v.regPool) + "]");
    }

    // 6. Wakeup edges and 7. STD pairing.
    const auto inFlight = [&](SeqNum s) {
        return s >= v.headSeq && s < v.nextSeq;
    };
    const auto checkEdge = [&](const AuditView::Entry &e, int which,
                               int slot, SeqNum seq) {
        if (slot < 0)
            return; // architectural source, no edge
        const std::string what =
            "src" + std::to_string(which) + "@" + seqStr(e.seq);
        if (v.robSize > 0 &&
            slot != static_cast<int>(
                        seq % static_cast<SeqNum>(v.robSize))) {
            bad(what, "edge slot " + std::to_string(slot) +
                          " disagrees with producer seq " +
                          seqStr(seq));
            return;
        }
        if (seq >= e.seq) {
            bad(what, "producer seq " + seqStr(seq) +
                          " is not older than the consumer");
            return;
        }
        if (inFlight(seq)) {
            const std::uint64_t idx = seq - v.headSeq;
            if (idx < v.entries.size() &&
                v.entries[idx].seq != seq) {
                bad(what, "orphaned edge: slot recycled, producer " +
                              seqStr(seq) + " no longer in flight");
            }
        }
    };
    for (const AuditView::Entry &e : v.entries) {
        checkEdge(e, 1, e.src1Slot, e.src1Seq);
        checkEdge(e, 2, e.src2Slot, e.src2Seq);
        if (e.isPairedStd) {
            const std::string what = "std_pair@" + seqStr(e.seq);
            if (e.pairSeq >= e.seq) {
                bad(what, "STD pairs with STA " + seqStr(e.pairSeq) +
                              " which is not older");
            } else if (inFlight(e.pairSeq) &&
                       std::find(v.mobStores.begin(),
                                 v.mobStores.end(),
                                 e.pairSeq) == v.mobStores.end()) {
                bad(what, "STD's in-flight STA " + seqStr(e.pairSeq) +
                              " is unknown to the MOB");
            }
        }
    }

    // 8. MOB ordering and sizing.
    for (std::size_t i = 0; i < v.mobStores.size(); ++i) {
        if (i > 0 && v.mobStores[i] <= v.mobStores[i - 1]) {
            bad("mob_order",
                "store seqs not strictly ascending at index " +
                    std::to_string(i) + " (" +
                    seqStr(v.mobStores[i - 1]) + " then " +
                    seqStr(v.mobStores[i]) + ")");
        }
        if (v.mobStores[i] >= v.nextSeq) {
            bad("mob_order", "MOB store " + seqStr(v.mobStores[i]) +
                                 " is younger than nextSeq " +
                                 seqStr(v.nextSeq));
        }
    }
    if (v.mobStores.size() > v.entries.size()) {
        bad("mob_size",
            "MOB tracks " + std::to_string(v.mobStores.size()) +
                " stores but only " +
                std::to_string(v.entries.size()) +
                " uops are in flight");
    }

    // 9. Waiting list: exactly the Waiting entries, oldest first.
    if (v.waitList.size() != static_cast<std::size_t>(v.rsCount)) {
        bad("wait_list", "list holds " +
                             std::to_string(v.waitList.size()) +
                             " seqs but rsCount is " +
                             std::to_string(v.rsCount));
    }
    std::vector<SeqNum> waitingSeqs;
    for (const AuditView::Entry &e : v.entries) {
        if (e.waiting)
            waitingSeqs.push_back(e.seq);
    }
    if (v.waitList != waitingSeqs) {
        bad("wait_list", "list is not the " +
                             std::to_string(waitingSeqs.size()) +
                             " Waiting seqs in age order");
    }

    // 10. Cached wake times are never late.
    const auto producer = [&](int slot, SeqNum seq)
        -> const AuditView::Entry * {
        if (slot < 0 || !inFlight(seq))
            return nullptr;
        const std::uint64_t idx = seq - v.headSeq;
        if (idx >= v.entries.size() || v.entries[idx].seq != seq)
            return nullptr;
        return &v.entries[idx];
    };
    for (const AuditView::Entry &e : v.entries) {
        if (!e.waiting)
            continue;
        const AuditView::Entry *p1 = producer(e.src1Slot, e.src1Seq);
        const AuditView::Entry *p2 = producer(e.src2Slot, e.src2Seq);
        Cycle bound = std::max({e.stall, e.gate,
                                p1 ? p1->est : Cycle{0},
                                p2 ? p2->est : Cycle{0}});
        if (e.unclassifiedLoad) {
            bound = std::min(bound,
                             std::max(p1 ? p1->actual : Cycle{0},
                                      p2 ? p2->actual : Cycle{0}));
        }
        if (e.wake > std::max(bound, cycle)) {
            bad("wake@" + seqStr(e.seq),
                "cached wake time " + std::to_string(e.wake) +
                    " is later than the recomputed " +
                    std::to_string(bound) +
                    ": the issue stage would skip a visit that acts");
        }
    }

    // 11. Cached gate horizons are never late.
    for (const AuditView::Entry &e : v.entries) {
        if (e.waiting && e.cachedGate > std::max(e.gate, cycle)) {
            bad("gate@" + seqStr(e.seq),
                "cached gate horizon " + std::to_string(e.cachedGate) +
                    " is later than the recomputed " +
                    std::to_string(e.gate) +
                    ": a store part executed without reopening it");
        }
    }

    // 12. The list's wake bound is below every cached wake time.
    for (const AuditView::Entry &e : v.entries) {
        if (e.waiting && e.wake < v.minWake) {
            bad("min_wake", "bound " + std::to_string(v.minWake) +
                                " is later than seq " + seqStr(e.seq) +
                                "'s wake time " +
                                std::to_string(e.wake) +
                                ": the issue stage would skip its walk");
        }
    }

    // 13. Each uop's MOB ordinal is the one a search finds.
    for (const AuditView::Entry &e : v.entries) {
        const SeqNum key = e.isPairedStd ? e.pairSeq : e.seq;
        const auto it = std::lower_bound(v.mobStores.begin(),
                                         v.mobStores.end(), key);
        if (e.isPairedStd && (it == v.mobStores.end() || *it != key)) {
            // Invariant 7 reports an in-flight STA the MOB lost; a
            // retired STA's record must stay until its STD retires.
            if (!inFlight(key)) {
                bad("mob_ord@" + seqStr(e.seq),
                    "STD's STA " + seqStr(key) +
                        " left the MOB before the STD retired");
            }
            continue;
        }
        const std::uint64_t want =
            v.mobRetired +
            static_cast<std::uint64_t>(it - v.mobStores.begin());
        if (e.mobOrd != want) {
            bad("mob_ord@" + seqStr(e.seq),
                "MOB ordinal " + std::to_string(e.mobOrd) +
                    " but a search of the MOB gives " +
                    std::to_string(want) +
                    ": its MOB queries read the wrong stores");
        }
    }

    return diags;
}

} // namespace lrs
