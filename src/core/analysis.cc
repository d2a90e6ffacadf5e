#include "core/analysis.hh"

namespace lrs
{

HmpStats
analyzeHitMiss(const VecTrace &trace, HitMissPredictor &hmp,
               const HierarchyParams &mem, double uops_per_cycle,
               MissLevel level)
{
    MemoryHierarchy hier(mem);
    HmpStats st;

    VecTrace cursor = trace;
    cursor.reset();
    for (std::size_t i = 0; const Uop *uop = cursor.next(); ++i) {
        const Uop &u = *uop;
        const auto now =
            static_cast<Cycle>(static_cast<double>(i) / uops_per_cycle);
        if (u.isSta()) {
            // Stores warm the cache (write-allocate) but are not
            // predicted.
            hier.access(u.addr, now);
            continue;
        }
        if (!u.isLoad())
            continue;

        const Addr probe = hmp.timingProbeAddr(u.pc);
        bool pred_miss;
        if (probe != kAddrInvalid) {
            const auto ti = hier.timingInfo(probe, now);
            const HitMissPredictor::Hint hint{ti.outstandingMiss,
                                              ti.recentFill};
            pred_miss = hmp.predictMiss(u.pc, &hint);
        } else {
            pred_miss = hmp.predictMiss(u.pc, nullptr);
        }

        const auto acc = hier.access(u.addr, now);
        const bool miss =
            level == MissLevel::L1
                ? !acc.l1Hit
                : acc.level == MemoryHierarchy::Level::Memory;

        ++st.loads;
        if (miss) {
            ++st.misses;
            if (pred_miss)
                ++st.amPm;
            else
                ++st.amPh;
        } else {
            if (pred_miss)
                ++st.ahPm;
            else
                ++st.ahPh;
        }
        hmp.update(u.pc, miss, u.addr);
    }
    return st;
}

ThreadSwitchEstimate
estimateThreadSwitch(const VecTrace &trace, HitMissPredictor &hmp,
                     const HierarchyParams &mem,
                     Cycle switch_overhead)
{
    ThreadSwitchEstimate est;
    est.stats =
        analyzeHitMiss(trace, hmp, mem, 2.0, MissLevel::L2);
    est.switchOverhead = switch_overhead;
    MemoryHierarchy probe(mem);
    est.memLatency = probe.memLatency();
    return est;
}

BankStats
analyzeBank(const VecTrace &trace, BankPredictor &pred)
{
    BankStats st;
    VecTrace cursor = trace;
    cursor.reset();
    while (const Uop *uop = cursor.next()) {
        const Uop &u = *uop;
        if (!u.isLoad())
            continue;
        const unsigned actual = pred.bankOf(u.addr);

        const auto p = pred.predict(u.pc);
        ++st.loads;
        if (p.valid) {
            ++st.predicted;
            if (p.bank == actual)
                ++st.correct;
            else
                ++st.wrong;
        }
        pred.update(u.pc, u.addr);
    }
    return st;
}

} // namespace lrs
