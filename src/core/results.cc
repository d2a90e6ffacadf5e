#include "core/results.hh"

namespace lrs
{

namespace
{

/** The u64 counters of SimResult, in export order: the one list that
 *  both toJson() and the state walk read. */
template <typename R, typename F>
void
forEachCounter(R &r, F &&f)
{
    f("cycles", r.cycles);
    f("uops", r.uops);
    f("loads", r.loads);
    f("stores", r.stores);
    f("branches", r.branches);
    f("branch_mispredicts", r.branchMispredicts);
    f("not_conflicting", r.notConflicting);
    f("anc_pnc", r.ancPnc);
    f("anc_pc", r.ancPc);
    f("ac_pc", r.acPc);
    f("ac_pnc", r.acPnc);
    f("collision_penalties", r.collisionPenalties);
    f("order_violations", r.orderViolations);
    f("forwarded", r.forwarded);
    f("spec_forwards", r.specForwards);
    f("spec_misforwards", r.specMisforwards);
    f("ah_ph", r.ahPh);
    f("ah_pm", r.ahPm);
    f("am_ph", r.amPh);
    f("am_pm", r.amPm);
    f("l1_misses", r.l1Misses);
    f("dynamic_misses", r.dynamicMisses);
    f("wasted_issues", r.wastedIssues);
    f("replayed_uops", r.replayedUops);
    f("prefetches", r.prefetches);
    f("bank_conflicts", r.bankConflicts);
    f("bank_mispredicts", r.bankMispredicts);
    f("bank_replications", r.bankReplications);
}

} // namespace

json::Value
SimResult::toJson() const
{
    json::Value v = json::Value::object();
    v.set("trace", trace);
    v.set("config", config);
    forEachCounter(*this, [&v](const char *key, std::uint64_t n) {
        v.set(key, n);
    });

    // Derived ratios (NaN serialises as null per the convention in
    // results.hh / json.hh).
    json::Value derived = json::Value::object();
    derived.set("ipc", ipc());
    derived.set("conflicting", conflicting());
    derived.set("actually_colliding", actuallyColliding());
    derived.set("classified_loads", classifiedLoads());
    v.set("derived", std::move(derived));

    // Interval time series: one array per metric (column layout — a
    // plotting tool can zip any series against "cycle" directly).
    json::Value iv = json::Value::object();
    iv.set("interval_cycles", statsInterval);
    json::Value cycle = json::Value::array();
    json::Value uopsArr = json::Value::array();
    json::Value ipcArr = json::Value::array();
    json::Value replay = json::Value::array();
    json::Value chtMis = json::Value::array();
    json::Value hmpMis = json::Value::array();
    json::Value bankMis = json::Value::array();
    json::Value schedOcc = json::Value::array();
    json::Value robOcc = json::Value::array();
    for (const IntervalSample &s : intervals) {
        cycle.push(s.cycle);
        uopsArr.push(s.uops);
        ipcArr.push(s.ipc);
        replay.push(s.replayRate);
        chtMis.push(s.chtMispredictRate);
        hmpMis.push(s.hmpMispredictRate);
        bankMis.push(s.bankMispredictRate);
        schedOcc.push(s.schedOccupancy);
        robOcc.push(s.robOccupancy);
    }
    iv.set("cycle", std::move(cycle));
    iv.set("uops", std::move(uopsArr));
    iv.set("ipc", std::move(ipcArr));
    iv.set("replay_rate", std::move(replay));
    iv.set("cht_mispredict_rate", std::move(chtMis));
    iv.set("hmp_mispredict_rate", std::move(hmpMis));
    iv.set("bank_mispredict_rate", std::move(bankMis));
    iv.set("sched_occupancy", std::move(schedOcc));
    iv.set("rob_occupancy", std::move(robOcc));
    v.set("intervals", std::move(iv));

    if (!histograms.isNull())
        v.set("histograms", histograms);

    return v;
}

void
SimResult::walkState(stateio::Archive &a)
{
    a("trace", trace);
    a("config", config);
    forEachCounter(*this, [&a](const char *key, std::uint64_t &n) {
        a(key, n);
    });
    a("stats_interval", statsInterval);
    a.rows("intervals", intervals,
           [this](std::size_t i, stateio::Row &r) {
               IntervalSample &s = intervals[i];
               r(s.cycle)(s.uops)(s.ipc)(s.replayRate)(
                   s.chtMispredictRate)(s.hmpMispredictRate)(
                   s.bankMispredictRate)(s.schedOccupancy)(
                   s.robOccupancy);
           });
    a("histograms", histograms);
}

json::Value
SimResult::saveState() const
{
    return stateio::save(*this);
}

} // namespace lrs
