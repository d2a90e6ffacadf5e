#include "core/results.hh"

namespace lrs
{

namespace
{
using R = SimResult;
using S = IntervalSample;
} // namespace

const std::array<R::CounterSpec, 28> R::kCounters = {{
    {"cycles", "core", "cycles", &R::cycles},
    {"uops", "core", "uops", &R::uops},
    {"loads", "core", "loads", &R::loads},
    {"stores", "core", "stores", &R::stores},
    {"branches", "core", "branches", &R::branches},
    {"branch_mispredicts", "core", "branch_mispredicts",
     &R::branchMispredicts},
    {"not_conflicting", "sched.class", "not_conflicting",
     &R::notConflicting},
    {"anc_pnc", "sched.class", "anc_pnc", &R::ancPnc},
    {"anc_pc", "sched.class", "anc_pc", &R::ancPc},
    {"ac_pc", "sched.class", "ac_pc", &R::acPc},
    {"ac_pnc", "sched.class", "ac_pnc", &R::acPnc},
    {"collision_penalties", "sched", "collision_penalties",
     &R::collisionPenalties},
    {"order_violations", "sched", "order_violations",
     &R::orderViolations},
    {"forwarded", "sched", "forwarded", &R::forwarded},
    {"spec_forwards", "sched", "spec_forwards", &R::specForwards},
    {"spec_misforwards", "sched", "spec_misforwards",
     &R::specMisforwards},
    {"ah_ph", "pred.hmp", "ah_ph", &R::ahPh},
    {"ah_pm", "pred.hmp", "ah_pm", &R::ahPm},
    {"am_ph", "pred.hmp", "am_ph", &R::amPh},
    {"am_pm", "pred.hmp", "am_pm", &R::amPm},
    {"l1_misses", "mem", "load_misses", &R::l1Misses},
    {"dynamic_misses", "mem", "dynamic_misses", &R::dynamicMisses},
    {"wasted_issues", "core", "wasted_issues", &R::wastedIssues},
    {"replayed_uops", "core", "replayed_uops", &R::replayedUops},
    {"prefetches", "core", "prefetches", &R::prefetches},
    {"bank_conflicts", "pred.bank", "conflicts", &R::bankConflicts},
    {"bank_mispredicts", "pred.bank", "mispredicts",
     &R::bankMispredicts},
    {"bank_replications", "pred.bank", "replications",
     &R::bankReplications},
}};

const std::array<S::Column, 9> S::kColumns = {{
    {"cycle", &S::cycle},
    {"uops", &S::uops},
    {"ipc", &S::ipc},
    {"replay_rate", &S::replayRate},
    {"cht_mispredict_rate", &S::chtMispredictRate},
    {"hmp_mispredict_rate", &S::hmpMispredictRate},
    {"bank_mispredict_rate", &S::bankMispredictRate},
    {"sched_occupancy", &S::schedOccupancy},
    {"rob_occupancy", &S::robOccupancy},
}};

json::Value
SimResult::toJson() const
{
    json::Value v = json::Value::object();
    v.set("trace", trace);
    v.set("config", config);
    for (const CounterSpec &c : kCounters)
        v.set(c.key, this->*c.field);

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
    for (const IntervalSample::Column &c : IntervalSample::kColumns) {
        json::Value col = json::Value::array();
        std::visit(
            [&](auto field) {
                for (const IntervalSample &s : intervals)
                    col.push(s.*field);
            },
            c.field);
        iv.set(c.key, std::move(col));
    }
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
    for (const CounterSpec &c : kCounters)
        a(c.key, this->*c.field);
    a("stats_interval", statsInterval);
    a.rows("intervals", intervals,
           [this](std::size_t i, stateio::Row &r) {
               for (const IntervalSample::Column &c :
                    IntervalSample::kColumns)
                   std::visit([&](auto field) { r(intervals[i].*field); },
                              c.field);
           });
    a("histograms", histograms);
}

json::Value
SimResult::saveState() const
{
    return stateio::save(*this);
}

} // namespace lrs
