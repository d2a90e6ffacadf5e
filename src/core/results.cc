#include "core/results.hh"

namespace lrs
{

namespace
{
using R = SimResult;
using S = IntervalSample;
} // namespace

const std::array<R::CounterSpec, 28> R::kCounters = {{
    {"cycles", &R::cycles},
    {"uops", &R::uops},
    {"loads", &R::loads},
    {"stores", &R::stores},
    {"branches", &R::branches},
    {"branch_mispredicts", &R::branchMispredicts},
    {"not_conflicting", &R::notConflicting},
    {"anc_pnc", &R::ancPnc},
    {"anc_pc", &R::ancPc},
    {"ac_pc", &R::acPc},
    {"ac_pnc", &R::acPnc},
    {"collision_penalties", &R::collisionPenalties},
    {"order_violations", &R::orderViolations},
    {"forwarded", &R::forwarded},
    {"spec_forwards", &R::specForwards},
    {"spec_misforwards", &R::specMisforwards},
    {"ah_ph", &R::ahPh},
    {"ah_pm", &R::ahPm},
    {"am_ph", &R::amPh},
    {"am_pm", &R::amPm},
    {"l1_misses", &R::l1Misses},
    {"dynamic_misses", &R::dynamicMisses},
    {"wasted_issues", &R::wastedIssues},
    {"replayed_uops", &R::replayedUops},
    {"prefetches", &R::prefetches},
    {"bank_conflicts", &R::bankConflicts},
    {"bank_mispredicts", &R::bankMispredicts},
    {"bank_replications", &R::bankReplications},
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
