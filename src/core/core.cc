#include "core/core.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bitutils.hh"
#include "common/profiler.hh"
#include "common/state_io.hh"
#include "core/runner.hh"

namespace lrs
{

namespace
{

/**
 * Validation gate for the constructor below: cfg_ is the first member,
 * so routing its initializer through here rejects a bad machine before
 * any dependent member (caches, ROB, predictors) is sized from it.
 */
const MachineConfig &
validated(const MachineConfig &cfg)
{
    cfg.validateOrThrow();
    return cfg;
}

/** Global history of the front end's gshare branch predictor. */
constexpr unsigned kBranchHistBits = 12;

/** Crossbar + decision-stage latency of the conventional pipe. */
constexpr Cycle kConventionalExtraLat = 1;
/** Second-level-scheduler latency of the dual-scheduled pipe. */
constexpr Cycle kDualSchedExtraLat = 2;

} // namespace

Cycle
gateHorizon(const Mob &mob, const MachineConfig &cfg, Mob::Ordinal ord,
            const Uop &u, const LoadGate &g)
{
    constexpr unsigned kBoth = Mob::kAddr | Mob::kData;
    switch (cfg.scheme) {
      case OrderingScheme::Traditional:
        return mob.olderHorizon(ord, Mob::kAddr);
      case OrderingScheme::Opportunistic:
        return 0;
      case OrderingScheme::Postponing:
        // Every older address, and for a predicted collider every
        // older store's data as well.
        return mob.olderHorizon(ord, g.predColliding ? kBoth : Mob::kAddr);
      case OrderingScheme::Inclusive:
        return g.predColliding ? mob.olderHorizon(ord, kBoth) : 0;
      case OrderingScheme::Exclusive: {
        if (!g.predColliding)
            return 0;
        if (!g.hasExclTarget) {
            // Colliding but no distance annotation yet: inclusive
            // behaviour (wait for everything older).
            return mob.olderHorizon(ord, kBoth);
        }
        const Mob::StoreRec *s = mob.get(g.exclStoreOrd);
        if (s == nullptr)
            return 0;
        // Speculative value forwarding: once the paired store's DATA
        // is ready, the load may consume it without waiting for the
        // address check.
        return cfg.exclusiveSpecForward ? s->stdDoneAt : s->doneAt();
      }
      case OrderingScheme::Perfect: {
        const Mob::StoreRec *m =
            mob.youngestOverlapOlder(ord, u.addr, u.memSize);
        return m ? m->doneAt() : 0;
      }
      case OrderingScheme::StoreBarrier:
        // [Hess95]: loads may pass any store except those whose
        // barrier counter fired at fetch time.
        return mob.olderHorizon(ord, kBoth, /*barrier_only=*/true);
      case OrderingScheme::StoreSets: {
        // [Chry98]: wait for the set's last fetched store, if any.
        if (g.ssWaitSeq == StoreSets::kNoStoreSeq)
            return 0;
        const Mob::StoreRec *s = mob.get(g.ssWaitOrd);
        return s ? s->doneAt() : 0;
      }
    }
    return 0;
}

Cycle
gateHorizon(const Mob &mob, const MachineConfig &cfg, SeqNum seq,
            const Uop &u, LoadGate g)
{
    g.locateStores(mob);
    return gateHorizon(mob, cfg, mob.ordinalOf(seq), u, g);
}

OooCore::OooCore(const MachineConfig &cfg)
    : cfg_(validated(cfg)), mem_(cfg.mem),
      branchPred_(kBranchHistBits, 2, /*initial=weakly taken*/ 2),
      rob_(cfg.robSize), robSeq_(cfg.robSize, 0),
      robState_(cfg.robSize, State::Waiting),
      robEst_(cfg.robSize, kCycleNever),
      robActual_(cfg.robSize, kCycleNever),
      robComplete_(cfg.robSize, kCycleNever),
      robStall_(cfg.robSize, 0), robMobOrd_(cfg.robSize),
      robProd_(2 * cfg.robSize, -1), robClass_(cfg.robSize),
      robWake_(cfg.robSize, 0),
      robGate_(cfg.robSize, 0),
      consHead_(cfg.robSize, -1), consNext_(2 * cfg.robSize, -1),
      renameTable_(kNumArchRegs, -1), renameSeq_(kNumArchRegs, 0)
{
    waitList_.reserve(cfg_.schedWindow);
    if (cfg_.usesCht() || cfg_.chtShadow) {
        ChtParams cp = cfg_.cht;
        if (cfg_.scheme == OrderingScheme::Exclusive)
            cp.trackDistance = true;
        cht_ = std::make_unique<Cht>(cp);
    }

    hmp_ = makeHmp(cfg_.hmp);
    bankPred_ = makeBankPredictor(cfg_.bankPred, cfg_.numBanks,
                                  cfg_.mem.l1.lineBytes);

    if (cfg_.bankMode == BankMode::Conventional)
        memPipeExtraLat_ = kConventionalExtraLat;
    else if (cfg_.bankMode == BankMode::DualScheduled)
        memPipeExtraLat_ = kDualSchedExtraLat;

    // The baselines keep their published table sizes: a 2048-entry
    // barrier cache, a 4096-entry SSIT and 128 store sets.
    if (cfg_.scheme == OrderingScheme::StoreBarrier)
        barrierCache_ = std::make_unique<BimodalPredictor>();

    if (cfg_.scheme == OrderingScheme::StoreSets)
        storeSets_ = std::make_unique<StoreSets>();

    if (cfg_.stridePrefetch)
        prefetcher_ = std::make_unique<LoadAddressPredictor>(1024);

    // Before registerStats(): the mob.partial_* counters register only
    // when partial-address disambiguation is on.
    mob_.setPartialBits(cfg_.mobPartialBits);

    registerStats();
}

OooCore::~OooCore() = default;

void
OooCore::registerStats()
{
    // Bind the SimResult counters of group g (SimResult::kCounters).
    // Binding them a group at a time, between the component stats,
    // keeps the registry's export order.
    const auto bindResult = [this](StatsGroup g) {
        for (const SimResult::CounterSpec &c : SimResult::kCounters) {
            if (g.prefix() == c.group)
                g.bindCounter(c.leaf, &(res_.*c.field));
        }
    };

    StatsGroup core = statsReg_.group("core");
    bindResult(core);
    core.derived("ipc", [this] { return res_.ipc(); });

    StatsGroup sched = statsReg_.group("sched");
    bindResult(sched);
    bindResult(sched.group("class"));

    StatsGroup mem = statsReg_.group("mem");
    bindResult(mem);
    mem_.registerStats(mem);
    mob_.registerStats(mem.group("mob"));

    StatsGroup pred = statsReg_.group("pred");
    StatsGroup hmp = pred.group("hmp");
    bindResult(hmp);
    if (hmp_)
        hmp_->registerStats(hmp);
    if (cht_)
        cht_->registerStats(pred.group("cht"));
    StatsGroup bank = pred.group("bank");
    bindResult(bank);
    if (bankPred_)
        bankPred_->registerStats(bank);

    statsReg_.bindCounter("audit.checks", &auditChecks_);

    // Telemetry histograms, default off (collect_histograms /
    // --histograms). Registered last so the off path leaves every
    // pre-existing export byte-identical.
    if (cfg_.collectHistograms) {
        StatsGroup hist = statsReg_.group("hist");
        for (const HistogramSpec &spec : kHistograms)
            this->*spec.hist = &hist.log2hist(spec.name);
    }
}

SimResult
OooCore::run(VecTrace &trace)
{
    beginRun(trace);
    advanceTo(trace);
    return finishRun();
}

void
OooCore::beginRun(VecTrace &trace)
{
    res_ = SimResult{};
    res_.trace = trace.name();
    res_.config = std::string(orderingSchemeName(cfg_.scheme)) + "/" +
                  hmpKindName(cfg_.hmp);

    trace.reset();
    now_ = 0;
    headSeq_ = nextSeq_ = 0;
    headSlot_ = nextSlot_ = 0;
    waitList_.clear();
    minWake_ = kCycleNever;
    poolUsed_ = 0;
    fetchBlockedUntil_ = 0;
    branchPending_ = false;
    haveLastSta_ = false;
    pathHist_ = 0;
    traceDone_ = false;
    std::fill(renameTable_.begin(), renameTable_.end(), -1);
    pendingCollision_.clear();
    mob_.clear();

    res_.statsInterval = cfg_.statsInterval;
    iv_ = IntervalCursor{};
    iv_.countdown = cfg_.statsInterval;
    auditCountdown_ = cfg_.auditInterval;

    resetHistograms();
}

void
OooCore::resetHistograms()
{
    // The single reset path for all seven distributions: beginRun()
    // and every state-walk load that does not restore a complete
    // "hist" section route through here, so a run can never start (or
    // resume) with counts seeded from an earlier run on this core.
    if (!cfg_.collectHistograms)
        return; // pointers are null; nothing exists to carry over
    for (const HistogramSpec &spec : kHistograms)
        (this->*spec.hist)->reset();
}

bool
OooCore::advanceTo(VecTrace &trace, Cycle stop_at)
{
    const bool skip_ahead = cycleSkipAhead();
    // Hand the work counters to the profiler on every way out, and
    // zero them either way so a later enable never sees stale counts.
    struct CounterFlush
    {
        OooCore &c;
        ~CounterFlush()
        {
            if (prof::enabled()) {
                prof::addCount(prof::Counter::IssueVisits,
                               c.issueVisits_);
                prof::addCount(prof::Counter::WakeResets, c.wakeResets_);
                prof::addCount(prof::Counter::SteppedCycles,
                               c.steppedCycles_);
            }
            c.issueVisits_ = c.wakeResets_ = c.steppedCycles_ = 0;
        }
    } flush{*this};
    while (!traceDone_ || headSeq_ != nextSeq_) {
        // Side-effect-free stop check first: state on return is bit-
        // identical to an uninterrupted run entering cycle stop_at.
        if (now_ >= stop_at)
            return false;
        // Cooperative per-run deadline: counted in *simulated* cycles
        // so the same budget trips at the same instruction on any
        // host — the sweep supervisor maps this to a TIMEOUT cell.
        if (cfg_.maxCycles && now_ >= cfg_.maxCycles) {
            throw DeadlineError(makeDiag(
                DiagCode::DeadlineExceeded, "core", "max_cycles",
                "cycle budget of " + std::to_string(cfg_.maxCycles) +
                    " exhausted with " +
                    std::to_string(nextSeq_ - headSeq_) +
                    " uops in flight",
                now_));
        }
        // Cooperative cancellation (SIGINT/SIGTERM): polled every 16K
        // cycles so a long cell unwinds promptly at negligible cost.
        if ((now_ & 0x3FFF) == 0 && sweepInterruptRequested()) {
            throw InterruptError(makeDiag(
                DiagCode::Interrupted, "core", "",
                "simulation interrupted by request", now_));
        }
        cycleActivity_ = 0;
        ++steppedCycles_;
        {
            prof::Scope ps(prof::Stage::Execute);
            resolvePendingCollisions();
        }
        {
            prof::Scope ps(prof::Stage::Commit);
            retireStage();
        }
        {
            prof::Scope ps(prof::Stage::Issue);
            issueStage();
        }
        {
            prof::Scope ps(prof::Stage::Rename);
            renameStage(trace);
        }
        ++now_;
        if (hOccSched_) {
            hOccSched_->record(waitList_.size());
            hOccRob_->record(nextSeq_ - headSeq_);
            hOccMob_->record(mob_.size());
        }
        if (cfg_.statsInterval) {
            iv_.occSched += waitList_.size();
            iv_.occRob += nextSeq_ - headSeq_;
            if (--iv_.countdown == 0) {
                snapshotInterval();
                iv_.countdown = cfg_.statsInterval;
            }
        }
        if (cfg_.auditInterval && --auditCountdown_ == 0) {
            auditNow();
            auditCountdown_ = cfg_.auditInterval;
        }

        // Idle-cycle skip-ahead (docs/PERFORMANCE.md). A cycle that
        // mutated nothing leaves the machine frozen: every stage is a
        // pure function of state and now_, and every now_ comparison
        // is a monotone threshold, so cycles keep mutating nothing
        // until the earliest threshold is crossed. Jump there in one
        // step, replaying the per-cycle accounting above in bulk —
        // arithmetically identical to stepping (frozen occupancies
        // recorded k times are one record(v, k)). The jump target is
        // clamped so every scheduled boundary (stop_at, the cycle
        // deadline, the 16K interrupt poll, interval snapshots, audit
        // cadence) still fires at exactly the cycle it would have;
        // clamp landings re-detect idleness and skip again. Cycles on
        // a 16K poll boundary never start a skip: the next loop
        // iteration must run its top-of-loop poll first.
        if (skip_ahead && cycleActivity_ == 0 &&
            (now_ & 0x3FFF) != 0 && now_ < stop_at &&
            (!cfg_.maxCycles || now_ < cfg_.maxCycles) &&
            (!traceDone_ || headSeq_ != nextSeq_)) {
            const Cycle event = nextEventCycle();
            if (event != kCycleNever) {
                Cycle target = std::min(event, stop_at);
                if (cfg_.maxCycles)
                    target = std::min(target, cfg_.maxCycles);
                target = std::min(
                    target, ((now_ >> 14) + 1) << 14); // next poll
                if (cfg_.statsInterval)
                    target = std::min(target, now_ + iv_.countdown);
                if (cfg_.auditInterval)
                    target = std::min(target, now_ + auditCountdown_);
                const Cycle k = target - now_;
                if (k > 0) {
                    if (hOccSched_) {
                        hOccSched_->record(waitList_.size(), k);
                        hOccRob_->record(nextSeq_ - headSeq_, k);
                        hOccMob_->record(mob_.size(), k);
                    }
                    if (cfg_.statsInterval) {
                        iv_.occSched += k * waitList_.size();
                        iv_.occRob += k * (nextSeq_ - headSeq_);
                        iv_.countdown -= k;
                    }
                    if (cfg_.auditInterval)
                        auditCountdown_ -= k;
                    now_ = target;
                    if (cfg_.statsInterval && iv_.countdown == 0) {
                        snapshotInterval();
                        iv_.countdown = cfg_.statsInterval;
                    }
                    if (cfg_.auditInterval && auditCountdown_ == 0) {
                        auditNow();
                        auditCountdown_ = cfg_.auditInterval;
                    }
                }
            }
        }
        // A stuck machine is a simulator bug or a corrupt restored
        // state; fail this run, not the process. The bound is per-uop
        // amortized and must scale with the configured memory
        // latency: a fixed 64 cycles/uop false-fires on slow
        // hierarchies (e.g. memLatency 2000 pointer chases) that are
        // making perfectly sound forward progress.
        if (now_ >= (trace.size() + 1000) * (64 + cfg_.mem.memLatency)) {
            throw AuditError({makeDiag(
                DiagCode::AuditViolation, "core", "",
                "simulated core appears deadlocked with " +
                    std::to_string(nextSeq_ - headSeq_) +
                    " uops in flight",
                now_)});
        }
    }
    return true;
}

Cycle
OooCore::nextEventCycle() const
{
    Cycle event = kCycleNever;
    // now_ is the next cycle to execute (the skip decision runs after
    // ++now_), and every gate activates the cycle it compares equal —
    // "completeAt <= now" retires at exactly completeAt — so a
    // threshold equal to now_ is an event for the pending cycle, not a
    // past one. It yields k == 0: no skip, step normally.
    const auto consider = [&event, this](Cycle c) {
        if (c != kCycleNever && c >= now_ && c < event)
            event = c;
    };
    // Fetch resumes at fetchBlockedUntil_ — but only if something is
    // fetchable then: with the trace drained nothing arrives, and
    // with a mispredicted branch pending the unblock is driven by the
    // branch's own issue (covered by its wake time below).
    if (!traceDone_ && !branchPending_)
        consider(fetchBlockedUntil_);
    // A waiting slot's visit does nothing before its wake time, and
    // this cycle's visits left every cached wake time exact. minWake_
    // is at most their minimum; if it is below, the cycle it names
    // steps, its walk finds nothing due and takes the true minimum.
    consider(minWake_);
    // Retirement is in order: only the head's completion can retire
    // anything, and a new head appears only through a retirement.
    if (headSeq_ != nextSeq_)
        consider(robComplete_[headSlot_]);
    return event;
}

SimResult
OooCore::finishRun()
{
    res_.cycles = now_;
    if (cfg_.statsInterval && now_ > iv_.cycle)
        snapshotInterval(); // flush the final partial interval
    if (cfg_.auditInterval)
        auditNow(); // the drained machine must also be sound
    if (cfg_.collectHistograms)
        exportHistograms();
    return res_;
}

const std::array<OooCore::HistogramSpec, 7> OooCore::kHistograms = {{
    {"load_to_use", &OooCore::hLoadUse_},
    {"replay_distance", &OooCore::hReplayDist_},
    {"occ_sched", &OooCore::hOccSched_},
    {"occ_rob", &OooCore::hOccRob_},
    {"occ_mob", &OooCore::hOccMob_},
    {"cht_confidence", &OooCore::hChtConf_},
    {"hmp_confidence", &OooCore::hHmpConf_},
}};

json::Value
OooCore::saveState() const
{
    return stateio::save(*this);
}

void
OooCore::loadState(const json::Value &state, VecTrace &trace)
{
    stateio::load(*this, state);

    // Labels are config-derived, never snapshot-derived: a warmup
    // fork must report the scheme it RUNS, not the one it warmed
    // under, and for a same-config restore the recomputation is
    // byte-identical anyway.
    res_.trace = trace.name();
    res_.config = std::string(orderingSchemeName(cfg_.scheme)) + "/" +
                  hmpKindName(cfg_.hmp);
    res_.statsInterval = cfg_.statsInterval;

    // Every uop renamed so far came from exactly one trace.next(), so
    // the snapshot's fetch position IS nextSeq_.
    trace.seek(nextSeq_);
}

void
OooCore::walkState(stateio::Archive &a)
{
    const int lastSlot = cfg_.robSize - 1;
    const int lastReg = kNumArchRegs - 1;
    // The window occupancy is derived (the waiting list); the restore
    // checks the saved count against the rebuilt list.
    std::uint64_t rsCount = waitList_.size();
    a.section("core", [&](stateio::Archive &c) {
        c("now", now_);
        c("head_seq", headSeq_);
        c("next_seq", nextSeq_, headSeq_, headSeq_ + cfg_.robSize);
        c("rs_count", rsCount, 0, cfg_.schedWindow);
        c("pool_used", poolUsed_, 0, cfg_.regPool);
        c("fetch_blocked_until", fetchBlockedUntil_);
        c("branch_pending", branchPending_);
        c("last_sta_seq", lastStaSeq_);
        c("have_last_sta", haveLastSta_);
        c("path_hist", pathHist_);
        c("trace_done", traceDone_);
        c("audit_checks", auditChecks_);
        c("audit_countdown", auditCountdown_);
        c.ints("rename_table", renameTable_, -1, lastSlot);
        c.ints("rename_seq", renameSeq_);
        c.list("pending_collision", pendingCollision_, 0, lastSlot);
    });

    // Every ROB slot verbatim (not just [headSeq_, nextSeq_)): stale
    // slots are still reachable through rename-table guards, and
    // restoring them byte-for-byte sidesteps any reasoning about
    // which stale fields those guards may read. Field order is the
    // on-disk format: the first ten positions predate the SoA split
    // and interleave array lanes with cold record fields.
    a.rows("rob", rob_.size(), [&](std::size_t s, stateio::Row &r) {
        RobEntry &e = rob_[s];
        r(robSeq_[s])(robState_[s], State::Waiting, State::Issued);
        r(e.src1Slot, -1, lastSlot)(e.src2Slot, -1, lastSlot);
        r(e.src1Seq)(e.src2Seq);
        r(robEst_[s])(robActual_[s])(robComplete_[s])(robStall_[s]);
        r(e.everWasted);
        r(e.cls, LoadClass::Unclassified, LoadClass::Colliding);
        r(e.gate.predColliding)(e.predDistance)(e.actualDistance);
        r(e.hmPredMiss)(e.hmActualMiss)(e.collisionPenalized);
        r(e.waitStoreSeq)(e.waitingOnStore)(e.violationSquash);
        r(e.gate.hasExclTarget)(e.gate.exclStoreSeq)(e.gate.ssWaitSeq);
        r(e.pairSeq)(e.isPairedStd);
        r(e.mispredictedBranch)(e.bankMispredicted)(e.pathAtPredict);
        Uop &u = e.uop;
        r(u.pc)(u.cls, UopClass::IntAlu, UopClass::Branch);
        r(u.src1, -1, lastReg)(u.src2, -1, lastReg)(u.dst, -1, lastReg);
        r(u.addr)(u.memSize)(u.taken);
    });
    if (a.loading()) {
        headSlot_ = slotOf(headSeq_);
        nextSlot_ = slotOf(nextSeq_);
        rebuildWakeState();
        if (waitList_.size() != rsCount)
            stateio::fail("core", "the saved window occupancy "
                                  "disagrees with the Waiting ROB "
                                  "entries");
    }

    a.section("interval", [this](stateio::Archive &c) {
        c("cycle", iv_.cycle);
        c("uops", iv_.uops);
        c("wasted", iv_.wasted);
        c("loads", iv_.loads);
        c("classified", iv_.classified);
        c("cht_mis", iv_.chtMis);
        c("hmp_mis", iv_.hmpMis);
        c("bank_mis", iv_.bankMis);
        c("occ_sched", iv_.occSched);
        c("occ_rob", iv_.occRob);
        c("countdown", iv_.countdown);
    });

    a.component("result", res_);
    a.component("mem", mem_);
    a.component("mob", mob_);
    if (a.loading())
        rebuildMobOrdinals();
    a.component("branch_pred", branchPred_);
    // Optional components restore only when BOTH the machine and the
    // snapshot have them. A cross-scheme warmup fork (snapshot taken
    // under the grid's base scheme, restored into a variant) leaves
    // the variant-only structures cold — the documented semantics of
    // the warm-once protocol (docs/ROBUSTNESS.md, "Snapshots").
    a.optional("cht", cht_.get());
    a.optional("hmp", hmp_.get());
    a.optional("bank_pred", bankPred_.get());
    a.optional("barrier_cache", barrierCache_.get());
    a.optional("store_sets", storeSets_.get());
    a.optional("prefetcher", prefetcher_.get());
    a.optional("faults", faults_);

    if (!cfg_.collectHistograms)
        return; // a donor's section is surplus telemetry
    if (!a.has("hist")) {
        // Snapshot written with histograms off, restored into a
        // config newly enabling them (warm-fork): the donor has no
        // distribution state, so this run's must start cold — never
        // carry counts from whatever this core ran before.
        resetHistograms();
        return;
    }
    json::Value h = histogramsJson();
    a("hist", h);
    if (!a.loading())
        return;
    // All seven distributions restore atomically or the load fails: a
    // partial section would leave some histograms carrying this
    // core's previous-run counts next to the snapshot's — exactly the
    // donor-seeded mixture the strict contract forbids. Restore into
    // temporaries first so a throw mutates nothing.
    if (!h.isObject() || h.size() != kHistograms.size()) {
        stateio::fail("hist", "histogram section must contain exactly "
                              "the seven known distributions");
    }
    std::vector<Log2Histogram> restored;
    for (const HistogramSpec &spec : kHistograms) {
        const json::Value *one = h.find(spec.name);
        if (!one)
            stateio::fail("hist", std::string("missing histogram '") +
                                      spec.name + "'");
        restored.push_back(Log2Histogram::fromJson(*one));
    }
    for (std::size_t i = 0; i < kHistograms.size(); ++i)
        *(this->*kHistograms[i].hist) = restored[i];
}

json::Value
OooCore::histogramsJson() const
{
    json::Value h = json::Value::object();
    for (const HistogramSpec &spec : kHistograms)
        h.set(spec.name, (this->*spec.hist)->toJson());
    return h;
}

void
OooCore::exportHistograms()
{
    // Mirror the "hist.*" registry subtree into the SimResult so
    // batch cells carry their histograms through the journal/JSON
    // path (results travel; the registry stays with the core).
    res_.histograms = histogramsJson();
}

AuditView
OooCore::auditView() const
{
    AuditView v;
    v.robSize = cfg_.robSize;
    v.schedWindow = cfg_.schedWindow;
    v.regPool = cfg_.regPool;
    v.headSeq = headSeq_;
    v.nextSeq = nextSeq_;
    v.rsCount = static_cast<int>(waitList_.size());
    v.poolUsed = poolUsed_;
    v.waitList.reserve(waitList_.size());
    for (const int slot : waitList_)
        v.waitList.push_back(robSeq_[slot]);
    v.minWake = minWake_;
    v.entries.reserve(nextSeq_ - headSeq_);
    // Walk from the retire cursor, as the stages do: a stale
    // headSlot_ then reads slots whose seqs break invariants 2 and 3,
    // and so does a uop a stale nextSlot_ renamed into the wrong slot.
    int slot = headSlot_;
    for (SeqNum s = headSeq_; s < nextSeq_; ++s) {
        const RobEntry &re = rob_[slot];
        AuditView::Entry e;
        e.seq = robSeq_[slot];
        e.slot = slot;
        e.waiting = robState_[slot] == State::Waiting;
        e.src1Slot = re.src1Slot;
        e.src2Slot = re.src2Slot;
        e.src1Seq = re.src1Seq;
        e.src2Seq = re.src2Seq;
        e.isPairedStd = re.isPairedStd;
        e.pairSeq = re.pairSeq;
        e.est = robEst_[slot];
        e.actual = robActual_[slot];
        e.stall = robStall_[slot];
        e.wake = robWake_[slot];
        if (e.waiting && re.uop.isLoad())
            e.gate = gateHorizon(mob_, cfg_, e.seq, re.uop, re.gate);
        e.cachedGate = robGate_[slot];
        e.unclassifiedLoad =
            re.uop.isLoad() && re.cls == LoadClass::Unclassified;
        e.mobOrd = robMobOrd_[slot].value;
        e.uopClass = re.uop.cls;
        e.prod1 = robProd_[2 * slot];
        e.prod2 = robProd_[2 * slot + 1];
        e.laneClass = robClass_[slot].cls;
        e.lanePool = robClass_[slot].pool;
        e.laneUnclassified = robClass_[slot].unclassifiedLoad;
        v.entries.push_back(e);
        if (++slot == cfg_.robSize)
            slot = 0;
    }
    v.mobStores.reserve(mob_.size());
    for (std::size_t i = 0, n = mob_.size(); i < n; ++i)
        v.mobStores.push_back(mob_.storeAt(i).seq);
    v.mobRetired = mob_.retired();
    return v;
}

void
OooCore::auditNow()
{
    ++auditChecks_;
    if (auto diags = StateAuditor::check(auditView(), now_);
        !diags.empty()) {
        throw AuditError(std::move(diags));
    }
}

void
OooCore::snapshotInterval()
{
    const Cycle dc = now_ - iv_.cycle;
    if (dc == 0)
        return;

    const auto delta = [](std::uint64_t cur, std::uint64_t &prev) {
        const std::uint64_t d = cur - prev;
        prev = cur;
        return d;
    };
    const std::uint64_t du = delta(res_.uops, iv_.uops);
    const std::uint64_t dw = delta(res_.wastedIssues, iv_.wasted);
    const std::uint64_t dl = delta(res_.loads, iv_.loads);
    const std::uint64_t dcls =
        delta(res_.classifiedLoads(), iv_.classified);
    const std::uint64_t dcht =
        delta(res_.ancPc + res_.acPnc, iv_.chtMis);
    const std::uint64_t dhmp = delta(res_.ahPm + res_.amPh, iv_.hmpMis);
    const std::uint64_t dbank =
        delta(res_.bankMispredicts, iv_.bankMis);

    IntervalSample s;
    s.cycle = now_;
    s.uops = du;
    const double cyc = static_cast<double>(dc);
    s.ipc = static_cast<double>(du) / cyc;
    s.replayRate = static_cast<double>(dw) / cyc;
    s.chtMispredictRate =
        dcls ? static_cast<double>(dcht) / static_cast<double>(dcls)
             : 0.0;
    s.hmpMispredictRate =
        dl ? static_cast<double>(dhmp) / static_cast<double>(dl) : 0.0;
    s.bankMispredictRate =
        dl ? static_cast<double>(dbank) / static_cast<double>(dl)
           : 0.0;
    s.schedOccupancy = static_cast<double>(iv_.occSched) / cyc /
                       static_cast<double>(cfg_.schedWindow);
    s.robOccupancy = static_cast<double>(iv_.occRob) / cyc /
                     static_cast<double>(cfg_.robSize);
    iv_.occSched = iv_.occRob = 0;
    iv_.cycle = now_;
    res_.intervals.push_back(s);
}

Cycle
OooCore::wakeOf(int slot) const
{
    const int link = 2 * slot;
    const Cycle ready =
        std::max({robStall_[slot], robGate_[slot],
                  srcLane(robEst_, link), srcLane(robEst_, link + 1)});
    if (!robClass_[slot].unclassifiedLoad)
        return ready;
    return std::min(ready, std::max(srcLane(robActual_, link),
                                    srcLane(robActual_, link + 1)));
}

void
OooCore::wakeConsumers(int slot)
{
    for (int link = consHead_[slot]; link >= 0; link = consNext_[link]) {
        const int c = link >> 1;
        if (robState_[c] == State::Waiting) {
            setWake(c, wakeOf(c));
            ++wakeResets_;
        }
    }
}

void
OooCore::reopenGates(SeqNum sta_seq)
{
    // Youngest first, stopping at the first entry older than the
    // store. Mid-walk the list is two runs, each in age order: the
    // compacted entries before the write cursor, then the entries as
    // they were before the walk (stale copies up to the read cursor,
    // still naming real slots). A Waiting load younger than the store
    // sits in the second run, or was compacted from a position whose
    // successors are all younger than the store too, so the scan
    // crosses the whole second run and reaches it in the first.
    for (auto it = waitList_.rbegin(); it != waitList_.rend(); ++it) {
        const int slot = *it;
        if (robSeq_[slot] < sta_seq)
            break;
        if (robGate_[slot] == kCycleNever) {
            robGate_[slot] = 0;
            setWake(slot, wakeOf(slot));
            ++wakeResets_;
        }
    }
}

void
OooCore::rebuildWakeState()
{
    // Renaming in age order rebuilds the same chains the run built
    // (up to order, which resets do not depend on). Producers that
    // already retired get no link: they can never move again.
    waitList_.clear();
    minWake_ = kCycleNever;
    std::fill(consHead_.begin(), consHead_.end(), -1);
    std::fill(robProd_.begin(), robProd_.end(), -1);
    const auto live = [this](int p, SeqNum seq) {
        return p >= 0 && p < cfg_.robSize && robSeq_[p] == seq &&
               inWindow(seq);
    };
    for (SeqNum s = headSeq_; s < nextSeq_; ++s) {
        const int slot = slotOf(s);
        const RobEntry &e = rob_[slot];
        robClass_[slot] = {e.uop.cls, unitPoolOf(e.uop.cls),
                           e.uop.isLoad() &&
                               e.cls == LoadClass::Unclassified};
        if (live(e.src1Slot, e.src1Seq))
            linkConsumer(e.src1Slot, slot, 0);
        if (live(e.src2Slot, e.src2Seq))
            linkConsumer(e.src2Slot, slot, 1);
        if (robState_[slot] == State::Waiting) {
            waitList_.push_back(slot);
            // Visit once before trusting a cache.
            robWake_[slot] = robGate_[slot] = minWake_ = 0;
        }
    }
}

void
OooCore::rebuildMobOrdinals()
{
    // The one place a seq becomes an ordinal after rename: a binary
    // search per in-window uop, and per store a load names.
    for (SeqNum s = headSeq_; s < nextSeq_; ++s) {
        const int slot = slotOf(s);
        RobEntry &e = rob_[slot];
        robMobOrd_[slot] = mob_.ordinalOf(e.isPairedStd ? e.pairSeq : s);
        if (!e.uop.isLoad())
            continue;
        e.gate.locateStores(mob_);
        e.waitStoreOrd = e.waitingOnStore
                             ? mob_.storeOrdinal(e.waitStoreSeq)
                             : Mob::kNoStore;
    }
}

void
OooCore::retireOrphanSta()
{
    // A trace that ends between a store's STA and its STD leaves the
    // STA's MOB record with no STD to retire it. Once the trace is
    // done and that STA has retired, release the record so the MOB
    // again holds only in-window stores. Any STD renamed later pairs
    // with lastStaSeq_ and, until it retires, is still in the window.
    // Stores leave the MOB oldest first, so while it holds any store
    // it holds the newest, lastStaSeq_.
    if (!traceDone_ || !haveLastSta_ || lastStaSeq_ >= headSeq_ ||
        mob_.size() == 0)
        return;
    for (SeqNum s = headSeq_; s != nextSeq_; ++s) {
        const RobEntry &e = rob_[slotOf(s)];
        if (e.isPairedStd && e.pairSeq == lastStaSeq_)
            return;
    }
    mob_.retire(lastStaSeq_);
    // Its data part never executed, so a younger load may hold a
    // kCycleNever gate on it.
    reopenGates(lastStaSeq_);
}

void
OooCore::resolvePendingCollisions()
{
    if (pendingCollision_.empty())
        return;
    // Stable swap-compact: one pass with a write cursor, keepers
    // sliding left in their original order. The former middle-erase
    // walk was O(n^2) in resolutions per cycle and made the surviving
    // order an artifact of erase mechanics; resolution and retry
    // order here is exactly arrival (push_back) order, pinned by the
    // PendingCollisionOrder regression test.
    std::size_t w = 0;
    for (std::size_t r = 0; r < pendingCollision_.size(); ++r) {
        const int slot = pendingCollision_[r];
        RobEntry &e = rob_[slot];
        if (!e.waitingOnStore) {
            ++cycleActivity_;
            continue; // resolved elsewhere; drop the stale entry
        }
        const Mob::StoreRec *rec = mob_.get(e.waitStoreOrd);
        if (rec == nullptr) {
            // The store retired, so both its parts completed earlier;
            // release the load with the penalty from now.
            robActual_[slot] = robEst_[slot] = robComplete_[slot] =
                now_ + cfg_.collisionPenalty;
            e.waitingOnStore = false;
            ++res_.forwarded;
            ++cycleActivity_;
            traceUop(TraceEvent::Forward, slot);
            if (hLoadUse_)
                hLoadUse_->record(robComplete_[slot] - now_);
            wakeConsumers(slot);
            continue;
        }
        if (rec->staDoneAt != kCycleNever &&
            rec->stdDoneAt != kCycleNever) {
            const Cycle data =
                std::max(now_, std::max(rec->staDoneAt,
                                        rec->stdDoneAt)) +
                cfg_.collisionPenalty + cfg_.mem.l1.latency;
            robActual_[slot] = robEst_[slot] = robComplete_[slot] =
                data;
            e.waitingOnStore = false;
            ++res_.forwarded;
            ++cycleActivity_;
            traceUop(TraceEvent::Forward, slot);
            if (hLoadUse_)
                hLoadUse_->record(data - now_);
            if (e.violationSquash)
                fetchBlockedUntil_ = std::max(fetchBlockedUntil_, data);
            wakeConsumers(slot);
            continue;
        }
        pendingCollision_[w++] = slot;
    }
    pendingCollision_.resize(w);
}

void
OooCore::countLoadClass(const RobEntry &e)
{
    switch (e.cls) {
      case LoadClass::NotConflicting:
        ++res_.notConflicting;
        break;
      case LoadClass::ConflictNotColliding:
        if (e.gate.predColliding)
            ++res_.ancPc;
        else
            ++res_.ancPnc;
        break;
      case LoadClass::Colliding:
        if (e.gate.predColliding)
            ++res_.acPc;
        else
            ++res_.acPnc;
        break;
      case LoadClass::Unclassified:
        // Every load is classified before issue, so only a corrupt
        // (e.g. restored) state gets here.
        throw AuditError({makeDiag(
            DiagCode::AuditViolation, "core", "",
            "retiring unclassified load at pc " +
                std::to_string(e.uop.pc),
            now_)});
    }
}

void
OooCore::retireStage()
{
    int retired = 0;
    while (headSeq_ != nextSeq_ && retired < cfg_.retireWidth) {
        const int slot = headSlot_;
        RobEntry &e = rob_[slot];
        if (robState_[slot] != State::Issued ||
            robComplete_[slot] > now_) {
            break;
        }

        ++res_.uops;
        ++cycleActivity_;
        traceUop(TraceEvent::Retire, slot);
        const Uop &u = e.uop;
        if (u.isLoad()) {
            ++res_.loads;
            countLoadClass(e);
            if (cht_) {
                cht_->update(u.pc, e.cls == LoadClass::Colliding,
                             e.actualDistance, e.pathAtPredict);
            }
            if (hmp_)
                hmp_->update(u.pc, e.hmActualMiss, u.addr);
        } else if (u.isSta()) {
            ++res_.stores;
        } else if (u.isStd()) {
            // The store leaves the MOB window only once its data part
            // retires; until then younger loads must still see it.
            if (barrierCache_ || storeSets_) {
                const Mob::StoreRec *rec = mob_.get(robMobOrd_[slot]);
                assert(rec != nullptr && rec->seq == e.pairSeq);
                // [Hess95]: increment on a caused violation,
                // decrement otherwise.
                if (barrierCache_)
                    barrierCache_->update(rec->pc,
                                          rec->causedViolation);
                // [Chry98]: the completed store empties its LFST
                // slot.
                if (storeSets_)
                    storeSets_->storeCompleted(rec->pc, rec->seq);
            }
            mob_.retire(e.pairSeq);
        } else if (u.isBranch()) {
            ++res_.branches;
            if (e.mispredictedBranch)
                ++res_.branchMispredicts;
        }
        if (u.dst >= 0)
            --poolUsed_;
        ++headSeq_;
        if (++headSlot_ == cfg_.robSize)
            headSlot_ = 0;
        ++retired;
        // Retired, the value reads as architectural (ready at 0): cut
        // every consumer's producer link before the slot can be
        // reused. Only an estimate still ahead of now (AH-PM: data +
        // the hit-indication wait) can make that a sooner wakeup; an
        // expired one gated nothing a visit this cycle does not see.
        for (int link = consHead_[slot]; link >= 0;
             link = consNext_[link])
            robProd_[link] = -1;
        if (robEst_[slot] > now_)
            wakeConsumers(slot);
    }
    if (retired > 0)
        retireOrphanSta();
}

void
OooCore::classifyLoad(int slot)
{
    RobEntry &e = rob_[slot];
    assert(e.cls == LoadClass::Unclassified);
    robClass_[slot].unclassifiedLoad = false;
    const Mob::Ordinal ord = robMobOrd_[slot];
    ++cycleActivity_; // the classification itself is a state change
    // Colliding: the youngest older store overlapping the load's
    // address is still incomplete — advancing the load would return
    // stale data and force a re-execution (the collision penalty).
    // This covers both the unknown-address case and the P6 "wrong
    // load-STD ordering" case (address known, data not).
    const Mob::StoreRec *m =
        mob_.youngestOverlapOlder(ord, e.uop.addr, e.uop.memSize);
    if (m != nullptr && !m->completeAt(now_)) {
        e.cls = LoadClass::Colliding;
        e.actualDistance =
            mob_.overlapDistance(ord, e.uop.addr, e.uop.memSize);
        return;
    }
    // Conflicting: some older store's address is unknown at the
    // load's first schedule opportunity (the paper's definition), so
    // the load cannot be proven independent yet.
    if (mob_.olderHorizon(ord, Mob::kAddr) > now_)
        e.cls = LoadClass::ConflictNotColliding;
    else
        e.cls = LoadClass::NotConflicting;
}

void
OooCore::executeLoad(int slot)
{
    RobEntry &e = rob_[slot];
    const Mob::Ordinal ord = robMobOrd_[slot];
    const Uop &u = e.uop;
    // Train the bank predictor as soon as the address generates —
    // waiting for retirement would leave in-flight instances of the
    // same load unaccounted and make stride predictions lag.
    if (bankPred_)
        bankPred_->update(u.pc, u.addr);
    // The memory-pipe organisation adds its structural latency here
    // (crossbar/decision stage or second-level scheduler, Figure 4).
    Cycle agu_done = now_ + kAguLat + memPipeExtraLat_;
    const Cycle l1_lat = cfg_.mem.l1.latency;
    if (e.bankMispredicted) {
        // Sliced pipe, wrong bank: the load re-executes through the
        // correct pipe once the bank is known.
        ++res_.bankMispredicts;
        agu_done += kAguLat + l1_lat;
    }

    // Partial-address disambiguation (mob_partial_bits > 0): the
    // narrow comparator flags a false 4K-alias dependence on an older
    // known-address store, and the load conservatively pays the
    // re-execution penalty before proceeding. Off by default (bits=0),
    // keeping the full-address timing byte-identical.
    if (cfg_.mobPartialBits != 0 &&
        mob_.partialAliasOlder(ord, u.addr, u.memSize, now_)) {
        agu_done += cfg_.collisionPenalty;
    }

    // Consult the MOB with oracle addresses for the ordering outcome.
    const Mob::StoreRec *m =
        mob_.youngestOverlapOlder(ord, u.addr, u.memSize);

    bool actual_miss = false;
    bool lazy = false;
    bool spec_forwarded = false;
    Cycle data = 0;

    // Exclusive pairing: take the paired store's data before its
    // address resolved (section 2.1's value-forwarding extension).
    if (cfg_.exclusiveSpecForward && e.gate.predColliding &&
        e.gate.hasExclTarget) {
        const Mob::StoreRec *pair = mob_.get(e.gate.exclStoreOrd);
        if (pair != nullptr && pair->dataKnownAt(now_) &&
            !pair->addrKnownAt(now_)) {
            ++res_.specForwards;
            spec_forwarded = true;
            if (pair == m) {
                // Correct pairing: the data really is the load's.
                data = agu_done + l1_lat;
                ++res_.forwarded;
                traceUop(TraceEvent::Forward, slot);
            } else {
                // Wrong pairing: detected when the pair's STA
                // resolves; the load (and its slice) re-executes.
                ++res_.specMisforwards;
                ++res_.collisionPenalties;
                traceUop(TraceEvent::Squash, slot);
                e.collisionPenalized = true;
                if (m != nullptr && (m->staDoneAt == kCycleNever ||
                                     m->stdDoneAt == kCycleNever)) {
                    lazy = true;
                    e.waitingOnStore = true;
                    e.violationSquash = true;
                    e.waitStoreSeq = m->seq;
                    e.waitStoreOrd = mob_.ordinalOf(*m);
                    pendingCollision_.push_back(slot);
                } else if (m != nullptr) {
                    // Real producer is another (complete) store.
                    data = std::max(agu_done,
                                    std::max(m->staDoneAt,
                                             m->stdDoneAt) +
                                        cfg_.collisionPenalty) +
                           l1_lat;
                    fetchBlockedUntil_ =
                        std::max(fetchBlockedUntil_, data);
                    ++res_.forwarded;
                    traceUop(TraceEvent::Forward, slot);
                } else {
                    // Real value comes from memory: re-executed
                    // access after the penalty.
                    const auto acc = mem_.access(
                        u.addr, agu_done + cfg_.collisionPenalty);
                    data = acc.readyAt;
                    actual_miss = !acc.l1Hit;
                    fetchBlockedUntil_ =
                        std::max(fetchBlockedUntil_, data);
                }
            }
        }
    }

    if (spec_forwarded) {
        // Timing resolved above; fall through to the HMP accounting.
    } else if (m && m->completeAt(now_)) {
        // Clean store-to-load forwarding.
        data = agu_done + l1_lat;
        ++res_.forwarded;
        traceUop(TraceEvent::Forward, slot);
    } else if (m) {
        // The load was scheduled against an incomplete store it
        // depends on: the wrong-ordering case. Its data is delayed to
        // the store's completion plus the collision penalty,
        // modelling the re-execution of the load.
        ++res_.collisionPenalties;
        e.collisionPenalized = true;
        // If the store's address was not even resolved when the load
        // executed, this is a true memory-order violation: it is only
        // detected when the STA executes, and the machine recovers by
        // squashing and re-executing the load's slice — modelled as a
        // front-end disturbance until the load's re-execution
        // completes (cf. the paper: "the wrongly advanced load and
        // all its dependent instructions must be re-executed or even
        // re-scheduled").
        const bool violation = !m->addrKnownAt(now_);
        if (violation) {
            ++res_.orderViolations;
            traceUop(TraceEvent::Squash, slot);
        }
        // The dependence baselines train on the stores that caused
        // wrong ordering.
        const Mob::Ordinal m_ord = mob_.ordinalOf(*m);
        mob_.markViolation(m_ord);
        if (storeSets_)
            storeSets_->violation(u.pc, m->pc);
        if (m->staDoneAt != kCycleNever && m->stdDoneAt != kCycleNever) {
            // After the store completes and the re-schedule penalty
            // elapses, the load re-executes and pays its access
            // latency again.
            data = std::max(agu_done,
                            std::max(m->staDoneAt, m->stdDoneAt) +
                                cfg_.collisionPenalty) +
                   l1_lat;
            ++res_.forwarded;
            traceUop(TraceEvent::Forward, slot);
            if (violation) {
                // Detected when the STA executes; the squash-and-
                // refetch recovery keeps the front end from making
                // progress until the re-executed load's data returns.
                fetchBlockedUntil_ =
                    std::max(fetchBlockedUntil_, data);
            }
        } else {
            lazy = true;
            e.waitingOnStore = true;
            e.violationSquash = violation;
            e.waitStoreSeq = m->seq;
            e.waitStoreOrd = m_ord;
            pendingCollision_.push_back(slot);
        }
    } else {
        // Normal cache access.
        const auto acc = mem_.access(u.addr, agu_done);
        data = acc.readyAt;
        actual_miss = !acc.l1Hit;
        if (acc.dynamicMiss)
            ++res_.dynamicMisses;
        // Injected timing fault: strictly additive, so readiness only
        // moves later — the schedule degrades, it never goes acausal.
        if (faults_)
            data += faults_->perturbLatency();
    }

    if (prefetcher_) {
        // Stride prefetch: run ahead of the predicted address stream,
        // touching future lines so later instances hit or at least
        // turn into dynamic misses that overlap.
        const auto pf = prefetcher_->predict(u.pc);
        prefetcher_->update(u.pc, u.addr);
        if (pf.valid && pf.stride != 0) {
            const std::int64_t stride = pf.stride;
            const Addr line = cfg_.mem.l1.lineBytes;
            for (unsigned d = 1; d <= cfg_.prefetchDegree; ++d) {
                const Addr target = static_cast<Addr>(
                    static_cast<std::int64_t>(u.addr) +
                    stride * static_cast<std::int64_t>(d));
                if (target / line != u.addr / line) {
                    mem_.access(target, agu_done);
                    ++res_.prefetches;
                }
            }
        }
    }

    // Hit-miss prediction and the consumer wakeup estimate.
    bool pred_miss = false;
    switch (cfg_.hmp) {
      case HmpKind::AlwaysHit:
        pred_miss = false;
        break;
      case HmpKind::Perfect:
        pred_miss = actual_miss;
        break;
      default: {
        // Timing structures are indexed by address; the predictor
        // supplies its (stride-)predicted line, and only then is the
        // outstanding-miss queue consulted.
        prof::Scope ps(prof::Stage::Predict);
        const Addr probe = hmp_->timingProbeAddr(u.pc);
        if (probe != kAddrInvalid) {
            const auto ti = mem_.timingInfo(probe, now_);
            const HitMissPredictor::Hint hint{ti.outstandingMiss,
                                              ti.recentFill};
            pred_miss = hmp_->predictMiss(u.pc, &hint);
        } else {
            pred_miss = hmp_->predictMiss(u.pc, nullptr);
        }
        if (hHmpConf_) {
            // Confidence is a [0,1] double; bucketise as percent.
            hHmpConf_->record(static_cast<std::uint64_t>(std::llround(
                hmp_->missConfidence(u.pc) * 100.0)));
        }
        break;
      }
    }
    e.hmPredMiss = pred_miss;
    e.hmActualMiss = actual_miss;
    if (actual_miss) {
        ++res_.l1Misses;
        if (pred_miss)
            ++res_.amPm;
        else
            ++res_.amPh;
    } else {
        if (pred_miss)
            ++res_.ahPm;
        else
            ++res_.ahPh;
    }

    if (lazy) {
        // Wakeup blocked until the colliding store completes.
        robEst_[slot] = robActual_[slot] = robComplete_[slot] =
            kCycleNever;
        return;
    }

    if (hLoadUse_)
        hLoadUse_->record(data - now_);

    robActual_[slot] = robComplete_[slot] = data;
    if (!pred_miss) {
        // Scheduler assumes an L1 hit; consumers wake speculatively.
        robEst_[slot] = agu_done + l1_lat;
    } else if (actual_miss) {
        // Caught miss: consumers wake exactly when the data lands.
        robEst_[slot] = data;
    } else {
        // AH-PM: consumers wait for the hit indication.
        robEst_[slot] = data + cfg_.ahpmPenalty;
    }
}

void
OooCore::issueEntry(int slot)
{
    robState_[slot] = State::Issued;
    ++cycleActivity_;
    traceUop(TraceEvent::Issue, slot);
    {
        prof::Scope ps(prof::Stage::Execute);
        executeEntry(slot);
    }
    // A store part's new time may open younger loads' gates, and the
    // estimate and data time just left kCycleNever.
    const UopClass cls = robClass_[slot].cls;
    if (cls == UopClass::StoreAddr)
        reopenGates(robSeq_[slot]);
    else if (cls == UopClass::StoreData)
        reopenGates(rob_[slot].pairSeq);
    wakeConsumers(slot);
}

void
OooCore::executeEntry(int slot)
{
    RobEntry &e = rob_[slot];
    const Uop &u = e.uop;
    switch (u.cls) {
      case UopClass::IntAlu:
        robActual_[slot] = robEst_[slot] = robComplete_[slot] =
            now_ + kIntLat;
        break;
      case UopClass::FpAlu:
        robActual_[slot] = robEst_[slot] = robComplete_[slot] =
            now_ + kFpLat;
        break;
      case UopClass::Complex:
        robActual_[slot] = robEst_[slot] = robComplete_[slot] =
            now_ + kComplexLat;
        break;
      case UopClass::Branch:
        robActual_[slot] = robEst_[slot] = robComplete_[slot] =
            now_ + kBranchLat;
        if (e.mispredictedBranch) {
            branchPending_ = false;
            fetchBlockedUntil_ = std::max(
                fetchBlockedUntil_,
                robComplete_[slot] + cfg_.branchMispredictPenalty);
            traceUop(TraceEvent::Squash, slot);
        }
        break;
      case UopClass::StoreAddr: {
        const Cycle t = now_ + kAguLat;
        robActual_[slot] = robEst_[slot] = robComplete_[slot] = t;
        mob_.staExecuted(robMobOrd_[slot], t);
        maybeTouchStore(robMobOrd_[slot]);
        if (bankPred_)
            bankPred_->update(u.pc, u.addr);
        break;
      }
      case UopClass::StoreData: {
        const Cycle t = now_ + kStdLat;
        robActual_[slot] = robEst_[slot] = robComplete_[slot] = t;
        assert(e.isPairedStd);
        mob_.stdExecuted(robMobOrd_[slot], t);
        maybeTouchStore(robMobOrd_[slot]);
        break;
      }
      case UopClass::Load:
        executeLoad(slot);
        break;
    }
}

void
OooCore::maybeTouchStore(Mob::Ordinal store)
{
    // Write-allocate the store's line once both parts have executed.
    // Exactly one of the two issueEntry() calls (STA's or STD's, the
    // later one) sees both timestamps known, so this touches once.
    const Mob::StoreRec *rec = mob_.get(store);
    assert(rec != nullptr);
    if (rec->staDoneAt == kCycleNever || rec->stdDoneAt == kCycleNever)
        return;
    mem_.access(rec->addr, std::max(rec->staDoneAt, rec->stdDoneAt));
}

void
OooCore::issueStage()
{
    // The walk keeps the minimum wake time of the slots it leaves
    // waiting. While that minimum is still ahead, no slot is due and
    // the walk is skipped outright.
    if (minWake_ > now_)
        return;

    IssuePorts ports;
    ports.pool(UnitPool::Int) = cfg_.intUnits;
    ports.pool(UnitPool::Fp) = cfg_.fpUnits;
    ports.pool(UnitPool::Complex) = cfg_.complexUnits;
    ports.pool(UnitPool::Mem) = cfg_.bankMode == BankMode::Sliced
                                    ? static_cast<int>(cfg_.numBanks)
                                    : cfg_.memUnits;
    ports.pool(UnitPool::Std) = cfg_.stdPorts;
    for (unsigned b = 0; b < cfg_.numBanks; ++b)
        ports.bankFree[b] = 1;

    // One visit to a due slot whose unit pool has a free unit. Every
    // early return leaves the slot Waiting with nothing changed but
    // what the visit itself recorded. Until the uop issues, replays
    // or reaches its ordering gate, the visit reads SoA lanes only.
    const auto visit = [&](int slot) {
        const SlotClass k = robClass_[slot];
        const int link = 2 * slot;
        const Cycle true_ready = std::max(srcLane(robActual_, link),
                                          srcLane(robActual_, link + 1));

        // Ground-truth classification of loads happens the first time
        // the load could be scheduled ignoring ordering constraints:
        // register sources ready and a free memory unit (section 2.1).
        if (k.unclassifiedLoad && true_ready <= now_)
            classifyLoad(slot);

        if (robStall_[slot] > now_)
            return;
        if (std::max(srcLane(robEst_, link), srcLane(robEst_, link + 1)) >
            now_)
            return; // not woken yet

        if (k.cls == UopClass::Load) {
            const RobEntry &e = rob_[slot];
            robGate_[slot] =
                gateHorizon(mob_, cfg_, robMobOrd_[slot], e.uop, e.gate);
            if (robGate_[slot] > now_)
                return; // held by the ordering scheme
        }

        int &pool = ports.pool(k.pool);
        if (true_ready > now_) {
            // Speculatively woken too early (producer's latency was
            // mispredicted): the issue slot is burnt and the uop
            // replays. Replays repeat every replayBackoff cycles
            // until the producer's data really arrives — the
            // re-execution bandwidth cost the paper highlights — and
            // the recovery adds the reschedule penalty at the end.
            --pool;
            ++res_.wastedIssues;
            ++cycleActivity_;
            traceUop(TraceEvent::Replay, slot);
            if (hReplayDist_) {
                // Top bucket = the producer's data time was still
                // unknown when the slot burnt (kCycleNever).
                hReplayDist_->record(true_ready == kCycleNever
                                         ? ~std::uint64_t{0}
                                         : true_ready - now_);
            }
            RobEntry &e = rob_[slot];
            if (!e.everWasted) {
                e.everWasted = true;
                ++res_.replayedUops;
            }
            const Cycle retry = now_ + cfg_.replayBackoff;
            if (true_ready == kCycleNever || retry < true_ready) {
                // Data still outstanding: replay again soon.
                robStall_[slot] = retry;
            } else {
                // Data lands before the next replay: final recovery
                // costs the reschedule penalty.
                robStall_[slot] = true_ready + cfg_.reschedulePenalty;
            }
            return;
        }

        if (k.pool == UnitPool::Mem) {
            issueMemUop(slot, ports);
            return;
        }
        --pool;
        issueEntry(slot);
    };

    // Walk the waiting list oldest first, compacting it in place with
    // a write cursor as entries issue. A slot is visited only when it
    // is due (its cached wake time has passed) and its unit pool still
    // has a free unit: any other visit would change nothing
    // (docs/PERFORMANCE.md). An issuing producer recomputes its
    // consumers' wake times, and an issuing store part reopens the
    // kCycleNever gates of loads younger than its store. Slots younger
    // than the issuing uop are still ahead of the read cursor and are
    // visited this same cycle if their new wake time has passed.
    //
    // setWake() may lower minWake_ during the walk; the walk keeps
    // its own minimum in a register and merges it at the end.
    minWake_ = kCycleNever;
    Cycle walkMin = kCycleNever;
    std::size_t w = 0;
    for (std::size_t r = 0, n = waitList_.size(); r < n; ++r) {
        const int slot = waitList_[r];
        if (robWake_[slot] <= now_ &&
            ports.pool(robClass_[slot].pool) > 0) {
            ++issueVisits_;
            visit(slot);
            if (robState_[slot] != State::Waiting)
                continue;
            robWake_[slot] = wakeOf(slot);
        }
        walkMin = std::min(walkMin, robWake_[slot]);
        waitList_[w++] = slot;
    }
    waitList_.resize(w);
    minWake_ = std::min(minWake_, walkMin);
}

void
OooCore::issueMemUop(int slot, IssuePorts &mp)
{
    RobEntry &e = rob_[slot];
    const Uop &u = e.uop;
    int &mem_free = mp.pool(UnitPool::Mem);

    switch (cfg_.bankMode) {
      case BankMode::TrueMultiPorted:
      case BankMode::DualScheduled:
        // No bank constraints (the dual-scheduled pipe resolves them
        // in its second-level scheduler at extra latency).
        --mem_free;
        issueEntry(slot);
        return;

      case BankMode::Conventional: {
        const unsigned bank = bankOf(u.addr);
        if (bankPred_ != nullptr) {
            // Predictor-assisted scheduling: do not co-dispatch loads
            // predicted to hit the same bank; the skipped load keeps
            // its slot and retries next cycle.
            const auto p = bankPred_->predict(u.pc);
            if (p.valid) {
                if (mp.predClaimed[p.bank])
                    return;
                mp.predClaimed[p.bank] = true;
            }
        }
        if (mp.bankFree[bank] <= 0) {
            // Bank conflict detected after address generation: the
            // pipe slot is burnt and the access retries.
            --mem_free;
            ++res_.bankConflicts;
            ++cycleActivity_;
            robStall_[slot] = now_ + 1;
            return;
        }
        --mem_free;
        --mp.bankFree[bank];
        issueEntry(slot);
        return;
      }

      case BankMode::Sliced: {
        if (u.isSta()) {
            // Stores are never on the critical path (section 2.3):
            // the STA rides whichever pipe is free and the store
            // buffer routes the data to the right bank later.
            for (unsigned b = 0; b < cfg_.numBanks; ++b) {
                if (mp.bankFree[b] > 0) {
                    --mp.bankFree[b];
                    --mem_free;
                    issueEntry(slot);
                    return;
                }
            }
            return; // every pipe busy; retry next cycle
        }
        const auto p = bankPred_->predict(u.pc);
        if (p.valid) {
            if (mp.bankFree[p.bank] <= 0)
                return; // predicted pipe busy
            --mp.bankFree[p.bank];
            --mem_free;
            e.bankMispredicted = p.bank != bankOf(u.addr);
            issueEntry(slot);
            return;
        }
        // No confident prediction: replicate to every pipe.
        for (unsigned b = 0; b < cfg_.numBanks; ++b) {
            if (mp.bankFree[b] <= 0)
                return;
        }
        for (unsigned b = 0; b < cfg_.numBanks; ++b) {
            --mp.bankFree[b];
            --mem_free;
        }
        ++res_.bankReplications;
        issueEntry(slot);
        return;
      }
    }
}

void
OooCore::renameStage(VecTrace &trace)
{
    if (traceDone_ || branchPending_ || now_ < fetchBlockedUntil_)
        return;

    for (int i = 0; i < cfg_.fetchWidth; ++i) {
        if (static_cast<int>(nextSeq_ - headSeq_) >= cfg_.robSize)
            return;
        if (static_cast<int>(waitList_.size()) >= cfg_.schedWindow)
            return;
        if (poolUsed_ >= cfg_.regPool)
            return;

        const Uop *u = trace.next();
        if (!u) {
            traceDone_ = true;
            ++cycleActivity_; // one-time transition, not an idle read
            retireOrphanSta();
            return;
        }

        const SeqNum seq = nextSeq_++;
        const int slot = nextSlot_;
        if (++nextSlot_ == cfg_.robSize)
            nextSlot_ = 0;
        RobEntry &e = rob_[slot];
        e = RobEntry{};
        // Reset the slot's SoA lanes alongside the cold record (same
        // values the former in-record fields initialised to).
        robSeq_[slot] = seq;
        robState_[slot] = State::Waiting;
        robEst_[slot] = kCycleNever;
        robActual_[slot] = kCycleNever;
        robComplete_[slot] = kCycleNever;
        robStall_[slot] = 0;
        robGate_[slot] = 0;
        // The stores renamed before this uop; an STD takes its STA's,
        // the newest store (lastStaSeq_).
        const Mob::Ordinal ord{mob_.inserted() - (u->isStd() ? 1 : 0)};
        robMobOrd_[slot] = ord;
        robProd_[2 * slot] = robProd_[2 * slot + 1] = -1;
        robClass_[slot] = {u->cls, unitPoolOf(u->cls), u->isLoad()};
        consHead_[slot] = -1;
        waitList_.push_back(slot);
        e.uop = *u;
        ++cycleActivity_;
        traceUop(TraceEvent::Rename, slot);

        if (u->src1 >= 0) {
            const int ps = renameTable_[u->src1];
            if (ps >= 0 && robSeq_[ps] == renameSeq_[u->src1] &&
                inWindow(renameSeq_[u->src1])) {
                e.src1Slot = ps;
                e.src1Seq = renameSeq_[u->src1];
                linkConsumer(ps, slot, 0);
            }
        }
        if (u->src2 >= 0) {
            const int ps = renameTable_[u->src2];
            if (ps >= 0 && robSeq_[ps] == renameSeq_[u->src2] &&
                inWindow(renameSeq_[u->src2])) {
                e.src2Slot = ps;
                e.src2Seq = renameSeq_[u->src2];
                linkConsumer(ps, slot, 1);
            }
        }
        if (u->dst >= 0) {
            renameTable_[u->dst] = slot;
            renameSeq_[u->dst] = seq;
            ++poolUsed_;
        }
        // The first visit waits for the sources like every later one;
        // the gate is not known yet and counts as 0.
        setWake(slot, wakeOf(slot));

        switch (u->cls) {
          case UopClass::Load:
            if (storeSets_) {
                e.gate.ssWaitSeq = storeSets_->loadRenamed(u->pc);
                e.gate.ssWaitOrd = mob_.storeOrdinal(e.gate.ssWaitSeq);
            }
            if (cht_) {
                // Injected state fault: the CHT is a hint structure,
                // so a flipped bit may cost timing but never
                // correctness — exactly what the injector verifies.
                if (faults_ && faults_->fireBitFlip())
                    cht_->corruptRandomBit(faults_->rng());
                e.pathAtPredict = pathHist_;
                const auto p = [&] {
                    prof::Scope ps(prof::Stage::Predict);
                    return cht_->predict(u->pc, pathHist_);
                }();
                e.gate.predColliding = p.colliding;
                e.predDistance = p.distance;
                if (hChtConf_)
                    hChtConf_->record(p.confidence);
                if (cfg_.scheme == OrderingScheme::Exclusive &&
                    p.colliding && p.distance > 0) {
                    const Mob::StoreRec *s =
                        mob_.olderAtDistance(ord, p.distance);
                    if (s) {
                        e.gate.hasExclTarget = true;
                        e.gate.exclStoreSeq = s->seq;
                        e.gate.exclStoreOrd =
                            Mob::Ordinal{ord.value - p.distance};
                    } else {
                        // Fewer older stores than the predicted
                        // distance: nothing to wait for.
                        e.gate.hasExclTarget = true;
                        e.gate.exclStoreSeq = LoadGate::kNoStore;
                    }
                }
            }
            break;
          case UopClass::StoreAddr: {
            // [Hess95]: the barrier cache is queried at fetch time of
            // the store; a set counter fences all following loads.
            const bool barrier =
                barrierCache_ && barrierCache_->predict(u->pc).taken;
            mob_.insert(seq, u->addr, u->memSize, u->pc, barrier);
            if (storeSets_)
                storeSets_->storeRenamed(u->pc, seq);
            lastStaSeq_ = seq;
            haveLastSta_ = true;
            break;
          }
          case UopClass::StoreData:
            assert(haveLastSta_ && mob_.get(ord) != nullptr &&
                   mob_.get(ord)->seq == lastStaSeq_);
            e.pairSeq = lastStaSeq_;
            e.isPairedStd = true;
            break;
          case UopClass::Branch: {
            const auto bp = branchPred_.predict(u->pc);
            branchPred_.update(u->pc, u->taken);
            pathHist_ = (pathHist_ << 1) | (u->taken ? 1u : 0u);
            if (bp.taken != u->taken) {
                e.mispredictedBranch = true;
                // Block the front end until the branch resolves.
                branchPending_ = true;
                return;
            }
            break;
          }
          default:
            break;
        }
    }
}

} // namespace lrs
