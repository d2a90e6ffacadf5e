/**
 * @file
 * The trace-driven out-of-order core.
 *
 * A cycle-driven model of the machine in section 3.1: in-order
 * fetch/rename into a ROB + scheduling window (reservation stations),
 * out-of-order dispatch to per-class execution units, in-order retire.
 * Loads interact with the MOB according to the selected memory
 * ordering scheme, with the data hierarchy for latency, with the CHT
 * for collision prediction and with the hit-miss predictor for
 * speculative wakeup of their consumers.
 *
 * Mis-speculation is modelled operationally, not by fixed abatements:
 * a consumer woken too early issues, burns its execution slot, and is
 * rescheduled (the paper's re-execution bandwidth cost); a wrongly
 * advanced load re-executes after the colliding store completes plus
 * the collision penalty.
 */

#ifndef LRS_CORE_CORE_HH
#define LRS_CORE_CORE_HH

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "common/fault_injector.hh"
#include "common/histogram.hh"
#include "common/stats_registry.hh"
#include "core/auditor.hh"
#include "core/config.hh"
#include "core/flight_recorder.hh"
#include "core/results.hh"
#include "core/tracer.hh"
#include "memory/hierarchy.hh"
#include "memory/mob.hh"
#include "predictors/bank_pred.hh"
#include "predictors/bimodal.hh"
#include "predictors/cht.hh"
#include "predictors/gshare.hh"
#include "predictors/hitmiss.hh"
#include "predictors/store_sets.hh"
#include "trace/stream.hh"

namespace lrs
{

/**
 * What a load's ordering scheme waits on besides the MOB itself: the
 * CHT's collision prediction and the store the scheme names for the
 * load, all fixed at rename.
 */
struct LoadGate
{
    /** Sentinel "no store to wait for" for exclStoreSeq. */
    static constexpr SeqNum kNoStore =
        std::numeric_limits<SeqNum>::max();

    bool predColliding = false;
    /** Exclusive: the CHT gave a distance; exclStoreSeq is the store
     *  at that distance, or kNoStore when fewer stores were older. */
    bool hasExclTarget = false;
    SeqNum exclStoreSeq = 0;
    /** Store sets: the LFST's store at rename, or kNoStoreSeq. */
    SeqNum ssWaitSeq = StoreSets::kNoStoreSeq;
    /**
     * MOB ordinals of exclStoreSeq and ssWaitSeq, Mob::kNoStore when
     * the seq named no store in the MOB. Derived once, at rename or
     * restore (locateStores), and never serialized.
     */
    Mob::Ordinal exclStoreOrd = Mob::kNoStore;
    Mob::Ordinal ssWaitOrd = Mob::kNoStore;

    /** Derive both ordinals from the seqs (binary searches). */
    void
    locateStores(const Mob &mob)
    {
        exclStoreOrd = hasExclTarget ? mob.storeOrdinal(exclStoreSeq)
                                     : Mob::kNoStore;
        ssWaitOrd = mob.storeOrdinal(ssWaitSeq);
    }
};

/**
 * First cycle at which the ordering scheme of @p cfg lets the load
 * @p u (MOB ordinal @p ord) dispatch: the max of the older store times
 * the scheme waits on, kCycleNever while one of those store parts has
 * not executed, 0 when nothing holds the load. "Allowed at now" is
 * gateHorizon(...) <= now. A store the scheme names that is no longer
 * in @p mob has retired, so both its parts had passed.
 */
Cycle gateHorizon(const Mob &mob, const MachineConfig &cfg,
                  Mob::Ordinal ord, const Uop &u, const LoadGate &g);

/**
 * The same for the load with sequence number @p seq, deriving its
 * ordinal and g's store ordinals by binary search: the check the
 * auditor and the tests make without trusting the core's ordinals.
 */
Cycle gateHorizon(const Mob &mob, const MachineConfig &cfg, SeqNum seq,
                  const Uop &u, LoadGate g);

/**
 * One simulated core. Build one per run; run() consumes a trace.
 */
class OooCore
{
  public:
    /**
     * Execution latencies of the paper's units (section 3.1), in
     * cycles: integer, FP, complex, branch, address generation (STA
     * and load) and store data.
     */
    static constexpr Cycle kIntLat = 1;
    static constexpr Cycle kFpLat = 3;
    static constexpr Cycle kComplexLat = 4;
    static constexpr Cycle kBranchLat = 1;
    static constexpr Cycle kAguLat = 1;
    static constexpr Cycle kStdLat = 1;

    explicit OooCore(const MachineConfig &cfg);
    ~OooCore();

    /** Simulate @p trace to completion and return the statistics. */
    SimResult run(VecTrace &trace);

    // --- stepped execution (machine snapshots, core/snapshot.hh) ---
    /** Reset the machine and bind a fresh run to @p trace (cycle 0). */
    void beginRun(VecTrace &trace);

    /**
     * Advance until the machine drains or now() reaches @p stop_at,
     * whichever comes first. The stop check sits at the top of the
     * cycle loop, before any side effect, so the machine state on
     * return is exactly the state an uninterrupted run has entering
     * cycle stop_at — the property the snapshot bit-identity contract
     * rests on. Returns true when the run completed (machine drained).
     */
    bool advanceTo(VecTrace &trace, Cycle stop_at = kCycleNever);

    /** Close out a drained run and return the statistics. */
    SimResult finishRun();

    /** Current simulated cycle of the run in progress. */
    Cycle now() const { return now_; }

    /**
     * Machine-snapshot support (core/snapshot.hh): serialize /
     * restore the complete dynamic state at an advanceTo() boundary,
     * the two directions of one state walk (walkState()).
     * loadState() replaces beginRun(): it rebinds @p trace (seeking
     * it to the snapshot's fetch position) and restores every
     * component this machine shares with the snapshot. Sections for
     * components only one side has (cross-scheme warmup forks) start
     * cold; everything else must restore exactly or the load throws
     * ConfigError(E_JOURNAL_INVALID).
     */
    json::Value saveState() const;
    void loadState(const json::Value &state, VecTrace &trace);

    /**
     * The whole snapshot state in on-disk order, for either direction
     * (common/state_io.hh). Restore through loadState(), which also
     * rebinds the trace.
     */
    void walkState(stateio::Archive &a);

    const MachineConfig &config() const { return cfg_; }

    /**
     * Attach a pipeline event tracer (not owned; nullptr detaches).
     * With no tracer attached each potential event costs a single
     * null-pointer test.
     */
    void attachTracer(PipelineTracer *t) { tracer_ = t; }

    /**
     * Attach a flight recorder (not owned; nullptr detaches). Shares
     * the tracer's event stream and cost model: with none attached
     * each potential event costs a single null-pointer test.
     */
    void attachFlightRecorder(FlightRecorder *fr) { flight_ = fr; }

    /**
     * The core's stats registry: every component's counters under
     * dotted names ("core.*", "sched.*", "mem.*", "pred.*" — see
     * docs/OBSERVABILITY.md). Bound counters alias the SimResult of
     * the current/last run().
     */
    StatsRegistry &stats() { return statsReg_; }
    const StatsRegistry &stats() const { return statsReg_; }

    /**
     * Attach a fault injector (not owned; nullptr detaches). While
     * attached it flips CHT bits at prediction time and perturbs
     * load latencies — see docs/ROBUSTNESS.md. With none attached
     * each potential fault site costs a null-pointer test.
     */
    void attachFaultInjector(FaultInjector *fi) { faults_ = fi; }

    /**
     * Snapshot the in-flight state for the invariant auditor. Public
     * so tests and tools can audit on demand; run() audits itself
     * every cfg().auditInterval cycles.
     */
    AuditView auditView() const;

  private:
    /** Ground-truth collision classification of a load. */
    enum class LoadClass : std::uint8_t
    {
        Unclassified,
        NotConflicting,
        ConflictNotColliding, ///< ANC
        Colliding,            ///< AC
    };

    enum class State : std::uint8_t
    {
        Waiting, ///< in the scheduling window
        Issued,  ///< dispatched to an execution unit
    };

    /**
     * Cold per-slot bookkeeping. The six fields the per-cycle stages
     * read (seq, state, estReady, actualReady, completeAt,
     * stallUntil) live in the parallel structure-of-arrays vectors
     * below (robSeq_ .. robStall_, same slot index) so the hot loops
     * read dense flat arrays instead of striding through this record
     * (docs/PERFORMANCE.md).
     */
    struct RobEntry
    {
        Uop uop;

        // Producers of the register sources: ROB slot or -1 if the
        // value was already architectural at rename.
        int src1Slot = -1, src2Slot = -1;
        SeqNum src1Seq = 0, src2Seq = 0;

        bool everWasted = false;

        // Load bookkeeping.
        LoadClass cls = LoadClass::Unclassified;
        /** Ordering-scheme inputs from rename (see gateHorizon). */
        LoadGate gate;
        unsigned predDistance = 0;
        unsigned actualDistance = 0;
        bool hmPredMiss = false;
        bool hmActualMiss = false;
        bool collisionPenalized = false;
        /** STA seq the load is lazily waiting on (collision case). */
        SeqNum waitStoreSeq = 0;
        /** Its MOB ordinal (derived, like robMobOrd_). */
        Mob::Ordinal waitStoreOrd = Mob::kNoStore;
        bool waitingOnStore = false;
        /** Lazy collision is a true order violation (squash on fix). */
        bool violationSquash = false;

        // Store bookkeeping: an STD records its STA's sequence number
        // (slots can be reused while the pair is still in flight).
        SeqNum pairSeq = 0;
        bool isPairedStd = false;

        bool mispredictedBranch = false;
        /** Sliced pipe sent this load to the wrong bank. */
        bool bankMispredicted = false;
        /** Branch-path history captured when the CHT predicted. */
        std::uint64_t pathAtPredict = 0;
    };

    // --- pipeline stages (called once per cycle) ---
    void resolvePendingCollisions();
    void retireStage();
    void issueStage();
    void renameStage(VecTrace &trace);

    // --- observability ---
    /** Register every component's stats (constructor-time, once). */
    void registerStats();

    /** Close the current interval and append an IntervalSample. */
    void snapshotInterval();

    /** Run the invariant auditor now; throws AuditError on damage. */
    void auditNow();

    /**
     * Record a per-uop lifecycle event if a tracer is attached.
     * Forced inline: the off path must stay two null tests at every
     * site, whatever inlining budget this translation unit leaves.
     */
    [[gnu::always_inline]] void
    traceUop(TraceEvent ev, int slot)
    {
        if (tracer_) {
            tracer_->record(ev, now_, robSeq_[slot], rob_[slot].uop.pc,
                            rob_[slot].uop.cls);
        }
        if (flight_) {
            flight_->record(ev, now_, robSeq_[slot], rob_[slot].uop.pc,
                            rob_[slot].uop.cls);
        }
    }

    /** The "hist.*" distributions as one object (export, snapshot). */
    json::Value histogramsJson() const;

    /** Fill res_.histograms from the telemetry histograms (run end). */
    void exportHistograms();

    /** Reset all seven telemetry histograms (no-op when off). */
    void resetHistograms();

    // --- helpers ---
    int slotOf(SeqNum seq) const
    {
        return static_cast<int>(seq % rob_.size());
    }
    bool inWindow(SeqNum seq) const
    {
        return seq >= headSeq_ && seq < nextSeq_;
    }

    /**
     * A source's @p lane value (robEst_ or robActual_) through its
     * producer link @p link (2 * slot + src): 0 once the producer has
     * retired, or when the source had no in-window producer.
     */
    Cycle
    srcLane(const std::vector<Cycle> &lane, int link) const
    {
        const int p = robProd_[link];
        return p >= 0 ? lane[p] : 0;
    }

    /** Classify the load in @p slot against the MOB, once. */
    void classifyLoad(int slot);

    /** Execute a load: ordering outcome, cache access, HMP wakeup. */
    void executeLoad(int slot);

    /** Dispatch @p slot: execute it, then wake what it opens. */
    void issueEntry(int slot);
    /**
     * Execution proper (the profiler's Execute stage): result timing,
     * the MOB store times and the load's memory access.
     */
    void executeEntry(int slot);
    void countLoadClass(const RobEntry &e);

    /**
     * Earliest cycle at which an issue-stage visit to the Waiting
     * slot could do anything, from the current lanes: the replay
     * stall, both source estimates and the cached ordering gate must
     * have passed before it can issue or burn, and an unclassified
     * load classifies as soon as both sources' data is ready
     * (docs/PERFORMANCE.md, "Event-driven wakeup"). Reads SoA lanes
     * only, never the RobEntry.
     */
    Cycle wakeOf(int slot) const;

    /**
     * The readiness @p slot shows its consumers just moved: recompute
     * the cached wake time of every Waiting consumer linked to it.
     */
    void wakeConsumers(int slot);

    /**
     * A part of the store @p sta_seq just got its time (or the store
     * left the MOB): every younger Waiting load whose cached gate is
     * kCycleNever may now have a finite one, so drop that gate to 0
     * and recompute its wake time; its next visit reads the gate.
     */
    void reopenGates(SeqNum sta_seq);

    /** Link source @p which (0/1) of @p consumer to @p producer. */
    void
    linkConsumer(int producer, int consumer, int which)
    {
        const int link = 2 * consumer + which;
        robProd_[link] = producer;
        consNext_[link] = consHead_[producer];
        consHead_[producer] = link;
    }

    /**
     * Rebuild the waiting list, links, producer and class lanes and
     * wake times (loadState).
     */
    void rebuildWakeState();

    /**
     * Rebuild robMobOrd_ and the loads' derived store ordinals from
     * the sequence numbers (loadState, once the MOB is restored).
     */
    void rebuildMobOrdinals();

    /** Drop a trace-truncated store's STA from the MOB (see .cc). */
    void retireOrphanSta();

    /**
     * Earliest future cycle at which any stage could mutate state,
     * given that the current cycle mutated nothing (cycleActivity_ ==
     * 0): the min over the waiting slots' wake times (minWake_), the
     * ROB head's completion and the fetch-unblock horizon. Returns
     * kCycleNever when no such event exists (a drained or genuinely
     * stuck machine).
     */
    Cycle nextEventCycle() const;

    /** Write-allocate a store's line once STA and STD both executed. */
    void maybeTouchStore(Mob::Ordinal store);

    /** Per-cycle free execution units and memory pipes / banks. */
    struct IssuePorts
    {
        /** Free units per pool, indexed by UnitPool. */
        std::array<int, kNumUnitPools> free{};
        std::array<int, 8> bankFree{};
        std::array<bool, 8> predClaimed{};

        int &pool(UnitPool p) { return free[static_cast<int>(p)]; }
    };

    /**
     * Try to issue a memory uop (load or STA) under the configured
     * bank mode: it issues, burns a pipe slot, or waits.
     */
    void issueMemUop(int slot, IssuePorts &mp);

    /** Bank of an address under the configured interleave. */
    unsigned bankOf(Addr addr) const
    {
        return bankOfAddr(addr, cfg_.mem.l1.lineBytes, cfg_.numBanks);
    }

    MachineConfig cfg_;
    MemoryHierarchy mem_;
    Mob mob_;
    std::unique_ptr<Cht> cht_;
    std::unique_ptr<HitMissPredictor> hmp_;
    std::unique_ptr<BankPredictor> bankPred_;
    std::unique_ptr<BimodalPredictor> barrierCache_;
    std::unique_ptr<StoreSets> storeSets_;
    std::unique_ptr<LoadAddressPredictor> prefetcher_;
    GsharePredictor branchPred_;
    /** Extra load latency of the configured memory pipe (Figure 4). */
    Cycle memPipeExtraLat_ = 0;

    std::vector<RobEntry> rob_; ///< ring, slot = seq % size

    /**
     * SoA hot state, parallel to rob_ (same slot indexing): the six
     * fields the per-cycle stages (issue, retire, wakeup, skip-ahead)
     * read, pulled into dense flat arrays so those loops touch only
     * the bytes they need. Defaults match a
     * fresh RobEntry's former field initialisers; renameStage resets
     * the slot's lane entries alongside the cold record.
     */
    std::vector<SeqNum> robSeq_;
    std::vector<State> robState_;
    std::vector<Cycle> robEst_;      ///< speculative wakeup estimate
    std::vector<Cycle> robActual_;   ///< true data-ready time
    std::vector<Cycle> robComplete_; ///< retirement-ready time
    std::vector<Cycle> robStall_;    ///< replay backoff horizon
    /**
     * Each uop's MOB ordinal (Mob::Ordinal), fixed at rename: the
     * stores renamed before it, or for an STD its STA's. Every MOB
     * query and store update the per-cycle stages make starts from
     * it in O(1). Derived, never serialized: loadState rebuilds it
     * from the sequence numbers once the MOB is restored.
     */
    std::vector<Mob::Ordinal> robMobOrd_;

    /**
     * Producer links, two per slot (index 2 * slot + src, like the
     * consumer links below): the producer's ROB slot while it is in
     * the window, -1 when the source had no in-window producer at
     * rename or once the producer retired. Rename sets a link with
     * the consumer link; retire clears every link on the producer's
     * chain, so a slot's reuse never shows through. visit() and
     * wakeOf() read robEst_/robActual_ through it. Derived, never
     * serialized: loadState rebuilds it (rebuildWakeState).
     */
    std::vector<int> robProd_;

    /** What the issue stage reads of a uop before it issues. */
    struct SlotClass
    {
        UopClass cls = UopClass::IntAlu;
        UnitPool pool = UnitPool::Int;
        /** A load whose ground-truth class is not yet known. */
        bool unclassifiedLoad = false;
    };
    /**
     * Class lanes (derived like robProd_): set at rename from the
     * uop, the flag cleared by classifyLoad(). visit() reads the
     * RobEntry only once a uop issues, replays or reaches its
     * ordering gate.
     */
    std::vector<SlotClass> robClass_;

    /**
     * Event-driven wakeup state, all derived (rebuilt by loadState,
     * never serialized). waitList_ holds the slots in State::Waiting,
     * oldest first; its length is the scheduling-window occupancy.
     * robWake_ caches wakeOf() per Waiting slot as of its rename or
     * last visit; it may be early, never late, because every event
     * that moves a producer's visible readiness recomputes its
     * consumers' entries.
     * robGate_ caches a load's gateHorizon() as of its last visit
     * (0 for other uops); store times only ever leave kCycleNever, so
     * only a kCycleNever gate can go stale late, and reopenGates()
     * clears those when a store part executes.
     * Consumers hang off their producers as intrusive links: link
     * 2 * slot + src sits in producer consHead_[p]'s chain, threaded
     * through consNext_ (-1 ends a chain).
     */
    std::vector<int> waitList_;
    std::vector<Cycle> robWake_;
    std::vector<Cycle> robGate_;
    std::vector<int> consHead_;
    std::vector<int> consNext_;
    /**
     * A lower bound on every Waiting slot's wake time (kCycleNever
     * with none waiting): the issue walk sets it to their minimum, and
     * a wake time cached outside a visit lowers it (setWake). The walk
     * is skipped while it is ahead of now, and nextEventCycle() reads
     * it. Derived like the lanes above; loadState rebuilds it.
     */
    Cycle minWake_ = kCycleNever;

    /** Cache @p w as @p slot's wake time outside the slot's visit. */
    void
    setWake(int slot, Cycle w)
    {
        robWake_[slot] = w;
        minWake_ = std::min(minWake_, w);
    }

    SeqNum headSeq_ = 0;        ///< oldest in-flight seq
    SeqNum nextSeq_ = 0;        ///< next seq to insert
    /** slotOf(headSeq_) and slotOf(nextSeq_), kept without a division
     *  (derived; loadState recomputes them). */
    int headSlot_ = 0;
    int nextSlot_ = 0;
    int poolUsed_ = 0;          ///< allocated rename registers

    std::vector<int> renameTable_;   ///< arch reg -> producer slot
    std::vector<SeqNum> renameSeq_;  ///< arch reg -> producer seq

    std::vector<int> pendingCollision_; ///< load slots awaiting stores

    Cycle now_ = 0;
    /**
     * State mutations performed in the cycle being executed; reset at
     * the top of each advanceTo() iteration. Zero at end of cycle
     * means the machine is frozen until a time threshold is crossed —
     * the precondition for idle-cycle skip-ahead. Scratch state, not
     * snapshotted (always dead at advanceTo() boundaries).
     */
    std::uint64_t cycleActivity_ = 0;
    /** Finite front-end stall horizon (mispredicts, squashes). */
    Cycle fetchBlockedUntil_ = 0;
    /** A mispredicted branch is in flight; fetch stalls until it
     *  resolves (which then extends fetchBlockedUntil_). */
    bool branchPending_ = false;
    SeqNum lastStaSeq_ = 0;
    bool haveLastSta_ = false;
    /** Global branch-path register (taken bits, fetch order). */
    std::uint64_t pathHist_ = 0;
    bool traceDone_ = false;

    SimResult res_;

    // --- observability state ---
    PipelineTracer *tracer_ = nullptr;   ///< not owned; may be null
    FlightRecorder *flight_ = nullptr;   ///< not owned; may be null
    StatsRegistry statsReg_;

    /**
     * Telemetry histograms (owned by statsReg_ under "hist.*"); all
     * null unless cfg_.collectHistograms, so the off path costs one
     * null test per sample site. Deterministic by construction: they
     * record simulated quantities only, never host state. kHistograms
     * lists them once for registration, reset, export and snapshot.
     */
    /** Cycles from load issue to data ready. */
    Log2Histogram *hLoadUse_ = nullptr;
    /** Cycles a wasted issue fired before its data (the wakeup
     *  misprediction gap); the top bucket means the data time was
     *  unknown. */
    Log2Histogram *hReplayDist_ = nullptr;
    Log2Histogram *hOccSched_ = nullptr;  ///< window occupancy / cycle
    Log2Histogram *hOccRob_ = nullptr;    ///< ROB occupancy / cycle
    Log2Histogram *hOccMob_ = nullptr;    ///< MOB occupancy / cycle
    /** CHT saturating-counter value at each prediction. */
    Log2Histogram *hChtConf_ = nullptr;
    /** Hit-miss predictor confidence at each prediction, in percent. */
    Log2Histogram *hHmpConf_ = nullptr;

    /** One telemetry histogram and the member that points at it. */
    struct HistogramSpec
    {
        const char *name; ///< registry name under "hist."
        Log2Histogram *OooCore::*hist;
    };
    static const std::array<HistogramSpec, 7> kHistograms;

    // --- robustness state ---
    FaultInjector *faults_ = nullptr; ///< not owned; may be null
    std::uint64_t auditChecks_ = 0;   ///< audits performed ("audit.checks")
    std::uint64_t auditCountdown_ = 0;

    /**
     * Deterministic kernel work counters, handed to the profiler at
     * the end of each advanceTo() while it is enabled (the "counters"
     * member of the --profile block) and zeroed there either way.
     */
    std::uint64_t issueVisits_ = 0;   ///< waiting slots visited
    std::uint64_t wakeResets_ = 0;    ///< cached wake times recomputed
    std::uint64_t steppedCycles_ = 0; ///< cycles run, not skipped

    /**
     * Interval-series bookkeeping: totals at the last snapshot (for
     * deltas) and occupancy accumulators over the open interval.
     */
    struct IntervalCursor
    {
        Cycle cycle = 0;
        std::uint64_t uops = 0;
        std::uint64_t wasted = 0;
        std::uint64_t loads = 0;
        std::uint64_t classified = 0;
        std::uint64_t chtMis = 0;
        std::uint64_t hmpMis = 0;
        std::uint64_t bankMis = 0;
        std::uint64_t occSched = 0; ///< sum of window occupancy per cycle
        std::uint64_t occRob = 0;   ///< sum of ROB entries per cycle
        std::uint64_t countdown = 0;
    } iv_;
};

} // namespace lrs

#endif // LRS_CORE_CORE_HH
