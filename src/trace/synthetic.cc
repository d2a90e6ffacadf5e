#include "trace/synthetic.hh"

#include <algorithm>
#include <cassert>

#include "common/random.hh"

namespace lrs
{

namespace
{

/** Base linear addresses of the synthetic address-space regions. */
constexpr Addr kCodeBase = 0x00400000;
constexpr Addr kGlobalBase = 0x00800000;
constexpr Addr kArrayBase = 0x10000000;
constexpr Addr kAliasBase = 0x20000000;
constexpr Addr kChaseBase = 0x40000000;
constexpr Addr kStackTop = 0x7fff0000;

/** PC space reserved per static construct. */
constexpr Addr kFuncPcStride = 0x2000;
constexpr Addr kLoopPcStride = 0x100;
constexpr Addr kChasePcStride = 0x100;
constexpr Addr kGlobalPcStride = 0x40;
constexpr Addr kAliasPcStride = 0x80;

/** Static shape of one synthetic function. */
struct FuncShape
{
    Addr pcBase;
    int numArgs;
    int numSaves;
    int numBodyBlocks;
    bool regArgs; // fastcall: arguments in registers, no pushes
    std::uint64_t frameBytes;
};

/** Static shape of one strided array loop. */
struct LoopShape
{
    Addr pcBase;
    Addr arrayBase;
    Addr storeBase;       // second array, used when hasStore
    std::uint64_t bytes;  // footprint of each array
    std::uint32_t stride;
    bool hasStore;
    bool indirectStore;   // STA address depends on the loaded value
    std::uint64_t iters;  // nominal trip count (stable per site, so
                          // the loop-exit branch is learnable)
    std::uint64_t pos = 0; // persistent walking offset (wraps)
};

/** Static shape of one pointer-chase region. */
struct ChaseShape
{
    Addr pcBase;
    Addr regionBase;
    std::uint64_t bytes;
    std::uint64_t len; // nominal run length (stable per site)
};

/**
 * Static shape of one SPOILER-style 4K-alias storm site: a store
 * followed by a fan of loads whose addresses share the store's page
 * offset, all but a few on different pages.
 */
struct AliasShape
{
    Addr pcBase;
    Addr storeAddr;
    std::uint64_t bursts = 0;
};

/** Static shape of one global variable access site. */
struct GlobalShape
{
    Addr pcBase;
    Addr addr;
    bool rmw;             // has a store between the two loads
    bool pathCorr = false; // collision decided by a preceding branch
    bool lateAddr = false; // store address resolves after its data
    std::uint64_t uses = 0;
};

/**
 * The generator: builds static shapes, then emits the dynamic stream.
 */
class Generator
{
  public:
    explicit Generator(const TraceParams &p)
        : p_(p), shapeRng_(p.seed * 2654435761u + 17),
          rng_(p.seed * 0x9e3779b97f4a7c15ULL + 3)
    {
        buildShapes();
    }

    std::unique_ptr<VecTrace>
    run()
    {
        sp_ = kStackTop;
        // Normalise mix weights into a cumulative distribution. The
        // adversarial wAlias construct sits LAST so that traces with
        // wAlias == 0 draw identical picks to before it existed
        // (adding 0.0 changes neither wsum nor any threshold).
        const double wsum = p_.wCall + p_.wArrayLoop + p_.wChase +
                            p_.wGlobal + p_.wAlias;
        assert(wsum > 0.0);
        std::uint64_t picks = 0;
        while (out_.size() < p_.length) {
            // Programs execute in phases: only a sliding window of
            // the static loops/chases is active at a time, and a
            // chosen construct repeats in a burst. Both give the
            // temporal locality real cache hit rates come from.
            const std::size_t phase = picks / 96;
            ++picks;
            const double r = rng_.uniform() * wsum;
            const auto burst_len = rng_.burst(0.6, 6);
            if (r < p_.wCall) {
                emitCall(pickFunc(), 0);
            } else if (r < p_.wCall + p_.wArrayLoop) {
                if (!streamLoops_.empty() &&
                    rng_.chance(p_.streamingFrac)) {
                    // Streaming sweeps are rare relative to hot loops
                    // and never burst — they are pure cache pollution.
                    emitLoop(streamLoops_[streamRr_++ %
                                          streamLoops_.size()]);
                } else {
                    const std::size_t active = 4;
                    LoopShape &l =
                        loops_[(phase + rng_.below(active)) %
                               loops_.size()];
                    for (std::uint64_t b = 0;
                         b < burst_len && out_.size() < p_.length; ++b)
                        emitLoop(l);
                }
            } else if (r < p_.wCall + p_.wArrayLoop + p_.wChase) {
                ChaseShape &c =
                    chases_[(phase / 4 + rng_.below(2)) %
                            chases_.size()];
                for (std::uint64_t b = 0;
                     b < burst_len && out_.size() < p_.length; ++b)
                    emitChase(c);
            } else if (r < p_.wCall + p_.wArrayLoop + p_.wChase +
                               p_.wGlobal ||
                       aliasSites_.empty()) {
                emitGlobal(globals_[(phase + rng_.below(8)) %
                                    globals_.size()]);
            } else {
                AliasShape &s =
                    aliasSites_[(phase + rng_.below(4)) %
                                aliasSites_.size()];
                for (std::uint64_t b = 0;
                     b < burst_len && out_.size() < p_.length; ++b)
                    emitAliasStorm(s);
            }
        }
        return out_.finish(p_.name);
    }

  private:
    void
    buildShapes()
    {
        funcs_.reserve(p_.numFunctions);
        for (int f = 0; f < p_.numFunctions; ++f) {
            FuncShape fs;
            fs.pcBase = kCodeBase + f * kFuncPcStride;
            fs.numArgs = static_cast<int>(
                shapeRng_.between(p_.minArgs, p_.maxArgs));
            fs.numSaves = static_cast<int>(
                shapeRng_.between(p_.minSaves, p_.maxSaves));
            fs.numBodyBlocks = static_cast<int>(
                shapeRng_.between(p_.minBodyBlocks, p_.maxBodyBlocks));
            fs.regArgs = shapeRng_.chance(p_.regArgsFrac);
            // Frames are aligned to the bank-interleave period (two
            // 64-byte banks), as real ABIs align frames; stack slots
            // then map to per-PC-stable banks.
            fs.frameBytes =
                (8 * (fs.numArgs + fs.numSaves + 8) + 127) & ~127ull;
            funcs_.push_back(fs);
        }

        Addr loop_pc = kCodeBase + 0x100000;
        Addr arr = kArrayBase;
        const int num_stream =
            p_.streamingFrac > 0.0 ? std::max(1, p_.numLoops / 6) : 0;
        loops_.reserve(p_.numLoops);
        streamLoops_.reserve(num_stream);
        for (int l = 0; l < p_.numLoops + num_stream; ++l) {
            const bool streaming = l >= p_.numLoops;
            LoopShape ls;
            ls.pcBase = loop_pc + l * kLoopPcStride;
            if (streaming) {
                // Streaming loop: new line every access.
                ls.bytes = p_.streamingBytes;
                ls.stride = 64;
            } else {
                ls.bytes = shapeRng_.between(p_.minArrayBytes,
                                             p_.maxArrayBytes);
                ls.bytes =
                    std::max<std::uint64_t>(256, ls.bytes & ~63ull);
                ls.stride =
                    p_.strides[shapeRng_.below(p_.strides.size())];
            }
            ls.hasStore = shapeRng_.chance(p_.loopStoreProb);
            ls.indirectStore = shapeRng_.chance(p_.indirectStoreFrac);
            if (!streaming && l == 0 && p_.indirectStoreFrac > 0.0) {
                // Guarantee one indirect-store loop per trace:
                // every real program has stores through computed
                // pointers, and they are what stalls the Traditional
                // scheme.
                ls.hasStore = true;
                ls.indirectStore = true;
            }
            ls.iters = shapeRng_.between(p_.minIters, p_.maxIters);
            // Line-aligned random offsets spread the regions across
            // cache sets; page-aligned bases would alias into the
            // same few sets and fabricate conflict misses.
            ls.arrayBase = arr + shapeRng_.below(1024) * 64;
            arr += ((ls.bytes + 0xffff) & ~0xffffull) + 0x10000;
            if (shapeRng_.chance(0.75)) {
                // In-place update (a[i] = f(a[i])): shares the lines
                // the load just touched, keeping the footprint honest.
                ls.storeBase = ls.arrayBase;
            } else {
                ls.storeBase = arr + shapeRng_.below(1024) * 64;
                arr += ((ls.bytes + 0xffff) & ~0xffffull) + 0x10000;
            }
            if (streaming)
                streamLoops_.push_back(ls);
            else
                loops_.push_back(ls);
        }

        Addr chase_pc = kCodeBase + 0x180000;
        chases_.reserve(p_.numChases);
        for (int c = 0; c < p_.numChases; ++c) {
            ChaseShape cs;
            cs.pcBase = chase_pc + c * kChasePcStride;
            // chaseFootprint is the AGGREGATE irregular working set;
            // split it across the chase sites.
            cs.bytes = std::max<std::uint64_t>(
                4096, p_.chaseFootprint /
                          static_cast<unsigned>(p_.numChases));
            cs.regionBase = kChaseBase + c * ((cs.bytes + 0xffff) * 2) +
                            shapeRng_.below(1024) * 64;
            cs.len = shapeRng_.between(p_.minChaseLen, p_.maxChaseLen);
            chases_.push_back(cs);
        }

        Addr global_pc = kCodeBase + 0x1c0000;
        globals_.reserve(p_.numGlobals);
        for (int g = 0; g < p_.numGlobals; ++g) {
            GlobalShape gs;
            gs.pcBase = global_pc + g * kGlobalPcStride;
            gs.addr = kGlobalBase + g * 64; // one line each, no aliasing
            gs.rmw = shapeRng_.chance(p_.globalRmwFrac);
            gs.pathCorr =
                gs.rmw && shapeRng_.chance(p_.pathCorrGlobalFrac);
            gs.lateAddr = gs.rmw && !gs.pathCorr &&
                          shapeRng_.chance(p_.lateAddrGlobalFrac);
            globals_.push_back(gs);
        }

        // Alias-storm sites come last and only exist when requested:
        // traces with wAlias == 0 leave the shape RNG stream exactly
        // as it was, keeping every pre-existing trace byte-identical.
        if (p_.wAlias > 0.0 && p_.numAliasSites > 0) {
            Addr alias_pc = kCodeBase + 0x200000;
            aliasSites_.reserve(p_.numAliasSites);
            for (int s = 0; s < p_.numAliasSites; ++s) {
                AliasShape as;
                as.pcBase = alias_pc + s * kAliasPcStride;
                // 8-byte-aligned page offset, different per site; 2MB
                // spacing keeps the fan of +4K pages site-private.
                as.storeAddr = kAliasBase + Addr(s) * 0x200000 +
                               shapeRng_.below(512) * 8;
                aliasSites_.push_back(as);
            }
        }
    }

    const FuncShape &pickFunc() { return funcs_[rng_.below(funcs_.size())]; }

    // ----- uop emission helpers -----

    /** Append @p u; a construct that runs past the length is cut. */
    void
    emit(const Uop &u)
    {
        if (out_.size() < p_.length)
            out_.push(u);
    }

    void
    emitAlu(Addr pc, int dst, int s1, int s2 = -1)
    {
        Uop u;
        u.pc = pc;
        u.dst = static_cast<std::int8_t>(dst);
        u.src1 = static_cast<std::int8_t>(s1);
        u.src2 = static_cast<std::int8_t>(s2);
        if (rng_.chance(p_.fpFrac)) {
            u.cls = UopClass::FpAlu;
            u.dst = static_cast<std::int8_t>(
                kNumIntRegs + (dst % kNumFpRegs));
        } else if (rng_.chance(p_.complexFrac)) {
            u.cls = UopClass::Complex;
        } else {
            u.cls = UopClass::IntAlu;
        }
        emit(u);
    }

    void
    emitIntOp(Addr pc, int dst, int s1, int s2 = -1)
    {
        Uop u;
        u.pc = pc;
        u.cls = UopClass::IntAlu;
        u.dst = static_cast<std::int8_t>(dst);
        u.src1 = static_cast<std::int8_t>(s1);
        u.src2 = static_cast<std::int8_t>(s2);
        emit(u);
    }

    void
    emitLoad(Addr pc, int dst, Addr addr, std::uint8_t size = 8,
             int addr_src = kStackPtrReg)
    {
        Uop u;
        u.pc = pc;
        u.cls = UopClass::Load;
        u.dst = static_cast<std::int8_t>(dst);
        u.src1 = static_cast<std::int8_t>(addr_src);
        u.addr = addr;
        u.memSize = size;
        emit(u);
    }

    void
    emitStore(Addr pc, Addr addr, int data_src, std::uint8_t size = 8,
              int addr_src = kStackPtrReg)
    {
        Uop sta;
        sta.pc = pc;
        sta.cls = UopClass::StoreAddr;
        sta.src1 = static_cast<std::int8_t>(addr_src);
        sta.addr = addr;
        sta.memSize = size;
        emit(sta);

        Uop std_uop;
        std_uop.pc = pc + 1;
        std_uop.cls = UopClass::StoreData;
        std_uop.src1 = static_cast<std::int8_t>(data_src);
        emit(std_uop);
    }

    void
    emitBranch(Addr pc, bool taken, int src = -1)
    {
        Uop u;
        u.pc = pc;
        u.cls = UopClass::Branch;
        u.src1 = static_cast<std::int8_t>(src);
        u.taken = taken;
        emit(u);
    }

    // ----- construct emission -----

    /**
     * Call block: argument pushes, call, prologue saves, parameter
     * loads (collide with the pushes: distance numSaves+numArgs-a
     * stores), body blocks, epilogue restores (collide with the saves
     * at body-length distance), return.
     */
    void
    emitCall(const FuncShape &f, int depth)
    {
        const Addr pcb = f.pcBase;
        // Caller-side argument passing: memory pushes (creating the
        // classic push / parameter-load collision pairs) or registers.
        if (!f.regArgs) {
            for (int a = 0; a < f.numArgs; ++a) {
                const Addr slot = sp_ - 8 * (a + 1);
                emitStore(pcb + 0x10 + 4 * a, slot, 1 + (a % 6));
            }
        } else {
            for (int a = 0; a < f.numArgs; ++a)
                emitIntOp(pcb + 0x10 + 4 * a, 2 + a, 1 + (a % 6));
        }
        emitIntOp(pcb + 0x30, kStackPtrReg, kStackPtrReg); // SP adjust
        emitBranch(pcb + 0x32, true);                      // call
        const Addr caller_sp = sp_;
        sp_ -= f.frameBytes;

        // Prologue: save callee-saved registers below the frame.
        for (int s = 0; s < f.numSaves; ++s)
            emitStore(pcb + 0x40 + 4 * s, sp_ + 8 * s, 2 + s);

        // Parameter loads from the caller's push slots.
        if (!f.regArgs) {
            for (int a = 0; a < f.numArgs; ++a) {
                const Addr slot = caller_sp - 8 * (a + 1);
                emitLoad(pcb + 0x60 + 4 * a, 2 + a, slot);
            }
        }

        // Body blocks.
        for (int b = 0; b < f.numBodyBlocks && out_.size() < p_.length;
             ++b) {
            emitBodyBlock(pcb + 0x100 + 0x40 * b, f, depth);
        }

        // Epilogue: restore the saved registers.
        for (int s = 0; s < f.numSaves; ++s)
            emitLoad(pcb + 0x80 + 4 * s, 2 + s, sp_ + 8 * s);

        sp_ += f.frameBytes;
        emitIntOp(pcb + 0x90, kStackPtrReg, kStackPtrReg); // SP restore
        emitBranch(pcb + 0x92, true);                      // return
    }

    /** One function body block: ALU work + optional branch/call/etc. */
    void
    emitBodyBlock(Addr pcb, const FuncShape &f, int depth)
    {
        // Short dependent ALU chain over the parameter registers.
        int src = 2;
        for (int i = 0; i < 3; ++i) {
            emitAlu(pcb + 2 * i, 8 + i, src, 2 + i % 3);
            src = 8 + i;
        }
        // Occasional local-variable spill/refill (short-distance
        // collision pair at a recurrent PC).
        if (rng_.chance(p_.spillFrac)) {
            // Spill: SP-relative address (STA resolves fast) but the
            // data comes off a multi-cycle computation (STD lags) —
            // the refill below is the classic wrong load-STD ordering
            // candidate, and under the exclusive scheme it may bypass
            // slower unrelated stores.
            Uop cx;
            cx.pc = pcb + 0x0e;
            cx.cls = UopClass::Complex;
            cx.dst = 12;
            cx.src1 = static_cast<std::int8_t>(src);
            emit(cx);
            const Addr local = sp_ + 8 * (f.numSaves + 1);
            emitStore(pcb + 0x10, local, 12);
            emitAlu(pcb + 0x14, 9, src);
            emitAlu(pcb + 0x16, 10, 9);
            emitLoad(pcb + 0x18, 11, local);
        } else {
            emitAlu(pcb + 0x14, 9, src);
            emitAlu(pcb + 0x16, 10, 9);
            emitAlu(pcb + 0x18, 11, 10);
        }

        if (rng_.chance(p_.dataBranchProb))
            emitBranch(pcb + 0x20, rng_.chance(p_.dataBranchBias), 11);

        if (depth < p_.maxCallDepth && rng_.chance(p_.nestedCallProb) &&
            out_.size() < p_.length) {
            emitCall(pickFunc(), depth + 1);
        }
    }

    /**
     * Strided array loop: per iteration a load, a dependent ALU chain,
     * optionally a store to a second array, and a (mostly taken) loop
     * branch. Loads conflict with in-flight stores but do not collide.
     */
    void
    emitLoop(LoopShape &l)
    {
        // Mostly the site's nominal trip count (so the exit branch is
        // predictable), with occasional +/-1 jitter.
        std::uint64_t iters = l.iters;
        if (rng_.chance(0.2))
            iters = std::max<std::uint64_t>(2, iters + rng_.below(3)) - 1;
        // Hot (non-streaming) loops usually re-walk the same data —
        // that temporal reuse is what keeps real L1 hit rates >95%.
        // Streaming loops keep sweeping forward by design.
        if (l.stride != 64 && rng_.chance(0.7))
            l.pos = 0;
        for (std::uint64_t i = 0;
             i < iters && out_.size() < p_.length; ++i) {
            const Addr a = l.arrayBase + l.pos;
            const auto sz = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(8, l.stride));
            emitLoad(l.pcBase + 0x00, 4, a, sz, 5);
            // Most loop bodies read a second operand (b[i] in
            // a[i] = f(a[i], b[i])); memory ops are roughly a third
            // of real IA-32 uop streams and the added port pressure
            // is what keeps STAs queued behind loads.
            if (l.hasStore)
                emitLoad(l.pcBase + 0x04, 3, l.storeBase + l.pos, sz, 5);
            int src = 4;
            for (int k = 0; k < p_.loopAluOps; ++k) {
                emitAlu(l.pcBase + 0x08 + 2 * k, 6 + k % 2, src);
                src = 6 + k % 2;
            }
            if (l.hasStore) {
                // Indirect stores compute their address from the
                // loaded value, so the STA resolves late and younger
                // loads see an unknown-address store.
                const int addr_src = l.indirectStore ? src : 5;
                emitStore(l.pcBase + 0x20, l.storeBase + l.pos, src,
                          static_cast<std::uint8_t>(
                              std::min<std::uint32_t>(8, l.stride)),
                          addr_src);
            }
            // Loops touch shared state too (counters, accumulators):
            // these embedded RMW sites overlap the loop's in-flight
            // stores, giving the exclusive predictor loads that can
            // bypass slow unrelated stores.
            if (rng_.chance(0.06))
                emitGlobal(globals_[rng_.below(globals_.size())]);
            // Induction update and loop branch.
            emitIntOp(l.pcBase + 0x30, 5, 5);
            emitBranch(l.pcBase + 0x32, i + 1 < iters, 5);
            l.pos += l.stride;
            if (l.pos + 8 > l.bytes)
                l.pos = 0;
        }
    }

    /**
     * Pointer chase: serialised loads to pseudo-random lines of the
     * region (each address depends on the previous load's result).
     * Mostly misses when the region exceeds the cache.
     */
    void
    emitChase(const ChaseShape &c)
    {
        std::uint64_t len = c.len;
        if (rng_.chance(0.2))
            len = std::max<std::uint64_t>(2, len + rng_.below(3)) - 1;
        const std::uint64_t lines = c.bytes / 64;
        const bool serial = rng_.chance(p_.chaseSerialFrac);
        for (std::uint64_t i = 0;
             i < len && out_.size() < p_.length; ++i) {
            const Addr a = c.regionBase + rng_.below(lines) * 64;
            if (serial) {
                // True pointer chase: next address depends on the
                // previous load's value; misses cannot overlap.
                emitLoad(c.pcBase + 0x00, 5, a, 8, 5);
            } else {
                // Array-of-pointers: index advances independently, so
                // the misses overlap (memory-level parallelism).
                emitIntOp(c.pcBase + 0x04, 7, 7);
                emitLoad(c.pcBase + 0x00, 5, a, 8, 7);
            }
            emitAlu(c.pcBase + 0x08, 6, 5);
            // GC-style mark: flag the visited node through the just-
            // loaded pointer (late STA, unknown-address store for
            // every following load). Guarded so traces that never set
            // chaseStoreProb leave the RNG stream untouched.
            if (p_.chaseStoreProb > 0.0 &&
                rng_.chance(p_.chaseStoreProb)) {
                emitStore(c.pcBase + 0x0c, a, 6, 8, 5);
            }
        }
        emitBranch(c.pcBase + 0x10, true, 6);
    }

    /**
     * SPOILER-style 4K-alias storm (docs/TRACES.md): a store with
     * lagging data, then a fan of loads at the same page offset on
     * different pages. Full-address disambiguation proves the fan
     * independent; partial-address disambiguation
     * (MachineConfig::mobPartialBits) sees the page offset match and
     * must conservatively collide — exactly the hazard SPOILER
     * measures. A fixed leading slice of the fan really does collide
     * (same full address), so predictors see both behaviours at
     * stable PCs; aliasPhaseLen inverts the slice in lockstep to
     * yank CHT training mid-run.
     */
    void
    emitAliasStorm(AliasShape &s)
    {
        const bool invert =
            p_.aliasPhaseLen > 0 &&
            ((s.bursts / p_.aliasPhaseLen) % 2 == 1);
        ++s.bursts;
        // The stored value comes off a multi-cycle chain: the STA
        // resolves immediately, the STD lags — colliding loads pay
        // the real wrong-ordering penalty.
        Uop cx;
        cx.pc = s.pcBase;
        cx.cls = UopClass::Complex;
        cx.dst = 9;
        cx.src1 = 7;
        emit(cx);
        emitStore(s.pcBase + 0x02, s.storeAddr, 9, 8, 0);
        const int true_slots = static_cast<int>(
            p_.aliasFanout * p_.aliasTrueFrac + 0.5);
        for (int i = 0;
             i < p_.aliasFanout && out_.size() < p_.length; ++i) {
            const bool collides = (i < true_slots) != invert;
            const Addr a = collides
                               ? s.storeAddr
                               : s.storeAddr + (Addr(i) + 1) * 4096;
            emitLoad(s.pcBase + 0x10 + 4 * i, 6, a, 8, 0);
            emitAlu(s.pcBase + 0x12 + 4 * i, 8, 6);
        }
        emitBranch(s.pcBase + 0x60, true, 8);
    }

    /**
     * Global read-modify-write site. The second load of an RMW site in
     * its store phase collides with the interposed store (distance 1
     * store) at the same static PC every time — the recurrent collider
     * the CHT keys on. A nonzero globalPhaseLen makes the site flip
     * between store phase and read-only phase, exercising predictors'
     * ability to track colliding -> non-colliding behaviour changes.
     */
    void
    emitGlobal(GlobalShape &g)
    {
        ++g.uses;
        bool store_phase =
            p_.globalPhaseLen == 0 ||
            ((g.uses / p_.globalPhaseLen) % 2 == 0);
        if (g.pathCorr) {
            // The branch outcome decides whether the site stores:
            // collision behaviour of the reload below is perfectly
            // correlated with the path, not with the reload's PC.
            store_phase = rng_.chance(0.55);
            emitBranch(g.pcBase + 0x02, store_phase, 6);
        }

        emitLoad(g.pcBase + 0x00, 6, g.addr, 8, 0);
        emitAlu(g.pcBase + 0x08, 7, 6);
        if (g.rmw && store_phase) {
            // The new value comes from a longer computation than the
            // address (a multiply/divide), so the STD lags the STA —
            // the P6 wrong load-STD ordering case the Postponing
            // scheme targets.
            Uop cx;
            cx.pc = g.pcBase + 0x0a;
            cx.cls = UopClass::Complex;
            cx.dst = 9;
            cx.src1 = 7;
            emit(cx);
            Uop cx2 = cx;
            cx2.pc = g.pcBase + 0x0b;
            cx2.src1 = 9;
            emit(cx2);
            if (g.lateAddr) {
                // Indexed store: the address comes off the multi-
                // cycle chain while the data is ready immediately —
                // the reload can only be satisfied early by
                // speculative value forwarding (distance pairing).
                emitStore(g.pcBase + 0x0c, g.addr, 6, 8, 9);
            } else {
                // The store address is a direct global reference (STA
                // resolves immediately) while the data is still being
                // computed — under Traditional ordering the reload
                // below passes the STA check and collides with the
                // pending STD.
                emitStore(g.pcBase + 0x0c, g.addr, 9, 8, 0);
            }
            if (rng_.chance(p_.globalReloadProb)) {
                emitAlu(g.pcBase + 0x10, 8, 7);
                emitLoad(g.pcBase + 0x14, 10, g.addr, 8, 0);
                emitAlu(g.pcBase + 0x18, 11, 10);
                // The reloaded value is consumed by control flow, so
                // delaying this load delays everything downstream.
                if (rng_.chance(0.4)) {
                    emitBranch(g.pcBase + 0x1c,
                               rng_.chance(p_.dataBranchBias), 11);
                }
            }
        } else {
            emitAlu(g.pcBase + 0x10, 8, 7);
            emitAlu(g.pcBase + 0x12, 9, 8);
        }
    }

    const TraceParams &p_;
    Rng shapeRng_;
    Rng rng_;
    TraceBuilder out_{p_.length};
    Addr sp_ = kStackTop;

    std::vector<FuncShape> funcs_;
    std::vector<LoopShape> loops_;
    std::vector<LoopShape> streamLoops_;
    std::size_t streamRr_ = 0;
    std::vector<ChaseShape> chases_;
    std::vector<GlobalShape> globals_;
    std::vector<AliasShape> aliasSites_;
};

} // namespace

std::unique_ptr<VecTrace>
generateTrace(const TraceParams &params)
{
    return Generator(params).run();
}

const char *
traceGroupName(TraceGroup g)
{
    switch (g) {
      case TraceGroup::SpecInt95: return "ISPEC";
      case TraceGroup::SpecFP95:  return "SpecFP";
      case TraceGroup::SysmarkNT: return "NT";
      case TraceGroup::Sysmark95: return "Sys95";
      case TraceGroup::Games:     return "GAME";
      case TraceGroup::Java:      return "JAVA";
      case TraceGroup::TPC:       return "TPC";
      case TraceGroup::Adversarial: return "ADV";
      case TraceGroup::External:  return "EXT";
    }
    return "?";
}

} // namespace lrs
