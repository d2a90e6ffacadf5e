/**
 * @file
 * Hostile-input tests for the ChampSim trace adapter
 * (trace/champsim_reader.hh, docs/TRACES.md): decode correctness,
 * strict/recovery discipline, resource caps, the every-byte
 * truncation sweep, the random-corruption sweep, a structure-aware
 * corpus-mutation fuzz pass, and the snapshot content-identity
 * contract. The committed golden fixture (tests/data/golden.champsim)
 * pins the byte-level behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "common/crc.hh"
#include "common/diag.hh"
#include "core/core.hh"
#include "core/snapshot.hh"
#include "trace/champsim_reader.hh"
#include "trace/library.hh"
#include "tmp_path.hh"
#include "trace_uops.hh"

namespace lrs
{
namespace
{

#ifndef LRS_TEST_DATA_DIR
#define LRS_TEST_DATA_DIR "tests/data"
#endif

const std::string kGolden =
    std::string(LRS_TEST_DATA_DIR) + "/golden.champsim";

/** Builder for one 64-byte input_instr record. */
struct Rec
{
    std::uint64_t ip = 0x400000;
    std::uint8_t isBranch = 0;
    std::uint8_t taken = 0;
    std::uint8_t dreg[2] = {0, 0};
    std::uint8_t sreg[4] = {0, 0, 0, 0};
    std::uint64_t dmem[2] = {0, 0};
    std::uint64_t smem[4] = {0, 0, 0, 0};

    void appendTo(std::string &out) const
    {
        std::uint8_t b[kChampSimRecordBytes] = {};
        std::memcpy(b + 0, &ip, 8);
        b[8] = isBranch;
        b[9] = taken;
        std::memcpy(b + 10, dreg, 2);
        std::memcpy(b + 12, sreg, 4);
        std::memcpy(b + 16, dmem, 16);
        std::memcpy(b + 32, smem, 32);
        out.append(reinterpret_cast<const char *>(b),
                   kChampSimRecordBytes);
    }
};

std::string
bytesOf(const std::vector<Rec> &recs)
{
    std::string s;
    for (const Rec &r : recs)
        r.appendTo(s);
    return s;
}

std::unique_ptr<VecTrace>
read(const std::string &bytes, ChampSimReadOptions opts = {},
     TraceReadStats *stats = nullptr, ChampSimTraceInfo *info = nullptr)
{
    std::istringstream is(bytes);
    return readChampSimTrace(is, "t", opts, stats, info);
}

DiagCode
codeOf(const TraceError &e)
{
    return e.diags().empty() ? DiagCode::Internal : e.diags()[0].code;
}

/** Expect a TraceError carrying @p code. */
#define EXPECT_TRACE_ERROR(expr, wanted)                               \
    do {                                                               \
        try {                                                          \
            (void)(expr);                                              \
            FAIL() << "expected TraceError "                           \
                   << diagCodeName(wanted);                            \
        } catch (const TraceError &e) {                                \
            EXPECT_EQ(codeOf(e), wanted) << e.what();                  \
        }                                                              \
    } while (0)

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------- decode

TEST(ChampSimDecode, MixedRecordOrderAndPcSharing)
{
    Rec r;
    r.ip = 0x1234;
    r.isBranch = 1;
    r.taken = 1;
    r.smem[0] = 0x8000;
    r.dmem[0] = 0x9000;
    r.dreg[0] = 3;
    r.sreg[0] = 4;
    r.sreg[1] = 5;
    const auto t = read(bytesOf({r}));
    ASSERT_EQ(t->size(), 4u); // Load, STA, STD, Branch
    const auto u = decodeAll(*t);
    const Uop &ld = u[0];
    const Uop &sta = u[1];
    const Uop &std_ = u[2];
    const Uop &br = u[3];
    EXPECT_EQ(ld.cls, UopClass::Load);
    EXPECT_EQ(ld.addr, 0x8000u);
    EXPECT_EQ(sta.cls, UopClass::StoreAddr);
    EXPECT_EQ(sta.addr, 0x9000u);
    EXPECT_EQ(std_.cls, UopClass::StoreData);
    EXPECT_EQ(br.cls, UopClass::Branch);
    EXPECT_TRUE(br.taken);
    // Instruction-granularity predictor indexing: one pc for all.
    for (const Uop &x : u)
        EXPECT_EQ(x.pc, 0x1234u);
}

TEST(ChampSimDecode, StaStdAlwaysAdjacent)
{
    Rec r;
    r.dmem[0] = 0x9000;
    r.dmem[1] = 0xa000;
    r.smem[0] = 0x8000;
    const auto u = decodeAll(*read(bytesOf({r})));
    for (std::size_t i = 0; i < u.size(); ++i) {
        if (u[i].cls == UopClass::StoreAddr) {
            ASSERT_LT(i + 1, u.size());
            EXPECT_EQ(u[i + 1].cls, UopClass::StoreData);
        }
    }
}

TEST(ChampSimDecode, RegisterMapping)
{
    // Stack pointer keeps its identity; 0 means none; nothing else
    // may alias the stack-pointer slot.
    Rec sp;
    sp.sreg[0] = 6; // REG_STACK_POINTER in the Pin encoding
    sp.dreg[0] = 1;
    const auto t1 = read(bytesOf({sp}));
    ASSERT_EQ(t1->size(), 1u);
    EXPECT_EQ(decodeAll(*t1)[0].src1, kStackPtrReg);

    for (unsigned raw = 1; raw < 64; ++raw) {
        if (raw == 6)
            continue;
        Rec r;
        r.sreg[0] = static_cast<std::uint8_t>(raw);
        const auto t = read(bytesOf({r}));
        ASSERT_EQ(t->size(), 1u);
        EXPECT_NE(decodeAll(*t)[0].src1, kStackPtrReg) << "raw " << raw;
        EXPECT_GE(decodeAll(*t)[0].src1, 0) << "raw " << raw;
    }

    Rec none; // all-zero registers: no operands
    const auto t0 = read(bytesOf({none}));
    ASSERT_EQ(t0->size(), 1u);
    EXPECT_EQ(decodeAll(*t0)[0].src1, -1);
    EXPECT_EQ(decodeAll(*t0)[0].dst, -1);
}

TEST(ChampSimDecode, HighRegistersRouteToFp)
{
    Rec r;
    r.sreg[0] = 40; // vector/x87 state in the Pin encoding
    r.dreg[0] = 41;
    const auto t = read(bytesOf({r}));
    ASSERT_EQ(t->size(), 1u);
    EXPECT_EQ(decodeAll(*t)[0].cls, UopClass::FpAlu);
    EXPECT_GE(decodeAll(*t)[0].dst, static_cast<std::int8_t>(kNumIntRegs));
    EXPECT_LT(decodeAll(*t)[0].dst,
              static_cast<std::int8_t>(kNumIntRegs + kNumFpRegs));
}

TEST(ChampSimDecode, UopBoundPerRecord)
{
    // Worst case: 4 loads + 2 stores (STA+STD each) + branch = 9.
    Rec r;
    r.isBranch = 1;
    for (int i = 0; i < 4; ++i)
        r.smem[i] = 0x1000 + 8 * static_cast<unsigned>(i);
    for (int j = 0; j < 2; ++j)
        r.dmem[j] = 0x2000 + 8 * static_cast<unsigned>(j);
    const auto t = read(bytesOf({r}));
    EXPECT_EQ(t->size(), 9u);
}

// ---------------------------------------------------------- strict mode

TEST(ChampSimStrict, RejectsEachImplausibility)
{
    Rec ok;
    ok.smem[0] = 0x8000;

    Rec zero_ip = ok;
    zero_ip.ip = 0;
    EXPECT_TRACE_ERROR(read(bytesOf({ok, zero_ip})),
                       DiagCode::TraceBadRecord);

    Rec bad_branch = ok;
    bad_branch.isBranch = 7;
    EXPECT_TRACE_ERROR(read(bytesOf({bad_branch})),
                       DiagCode::TraceBadRecord);

    Rec taken_nonbranch = ok;
    taken_nonbranch.taken = 1;
    EXPECT_TRACE_ERROR(read(bytesOf({taken_nonbranch})),
                       DiagCode::TraceBadRecord);

    Rec allones = ok;
    allones.smem[2] = ~std::uint64_t(0);
    EXPECT_TRACE_ERROR(read(bytesOf({allones})),
                       DiagCode::TraceBadRecord);
}

TEST(ChampSimStrict, ErrorNamesRecordAndByteOffset)
{
    Rec ok;
    ok.smem[0] = 0x8000;
    Rec bad = ok;
    bad.isBranch = 9;
    try {
        read(bytesOf({ok, ok, ok, bad}));
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("record 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("byte offset 192"), std::string::npos)
            << msg;
    }
}

TEST(ChampSimStrict, TornTail)
{
    Rec ok;
    ok.smem[0] = 0x8000;
    std::string bytes = bytesOf({ok, ok});
    bytes.resize(bytes.size() - 10);
    EXPECT_TRACE_ERROR(read(bytes), DiagCode::TraceTruncated);

    ChampSimReadOptions rec;
    rec.read.recover = true;
    TraceReadStats st;
    const auto t = read(bytes, rec, &st);
    EXPECT_EQ(t->size(), 1u);
    EXPECT_EQ(st.truncatedTailBytes, 54u);
}

TEST(ChampSimStrict, EmptyAndGarbageSources)
{
    EXPECT_TRACE_ERROR(read(std::string()), DiagCode::TraceTruncated);
    EXPECT_TRACE_ERROR(read(std::string(13, 'x')),
                       DiagCode::TraceTruncated);

    // All-garbage: strict rejects the first record; recovery with an
    // unlimited budget still refuses to fabricate an empty trace.
    std::mt19937_64 rng(99);
    std::string junk(kChampSimRecordBytes * 16, '\0');
    for (char &c : junk)
        c = static_cast<char>(rng());
    junk[8] = 7; // ensure record 0 is implausible even by luck
    EXPECT_TRACE_ERROR(read(junk), DiagCode::TraceBadRecord);
    ChampSimReadOptions rec;
    rec.read.recover = true;
    EXPECT_TRACE_ERROR(read(junk, rec), DiagCode::TraceBadRecord);
}

// -------------------------------------------------------------- recovery

TEST(ChampSimRecover, InPlaceCorruptionCostsOneRecord)
{
    std::vector<Rec> recs(10);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].smem[0] = 0x8000 + 8 * i;
    }
    std::string bytes = bytesOf(recs);
    bytes[5 * kChampSimRecordBytes + 8] = 3; // is_branch of record 5

    ChampSimReadOptions rec;
    rec.read.recover = true;
    TraceReadStats st;
    const auto t = read(bytes, rec, &st);
    EXPECT_EQ(t->size(), 9u);
    EXPECT_EQ(st.recordsRead, 9u);
    EXPECT_EQ(st.skippedRecords, 1u);
    EXPECT_EQ(st.resyncBytes, 0u); // framing never lost
}

TEST(ChampSimRecover, SpliceResyncsByteByByte)
{
    // Records whose ip byte 3 is 7: any window misaligned by 5 bytes
    // puts that 7 where is_branch lives, so inserted garbage forces
    // the reader off the record framing and into the byte-slide hunt.
    std::vector<Rec> recs(12);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x07000000 + 4 * i;
        recs[i].smem[0] = 0x8000 + 8 * i;
    }
    std::string bytes = bytesOf(recs);
    bytes.insert(3 * kChampSimRecordBytes, 5, '\xff');

    ChampSimReadOptions rec;
    rec.read.recover = true;
    TraceReadStats st;
    const auto t = read(bytes, rec, &st);
    EXPECT_GE(st.recordsRead, 9u);
    EXPECT_GT(st.resyncBytes, 0u);
    EXPECT_GT(t->size(), 0u);
}

TEST(ChampSimRecover, BudgetBoundsTheDamage)
{
    std::vector<Rec> recs(20);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].smem[0] = 0x8000;
    }
    std::string bytes = bytesOf(recs);
    for (std::size_t i = 0; i < 20; i += 2)
        bytes[i * kChampSimRecordBytes + 8] = 5;

    ChampSimReadOptions rec;
    rec.read.recover = true;
    rec.read.badRecordBudget = 3;
    EXPECT_TRACE_ERROR(read(bytes, rec),
                       DiagCode::TraceBudgetExceeded);
}

// ------------------------------------------------------------------ caps

TEST(ChampSimCaps, MaxInstructionsTruncatesCleanly)
{
    std::vector<Rec> recs(50);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].smem[0] = 0x8000;
    }
    ChampSimReadOptions opts;
    opts.maxInstructions = 7;
    ChampSimTraceInfo info;
    const auto t = read(bytesOf(recs), opts, nullptr, &info);
    EXPECT_EQ(info.instructions, 7u);
    EXPECT_EQ(t->size(), 7u);
}

TEST(ChampSimCaps, CapMetBeforeATornTailReadsCleanly)
{
    // Once maxInstructions records are in, the reader stops: what
    // follows is not decoded, so a torn tail after it is no error.
    std::vector<Rec> recs(8);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].smem[0] = 0x8000;
    }
    std::string bytes = bytesOf(recs);
    bytes.resize(bytes.size() - 10);
    ChampSimReadOptions opts;
    opts.maxInstructions = 7;
    TraceReadStats st;
    const auto t = read(bytes, opts, &st);
    EXPECT_EQ(t->size(), 7u);
    EXPECT_EQ(st.truncatedTailBytes, 0u);
}

TEST(ChampSimCaps, CapAtAWindowEdgeFetchesTheNextWindow)
{
    // 1024 records fill the 64 KiB read window exactly. The content
    // identity covers every fetched byte, and the reader refills
    // before it checks the cap, so a read capped there folds the
    // second window in, and no more.
    std::vector<Rec> recs(3072);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].smem[0] = 0x8000;
    }
    const std::string bytes = bytesOf(recs);
    ChampSimReadOptions opts;
    opts.maxInstructions = 1024;
    ChampSimTraceInfo info;
    const auto t = read(bytes, opts, nullptr, &info);
    EXPECT_EQ(info.instructions, 1024u);
    EXPECT_EQ(info.bytes, 2u * 65536u);
    EXPECT_EQ(info.crc, crc32(bytes.substr(0, 2 * 65536)));
    EXPECT_EQ(t->contentBytes(), info.bytes);
}

TEST(ChampSimCaps, MaxPages)
{
    std::vector<Rec> recs(10);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].smem[0] = 0x100000 + (i << 12); // new page each
    }
    ChampSimReadOptions opts;
    opts.maxPages = 4;
    EXPECT_TRACE_ERROR(read(bytesOf(recs), opts),
                       DiagCode::TraceLimitExceeded);
}

TEST(ChampSimCaps, MaxFileBytes)
{
    std::vector<Rec> recs(100);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].smem[0] = 0x8000;
    }
    ChampSimReadOptions opts;
    opts.maxFileBytes = 1000;
    EXPECT_TRACE_ERROR(read(bytesOf(recs), opts),
                       DiagCode::TraceLimitExceeded);
}

// ------------------------------------------------------ golden fixture

TEST(ChampSimGolden, FixtureDecodesToPinnedShape)
{
    TraceReadStats st;
    ChampSimTraceInfo info;
    ChampSimReadOptions opts;
    std::ifstream is(kGolden, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(is)) << kGolden;
    const auto t = readChampSimTrace(is, "golden", opts, &st, &info);
    EXPECT_EQ(info.instructions, 512u);
    EXPECT_EQ(info.bytes, 32768u);
    EXPECT_EQ(info.crc, 0x0bb4082eu);
    EXPECT_EQ(info.pages, 68u);
    EXPECT_EQ(t->size(), 796u);
    EXPECT_EQ(st.skippedRecords, 0u);
    EXPECT_EQ(t->contentBytes(), 32768u);
    EXPECT_EQ(t->contentCrc(), 0x0bb4082eu);
}

TEST(ChampSimGolden, EveryByteTruncationSweep)
{
    // The exhaustive torn-download drill: cutting the fixture at
    // EVERY byte length must behave exactly per contract — the valid
    // whole-record prefix decodes, the tail is a strict error /
    // accounted recovery, and nothing crashes or over-produces.
    const std::string full = readFileBytes(kGolden);
    ASSERT_EQ(full.size(), 32768u);
    for (std::size_t len = 0; len <= full.size(); ++len) {
        const std::string cut = full.substr(0, len);
        const std::size_t whole = len / kChampSimRecordBytes;
        // Strict: clean multiple of 64 reads fully, else truncated.
        if (len > 0 && len % kChampSimRecordBytes == 0) {
            ChampSimTraceInfo info;
            (void)read(cut, {}, nullptr, &info);
            EXPECT_EQ(info.instructions, whole);
        } else {
            EXPECT_TRACE_ERROR(read(cut), DiagCode::TraceTruncated);
        }
        // Recovery: whole records survive, the tail is accounted.
        ChampSimReadOptions rec;
        rec.read.recover = true;
        if (whole == 0) {
            EXPECT_TRACE_ERROR(read(cut, rec),
                               DiagCode::TraceTruncated);
        } else {
            TraceReadStats st;
            ChampSimTraceInfo info;
            (void)read(cut, rec, &st, &info);
            EXPECT_EQ(info.instructions, whole);
            EXPECT_EQ(st.truncatedTailBytes,
                      len % kChampSimRecordBytes);
        }
    }
}

TEST(ChampSimGolden, RandomByteCorruptionSweep)
{
    // 400 deterministic single-byte corruptions: the reader must
    // either produce a bounded trace or throw a classified
    // TraceError — nothing else may escape, in either mode.
    const std::string full = readFileBytes(kGolden);
    const std::uint64_t bound =
        (full.size() / kChampSimRecordBytes) * 13;
    std::mt19937_64 rng(2026);
    for (int k = 0; k < 400; ++k) {
        std::string mut = full;
        const std::size_t at = rng() % mut.size();
        mut[at] = static_cast<char>(rng());
        for (const bool recover : {false, true}) {
            ChampSimReadOptions opts;
            opts.read.recover = recover;
            try {
                const auto t = read(mut, opts);
                EXPECT_LE(t->size(), bound);
            } catch (const TraceError &) {
                // classified: the contract
            }
        }
    }
}

TEST(ChampSimGolden, CorpusMutationFuzz)
{
    // In-process cousin of tools/lrs_tracefuzz: stacked
    // structure-aware mutations (field edits, record splices, torn
    // tails, garbage) against both reader modes. Only classified
    // TraceErrors may escape.
    const std::string full = readFileBytes(kGolden);
    std::mt19937_64 rng(7);
    for (int iter = 0; iter < 800; ++iter) {
        std::string m = full.substr(0, 4096); // keep iterations fast
        const int mutations = 1 + static_cast<int>(rng() % 4);
        for (int k = 0; k < mutations && !m.empty(); ++k) {
            switch (rng() % 5) {
            case 0:
                m[rng() % m.size()] ^=
                    static_cast<char>(1u << (rng() % 8));
                break;
            case 1: {
                const std::size_t at = rng() % m.size();
                m.erase(at, 1 + rng() % 90);
                break;
            }
            case 2:
                m.resize(rng() % (m.size() + 1));
                break;
            case 3: {
                const std::size_t n = 1 + rng() % 128;
                for (std::size_t i = 0; i < n; ++i)
                    m.push_back(static_cast<char>(rng()));
                break;
            }
            case 4: {
                if (m.size() < 8)
                    break;
                const std::uint64_t v =
                    (rng() % 2) ? ~std::uint64_t(0) : 0;
                std::memcpy(&m[(rng() % (m.size() / 8)) * 8], &v, 8);
                break;
            }
            }
        }
        for (const bool recover : {false, true}) {
            ChampSimReadOptions opts;
            opts.read.recover = recover;
            opts.read.badRecordBudget = rng() % 64;
            try {
                (void)read(m, opts);
            } catch (const TraceError &) {
            }
        }
    }
}

TEST(ChampSimGolden, IdentityCrcPinsContent)
{
    const std::string full = readFileBytes(kGolden);
    const auto a = read(full);
    const auto b = read(full);
    EXPECT_EQ(a->contentBytes(), b->contentBytes());
    EXPECT_EQ(a->contentCrc(), b->contentCrc());

    std::string tweaked = full;
    tweaked[1000] = static_cast<char>(tweaked[1000] ^ 0x40);
    const auto c = read(tweaked);
    EXPECT_NE(a->contentCrc(), c->contentCrc());
}

// ------------------------------------------------------- file sniffing

TEST(ChampSimSniff, RecognisesFixtureRejectsOthers)
{
    EXPECT_TRUE(looksLikeChampSimFile(kGolden));
    EXPECT_FALSE(looksLikeChampSimFile(kGolden + ".does-not-exist"));

    const std::string txt = tmpPath("champsim_sniff.txt");
    {
        std::ofstream os(txt, std::ios::binary);
        os << "LRSJ1 00000000 {\"kind\":\"journal\"}\n";
    }
    EXPECT_FALSE(looksLikeChampSimFile(txt));
    std::remove(txt.c_str());
}

// -------------------------------------------------- library integration

TEST(ChampSimLibrary, SpecRunsThroughByNameAndMake)
{
    const TraceParams p =
        TraceLibrary::byName("champsim:" + kGolden, 100);
    EXPECT_EQ(p.group, TraceGroup::External);
    EXPECT_EQ(p.champsimPath, kGolden);
    const auto t = TraceLibrary::make(p);
    // length caps instructions, like --len (<= 9 uops each).
    EXPECT_GT(t->size(), 0u);
    EXPECT_LE(t->size(), 100u * 9u);
    EXPECT_NE(t->contentCrc(), 0u);
}

TEST(ChampSimLibrary, RejectsEmptyAndStdinSpecs)
{
    EXPECT_THROW(TraceLibrary::byName("champsim:", 100),
                 std::invalid_argument);
    EXPECT_THROW(TraceLibrary::byName("champsim:-", 100),
                 std::invalid_argument);
}

TEST(ChampSimLibrary, AdversarialFamiliesExist)
{
    for (const std::string &name :
         {std::string("spoiler4k"), std::string("flipper"),
          std::string("gcmark")}) {
        const TraceParams p = TraceLibrary::byName(name, 20000);
        EXPECT_EQ(p.group, TraceGroup::Adversarial) << name;
        const auto t = TraceLibrary::make(p);
        EXPECT_EQ(t->size(), 20000u) << name;
    }
    // Generation is deterministic: same name, same bytes.
    const auto a =
        TraceLibrary::make(TraceLibrary::byName("spoiler4k", 5000));
    const auto b =
        TraceLibrary::make(TraceLibrary::byName("spoiler4k", 5000));
    ASSERT_EQ(a->size(), b->size());
    const auto ua = decodeAll(*a);
    const auto ub = decodeAll(*b);
    for (std::size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ(ua[i].pc, ub[i].pc);
        EXPECT_EQ(ua[i].addr, ub[i].addr);
    }
}

// ------------------------------------------------- snapshot identity

TEST(ChampSimSnapshot, ContentIdentityGuardsRestore)
{
    const std::string snap = tmpPath("champsim_identity.snap");

    MachineConfig cfg;
    cfg.validateOrThrow();
    const TraceParams p = TraceLibrary::byName("champsim:" + kGolden, 0);
    auto trace = TraceLibrary::make(p);
    OooCore core(cfg);
    core.beginRun(*trace);
    core.advanceTo(*trace, 200);
    writeSnapshot(snap, core, *trace, 200);

    // Same content: restores.
    {
        auto t2 = TraceLibrary::make(p);
        OooCore c2(cfg);
        loadSnapshotInto(snap, c2, *t2);
    }

    // Changed source bytes, same name, same decoded uop count (only
    // an ip byte flips): name and size checks cannot see this — the
    // content identity (byte count + CRC) must reject the restore.
    std::string tweaked = readFileBytes(kGolden);
    tweaked[8 * kChampSimRecordBytes] =
        static_cast<char>(tweaked[8 * kChampSimRecordBytes] ^ 0x04);
    std::istringstream is3(tweaked);
    auto t3 = readChampSimTrace(is3, "champsim:" + kGolden);
    ASSERT_EQ(t3->size(), trace->size());
    OooCore c3(cfg);
    EXPECT_THROW(loadSnapshotInto(snap, c3, *t3), ConfigError);
    std::remove(snap.c_str());
}

} // namespace
} // namespace lrs
