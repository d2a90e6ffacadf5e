/**
 * @file
 * Tests for the synthetic trace generator and the trace library:
 * determinism, structural invariants (STA/STD pairing, register
 * ranges, branch semantics), per-PC recurrence and the group catalog.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "memory/mob.hh"
#include "trace/library.hh"
#include "trace/synthetic.hh"
#include "trace_uops.hh"

namespace lrs
{
namespace
{

std::unique_ptr<VecTrace>
makeWd(std::uint64_t len = 30000)
{
    return TraceLibrary::make(TraceLibrary::byName("wd", len));
}

TEST(TraceGen, ExactRequestedLength)
{
    EXPECT_EQ(makeWd(30000)->size(), 30000u);
    EXPECT_EQ(makeWd(1000)->size(), 1000u);
}

TEST(TraceGen, Deterministic)
{
    auto a = makeWd(20000);
    auto b = makeWd(20000);
    ASSERT_EQ(a->size(), b->size());
    const auto ua = decodeAll(*a);
    const auto ub = decodeAll(*b);
    for (std::size_t i = 0; i < a->size(); ++i) {
        const Uop &x = ua[i];
        const Uop &y = ub[i];
        ASSERT_EQ(x.pc, y.pc) << "at " << i;
        ASSERT_EQ(x.cls, y.cls) << "at " << i;
        ASSERT_EQ(x.addr, y.addr) << "at " << i;
        ASSERT_EQ(x.taken, y.taken) << "at " << i;
    }
}

TEST(TraceGen, DifferentSeedsDiffer)
{
    TraceParams p1 = TraceLibrary::byName("wd", 10000);
    TraceParams p2 = p1;
    p2.seed ^= 0x5555;
    auto a = generateTrace(p1);
    auto b = generateTrace(p2);
    const auto ua = decodeAll(*a);
    const auto ub = decodeAll(*b);
    std::size_t same = 0;
    for (std::size_t i = 0; i < a->size(); ++i)
        same += ua[i].pc == ub[i].pc;
    EXPECT_LT(same, a->size());
}

TEST(TraceGen, StdImmediatelyFollowsSta)
{
    auto t = makeWd();
    const auto u = decodeAll(*t);
    for (std::size_t i = 0; i < u.size(); ++i) {
        if (u[i].isStd()) {
            ASSERT_GT(i, 0u);
            EXPECT_TRUE(u[i - 1].isSta()) << "at " << i;
        }
        if (u[i].isSta() && i + 1 < u.size()) {
            EXPECT_TRUE(u[i + 1].isStd()) << "at " << i;
        }
    }
}

TEST(TraceGen, RegistersWithinArchitecturalRange)
{
    auto t = makeWd();
    for (const Uop &u : decodeAll(*t)) {
        EXPECT_LT(u.dst, kNumArchRegs);
        EXPECT_LT(u.src1, kNumArchRegs);
        EXPECT_LT(u.src2, kNumArchRegs);
        EXPECT_GE(u.dst, -1);
        EXPECT_GE(u.src1, -1);
        EXPECT_GE(u.src2, -1);
    }
}

TEST(TraceGen, MemoryOpsHaveAddressesOthersDoNot)
{
    auto t = makeWd();
    for (const Uop &u : decodeAll(*t)) {
        if (u.isLoad() || u.isSta()) {
            EXPECT_NE(u.addr, kAddrInvalid);
            EXPECT_GT(u.memSize, 0);
        } else {
            EXPECT_EQ(u.addr, kAddrInvalid);
        }
    }
}

TEST(TraceGen, ClassMixRealistic)
{
    auto t = makeWd(100000);
    std::map<UopClass, std::size_t> counts;
    for (const Uop &u : decodeAll(*t))
        ++counts[u.cls];
    const double n = static_cast<double>(t->size());
    const double loads = counts[UopClass::Load] / n;
    const double stas = counts[UopClass::StoreAddr] / n;
    const double branches = counts[UopClass::Branch] / n;
    EXPECT_GT(loads, 0.10);
    EXPECT_LT(loads, 0.40);
    EXPECT_GT(stas, 0.03);
    EXPECT_LT(stas, 0.25);
    EXPECT_GT(branches, 0.03);
    EXPECT_LT(branches, 0.30);
    EXPECT_EQ(counts[UopClass::StoreAddr],
              counts[UopClass::StoreData]);
}

TEST(TraceGen, PerPcRecurrence)
{
    // Predictors need recurrent static loads: the number of distinct
    // load PCs must be far below the dynamic load count.
    auto t = makeWd(100000);
    std::set<Addr> pcs;
    std::size_t loads = 0;
    for (const Uop &u : decodeAll(*t)) {
        if (u.isLoad()) {
            ++loads;
            pcs.insert(u.pc);
        }
    }
    EXPECT_LT(pcs.size() * 20, loads);
    EXPECT_GT(pcs.size(), 10u);
}

TEST(TraceGen, RecurrentCollisionPairsExist)
{
    // Push/param-load and RMW reload pairs: some static load PC must
    // repeatedly read an address stored shortly before.
    auto t = makeWd(60000);
    const auto u = decodeAll(*t);
    std::map<Addr, int> collider_counts; // load pc -> occurrences
    for (std::size_t i = 0; i < u.size(); ++i) {
        if (!u[i].isLoad())
            continue;
        const std::size_t lo = i > 40 ? i - 40 : 0;
        for (std::size_t j = i; j-- > lo;) {
            if (u[j].isSta() &&
                rangesOverlap(u[j].addr, u[j].memSize, u[i].addr,
                              u[i].memSize)) {
                ++collider_counts[u[i].pc];
                break;
            }
        }
    }
    int recurrent = 0;
    for (const auto &[pc, n] : collider_counts)
        recurrent += n >= 10;
    EXPECT_GE(recurrent, 3)
        << "expected several static loads that collide repeatedly";
}

TEST(TraceGen, BranchOutcomesMostlyPredictable)
{
    // Call/return and chase-end branches are always taken; loop
    // branches are taken except at exit. A simple majority check:
    // most branches are taken.
    auto t = makeWd(60000);
    std::size_t taken = 0, total = 0;
    for (const Uop &u : decodeAll(*t)) {
        if (u.isBranch()) {
            ++total;
            taken += u.taken;
        }
    }
    EXPECT_GT(static_cast<double>(taken) / total, 0.6);
}

TEST(TraceGen, StackAddressesBelowStackTop)
{
    auto t = makeWd(30000);
    for (const Uop &u : decodeAll(*t)) {
        if (u.isMem() && u.addr >= 0x70000000ull) {
            EXPECT_LT(u.addr, 0x80000000ull);
        }
    }
}

TEST(Uop, ToStringRendersFields)
{
    Uop u;
    u.pc = 0x4010;
    u.cls = UopClass::Load;
    u.dst = 3;
    u.src1 = 5;
    u.addr = 0x8000;
    u.memSize = 8;
    const std::string s = u.toString();
    EXPECT_NE(s.find("Load"), std::string::npos);
    EXPECT_NE(s.find("0x4010"), std::string::npos);
    EXPECT_NE(s.find("d=r3"), std::string::npos);
    EXPECT_NE(s.find("[0x8000]"), std::string::npos);

    Uop b;
    b.cls = UopClass::Branch;
    b.taken = true;
    EXPECT_NE(b.toString().find(" T"), std::string::npos);
    EXPECT_STREQ(uopClassName(UopClass::StoreAddr), "StoreAddr");
}

TEST(VecTrace, IterationAndReset)
{
    std::vector<Uop> uops(3);
    uops[0].pc = 1;
    uops[1].pc = 2;
    uops[2].pc = 3;
    VecTrace t("small", std::move(uops));
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.next()->pc, 1u);
    EXPECT_EQ(t.next()->pc, 2u);
    EXPECT_EQ(t.next()->pc, 3u);
    EXPECT_EQ(t.next(), nullptr);
    t.reset();
    EXPECT_EQ(t.next()->pc, 1u);
}

TEST(SharedTrace, CopySharesTheUops)
{
    const auto t = makeWd(1000);
    const VecTrace copy = *t;
    EXPECT_EQ(&copy.store(), &t->store());
    EXPECT_EQ(copy.size(), t->size());
    EXPECT_EQ(copy.name(), t->name());
}

TEST(SharedTrace, EachCopyKeepsItsOwnCursor)
{
    const auto t = makeWd(1000);
    const auto u = decodeAll(*t);
    VecTrace a = *t;
    VecTrace b = a;
    EXPECT_EQ(*a.next(), u[0]);
    EXPECT_EQ(*a.next(), u[1]);
    EXPECT_EQ(*b.next(), u[0]);
    b.seek(500);
    EXPECT_EQ(*a.next(), u[2]);
    EXPECT_EQ(*b.next(), u[500]);
    a.reset();
    EXPECT_EQ(*a.next(), u[0]);
    EXPECT_EQ(*b.next(), u[501]);
    // The original's cursor never moved.
    EXPECT_EQ(*t->next(), u[0]);
}

TEST(SharedTrace, SeekMatchesStepping)
{
    // seek(n) then next() must return what n calls to next() from the
    // start lead to, at every kind of position: the ends, and both
    // sides of each address checkpoint.
    constexpr std::size_t kEvery = TraceStore::kMarkEvery;
    const auto t = makeWd(3 * kEvery + 100);
    std::vector<std::size_t> at = {0, 1, t->size() - 1, t->size()};
    for (std::size_t k = 1; k <= 3; ++k) {
        at.push_back(k * kEvery - 1);
        at.push_back(k * kEvery);
        at.push_back(k * kEvery + 1);
    }
    for (const std::size_t n : at) {
        VecTrace stepped = *t;
        stepped.reset();
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_NE(stepped.next(), nullptr) << n;
        VecTrace sought = *t;
        sought.seek(n);
        // A few uops on, so a wrong address position would show.
        for (int i = 0; i < 40; ++i) {
            const Uop *a = stepped.next();
            const Uop *b = sought.next();
            ASSERT_EQ(a == nullptr, b == nullptr) << n << "+" << i;
            if (!a)
                break;
            ASSERT_EQ(*a, *b) << n << "+" << i;
        }
    }
}

TEST(TraceStore, HostileShapesRoundTrip)
{
    // Shapes the generator never emits must still decode exactly: a
    // load without an address, a non-memory uop with one, a taken
    // non-branch, and both outcomes of one branch pc.
    Uop noaddr;
    noaddr.pc = 0x100;
    noaddr.cls = UopClass::Load;
    noaddr.dst = 3;
    noaddr.memSize = 8;
    Uop alu;
    alu.pc = 0x104;
    alu.addr = 0x8000;
    alu.src1 = 2;
    Uop odd = alu;
    odd.addr = kAddrInvalid;
    odd.taken = true;
    Uop taken;
    taken.pc = 0x108;
    taken.cls = UopClass::Branch;
    taken.taken = true;
    Uop fallthrough = taken;
    fallthrough.taken = false;
    Uop far = noaddr;
    far.pc = ~Addr(0) - 1;
    far.addr = 0;
    const std::vector<Uop> uops = {noaddr, alu,   taken, fallthrough,
                                   odd,    taken, far,   noaddr};
    const VecTrace t("hostile", uops);
    EXPECT_EQ(decodeAll(t), uops);
    // noaddr/far, alu/odd and the two branch outcomes share statics.
    EXPECT_EQ(t.store().statics.size(), 4u);
    EXPECT_EQ(t.store().addrs.size(), 2u);
}

TEST(TraceStore, WdHoldsAtMostEightBytesPerUop)
{
    // Counted from the store's own capacities, not from the process:
    // a uop costs a 4-byte word plus its address, if it has one.
    const auto t = makeWd(200000);
    EXPECT_LE(t->store().bytes(), 8 * t->size());
}

TEST(TraceLibrary, CatalogMatchesPaperCounts)
{
    // Section 3: SpecInt95 8, SpecFP95 10, SysmarkNT 8, Sysmark95 8,
    // Games 5, Java 5, TPC 2.
    EXPECT_EQ(TraceLibrary::names(TraceGroup::SpecInt95).size(), 8u);
    EXPECT_EQ(TraceLibrary::names(TraceGroup::SpecFP95).size(), 10u);
    EXPECT_EQ(TraceLibrary::names(TraceGroup::SysmarkNT).size(), 8u);
    EXPECT_EQ(TraceLibrary::names(TraceGroup::Sysmark95).size(), 8u);
    EXPECT_EQ(TraceLibrary::names(TraceGroup::Games).size(), 5u);
    EXPECT_EQ(TraceLibrary::names(TraceGroup::Java).size(), 5u);
    EXPECT_EQ(TraceLibrary::names(TraceGroup::TPC).size(), 2u);
}

TEST(TraceLibrary, Figure7TraceLabels)
{
    const auto names = TraceLibrary::names(TraceGroup::SysmarkNT);
    const std::vector<std::string> expect = {"cd", "ex", "fl", "pd",
                                             "pm", "pp", "wd", "wp"};
    EXPECT_EQ(names, expect);
}

TEST(TraceLibrary, ByNameMatchesGroupEntry)
{
    const auto group = TraceLibrary::group(TraceGroup::SysmarkNT, 5000);
    const auto byname = TraceLibrary::byName("wd", 5000);
    bool found = false;
    for (const auto &p : group) {
        if (p.name == "wd") {
            found = true;
            EXPECT_EQ(p.seed, byname.seed);
            EXPECT_EQ(p.chaseFootprint, byname.chaseFootprint);
        }
    }
    EXPECT_TRUE(found);
}

TEST(TraceLibrary, UnknownNameThrows)
{
    EXPECT_THROW(TraceLibrary::byName("nonexistent"),
                 std::invalid_argument);
}

TEST(TraceLibrary, TracesWithinGroupDiffer)
{
    const auto group = TraceLibrary::group(TraceGroup::SysmarkNT, 1000);
    ASSERT_GE(group.size(), 2u);
    EXPECT_NE(group[0].seed, group[1].seed);
}

/** Every named trace in the catalog must generate cleanly. */
class AllTracesSuite : public ::testing::TestWithParam<TraceGroup>
{
};

TEST_P(AllTracesSuite, GeneratesAndIsWellFormed)
{
    for (const auto &p : TraceLibrary::group(GetParam(), 4000)) {
        auto t = TraceLibrary::make(p);
        ASSERT_EQ(t->size(), 4000u) << p.name;
        std::size_t loads = 0;
        for (const Uop &u : decodeAll(*t))
            loads += u.isLoad();
        EXPECT_GT(loads, 200u) << p.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGroups, AllTracesSuite,
    ::testing::Values(TraceGroup::SpecInt95, TraceGroup::SpecFP95,
                      TraceGroup::SysmarkNT, TraceGroup::Sysmark95,
                      TraceGroup::Games, TraceGroup::Java,
                      TraceGroup::TPC),
    [](const auto &info) {
        return std::string(traceGroupName(info.param));
    });

} // namespace
} // namespace lrs
