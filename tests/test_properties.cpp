/**
 * @file
 * Property-based tests: the optimised structures are checked against
 * straightforward reference models on randomised inputs, and the core
 * is swept across machine configurations checking invariants that
 * must hold for any machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "core/core.hh"
#include "core/runner.hh"
#include "memory/cache.hh"
#include "memory/mob.hh"

namespace lrs
{
namespace
{

// ---------------------------------------------------------------
// Cache vs a plain std::list LRU reference model.
// ---------------------------------------------------------------

/** Trivially correct set-associative LRU model. */
class RefCache
{
  public:
    RefCache(std::uint64_t sets, unsigned assoc, unsigned line)
        : sets_(sets), assoc_(assoc), line_(line), ways_(sets)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr tag = addr / line_;
        auto &set = ways_[tag % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                set.erase(it);
                set.push_front(tag);
                return true;
            }
        }
        set.push_front(tag);
        if (set.size() > assoc_)
            set.pop_back();
        return false;
    }

  private:
    std::uint64_t sets_;
    unsigned assoc_;
    unsigned line_;
    std::vector<std::list<Addr>> ways_;
};

TEST(CacheProperty, MatchesReferenceLruOnRandomStream)
{
    CacheParams p{"t", 4096, 4, 64, 1};
    Cache cache(p);
    RefCache ref(cache.numSets(), p.assoc, p.lineBytes);

    Rng rng(2024);
    Cycle now = 0;
    int mismatches = 0;
    for (int i = 0; i < 50000; ++i) {
        // Skewed address distribution: hot region + cold tail.
        const Addr a = rng.chance(0.7)
                           ? rng.below(8 * 1024)
                           : rng.below(1024 * 1024);
        ++now;
        const auto r = cache.access(a, now);
        const bool ref_hit = ref.access(a);
        if (!r.present)
            cache.fill(a, now); // immediate fill, like the model
        mismatches += (r.present != ref_hit);
        ASSERT_LT(mismatches, 1) << "diverged at access " << i;
    }
}

TEST(CacheProperty, InclusionNeverExceedsCapacity)
{
    CacheParams p{"t", 2048, 2, 64, 1};
    Cache cache(p);
    Rng rng(7);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(1 << 20);
        ++now;
        if (!cache.access(a, now).present)
            cache.fill(a, now);
    }
    // Count resident lines by probing every line we may have touched.
    std::size_t resident = 0;
    for (Addr a = 0; a < (1 << 20); a += 64)
        resident += cache.probe(a, now + 1).present;
    EXPECT_LE(resident, p.sizeBytes / p.lineBytes);
}

// ---------------------------------------------------------------
// Mob vs a naive reference on randomised store/load interleavings.
// ---------------------------------------------------------------

struct RefStore
{
    SeqNum seq;
    Addr addr;
    std::uint8_t size;
    Cycle sta = kCycleNever;
    Cycle std_t = kCycleNever;
    std::uint64_t ord = 0; ///< insertion index (Mob::Ordinal)
};

TEST(MobProperty, QueriesMatchNaiveModel)
{
    // Every query is asked twice, by the load's seq and by its
    // ordinal, and the lookups by ordinal are checked store by store.
    // Filling and draining phases alternate, so the ring both grows
    // and wraps many times over.
    Mob mob;
    std::vector<RefStore> ref;
    std::uint64_t refRetired = 0;
    Rng rng(99);
    SeqNum seq = 0;
    Cycle now = 0;

    for (int step = 0; step < 20000; ++step) {
        ++now;
        const bool draining = (step / 2500) % 2 == 1;
        const auto action = rng.below(10);
        if (draining && action < 3) {
            // Instead of an insert, complete and retire the oldest.
            if (!ref.empty()) {
                RefStore &s = ref.front();
                if (s.sta == kCycleNever) {
                    s.sta = now;
                    mob.staExecuted(s.seq, now);
                } else if (s.std_t == kCycleNever) {
                    s.std_t = now;
                    mob.stdExecuted(s.seq, now);
                } else {
                    mob.retire(s.seq);
                    ref.erase(ref.begin());
                    ++refRetired;
                }
            }
        } else if (action < 3) { // insert a store
            seq += 1 + rng.below(3);
            RefStore s{seq, 0x1000 + rng.below(64) * 8,
                       static_cast<std::uint8_t>(
                           4u << rng.below(2)),
                       kCycleNever, kCycleNever,
                       refRetired + ref.size()};
            mob.insert(s.seq, s.addr, s.size);
            ref.push_back(s);
        } else if (action < 5 && !ref.empty()) { // resolve an STA
            auto &s = ref[rng.below(ref.size())];
            if (s.sta == kCycleNever) {
                s.sta = now;
                mob.staExecuted(s.seq, now);
            }
        } else if (action < 7 && !ref.empty()) { // resolve an STD
            auto &s = ref[rng.below(ref.size())];
            if (s.std_t == kCycleNever) {
                s.std_t = now;
                mob.stdExecuted(s.seq, now);
            }
        } else if (action < 8 && !ref.empty()) { // retire oldest
            const auto &s = ref.front();
            if (s.sta != kCycleNever && s.std_t != kCycleNever) {
                mob.retire(s.seq);
                ref.erase(ref.begin());
                ++refRetired;
            }
        } else { // query as a hypothetical load
            // Younger than every store, or anywhere in the window.
            const SeqNum lseq =
                ref.empty() || rng.chance(0.5)
                    ? seq + 1 + rng.below(4)
                    : ref.front().seq +
                          rng.below(seq - ref.front().seq + 2);
            const Addr laddr = 0x1000 + rng.below(64) * 8;
            const std::uint8_t lsize = 8;

            bool any_unknown = false, any_incomplete = false;
            bool colliding = false;
            const RefStore *youngest = nullptr;
            std::vector<const RefStore *> older; // youngest first
            unsigned dist = 0, found_dist = 0;
            for (auto it = ref.rbegin(); it != ref.rend(); ++it) {
                if (it->seq >= lseq)
                    continue;
                ++dist;
                older.push_back(&*it);
                const bool addr_known =
                    it->sta != kCycleNever && it->sta <= now;
                const bool data_known =
                    it->std_t != kCycleNever && it->std_t <= now;
                const bool overlap =
                    rangesOverlap(it->addr, it->size, laddr, lsize);
                any_unknown |= !addr_known;
                any_incomplete |= !(addr_known && data_known);
                colliding |= !addr_known && overlap;
                if (!youngest && overlap) {
                    youngest = &*it;
                    found_dist = dist;
                }
            }
            const Mob::Ordinal lord{refRetired + older.size()};
            ASSERT_EQ(mob.ordinalOf(lseq).value, lord.value);
            ASSERT_EQ(mob.olderHorizon(lord, Mob::kAddr) > now,
                      any_unknown);
            ASSERT_EQ(mob.olderHorizon(lord, Mob::kAddr | Mob::kData) >
                          now,
                      any_incomplete);
            ASSERT_EQ(mob.collidesAt(lseq, laddr, lsize, now), colliding);
            const auto *mo = mob.youngestOverlapOlder(lord, laddr, lsize);
            ASSERT_EQ(mo ? mo->seq : 0, youngest ? youngest->seq : 0);
            ASSERT_EQ(mob.overlapDistance(lord, laddr, lsize), found_dist);
            const unsigned d = 1 + rng.below(older.size() + 1);
            const auto *at = mob.olderAtDistance(lord, d);
            if (d <= older.size()) {
                ASSERT_NE(at, nullptr);
                ASSERT_EQ(at->seq, older[d - 1]->seq);
            } else {
                ASSERT_EQ(at, nullptr);
            }
            ASSERT_EQ(mob.olderHorizon(lseq, Mob::kAddr) > now,
                      any_unknown);
            ASSERT_EQ(mob.olderHorizon(lseq, Mob::kAddr | Mob::kData) >
                          now,
                      any_incomplete);
            const auto *m =
                mob.youngestOverlapOlder(lseq, laddr, lsize);
            ASSERT_EQ(m != nullptr, youngest != nullptr);
            if (m) {
                ASSERT_EQ(m->seq, youngest->seq);
                ASSERT_EQ(mob.overlapDistance(lseq, laddr, lsize),
                          found_dist);
            }
        }

        // Lookup by ordinal, for a store in the window and a retired
        // one.
        ASSERT_EQ(mob.retired(), refRetired);
        if (!ref.empty()) {
            const RefStore &s = ref[rng.below(ref.size())];
            const Mob::StoreRec *r = mob.get(Mob::Ordinal{s.ord});
            ASSERT_NE(r, nullptr);
            ASSERT_EQ(r->seq, s.seq);
            ASSERT_EQ(mob.ordinalOf(*r).value, s.ord);
            ASSERT_EQ(mob.storeOrdinal(s.seq).value, s.ord);
        }
        if (refRetired > 0) {
            ASSERT_EQ(mob.get(Mob::Ordinal{rng.below(refRetired)}),
                      nullptr);
        }
        ASSERT_EQ(mob.get(Mob::Ordinal{refRetired + ref.size()}),
                  nullptr);
        ASSERT_EQ(mob.get(Mob::kNoStore), nullptr);
    }
}

// ---------------------------------------------------------------
// Ordering-gate horizon vs each scheme's gate read off the MOB.
// ---------------------------------------------------------------

/**
 * Whether the load (@p seq, @p u, @p g) may dispatch at cycle @p t
 * under cfg.scheme, stated store by store over Mob::storeAt the way
 * section 3.1 and the two baselines phrase each gate.
 */
bool
refGateOpen(const Mob &mob, const MachineConfig &cfg, SeqNum seq,
            const Uop &u, const LoadGate &g, Cycle t)
{
    std::vector<const Mob::StoreRec *> older;
    for (std::size_t i = 0; i < mob.size(); ++i) {
        if (mob.storeAt(i).seq < seq)
            older.push_back(&mob.storeAt(i));
    }
    const auto addrKnown = [t](const Mob::StoreRec *r) {
        return r->staDoneAt <= t;
    };
    const auto dataKnown = [t](const Mob::StoreRec *r) {
        return r->stdDoneAt <= t;
    };
    const auto complete = [&](const Mob::StoreRec *r) {
        return addrKnown(r) && dataKnown(r);
    };
    const auto all = [&older](auto pred) {
        return std::all_of(older.begin(), older.end(), pred);
    };
    const auto inWindow = [&mob](SeqNum s) -> const Mob::StoreRec * {
        for (std::size_t i = 0; i < mob.size(); ++i) {
            if (mob.storeAt(i).seq == s)
                return &mob.storeAt(i);
        }
        return nullptr;
    };
    switch (cfg.scheme) {
      case OrderingScheme::Traditional:
        return all(addrKnown);
      case OrderingScheme::Opportunistic:
        return true;
      case OrderingScheme::Postponing:
        return all(addrKnown) && (!g.predColliding || all(dataKnown));
      case OrderingScheme::Inclusive:
        return !g.predColliding || all(complete);
      case OrderingScheme::Exclusive: {
        if (!g.predColliding)
            return true;
        if (!g.hasExclTarget)
            return all(complete);
        const Mob::StoreRec *s = inWindow(g.exclStoreSeq);
        return s == nullptr || complete(s) ||
               (cfg.exclusiveSpecForward && dataKnown(s));
      }
      case OrderingScheme::Perfect:
        for (auto it = older.rbegin(); it != older.rend(); ++it) {
            if (rangesOverlap((*it)->addr, (*it)->size, u.addr,
                              u.memSize))
                return complete(*it);
        }
        return true;
      case OrderingScheme::StoreBarrier:
        return all([&](const Mob::StoreRec *r) {
            return !r->barrier || complete(r);
        });
      case OrderingScheme::StoreSets: {
        const Mob::StoreRec *s = inWindow(g.ssWaitSeq);
        return s == nullptr || complete(s);
      }
    }
    return true;
}

TEST(GateProperty, HorizonMatchesEachSchemesGate)
{
    Rng rng(17);
    constexpr Cycle kLastTime = 40; // every finite store time is <= this
    const auto storeTime = [&rng] {
        return rng.chance(0.3) ? kCycleNever : rng.below(kLastTime + 1);
    };
    for (int round = 0; round < 3000; ++round) {
        // Up to a dozen stores on a few lines, the oldest few retired
        // so some named targets are no longer in the window.
        Mob mob;
        std::vector<SeqNum> seqs;
        SeqNum seq = 0;
        const std::uint64_t n = rng.below(13);
        for (std::uint64_t i = 0; i < n; ++i) {
            seq += 1 + rng.below(3);
            seqs.push_back(seq);
            mob.insert(seq, 0x1000 + rng.below(4) * 8, 8, 0,
                       rng.chance(0.3));
            if (const Cycle t = storeTime(); t != kCycleNever)
                mob.staExecuted(seq, t);
            if (const Cycle t = storeTime(); t != kCycleNever)
                mob.stdExecuted(seq, t);
        }
        const std::uint64_t retired = n ? rng.below(3) : 0;
        for (std::uint64_t i = 0; i < retired && i < n; ++i)
            mob.retire(seqs[i]);

        // A load somewhere among (or after) the stores.
        const SeqNum lseq = 1 + rng.below(seq + 3);
        Uop u;
        u.cls = UopClass::Load;
        u.addr = 0x1000 + rng.below(4) * 8;
        u.memSize = 8;
        const auto target = [&]() -> SeqNum {
            if (seqs.empty() || rng.chance(0.2))
                return LoadGate::kNoStore;
            return seqs[rng.below(seqs.size())];
        };
        LoadGate g;
        g.predColliding = rng.chance(0.6);
        g.hasExclTarget = rng.chance(0.7);
        g.exclStoreSeq = target();
        g.ssWaitSeq = rng.chance(0.2) ? StoreSets::kNoStoreSeq : target();

        MachineConfig cfg;
        cfg.exclusiveSpecForward = rng.chance(0.5);
        for (const OrderingScheme scheme :
             {OrderingScheme::Traditional, OrderingScheme::Opportunistic,
              OrderingScheme::Postponing, OrderingScheme::Inclusive,
              OrderingScheme::Exclusive, OrderingScheme::Perfect,
              OrderingScheme::StoreBarrier, OrderingScheme::StoreSets}) {
            cfg.scheme = scheme;
            const Cycle h = gateHorizon(mob, cfg, lseq, u, g);
            for (Cycle t = 0; t <= kLastTime + 1; ++t) {
                ASSERT_EQ(h <= t, refGateOpen(mob, cfg, lseq, u, g, t))
                    << "round " << round << " scheme "
                    << orderingSchemeName(scheme) << " t " << t
                    << " horizon " << h;
            }
            if (!refGateOpen(mob, cfg, lseq, u, g, kLastTime + 1)) {
                ASSERT_EQ(h, kCycleNever) << "round " << round;
            }
        }
    }
}

// ---------------------------------------------------------------
// Core invariants across machine configurations.
// ---------------------------------------------------------------

using MachineSweepParam =
    std::tuple<int /*window*/, int /*intUnits*/, int /*memUnits*/,
               OrderingScheme>;

class MachineSweep
    : public ::testing::TestWithParam<MachineSweepParam>
{
};

TEST_P(MachineSweep, InvariantsHold)
{
    const auto [window, ints, mems, scheme] = GetParam();
    MachineConfig cfg;
    cfg.schedWindow = window;
    cfg.intUnits = ints;
    cfg.memUnits = mems;
    cfg.scheme = scheme;
    cfg.cht.trackDistance = true;

    const auto tp = TraceLibrary::byName("pm", 15000);
    const auto r = runSim(tp, cfg);

    // Every uop retires exactly once.
    EXPECT_EQ(r.uops, 15000u);
    // Every load is classified into exactly one bucket.
    EXPECT_EQ(r.classifiedLoads(), r.loads);
    // Retire width bounds IPC.
    EXPECT_LE(r.ipc(), 6.0);
    // HMP buckets partition the loads.
    EXPECT_EQ(r.ahPh + r.ahPm + r.amPh + r.amPm, r.loads);
    EXPECT_EQ(r.amPh + r.amPm, r.l1Misses);
    // Perfect disambiguation never pays.
    if (scheme == OrderingScheme::Perfect) {
        EXPECT_EQ(r.collisionPenalties, 0u);
        EXPECT_EQ(r.orderViolations, 0u);
    }
    // Determinism.
    const auto again = runSim(tp, cfg);
    EXPECT_EQ(again.cycles, r.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MachineSweep,
    ::testing::Combine(
        ::testing::Values(8, 32, 128),
        ::testing::Values(2, 4),
        ::testing::Values(1, 2),
        ::testing::Values(OrderingScheme::Traditional,
                          OrderingScheme::Opportunistic,
                          OrderingScheme::Exclusive,
                          OrderingScheme::Perfect,
                          OrderingScheme::StoreBarrier)),
    [](const auto &info) {
        // Appended piece by piece (GCC 12 -Wrestrict, see Cht::name).
        std::string n = "w";
        n += std::to_string(std::get<0>(info.param));
        n += "_i";
        n += std::to_string(std::get<1>(info.param));
        n += "_m";
        n += std::to_string(std::get<2>(info.param));
        n += '_';
        n += orderingSchemeName(std::get<3>(info.param));
        return n;
    });

TEST(CoreProperty, MoreResourcesNeverHurtMuch)
{
    // Weak monotonicity: growing the window or the EU count must not
    // slow the machine down by more than scheduling noise.
    const auto tp = TraceLibrary::byName("gcc", 20000);
    MachineConfig small;
    small.schedWindow = 16;
    MachineConfig big;
    big.schedWindow = 64;
    const auto rs = runSim(tp, small);
    const auto rb = runSim(tp, big);
    EXPECT_LE(rb.cycles, rs.cycles * 101 / 100);

    MachineConfig narrow;
    narrow.intUnits = 1;
    MachineConfig wide;
    wide.intUnits = 4;
    const auto rn = runSim(tp, narrow);
    const auto rw = runSim(tp, wide);
    EXPECT_LE(rw.cycles, rn.cycles * 101 / 100);
}

TEST(CoreProperty, CollisionPenaltyMonotonicInOpportunistic)
{
    // Raising the collision penalty must not speed up a scheme that
    // pays it.
    const auto tp = TraceLibrary::byName("javac", 20000);
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::Opportunistic;
    cfg.collisionPenalty = 2;
    const auto cheap = runSim(tp, cfg);
    cfg.collisionPenalty = 16;
    const auto dear = runSim(tp, cfg);
    EXPECT_GE(dear.cycles, cheap.cycles);
}

} // namespace
} // namespace lrs
