#include "memory/mob.hh"

#include <algorithm>
#include <cassert>

namespace lrs
{

std::size_t
Mob::olderCount(SeqNum load_seq) const
{
    // Binary search over the seq-sorted logical order: first logical
    // index whose seq >= load_seq.
    std::size_t lo = 0;
    std::size_t hi = count_;
    while (lo < hi) {
        std::size_t mid = lo + (hi - lo) / 2;
        if (at(mid).seq < load_seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

void
Mob::append(const StoreRec &r)
{
    if (count_ == ring_.size()) {
        // Grow with a contiguous rebuild: logical order becomes
        // physical order, head_ returns to 0.
        std::vector<StoreRec> grown;
        grown.reserve(ring_.empty() ? 16 : ring_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            grown.push_back(at(i));
        grown.resize(grown.capacity());
        ring_ = std::move(grown);
        head_ = 0;
    }
    ring_[physIndex(count_)] = r;
    ++count_;
}

void
Mob::insert(SeqNum sta_seq, Addr addr, std::uint8_t size, Addr pc,
            bool barrier)
{
    assert(count_ == 0 || at(count_ - 1).seq < sta_seq);
    StoreRec rec;
    rec.seq = sta_seq;
    rec.addr = addr;
    rec.pc = pc;
    rec.size = size;
    rec.barrier = barrier;
    append(rec);
    ++inserted_;
}

void
Mob::markViolation(Ordinal o)
{
    StoreRec &r = storeRec(o);
    if (!r.causedViolation)
        ++violations_;
    r.causedViolation = true;
}

Mob::Ordinal
Mob::storeOrdinal(SeqNum sta_seq) const
{
    const Ordinal o = ordinalOf(sta_seq);
    const StoreRec *r = get(o);
    return r != nullptr && r->seq == sta_seq ? o : kNoStore;
}

Mob::Ordinal
Mob::ordinalOf(const StoreRec &r) const
{
    const std::size_t phys = static_cast<std::size_t>(&r - ring_.data());
    assert(phys < ring_.size());
    const std::size_t logical =
        phys >= head_ ? phys - head_ : phys + ring_.size() - head_;
    return {retired() + logical};
}

void
Mob::staExecuted(Ordinal o, Cycle when)
{
    storeRec(o).staDoneAt = when;
}

void
Mob::stdExecuted(Ordinal o, Cycle when)
{
    storeRec(o).stdDoneAt = when;
}

void
Mob::retire(SeqNum sta_seq)
{
    assert(count_ != 0 && at(0).seq == sta_seq);
    (void)sta_seq;
    ++head_;
    if (head_ == ring_.size())
        head_ = 0;
    --count_;
}

void
Mob::clear()
{
    head_ = 0;
    count_ = 0;
}

Cycle
Mob::olderHorizon(Ordinal load, unsigned parts, bool barrier_only) const
{
    // Youngest first: a part that has not executed is most likely
    // among the youngest stores, and it ends the walk.
    Cycle h = 0;
    for (std::size_t i = olderIn(load); i-- > 0;) {
        const StoreRec &r = at(i);
        if (barrier_only && !r.barrier)
            continue;
        h = std::max(h, r.partsDoneAt(parts));
        if (h == kCycleNever)
            break;
    }
    return h;
}

const Mob::StoreRec *
Mob::youngestOverlapOlder(Ordinal load, Addr addr,
                          std::uint8_t size) const
{
    for (std::size_t i = olderIn(load); i-- > 0;) {
        const StoreRec &r = at(i);
        if (rangesOverlap(r.addr, r.size, addr, size))
            return &r;
    }
    return nullptr;
}

bool
Mob::collidesAt(SeqNum load_seq, Addr addr, std::uint8_t size,
                Cycle now) const
{
    for (std::size_t i = olderCount(load_seq); i-- > 0;) {
        const StoreRec &r = at(i);
        if (!r.addrKnownAt(now) &&
            rangesOverlap(r.addr, r.size, addr, size)) {
            return true;
        }
    }
    return false;
}

bool
Mob::partialAliasOlder(Ordinal load, Addr addr, std::uint8_t size,
                       Cycle now) const
{
    if (partialBits_ == 0)
        return false;
    const Addr mask = partialBits_ >= 64
                          ? ~Addr(0)
                          : (Addr(1) << partialBits_) - 1;
    for (std::size_t i = olderIn(load); i-- > 0;) {
        const StoreRec &r = at(i);
        if (!r.addrKnownAt(now))
            continue;
        // Narrow comparator: ranges compared in the masked window.
        // Accesses straddling the window boundary wrap; they are
        // vanishingly rare and a wrap only widens the match — i.e.
        // errs conservative, like the hardware.
        if (!rangesOverlap(r.addr & mask, r.size, addr & mask,
                           size)) {
            continue;
        }
        if (rangesOverlap(r.addr, r.size, addr, size)) {
            // The match is real: full-address machinery (forwarding,
            // collision classification) already handles this store.
            ++partialTrueMatches_;
            return false;
        }
        ++partialAliasMatches_;
        return true;
    }
    return false;
}

unsigned
Mob::overlapDistance(Ordinal load, Addr addr,
                     std::uint8_t size) const
{
    unsigned dist = 0;
    for (std::size_t i = olderIn(load); i-- > 0;) {
        const StoreRec &r = at(i);
        ++dist;
        if (rangesOverlap(r.addr, r.size, addr, size))
            return dist;
    }
    return 0;
}

const Mob::StoreRec *
Mob::olderAtDistance(Ordinal load, unsigned distance) const
{
    assert(distance >= 1);
    const std::size_t older = olderIn(load);
    if (older < distance)
        return nullptr;
    return &at(older - distance);
}

void
Mob::walkState(stateio::Archive &a)
{
    // The window oldest first, one row per store record.
    std::vector<StoreRec> recs;
    for (std::size_t i = 0; i < count_; ++i)
        recs.push_back(at(i));
    a.rows("stores", recs, [&recs](std::size_t i, stateio::Row &r) {
        StoreRec &s = recs[i];
        r(s.seq)(s.addr)(s.pc)(s.size)(s.barrier)(s.causedViolation)(
            s.staDoneAt)(s.stdDoneAt);
    });
    if (a.loading()) {
        clear();
        for (const StoreRec &s : recs)
            append(s);
    }
    a("inserted", inserted_);
    a("violations", violations_);
    a("partial_alias", partialAliasMatches_);
    a("partial_true", partialTrueMatches_);
}

} // namespace lrs
