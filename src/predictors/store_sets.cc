#include "predictors/store_sets.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/diag.hh"

namespace lrs
{

StoreSets::StoreSets(std::size_t ssit_entries, std::size_t num_sets,
                     std::uint64_t clear_interval)
    : ssit_(ssit_entries, kNoSet), lfst_(num_sets),
      clearInterval_(clear_interval)
{
    if (ssit_entries == 0 || !isPowerOf2(ssit_entries)) {
        throwConfig("pred.store_sets", "ssit_entries",
                    "SSIT size must be a nonzero power of two (got " +
                        std::to_string(ssit_entries) + ")");
    }
    if (num_sets == 0) {
        throwConfig("pred.store_sets", "num_sets",
                    "LFST must have at least one set (got 0)");
    }
}

std::size_t
StoreSets::index(Addr pc) const
{
    return foldXor(pc >> 1, floorLog2(ssit_.size())) &
           (ssit_.size() - 1);
}

void
StoreSets::storeRenamed(Addr pc, SeqNum seq)
{
    const std::uint32_t sid = ssit_[index(pc)];
    if (sid == kNoSet)
        return;
    lfst_[sid].seq = seq;
    lfst_[sid].valid = true;
}

void
StoreSets::storeCompleted(Addr pc, SeqNum seq)
{
    const std::uint32_t sid = ssit_[index(pc)];
    if (sid == kNoSet)
        return;
    if (lfst_[sid].valid && lfst_[sid].seq == seq)
        lfst_[sid].valid = false;
}

SeqNum
StoreSets::loadRenamed(Addr pc) const
{
    const std::uint32_t sid = ssit_[index(pc)];
    if (sid == kNoSet || !lfst_[sid].valid)
        return kNoStoreSeq;
    return lfst_[sid].seq;
}

void
StoreSets::violation(Addr load_pc, Addr store_pc)
{
    ++events_;
    if (clearInterval_ != 0 && events_ % clearInterval_ == 0) {
        clear();
        return;
    }

    std::uint32_t &ls = ssit_[index(load_pc)];
    std::uint32_t &ss = ssit_[index(store_pc)];
    if (ls == kNoSet && ss == kNoSet) {
        // Neither has a set: allocate one for both.
        const std::uint32_t sid =
            nextSet_++ % static_cast<std::uint32_t>(lfst_.size());
        ls = sid;
        ss = sid;
    } else if (ls == kNoSet) {
        ls = ss;
    } else if (ss == kNoSet) {
        ss = ls;
    } else {
        // Both assigned: merge into the smaller ID ([Chry98] rule,
        // which keeps merging convergent).
        const std::uint32_t winner = std::min(ls, ss);
        ls = winner;
        ss = winner;
    }
}

void
StoreSets::clear()
{
    std::fill(ssit_.begin(), ssit_.end(), kNoSet);
    for (auto &l : lfst_)
        l.valid = false;
}

std::size_t
StoreSets::storageBits() const
{
    // SSIT: a set ID per entry; LFST: a sequence tag + valid per set.
    const std::size_t sid_bits = ceilLog2(lfst_.size()) + 1;
    return ssit_.size() * sid_bits + lfst_.size() * (8 + 1);
}

void
StoreSets::walkState(stateio::Archive &a)
{
    a.ints("ssit", ssit_);
    a.rows("lfst", lfst_.size(), [this](std::size_t i, stateio::Row &r) {
        r(lfst_[i].seq)(lfst_[i].valid);
    });
    a("next_set", nextSet_);
    a("events", events_);
}

} // namespace lrs
