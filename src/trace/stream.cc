#include "trace/stream.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "common/diag.hh"

namespace lrs
{

namespace
{

/** Slots of a new builder's static-uop table (a power of two). */
constexpr std::size_t kInitialSlots = 4096;

} // namespace

TraceBuilder::TraceBuilder(std::size_t expected)
{
    s_.words.reserve(expected);
    s_.marks.reserve(expected / TraceStore::kMarkEvery + 1);
    rehash(kInitialSlots);
}

void
TraceBuilder::rehash(std::size_t slots)
{
    table_.assign(slots, Slot{});
    tableShift_ = 64 - std::countr_zero(slots);
    for (std::size_t k = 0; k < s_.statics.size(); ++k) {
        const Uop &u = s_.statics[k];
        std::size_t i = home(u.pc, tailOf(u));
        while (table_[i].tagged != 0)
            i = (i + 1) & (slots - 1);
        table_[i] = {u.pc, tailOf(u) | (k + 1) << kTailBits};
    }
}

std::uint32_t
TraceBuilder::insert(const Uop &u, std::size_t slot)
{
    // Both a word and a slot must be able to name the new uop.
    constexpr std::size_t kMaxStatics =
        std::min(std::size_t(1) << (32 - TraceStore::kIndexShift),
                 (std::size_t(1) << (64 - kTailBits)) - 1);
    if (s_.statics.size() == kMaxStatics) {
        throw TraceError(makeDiag(
            DiagCode::TraceLimitExceeded, "trace.store", "statics",
            "trace holds more than " + std::to_string(kMaxStatics) +
                " distinct static uops"));
    }
    Uop s = u;
    s.addr = kAddrInvalid;
    s.taken = false;
    s_.statics.push_back(s);
    const std::size_t k = s_.statics.size() - 1;
    table_[slot] = {u.pc, tailOf(u) | (k + 1) << kTailBits};
    if (2 * s_.statics.size() > table_.size())
        rehash(2 * table_.size());
    return static_cast<std::uint32_t>(k);
}

std::unique_ptr<VecTrace>
TraceBuilder::finish(std::string name)
{
    s_.statics.shrink_to_fit();
    s_.words.shrink_to_fit();
    s_.addrs.shrink_to_fit();
    s_.marks.shrink_to_fit();
    std::unique_ptr<VecTrace> t(new VecTrace);
    t->name_ = std::move(name);
    t->store_ = std::make_shared<const TraceStore>(std::move(s_));
    return t;
}

VecTrace::VecTrace(std::string name, const std::vector<Uop> &uops)
{
    TraceBuilder b(uops.size());
    for (const Uop &u : uops)
        b.push(u);
    *this = std::move(*b.finish(std::move(name)));
}

void
VecTrace::seek(std::size_t n)
{
    const TraceStore &s = *store_;
    pos_ = std::min(n, s.words.size());
    if (pos_ == s.words.size()) {
        addrPos_ = s.addrs.size();
        return;
    }
    const std::size_t k = pos_ / TraceStore::kMarkEvery;
    addrPos_ = s.marks[k];
    for (std::size_t i = k * TraceStore::kMarkEvery; i < pos_; ++i)
        addrPos_ += (s.words[i] & TraceStore::kHasAddr) != 0;
}

} // namespace lrs
