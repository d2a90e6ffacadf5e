#include "predictors/cht.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/random.hh"

namespace lrs
{

/** Partial tag width of the tagged tables. */
constexpr unsigned kTagBits = 16;

const char *
chtKindName(ChtKind k)
{
    return enumName(kChtKindNames, k).display;
}

std::vector<Diag>
ChtParams::validate(const std::string &component) const
{
    std::vector<Diag> diags;
    const auto bad = [&](const std::string &param,
                         const std::string &msg) {
        diags.push_back(
            makeDiag(DiagCode::ConfigInvalid, component, param, msg));
    };

    if (entries == 0 || !isPowerOf2(entries)) {
        bad("entries", "table size must be a nonzero power of two "
                       "(got " +
                           std::to_string(entries) + ")");
    }
    if (counterBits < 1 || counterBits > 4) {
        bad("counter_bits", "counter width must be 1..4 bits (got " +
                                std::to_string(counterBits) + ")");
    }
    if (pathBits > 32) {
        bad("path_bits", "path-history slice must be <= 32 bits "
                         "(got " +
                             std::to_string(pathBits) + ")");
    }

    const bool has_tagged = kind != ChtKind::Tagless;
    if (has_tagged) {
        if (assoc == 0) {
            bad("assoc", "associativity must be >= 1 (got 0)");
        } else if (entries != 0 && isPowerOf2(entries)) {
            if (entries % assoc != 0 ||
                !isPowerOf2(entries / assoc)) {
                bad("assoc",
                    "associativity must divide the entry count into "
                    "a power-of-two number of sets (got " +
                        std::to_string(entries) + " entries / " +
                        std::to_string(assoc) + "-way)");
            }
        }
    }
    if (kind == ChtKind::Combined &&
        (taglessEntries == 0 || !isPowerOf2(taglessEntries))) {
        bad("tagless_entries",
            "combined tagless table size must be a nonzero power of "
            "two (got " +
                std::to_string(taglessEntries) + ")");
    }
    return diags;
}

Cht::Cht(const ChtParams &params)
    : params_(params)
{
    if (auto diags = params_.validate(); !diags.empty())
        throw ConfigError(std::move(diags));

    const bool has_tagged = params_.kind != ChtKind::Tagless;
    const bool has_tagless = params_.kind == ChtKind::Tagless ||
                             params_.kind == ChtKind::Combined;

    if (has_tagged) {
        const std::size_t sets = params_.entries / params_.assoc;
        setBits_ = floorLog2(sets);
        tagged_.resize(params_.entries);
    }
    if (has_tagless) {
        const std::size_t n = params_.kind == ChtKind::Tagless
                                  ? params_.entries
                                  : params_.taglessEntries;
        taglessBits_ = floorLog2(n);
        taglessCtr_.assign(n, 0);
        if (params_.trackDistance)
            taglessDist_.assign(n, 0);
    }
}

std::size_t
Cht::setIndex(Addr pc) const
{
    return foldXor(pc >> 1, setBits_) & mask(setBits_);
}

std::uint32_t
Cht::tagOf(Addr pc) const
{
    return static_cast<std::uint32_t>((pc >> (1 + setBits_)) &
                                      mask(kTagBits));
}

std::size_t
Cht::taglessIndex(Addr pc) const
{
    return foldXor(pc >> 1, taglessBits_) & mask(taglessBits_);
}

const Cht::Entry *
Cht::lookupTagged(Addr pc) const
{
    const std::size_t set = setIndex(pc);
    const std::uint32_t tag = tagOf(pc);
    const Entry *base = &tagged_[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    return nullptr;
}

Cht::Entry *
Cht::lookupTagged(Addr pc)
{
    return const_cast<Entry *>(
        static_cast<const Cht *>(this)->lookupTagged(pc));
}

Cht::Entry *
Cht::allocateTagged(Addr pc)
{
    const std::size_t set = setIndex(pc);
    Entry *base = &tagged_[set * params_.assoc];
    Entry *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
    }
    if (!victim) {
        victim = base;
        for (unsigned w = 1; w < params_.assoc; ++w)
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
    }
    *victim = Entry{};
    victim->valid = true;
    victim->tag = tagOf(pc);
    victim->lastUse = tick_;
    return victim;
}

bool
Cht::counterPredicts(std::uint8_t c) const
{
    return c >= (1u << (params_.counterBits - 1));
}

void
Cht::counterTrain(std::uint8_t &c, bool up) const
{
    if (params_.sticky) {
        if (up)
            c = (1u << params_.counterBits) - 1;
        return;
    }
    if (up) {
        if (c < (1u << params_.counterBits) - 1)
            ++c;
    } else {
        if (c > 0)
            --c;
    }
}

Addr
Cht::keyOf(Addr pc, std::uint64_t path) const
{
    if (params_.pathBits == 0)
        return pc;
    // Shift the path slice above bit 0 so it perturbs the index and
    // tag rather than the (ignored) low alignment bit.
    return pc ^ ((path & mask(params_.pathBits)) << 5);
}

Cht::Prediction
Cht::predict(Addr pc, std::uint64_t path) const
{
    pc = keyOf(pc, path);
    switch (params_.kind) {
      case ChtKind::Full: {
        const Entry *e = lookupTagged(pc);
        if (!e)
            return {false, 0, 0};
        return {counterPredicts(e->counter), e->distance, e->counter};
      }
      case ChtKind::TagOnly: {
        const Entry *e = lookupTagged(pc);
        if (!e)
            return {false, 0, 0};
        return {true, e->distance, 1};
      }
      case ChtKind::Tagless: {
        const std::size_t i = taglessIndex(pc);
        const bool coll = counterPredicts(taglessCtr_[i]);
        const unsigned dist =
            params_.trackDistance ? taglessDist_[i] : 0;
        return {coll, coll ? dist : 0, taglessCtr_[i]};
      }
      case ChtKind::Combined: {
        const Entry *e = lookupTagged(pc);
        const bool tag_coll = e != nullptr;
        const std::uint8_t tl_ctr = taglessCtr_[taglessIndex(pc)];
        const bool tl_coll = counterPredicts(tl_ctr);
        const bool coll = params_.combineConservative
                              ? (tag_coll || tl_coll)
                              : (tag_coll && tl_coll);
        const unsigned dist = e ? e->distance : 0;
        return {coll, coll ? dist : 0,
                std::max<unsigned>(e ? e->counter : 0, tl_ctr)};
      }
    }
    return {false, 0, 0};
}

void
Cht::update(Addr pc, bool collided, unsigned distance,
            std::uint64_t path)
{
    pc = keyOf(pc, path);
    ++tick_;
    const auto clamped_dist = static_cast<std::uint8_t>(
        std::min<unsigned>(distance, kMaxDistance));

    switch (params_.kind) {
      case ChtKind::Full: {
        Entry *e = lookupTagged(pc);
        if (!e && collided)
            e = allocateTagged(pc); // allocate on first collision only
        if (e) {
            e->lastUse = tick_;
            counterTrain(e->counter, collided);
            if (collided && params_.trackDistance) {
                e->distance = e->distance == 0
                                  ? clamped_dist
                                  : std::min(e->distance, clamped_dist);
            }
        }
        break;
      }
      case ChtKind::TagOnly: {
        Entry *e = lookupTagged(pc);
        if (!e && collided)
            e = allocateTagged(pc);
        if (e && collided) {
            e->lastUse = tick_;
            if (params_.trackDistance) {
                e->distance = e->distance == 0
                                  ? clamped_dist
                                  : std::min(e->distance, clamped_dist);
            }
        }
        break;
      }
      case ChtKind::Tagless: {
        const std::size_t i = taglessIndex(pc);
        counterTrain(taglessCtr_[i], collided);
        if (collided && params_.trackDistance) {
            taglessDist_[i] =
                taglessDist_[i] == 0
                    ? clamped_dist
                    : std::min(taglessDist_[i], clamped_dist);
        }
        break;
      }
      case ChtKind::Combined: {
        counterTrain(taglessCtr_[taglessIndex(pc)], collided);
        Entry *e = lookupTagged(pc);
        if (!e && collided)
            e = allocateTagged(pc);
        if (e && collided) {
            e->lastUse = tick_;
            if (params_.trackDistance) {
                e->distance = e->distance == 0
                                  ? clamped_dist
                                  : std::min(e->distance, clamped_dist);
            }
        }
        break;
      }
    }

    ++updates_;
    maybeCyclicClear();
}

void
Cht::maybeCyclicClear()
{
    if (params_.clearInterval != 0 &&
        updates_ % params_.clearInterval == 0) {
        clear();
    }
}

void
Cht::corruptRandomBit(Rng &rng)
{
    // Pick uniformly over the table's state bits: tagged entries
    // first (valid, tag, counter, distance), then tagless counters
    // and distances.
    if (!tagged_.empty() && (taglessCtr_.empty() || rng.chance(0.5))) {
        Entry &e = tagged_[rng.below(tagged_.size())];
        switch (rng.below(4)) {
          case 0:
            e.valid = !e.valid;
            break;
          case 1:
            e.tag ^= 1u << rng.below(kTagBits);
            break;
          case 2:
            e.counter ^= static_cast<std::uint8_t>(
                1u << rng.below(params_.counterBits));
            break;
          default:
            e.distance ^= static_cast<std::uint8_t>(
                1u << rng.below(6));
            break;
        }
        return;
    }
    if (!taglessCtr_.empty()) {
        const std::size_t i = rng.below(taglessCtr_.size());
        if (!taglessDist_.empty() && rng.chance(0.5)) {
            taglessDist_[i] ^= static_cast<std::uint8_t>(
                1u << rng.below(6));
        } else {
            taglessCtr_[i] ^= static_cast<std::uint8_t>(
                1u << rng.below(params_.counterBits));
        }
    }
}

void
Cht::clear()
{
    for (auto &e : tagged_)
        e = Entry{};
    std::fill(taglessCtr_.begin(), taglessCtr_.end(), 0);
    std::fill(taglessDist_.begin(), taglessDist_.end(), 0);
}

std::size_t
Cht::storageBits() const
{
    const std::size_t dist_bits = params_.trackDistance ? 6 : 0;
    std::size_t bits = 0;
    switch (params_.kind) {
      case ChtKind::Full:
        bits = params_.entries *
               (1 + kTagBits + params_.counterBits + dist_bits);
        break;
      case ChtKind::TagOnly:
        bits = params_.entries * (1 + kTagBits + dist_bits);
        break;
      case ChtKind::Tagless:
        bits = params_.entries * (params_.counterBits + dist_bits);
        break;
      case ChtKind::Combined:
        bits = params_.entries * (1 + kTagBits + dist_bits) +
               params_.taglessEntries * params_.counterBits;
        break;
    }
    return bits;
}

std::string
Cht::name() const
{
    // Appended piece by piece: GCC 12 raises a false -Wrestrict on an
    // inlined "literal" + std::string temporary at -O3.
    std::string n = chtKindName(params_.kind);
    n += '-';
    n += std::to_string(params_.entries);
    if (params_.trackDistance)
        n += "+dist";
    if (params_.pathBits > 0) {
        n += "+path";
        n += std::to_string(params_.pathBits);
    }
    return n;
}

void
Cht::walkState(stateio::Archive &a)
{
    a.rows("tagged", tagged_.size(),
           [this](std::size_t i, stateio::Row &r) {
               Entry &e = tagged_[i];
               r(e.valid)(e.tag)(e.counter)(e.distance)(e.lastUse);
           });
    a.ints("tagless_ctr", taglessCtr_);
    a.ints("tagless_dist", taglessDist_);
    a("tick", tick_);
    a("updates", updates_);
}

} // namespace lrs
