#include "memory/cache.hh"

#include "common/bitutils.hh"

namespace lrs
{

std::vector<Diag>
CacheParams::validate(const std::string &component) const
{
    std::vector<Diag> diags;
    const auto bad = [&](const std::string &param,
                         const std::string &msg) {
        diags.push_back(
            makeDiag(DiagCode::ConfigInvalid, component, param, msg));
    };
    if (lineBytes == 0 || !isPowerOf2(lineBytes)) {
        bad("line_bytes", "line size must be a nonzero power of two "
                          "(got " +
                              std::to_string(lineBytes) + ")");
    }
    if (assoc == 0)
        bad("assoc", "associativity must be >= 1 (got 0)");
    if (lineBytes != 0 && assoc != 0) {
        if (sizeBytes < std::uint64_t{lineBytes} * assoc) {
            bad("size_bytes",
                "capacity " + std::to_string(sizeBytes) +
                    " is smaller than one set (" +
                    std::to_string(lineBytes) + "B lines x " +
                    std::to_string(assoc) + " ways)");
        } else if (!isPowerOf2(sizeBytes /
                               (std::uint64_t{lineBytes} * assoc))) {
            bad("size_bytes",
                "capacity " + std::to_string(sizeBytes) +
                    " does not yield a power-of-two set count with " +
                    std::to_string(lineBytes) + "B lines, " +
                    std::to_string(assoc) + " ways");
        }
    }
    return diags;
}

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    if (auto diags = params_.validate(params_.name); !diags.empty())
        throw ConfigError(std::move(diags));
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    lines_.resize(numSets_ * params_.assoc);
}

Cache::LookupResult
Cache::probe(Addr addr, Cycle now) const
{
    const Addr tag = lineAddr(addr);
    const std::uint64_t set = tag & (numSets_ - 1);
    const Line *base = &lines_[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &l = base[w];
        if (l.valid && l.tag == tag)
            return {true, l.fillTime <= now, l.fillTime};
    }
    return {false, false, 0};
}

Cache::LookupResult
Cache::access(Addr addr, Cycle now)
{
    const Addr tag = lineAddr(addr);
    const std::uint64_t set = tag & (numSets_ - 1);
    Line *base = &lines_[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lastUse = now;
            if (l.fillTime <= now) {
                ++hits_;
                return {true, true, l.fillTime};
            }
            ++dynMisses_;
            return {true, false, l.fillTime};
        }
    }
    ++misses_;
    return {false, false, 0};
}

void
Cache::fill(Addr addr, Cycle fill_time)
{
    const Addr tag = lineAddr(addr);
    const std::uint64_t set = tag & (numSets_ - 1);
    Line *base = &lines_[set * params_.assoc];
    // Reuse an existing entry (refill), else an invalid way, else LRU.
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            victim = &l;
            break;
        }
    }
    if (!victim) {
        for (unsigned w = 0; w < params_.assoc; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
        }
    }
    if (!victim) {
        victim = base;
        for (unsigned w = 1; w < params_.assoc; ++w)
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->fillTime = fill_time;
    victim->lastUse = fill_time;
}

void
Cache::flush()
{
    for (auto &l : lines_)
        l.valid = false;
}

void
Cache::walkState(stateio::Archive &a)
{
    // Column-major flat arrays: compact, and each is checked against
    // the structural line count on restore.
    a.column("tag", lines_, &Line::tag);
    a.column("fill_time", lines_, &Line::fillTime);
    a.column("last_use", lines_, &Line::lastUse);
    a.column("valid", lines_, &Line::valid);
    a("hits", hits_);
    a("misses", misses_);
    a("dynamic_misses", dynMisses_);
}

} // namespace lrs
