#include "common/stats_registry.hh"

#include <stdexcept>

namespace lrs
{

StatsRegistry::Stat &
StatsRegistry::add(const std::string &name, Kind kind)
{
    if (name.empty())
        throw std::logic_error("StatsRegistry: empty stat name");
    if (has(name))
        throw std::logic_error("StatsRegistry: duplicate stat \"" +
                               name + "\"");
    auto s = std::make_unique<Stat>();
    s->name = name;
    s->kind = kind;
    stats_.push_back(std::move(s));
    return *stats_.back();
}

void
StatsRegistry::bindCounter(const std::string &name, std::uint64_t *slot)
{
    if (slot == nullptr)
        throw std::logic_error("StatsRegistry: null bound counter \"" +
                               name + "\"");
    add(name, Kind::BoundCounter).boundCounter = slot;
}

Log2Histogram &
StatsRegistry::log2hist(const std::string &name)
{
    Stat &s = add(name, Kind::OwnedLog2Histogram);
    s.log2hist = std::make_unique<Log2Histogram>();
    return *s.log2hist;
}

void
StatsRegistry::derived(const std::string &name,
                       std::function<double()> getter)
{
    if (!getter)
        throw std::logic_error("StatsRegistry: null getter for \"" +
                               name + "\"");
    add(name, Kind::Derived).getter = std::move(getter);
}

StatsGroup
StatsRegistry::group(const std::string &prefix)
{
    return StatsGroup(*this, prefix);
}

bool
StatsRegistry::has(const std::string &name) const
{
    for (const auto &s : stats_) {
        if (s->name == name)
            return true;
    }
    return false;
}

double
StatsRegistry::value(const std::string &name) const
{
    for (const auto &s : stats_) {
        if (s->name != name)
            continue;
        switch (s->kind) {
          case Kind::BoundCounter:
            return static_cast<double>(*s->boundCounter);
          case Kind::OwnedLog2Histogram:
            return static_cast<double>(s->log2hist->count());
          case Kind::Derived:
            return s->getter();
        }
    }
    throw std::out_of_range("StatsRegistry: no stat \"" + name +
                            "\"");
}

json::Value
StatsRegistry::leafJson(const Stat &s) const
{
    switch (s.kind) {
      case Kind::BoundCounter:
        return json::Value(*s.boundCounter);
      case Kind::Derived:
        return json::Value(s.getter());
      case Kind::OwnedLog2Histogram:
        return s.log2hist->toJson();
    }
    return json::Value();
}

json::Value
StatsRegistry::toJson() const
{
    json::Value root = json::Value::object();
    for (const auto &s : stats_) {
        // Walk/create the nested objects named by the dotted prefix.
        json::Value *node = &root;
        std::size_t start = 0;
        while (true) {
            const std::size_t dot = s->name.find('.', start);
            if (dot == std::string::npos)
                break;
            const std::string part = s->name.substr(start, dot - start);
            if (const json::Value *child = node->find(part);
                child == nullptr || !child->isObject()) {
                node->set(part, json::Value::object());
            }
            // set() keeps the member in place, so this lookup is the
            // freshly inserted (or pre-existing) object.
            node = const_cast<json::Value *>(node->find(part));
            start = dot + 1;
        }
        node->set(s->name.substr(start), leafJson(*s));
    }
    return root;
}

} // namespace lrs
