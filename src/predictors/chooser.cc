#include "predictors/chooser.hh"

#include <cmath>

namespace lrs
{

CompositePredictor::MaybePrediction
CompositePredictor::predictMaybe(Addr pc) const
{
    double sum = 0.0;
    double total_weight = 0.0;
    bool any_vote = false;

    const auto sign = [](bool taken) { return taken ? 1.0 : -1.0; };
    for (const auto &c : components_) {
        // Majority and WeightedThreshold count directions only, so
        // they skip the components' confidences.
        switch (policy_) {
          case ChoosePolicy::Majority:
            sum += sign(c.pred->taken(pc));
            total_weight += 1.0;
            any_vote = true;
            break;
          case ChoosePolicy::WeightedThreshold:
            sum += sign(c.pred->taken(pc)) * c.weight;
            total_weight += c.weight;
            any_vote = true;
            break;
          case ChoosePolicy::ConfidenceFiltered: {
            const auto p = c.pred->predict(pc);
            if (p.confidence >= confCutoff_) {
                sum += sign(p.taken) * c.weight;
                total_weight += c.weight;
                any_vote = true;
            }
            break;
          }
          case ChoosePolicy::ConfidenceWeighted: {
            const auto p = c.pred->predict(pc);
            sum += sign(p.taken) * c.weight * p.confidence;
            total_weight += c.weight;
            any_vote = true;
            break;
          }
        }
    }

    MaybePrediction out;
    out.taken = sum > 0.0;
    out.confidence =
        total_weight > 0.0 ? std::abs(sum) / total_weight : 0.0;
    switch (policy_) {
      case ChoosePolicy::Majority:
        out.valid = true;
        break;
      default:
        out.valid = any_vote && std::abs(sum) >= threshold_;
        break;
    }
    return out;
}

std::size_t
CompositePredictor::storageBits() const
{
    std::size_t bits = 0;
    for (const auto &c : components_)
        bits += c.pred->storageBits();
    return bits;
}

std::string
CompositePredictor::name() const
{
    std::string n;
    for (const auto &c : components_) {
        if (!n.empty())
            n += "+";
        if (c.weight != 1.0)
            n += std::to_string(static_cast<int>(c.weight)) + "*";
        n += c.pred->name();
    }
    return n;
}

} // namespace lrs
