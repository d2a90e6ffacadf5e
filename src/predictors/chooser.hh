/**
 * @file
 * Composite predictors: several binary components combined by a
 * chooser policy. The paper uses a simple majority vote as the
 * hit-miss "chooser" (section 2.2) and evaluates four combination
 * policies for bank prediction (section 2.3):
 *   1. simple majority vote;
 *   2. weighted sum with a prediction threshold;
 *   3. only high-confidence component predictions are counted;
 *   4. component weights scaled by their confidence.
 * Policies 2-4 may *decline* to predict — the prediction-rate /
 * accuracy trade-off Figure 12 sweeps.
 */

#ifndef LRS_PREDICTORS_CHOOSER_HH
#define LRS_PREDICTORS_CHOOSER_HH

#include <memory>
#include <vector>

#include "predictors/binary.hh"

namespace lrs
{

/** How a composite combines its component votes. */
enum class ChoosePolicy
{
    Majority,           ///< unweighted vote, always predicts
    WeightedThreshold,  ///< signed weighted sum, |sum| >= threshold
    ConfidenceFiltered, ///< only confident components vote
    ConfidenceWeighted, ///< weights scaled by component confidence
};

/**
 * A composite of binary predictors under a chooser policy.
 *
 * Exposes both a forced prediction (BinaryPredictor interface: the
 * sign of the vote sum) and a "maybe" prediction that can decline
 * (used by the bank predictor, where declined loads are replicated to
 * all banks).
 */
class CompositePredictor : public BinaryPredictor
{
  public:
    struct Component
    {
        std::unique_ptr<BinaryPredictor> pred;
        double weight = 1.0;
    };

    /** A prediction that may be withheld. */
    struct MaybePrediction
    {
        bool valid;
        bool taken;
        double confidence;
    };

    CompositePredictor(std::vector<Component> components,
                       ChoosePolicy policy = ChoosePolicy::Majority,
                       double threshold = 0.0,
                       double conf_cutoff = 0.5)
        : components_(std::move(components)), policy_(policy),
          threshold_(threshold), confCutoff_(conf_cutoff)
    {
    }

    /** Combined prediction that may decline. */
    MaybePrediction predictMaybe(Addr pc) const;

    Prediction
    predict(Addr pc) const override
    {
        const auto m = predictMaybe(pc);
        return {m.taken, m.confidence};
    }

    void
    update(Addr pc, bool taken) override
    {
        for (auto &c : components_)
            c.pred->update(pc, taken);
    }

    std::size_t storageBits() const override;
    std::string name() const override;

    std::size_t numComponents() const { return components_.size(); }

    /** Per-component fan-out, positional (composition is config). */
    void
    walkState(stateio::Archive &a) override
    {
        a.sections("components", components_.size(),
                   [this](std::size_t i, stateio::Archive &sub) {
                       components_[i].pred->walkState(sub);
                   });
    }

  private:
    std::vector<Component> components_;
    ChoosePolicy policy_;
    double threshold_;
    double confCutoff_;
};

} // namespace lrs

#endif // LRS_PREDICTORS_CHOOSER_HH
