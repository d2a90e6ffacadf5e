/**
 * @file
 * The binary predictor framework.
 *
 * Nearly every mechanism in the paper is "a binary predictor adapted
 * from branch prediction" (section 2.2: "since a hit-miss prediction
 * is a binary prediction nearly all branch prediction techniques may
 * be adapted to this task"; likewise bank prediction with two banks).
 * This interface is shared by the bimodal, local, gshare and gskew
 * components and by the chooser composites built from them.
 */

#ifndef LRS_PREDICTORS_BINARY_HH
#define LRS_PREDICTORS_BINARY_HH

#include <cstddef>
#include <string>

#include "common/state_io.hh"
#include "common/types.hh"

namespace lrs
{

/**
 * A PC-indexed binary (taken / not-taken) predictor.
 *
 * "Taken" maps to: branch taken, load misses, load collides, or bank 1
 * depending on the adaptation.
 */
class BinaryPredictor
{
  public:
    virtual ~BinaryPredictor() = default;

    /** A prediction with a confidence estimate in [0, 1]. */
    struct Prediction
    {
        bool taken;
        double confidence;
    };

    /** Predict the outcome for static instruction @p pc. */
    virtual Prediction predict(Addr pc) const = 0;

    /**
     * The predicted outcome alone: predict(pc).taken, without the
     * confidence, for voters that need only the direction.
     */
    virtual bool taken(Addr pc) const { return predict(pc).taken; }

    /** Train with the actual outcome (also advances any history). */
    virtual void update(Addr pc, bool taken) = 0;

    /** Hardware budget of the predictor, in bits. */
    virtual std::size_t storageBits() const = 0;

    /** Short name for reports ("gshare", "local", ...). */
    virtual std::string name() const = 0;

    /**
     * Machine-snapshot support (common/state_io.hh): walk every
     * mutable table and history, such that a same-configured
     * predictor restored through the walk predicts and trains
     * bit-identically from here on. A loading walk throws
     * ConfigError(E_JOURNAL_INVALID) on a geometry mismatch.
     */
    virtual void walkState(stateio::Archive &a) = 0;
};

} // namespace lrs

#endif // LRS_PREDICTORS_BINARY_HH
