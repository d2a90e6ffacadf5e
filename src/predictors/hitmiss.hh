/**
 * @file
 * Data-cache hit-miss predictors (paper section 2.2).
 *
 * A HitMissPredictor gives a per-load binary hit/miss prediction for
 * the first-level data cache. Configurations from the paper:
 *
 *  - always-hit: what "most processors today" do implicitly;
 *  - local-only: a two-level local predictor with a tagless table of
 *    2048 entries and a history length of 8 (~2KB);
 *  - chooser (hybrid): local (512 entries) + gshare (11-load history)
 *    + gskew (3 x 1K entries, 20-load history) combined by a simple
 *    majority vote (< 2KB total);
 *  - timing-assisted: wraps another predictor and consults the
 *    outstanding-miss queue / recently-serviced buffer — a load whose
 *    line has an in-flight miss is a (dynamic) miss, a load whose line
 *    was just serviced is a hit.
 */

#ifndef LRS_PREDICTORS_HITMISS_HH
#define LRS_PREDICTORS_HITMISS_HH

#include <memory>
#include <string>

#include "common/state_io.hh"
#include "predictors/addr_pred.hh"
#include "predictors/binary.hh"

namespace lrs
{

/** Hit-miss predictor selection for the core. */
enum class HmpKind
{
    AlwaysHit,   ///< baseline: every load assumed to hit L1
    Local,       ///< local-only predictor (2048 entries, history 8)
    Chooser,     ///< hybrid local+gshare+gskew majority chooser
    LocalTiming, ///< local + outstanding-miss timing information
    Perfect,     ///< oracle hit-miss knowledge
};

/**
 * Per-load L1 hit/miss predictor. "Taken" polarity is *miss*.
 */
class HitMissPredictor
{
  public:
    virtual ~HitMissPredictor() = default;

    /** Timing hint from the memory hierarchy (may be absent). */
    struct Hint
    {
        bool outstandingMiss = false;
        bool recentFill = false;
    };

    /** Predict: true = the load will miss L1. */
    virtual bool predictMiss(Addr pc,
                             const Hint *hint = nullptr) const = 0;

    /**
     * Confidence in [0, 1] behind predictMiss() for @p pc, for the
     * telemetry confidence histogram. Purely observational — never
     * consulted by the scheduling machinery — and 0 where the
     * underlying structure has no confidence notion.
     */
    virtual double missConfidence(Addr /*pc*/) const { return 0.0; }

    /**
     * Which line's timing state (outstanding-miss queue / recently-
     * serviced buffer) the machine should probe on behalf of this
     * predictor. Timing structures are indexed by address, and the
     * effective address is unknown at schedule time, so it must be
     * *predicted* (paper section 2.2: "an address predictor can be
     * queried and the result used to check cache-line dependence").
     * Returns kAddrInvalid when no (confident) prediction exists.
     */
    virtual Addr timingProbeAddr(Addr /*pc*/) const
    {
        return kAddrInvalid;
    }

    /**
     * Train with the actual outcome; @p addr is the load's actual
     * effective address (used by address-assisted configurations).
     */
    virtual void update(Addr pc, bool miss,
                        Addr addr = kAddrInvalid) = 0;

    virtual std::size_t storageBits() const = 0;
    virtual std::string name() const = 0;

    /**
     * Machine-snapshot support (common/state_io.hh). The default suits
     * stateless predictors (always-hit, perfect): nothing to walk.
     */
    virtual void walkState(stateio::Archive & /*a*/) {}
};

/** The baseline: every load is predicted to hit. */
class AlwaysHitHmp : public HitMissPredictor
{
  public:
    bool
    predictMiss(Addr, const Hint *) const override
    {
        return false;
    }
    void update(Addr, bool, Addr) override {}
    std::size_t storageBits() const override { return 0; }
    std::string name() const override { return "always-hit"; }
};

/** Adapter running any binary predictor as a hit-miss predictor. */
class TableHmp : public HitMissPredictor
{
  public:
    explicit TableHmp(std::unique_ptr<BinaryPredictor> pred)
        : pred_(std::move(pred))
    {
    }

    bool
    predictMiss(Addr pc, const Hint *) const override
    {
        return pred_->predict(pc).taken;
    }

    double
    missConfidence(Addr pc) const override
    {
        return pred_->predict(pc).confidence;
    }

    void
    update(Addr pc, bool miss, Addr) override
    {
        pred_->update(pc, miss);
    }

    std::size_t storageBits() const override
    {
        return pred_->storageBits();
    }

    std::string name() const override { return pred_->name(); }

    void
    walkState(stateio::Archive &a) override
    {
        a.component("pred", *pred_);
    }

  private:
    std::unique_ptr<BinaryPredictor> pred_;
};

/**
 * Timing-assisted predictor: an internal stride address predictor
 * guesses the load's line; if (and only if) that guess is confident,
 * the machine probes the outstanding-miss queue / recently-serviced
 * buffer for that line, and the hint overrides the inner table
 * prediction. A wrong address guess naturally yields a wrong (or
 * useless) hint — the realistic cost of this scheme.
 */
class TimingHmp : public HitMissPredictor
{
  public:
    explicit TimingHmp(std::unique_ptr<HitMissPredictor> inner,
                       std::size_t addr_entries = 1024)
        : inner_(std::move(inner)),
          // A lower confidence threshold than the bank predictor's:
          // a wrong line probe just yields a useless hint here, while
          // line-reuse (stride-0) patterns are common and valuable.
          ap_(addr_entries, 2, 1)
    {
    }

    bool
    predictMiss(Addr pc, const Hint *hint) const override
    {
        if (hint) {
            if (hint->outstandingMiss)
                return true; // dynamic miss
            if (hint->recentFill)
                return false; // line just serviced
        }
        return inner_->predictMiss(pc, nullptr);
    }

    double
    missConfidence(Addr pc) const override
    {
        return inner_->missConfidence(pc);
    }

    Addr
    timingProbeAddr(Addr pc) const override
    {
        const auto p = ap_.predict(pc);
        return p.valid ? p.addr : kAddrInvalid;
    }

    void
    update(Addr pc, bool miss, Addr addr) override
    {
        inner_->update(pc, miss, addr);
        if (addr != kAddrInvalid)
            ap_.update(pc, addr);
    }

    std::size_t storageBits() const override
    {
        return inner_->storageBits() + ap_.storageBits();
    }

    std::string name() const override
    {
        return inner_->name() + "+timing";
    }

    void
    walkState(stateio::Archive &a) override
    {
        a.component("inner", *inner_);
        a.component("ap", ap_);
    }

  private:
    std::unique_ptr<HitMissPredictor> inner_;
    LoadAddressPredictor ap_;
};

/**
 * Build the hit-miss predictor @p kind; null for AlwaysHit and
 * Perfect, which the core models without a predictor.
 */
std::unique_ptr<HitMissPredictor> makeHmp(HmpKind kind);

} // namespace lrs

#endif // LRS_PREDICTORS_HITMISS_HH
