#include "predictors/hitmiss.hh"

#include <vector>

#include "predictors/chooser.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/local.hh"

namespace lrs
{

std::unique_ptr<HitMissPredictor>
makeHmp(HmpKind kind)
{
    switch (kind) {
      case HmpKind::Local:
        return std::make_unique<TableHmp>(
            std::make_unique<LocalPredictor>(2048, 8));
      case HmpKind::Chooser: {
        std::vector<CompositePredictor::Component> comps;
        comps.push_back(
            {std::make_unique<LocalPredictor>(512, 8), 1.0});
        comps.push_back({std::make_unique<GsharePredictor>(11), 1.0});
        comps.push_back(
            {std::make_unique<GskewPredictor>(1024, 20), 1.0});
        return std::make_unique<TableHmp>(
            std::make_unique<CompositePredictor>(
                std::move(comps), ChoosePolicy::Majority));
      }
      case HmpKind::LocalTiming:
        return std::make_unique<TimingHmp>(makeHmp(HmpKind::Local));
      case HmpKind::AlwaysHit:
      case HmpKind::Perfect:
        break;
    }
    return nullptr;
}

} // namespace lrs
