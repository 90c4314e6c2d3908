#include "replay/strategy_factory.hpp"

#include <stdexcept>

namespace jupiter {

const char* strategy_kind_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kJupiter:
      return "jupiter";
    case StrategyKind::kExtra:
      return "extra";
    case StrategyKind::kOnDemand:
      return "on-demand";
  }
  throw std::logic_error("bad strategy kind");
}

std::unique_ptr<BiddingStrategy> make_strategy(
    const TraceBook& book, const StrategyParams& params,
    std::shared_ptr<WarmFailureModels> models) {
  switch (params.kind) {
    case StrategyKind::kJupiter:
      if (models) {
        return std::make_unique<JupiterStrategy>(std::move(models),
                                                 params.spec, params.bidder);
      }
      return std::make_unique<JupiterStrategy>(book, params.spec,
                                               params.history_start,
                                               params.bidder,
                                               params.estimator);
    case StrategyKind::kExtra:
      return std::make_unique<ExtraStrategy>(params.spec, params.extra_nodes,
                                             params.extra_portion);
    case StrategyKind::kOnDemand:
      return std::make_unique<OnDemandStrategy>(params.spec);
  }
  throw std::logic_error("bad strategy kind");
}

}  // namespace jupiter
