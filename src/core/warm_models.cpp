#include "core/warm_models.hpp"

#include <stdexcept>

namespace jupiter {

WarmFailureModels::WarmFailureModels(const TraceBook& book, InstanceKind kind,
                                     SimTime history_start,
                                     OobEstimator estimator)
    : book_(book),
      kind_(kind),
      history_start_(history_start),
      estimator_(estimator) {}

const FailureModelBook& WarmFailureModels::advance_to(
    const std::vector<int>& zones, SimTime now) {
  std::lock_guard<std::mutex> lk(mu_);
  if (trained_ && now < trained_to_) {
    throw std::logic_error(
        "WarmFailureModels::advance_to: " + now.str() +
        " is before the trained tail " + trained_to_.str());
  }
  if (trained_ && incremental_) {
    bool known = true;
    for (int zone : zones) known = known && models_.has(zone);
    if (now == trained_to_ && known) return models_;
    // extend() is exact: the chains (and every decision read from them) are
    // bit-identical to a full retrain over [history_start, now).
    AuditWriteScope audit(audit_, "WarmFailureModels::extend");
    models_.extend(book_, kind_, zones, history_start_, trained_to_, now,
                   estimator_);
  } else {
    AuditWriteScope audit(audit_, "WarmFailureModels::train");
    models_ = FailureModelBook::train(book_, kind_, zones, history_start_, now,
                                      kOnDemandFailureProbability, estimator_);
    trained_ = true;
  }
  trained_to_ = now;
  return models_;
}

void WarmFailureModels::set_incremental(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  incremental_ = on;
}

TransientCache::Stats WarmFailureModels::cache_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return models_.cache_stats();
}

}  // namespace jupiter
