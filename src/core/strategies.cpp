#include "core/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "quorum/availability.hpp"

namespace jupiter {

JupiterStrategy::JupiterStrategy(const TraceBook& book, ServiceSpec spec,
                                 SimTime history_start,
                                 OnlineBidder::Options opts,
                                 OobEstimator estimator)
    : JupiterStrategy(std::make_shared<WarmFailureModels>(
                          book, spec.kind, history_start, estimator),
                      spec, opts) {}

JupiterStrategy::JupiterStrategy(std::shared_ptr<WarmFailureModels> models,
                                 ServiceSpec spec, OnlineBidder::Options opts)
    : models_(std::move(models)),
      spec_(std::move(spec)),
      bidder_(opts),
      budgets_(spec_, opts.max_nodes) {
  if (!models_ || models_->kind() != spec_.kind) {
    throw std::invalid_argument("JupiterStrategy: models of another kind");
  }
}

StrategyDecision JupiterStrategy::decide(const MarketSnapshot& snapshot,
                                         SimTime now,
                                         const std::vector<ZoneBid>& held) {
  // Wall time lands in a kVolatile histogram, so the deterministic snapshot
  // stays byte-identical across runs no matter how slow the machine is.
  obs::WallScope wall(obs::wall_histogram("core.decide_wall_ns"));
  auto record_decision = [&](const char* outcome,
                             const StrategyDecision& d) {
    if (obs::Registry* reg = obs::metrics()) {
      reg->counter("core.decisions", {{"outcome", outcome}}).inc();
      TransientCache::Stats cs = models_->cache_stats();
      reg->gauge("core.cache_hits").set(static_cast<double>(cs.hits));
      reg->gauge("core.cache_misses").set(static_cast<double>(cs.misses));
      reg->gauge("core.cache_hit_rate").set(cs.hit_rate());
    }
    if (obs::TraceSink* tr = obs::trace()) {
      tr->instant(now, obs::TraceTrack::kCore, "bid_decision", "core",
                  {{"outcome", outcome},
                   {"bids", std::to_string(d.spot_bids.size())}});
    }
  };

  std::vector<int> zones;
  zones.reserve(snapshot.size());
  for (const auto& st : snapshot) zones.push_back(st.zone);
  const FailureModelBook& models = models_->advance_to(zones, now);

  ++decisions_;

  // Deployment-level hysteresis (§4 changes bids only "if spot prices
  // fluctuate drastically"): if the instances we already hold still satisfy
  // the availability constraint at their live bids, keep them all — every
  // avoided replacement saves the retired instance's partial-hour charge.
  // The held evaluation touches one curve threshold per zone, so it is two
  // orders of magnitude cheaper than a full decision; a full
  // re-optimization still runs every kFullRefreshEvery intervals (and
  // whenever the held set stops satisfying the constraint) so the
  // deployment tracks cheaper market configurations over time.
  auto evaluate_stay = [&]() -> bool {
    if (held.empty()) return false;
    int n = static_cast<int>(held.size());
    int tol = spec_.tolerate(n);
    if (tol < 0) return false;
    double target = budgets_.target();
    int horizon = bidder_.options().horizon_minutes;
    std::vector<double> fps;
    for (const auto& h : held) {
      const MarketZoneState* st = nullptr;
      for (const auto& s : snapshot) {
        if (s.zone == h.zone) st = &s;
      }
      if (!st || !models.has(h.zone)) return false;
      BidCurve curve =
          models.model(h.zone).bid_curve(*st, horizon, spec_.baseline_fp);
      double fp = curve.fp_at(h.bid);
      if (fp >= 1.0) return false;  // bid underwater or at/above on-demand
      fps.push_back(fp);
    }
    return availability_tolerate(fps, tol) >= target;
  };

  bool full_refresh = (decisions_ % kFullRefreshEvery == 1);
  if (!full_refresh && evaluate_stay()) {
    StrategyDecision stay;
    stay.spot_bids = held;
    record_decision("stay", stay);
    return stay;
  }

  last_ = bidder_.decide(models, snapshot, spec_, budgets_);

  // Even on a full refresh, staying can beat moving once replacement costs
  // are considered; keep the held set when it is still valid and its
  // committed bid sum is within 25% of the fresh optimum.
  if (full_refresh && !held.empty()) {
    Money held_sum;
    for (const auto& h : held) held_sum += h.bid.money();
    if (held_sum.micros() <= last_.bid_sum.micros() * 5 / 4 &&
        evaluate_stay()) {
      StrategyDecision stay;
      stay.spot_bids = held;
      record_decision("stay", stay);
      return stay;
    }
  }

  StrategyDecision out;
  for (const auto& e : last_.bids) {
    PriceTick bid = e.bid;
    // Replacement hysteresis (§4: bids only change "if spot prices
    // fluctuate drastically"): the algorithm's bid is the *minimum* that
    // meets the per-node FP budget, and the failure probability is
    // nonincreasing in the bid — so a live instance whose bid already sits
    // at or above the minimum still satisfies the budget and is kept,
    // avoiding the terminate-and-relaunch partial-hour charge.
    for (const auto& h : held) {
      if (h.zone == e.zone && h.bid >= e.bid) {
        bid = h.bid;
        break;
      }
    }
    out.spot_bids.push_back(ZoneBid{e.zone, bid});
  }
  record_decision("rebid", out);
  return out;
}

ExtraStrategy::ExtraStrategy(ServiceSpec spec, int extra_nodes,
                             double extra_portion)
    : spec_(std::move(spec)),
      extra_nodes_(extra_nodes),
      extra_portion_(extra_portion) {}

std::string ExtraStrategy::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "Extra(%d,%.2g)", extra_nodes_,
                extra_portion_);
  return buf;
}

StrategyDecision ExtraStrategy::decide(const MarketSnapshot& snapshot,
                                       SimTime /*now*/,
                                       const std::vector<ZoneBid>& /*held*/) {
  // Zones with the lowest current spot prices (§5.2).
  std::vector<MarketZoneState> sorted(snapshot);
  std::sort(sorted.begin(), sorted.end(),
            [](const MarketZoneState& a, const MarketZoneState& b) {
              if (a.price != b.price) return a.price < b.price;
              return a.zone < b.zone;
            });
  std::size_t want = static_cast<std::size_t>(spec_.baseline_nodes + extra_nodes_);
  StrategyDecision out;
  for (const auto& st : sorted) {
    if (out.spot_bids.size() >= want) break;
    auto bid = static_cast<std::int32_t>(std::ceil(
        static_cast<double>(st.price.value()) * (1.0 + extra_portion_)));
    out.spot_bids.push_back(ZoneBid{st.zone, PriceTick(bid)});
  }
  return out;
}

StrategyDecision OnDemandStrategy::decide(const MarketSnapshot& snapshot,
                                          SimTime /*now*/,
                                          const std::vector<ZoneBid>& /*held*/) {
  std::vector<MarketZoneState> sorted(snapshot);
  std::sort(sorted.begin(), sorted.end(),
            [](const MarketZoneState& a, const MarketZoneState& b) {
              if (a.on_demand != b.on_demand) return a.on_demand < b.on_demand;
              return a.zone < b.zone;
            });
  StrategyDecision out;
  for (const auto& st : sorted) {
    if (static_cast<int>(out.on_demand_zones.size()) >= spec_.baseline_nodes) {
      break;
    }
    out.on_demand_zones.push_back(st.zone);
  }
  return out;
}

}  // namespace jupiter
