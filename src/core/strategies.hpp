// Bidding strategies evaluated in §5: the paper's framework ("Jupiter"),
// the Extra(m, p) heuristics, and the on-demand baseline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "core/market_state.hpp"
#include "core/online_bidder.hpp"
#include "core/service_spec.hpp"
#include "core/warm_models.hpp"

namespace jupiter {

/// What a strategy wants deployed for the coming bidding interval.
struct StrategyDecision {
  std::vector<ZoneBid> spot_bids;
  std::vector<int> on_demand_zones;
  int total_nodes() const {
    return static_cast<int>(spot_bids.size() + on_demand_zones.size());
  }
};

class BiddingStrategy {
 public:
  virtual ~BiddingStrategy() = default;
  virtual std::string name() const = 0;
  /// Called once per bidding interval with the current market and the spot
  /// instances currently held (zone + live bid).  Returning an entry equal
  /// to a held one keeps that instance; any other entry replaces it (EC2
  /// cannot change the bid of a running instance, so "re-bid" always means
  /// terminate-and-relaunch, which costs the old instance's partial hour).
  virtual StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                                  const std::vector<ZoneBid>& held) = 0;
};

/// The paper's availability- and cost-aware framework.  Folds newly observed
/// price data into its failure models before every decision ("with more and
/// more spot prices data collected, the estimation can be improved", §4).
/// The models live in a WarmFailureModels owner: the first decision trains
/// from scratch over [history_start, now), every later one extends the
/// existing chains with just the change points since the previous advance
/// — same models, O(new points) instead of O(full history) per interval.
class JupiterStrategy : public BiddingStrategy {
 public:
  /// Private models: `book` must outlive the strategy.  Training uses the
  /// window [history_start, decision time).
  JupiterStrategy(const TraceBook& book, ServiceSpec spec,
                  SimTime history_start, OnlineBidder::Options opts,
                  OobEstimator estimator = OobEstimator::kFirstPassage);

  /// Shared models: reads the models through `models`, which other
  /// strategies of the same instance kind may share (the fleet hands one
  /// owner to every Jupiter service of a cluster).  Decisions equal those
  /// of a strategy with private models over the same book and window.
  JupiterStrategy(std::shared_ptr<WarmFailureModels> models, ServiceSpec spec,
                  OnlineBidder::Options opts);

  std::string name() const override { return "Jupiter"; }
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override;

  /// The last decision's metadata (estimated availability etc.).
  const BidDecision& last_decision() const { return last_; }

  /// Retargets the failure-probability horizon to a new bidding interval —
  /// used by the adaptive-interval extension (§5.5), where the interval
  /// changes between decisions.
  void set_horizon_minutes(int minutes) {
    bidder_.set_horizon_minutes(minutes);
  }

  /// Benchmarks only: see WarmFailureModels::set_incremental.
  void set_incremental(bool on) { models_->set_incremental(on); }

  /// Transient-cache counters summed over the models this strategy reads.
  TransientCache::Stats cache_stats() const { return models_->cache_stats(); }

 private:
  /// Cadence of full re-optimizations; between them the strategy only
  /// re-validates the held deployment against the availability constraint.
  static constexpr int kFullRefreshEvery = 6;

  std::shared_ptr<WarmFailureModels> models_;
  ServiceSpec spec_;
  OnlineBidder bidder_;
  BidDecision last_;
  int decisions_ = 0;
};

/// Extra(m, p): take the baseline node count plus m additional nodes in the
/// zones with the lowest current spot prices and bid (1 + p) times the spot
/// price (§5.2).  No failure-probability estimation at all.
class ExtraStrategy : public BiddingStrategy {
 public:
  ExtraStrategy(ServiceSpec spec, int extra_nodes, double extra_portion);

  std::string name() const override;
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override;

 private:
  ServiceSpec spec_;
  int extra_nodes_;
  double extra_portion_;
};

/// The reference deployment: baseline_nodes on-demand instances in the
/// cheapest zones (one per zone).
class OnDemandStrategy : public BiddingStrategy {
 public:
  explicit OnDemandStrategy(ServiceSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override { return "Baseline"; }
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override;

 private:
  ServiceSpec spec_;
};

}  // namespace jupiter
