// The spot instance failure model (paper §3.1, §4.2).
//
// For one (availability zone, instance type) pair, the model holds a
// semi-Markov chain estimated from observed spot prices (Eq. 13) and turns
// it into failure probabilities:
//
//   Eq. 3   out-of-bid component:  Pr(p(t) > b)
//   Eq. 4   composition with the 1 % SLA failure rate of the underlying
//           instance:  FP = 1 - (1 - FP') * (1 - Pr(out-of-bid))
//   Eq. 5   averaged over the bidding interval (discretized to minutes)
//   Eq. 14  the per-time-unit form, with the bid forced below on-demand
//
// estimate_fp() is the quantity the online bidding algorithm compares
// against its per-node target; min_bid_for_fp() inverts it in the bid using
// a single transient analysis (the exceedance curve is a step function of
// the bid, so the whole bid search costs one forward pass).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/market_state.hpp"
#include "core/transient_cache.hpp"
#include "market/semi_markov.hpp"
#include "market/spot_trace.hpp"
#include "util/money.hpp"

namespace jupiter {

/// Failure probability of an on-demand instance per the EC2 SLA (§3.1).
inline constexpr double kOnDemandFailureProbability = 0.01;

/// How the out-of-bid component is computed from the price model.
///
/// kFirstPassage — Pr(price exceeds the bid at any point in the interval):
/// the probability the instance is terminated during the interval.  This is
/// the operative semantics (a terminated instance stays gone until the next
/// bidding decision) and the library's default.
///
/// kOccupancy — the paper's literal Eq. 5: the expected fraction of the
/// interval the price spends above the bid.  It understates risk whenever
/// prices cross the bid and come back; kept for the model ablation bench.
enum class OobEstimator { kFirstPassage, kOccupancy };

/// One zone's bid-to-failure-probability curve at a fixed market state and
/// horizon.  The out-of-bid probability is a step function of the bid with
/// steps at the model's state prices; each step value comes from a transient
/// analysis that is independent of the availability target, so one curve
/// answers every "min bid for FP target" query of a bidding decision.
/// First-passage values are computed lazily per threshold and memoized —
/// the bid search usually touches only a handful of thresholds, and on a
/// single-core replay of 11 weeks that laziness is the difference between
/// minutes and an hour.
///
/// The curve borrows the model's chain; it must not outlive the
/// ZoneFailureModel that produced it.
class BidCurve {
 public:
  BidCurve(const SemiMarkovChain* chain, int state, int age, int horizon,
           PriceTick current_price, PriceTick on_demand, double fp_prime,
           OobEstimator estimator, std::shared_ptr<TransientCache> cache,
           std::shared_ptr<TransientCache::Entry> memo);

  PriceTick current_price() const { return current_price_; }
  PriceTick on_demand() const { return on_demand_; }

  /// Out-of-bid probability when bidding exactly prices()[i].
  double oob_at_index(int i) const;
  const std::vector<PriceTick>& prices() const { return chain_->prices(); }

  /// Precomputes every first-passage threshold with one batched transient
  /// analysis (SemiMarkovChain::hit_curve).  Callers that will probe most
  /// thresholds — the exhaustive bidder enumerates every candidate price —
  /// amortize one DP over the whole curve instead of one per threshold.
  /// No-op for the occupancy estimator (already whole-curve).
  void prime_all() const;

  /// FP (Eq. 4 composed) at an arbitrary bid.
  double fp_at(PriceTick bid) const;
  /// Smallest feasible bid with FP <= fp_target (current <= bid < on-demand).
  [[nodiscard]] std::optional<PriceTick> min_bid_for_fp(double fp_target) const;
  /// FP at the highest allowed bid (one tick under on-demand).
  double best_achievable_fp() const;

 private:
  double occupancy_oob(int i) const;

  const SemiMarkovChain* chain_;
  int state_;
  int age_;
  int horizon_;
  PriceTick current_price_;
  PriceTick on_demand_;
  double fp_prime_;
  OobEstimator estimator_;
  // The model's cache (hit/miss counters) and this curve's shared memo in
  // it, keyed by (state, clamped age, horizon).
  std::shared_ptr<TransientCache> stats_;
  std::shared_ptr<TransientCache::Entry> memo_;
};

class ZoneFailureModel {
 public:
  /// Trains on a price history (typically ~3 months; the framework retrains
  /// as new data arrives).  `on_demand` caps every bid this model will
  /// recommend (§4.2: prefer an on-demand instance over bidding above its
  /// price).
  static ZoneFailureModel train(const SpotTrace& history, PriceTick on_demand,
                                double fp_prime = kOnDemandFailureProbability,
                                OobEstimator est = OobEstimator::kFirstPassage);

  /// Builds directly from a chain (tests, ablations).
  ZoneFailureModel(SemiMarkovChain chain, PriceTick on_demand,
                   double fp_prime = kOnDemandFailureProbability,
                   OobEstimator est = OobEstimator::kFirstPassage);

  // Copies get a fresh (empty) transient cache so two instances never serve
  // each other stale results after one of them is retrained; moves keep the
  // warm cache.
  ZoneFailureModel(const ZoneFailureModel& o);
  ZoneFailureModel& operator=(const ZoneFailureModel& o);
  ZoneFailureModel(ZoneFailureModel&&) = default;
  ZoneFailureModel& operator=(ZoneFailureModel&&) = default;

  /// Incremental training: folds the change points of `history` with time
  /// in [from, to) into the model's chain (SemiMarkovChain::extend) and
  /// invalidates the transient cache iff anything changed.  Returns whether
  /// new observations were folded.
  bool extend(const SpotTrace& history, SimTime from, SimTime to);

  /// Expected failure probability (Eq. 4+5) of an instance bid at `bid`
  /// over the next `horizon_minutes`, given the market state.  A bid at or
  /// below the current price fails immediately: FP = 1 (Eq. 14, first case
  /// — the request would not even launch).
  double estimate_fp(const MarketZoneState& st, int horizon_minutes,
                     PriceTick bid) const;

  /// Out-of-bid component alone (mean of Eq. 3 over the horizon).
  double out_of_bid_probability(const MarketZoneState& st,
                                int horizon_minutes, PriceTick bid) const;

  /// Smallest bid b (current price <= b < on_demand) with
  /// estimate_fp(b) <= fp_target, or nullopt if even the highest allowed
  /// bid misses the target.  Mirrors lines 6-13 of Fig. 3 but runs in one
  /// transient pass instead of tick-by-tick re-estimation.
  [[nodiscard]] std::optional<PriceTick> min_bid_for_fp(
      const MarketZoneState& st, int horizon_minutes, double fp_target) const;

  /// The exceedance the highest allowed bid (one tick below on-demand)
  /// achieves — the best this zone can do.  Used by the bidder's fallback
  /// ranking when no zone meets the target.
  double best_achievable_fp(const MarketZoneState& st,
                            int horizon_minutes) const;

  /// Runs the transient analysis once and returns the full bid curve.
  BidCurve bid_curve(const MarketZoneState& st, int horizon_minutes) const {
    return bid_curve(st, horizon_minutes, fp_prime_);
  }
  /// As above, composed with a caller's FP' instead of the model's: the
  /// transient values do not depend on FP', so services with different
  /// baseline failure probabilities share one model and its cache.
  BidCurve bid_curve(const MarketZoneState& st, int horizon_minutes,
                     double fp_prime) const;

  PriceTick on_demand() const { return on_demand_; }
  double fp_prime() const { return fp_prime_; }
  OobEstimator estimator() const { return estimator_; }
  const SemiMarkovChain& chain() const { return chain_; }

  /// Cumulative hit/miss counters of the transient-analysis cache.
  TransientCache::Stats cache_stats() const { return cache_->stats(); }

  /// Replaces the sojourn law with its memoryless approximation (model
  /// ablation).
  ZoneFailureModel memoryless() const {
    return ZoneFailureModel(chain_.to_memoryless(), on_demand_, fp_prime_,
                            estimator_);
  }
  /// Same chain, different out-of-bid semantics (model ablation).
  ZoneFailureModel with_estimator(OobEstimator est) const {
    return ZoneFailureModel(chain_, on_demand_, fp_prime_, est);
  }

 private:
  double compose(double out_of_bid) const {
    return 1.0 - (1.0 - fp_prime_) * (1.0 - out_of_bid);
  }

  SemiMarkovChain chain_;
  PriceTick on_demand_;
  double fp_prime_;
  OobEstimator estimator_ = OobEstimator::kFirstPassage;
  // Memoized transient analyses for this chain; replaced wholesale when the
  // chain is retrained.  Never null.
  std::shared_ptr<TransientCache> cache_;
};

/// Failure models for every zone of one instance type.
class FailureModelBook {
 public:
  void set(int zone, ZoneFailureModel model);
  bool has(int zone) const;
  const ZoneFailureModel& model(int zone) const;

  /// Trains a model per zone from the trace book over [from, to).
  static FailureModelBook train(const TraceBook& book, InstanceKind kind,
                                const std::vector<int>& zones, SimTime from,
                                SimTime to,
                                double fp_prime = kOnDemandFailureProbability,
                                OobEstimator est = OobEstimator::kFirstPassage);

  /// Incremental counterpart of train(): folds the change points in
  /// [from, to) into every warm zone model; a zone without a model yet is
  /// trained from scratch over [history_start, to) with the default FP'
  /// (callers pass their own to bid_curve).  Keeping models warm between
  /// bidding decisions replaces the O(full history) retrain per interval
  /// with an O(new points) update.
  void extend(const TraceBook& book, InstanceKind kind,
              const std::vector<int>& zones, SimTime history_start,
              SimTime from, SimTime to,
              OobEstimator est = OobEstimator::kFirstPassage);

  /// Transient-cache counters summed across all zone models.
  TransientCache::Stats cache_stats() const;

 private:
  std::vector<std::pair<int, ZoneFailureModel>> models_;  // sorted by zone
};

}  // namespace jupiter
