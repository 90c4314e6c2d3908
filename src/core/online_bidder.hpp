// The online bidding algorithm (paper Fig. 3).
//
// For every candidate deployment size n it derives the per-node failure
// budget that keeps the service at the availability target when all nodes
// carry the same FP (equal votes — §4.1 explains why the framework sticks
// to simple majorities instead of Eq. 11 weighted voting), asks each zone's
// failure model for the cheapest bid inside that budget, greedily takes the
// n cheapest zones, and finally returns the configuration with the lowest
// sum of bids (the cost upper bound used as the NLP objective, §3.2).
//
// Two refinements over the bare pseudocode, both flagged in DESIGN.md:
//   * each candidate configuration is re-verified against the availability
//     constraint with the *heterogeneous* estimated FPs (Eq. 1 via the
//     Poisson-binomial DP), not just the equal-FP design target;
//   * if no configuration satisfies the constraint (e.g. every zone is
//     spiking), the bidder degrades gracefully to the configuration with
//     the highest estimated availability at capped bids instead of leaving
//     the service unprovisioned.
#pragma once

#include <optional>
#include <vector>

#include "core/failure_model.hpp"
#include "core/market_state.hpp"
#include "core/service_spec.hpp"
#include "util/money.hpp"

namespace jupiter {

struct BidDecision {
  struct Entry {
    int zone = -1;
    PriceTick bid;
    double estimated_fp = 1.0;
  };
  std::vector<Entry> bids;     ///< chosen zones and their bids
  double estimated_availability = 0.0;
  Money bid_sum;               ///< objective value: upper bound of the cost
  bool satisfies_constraint = false;
  int nodes() const { return static_cast<int>(bids.size()); }
};

/// Fig. 3 line 4 for every deployment size a bidder tries: the per-node
/// failure budget under which n equal nodes still meet the availability
/// target.  It depends only on (n, tolerate(n), target), so a strategy,
/// whose spec and size cap never change, computes it once instead of once
/// per decision.
class SizeBudgets {
 public:
  /// Budgets for n in [spec.min_nodes(), max_nodes].
  SizeBudgets(const ServiceSpec& spec, int max_nodes);

  /// The availability every configuration must reach:
  /// spec.target_availability() - spec.epsilon.
  double target() const { return target_; }
  /// equal_fp_for_availability(n, spec.tolerate(n), target()); 0 (no
  /// budget) when n cannot operate or lies outside the sizes covered.
  double fp_budget(int n) const;

 private:
  int min_nodes_;
  double target_;
  std::vector<double> budgets_;  // [n - min_nodes_]
};

class OnlineBidder {
 public:
  struct Options {
    int horizon_minutes = 60;  ///< bidding interval length
    /// Cap on the candidate deployment size (the paper enumerates up to the
    /// zone count; practical Paxos groups stay small, and capping keeps the
    /// estimated-availability verification exact).
    int max_nodes = 9;
    /// §4.1 alternative: verify the availability constraint against the
    /// Eq. 11 weighted-voting acceptance set instead of the simple
    /// majority.  Weighted voting extracts more availability from the same
    /// heterogeneous FPs, so configurations the majority check rejects can
    /// pass — at the price of a quorum system most Paxos implementations
    /// do not support (the paper's reason for rejecting it).  Off by
    /// default; exercised by tests and ablations.
    bool weighted_voting = false;
  };

  explicit OnlineBidder(Options opts) : opts_(opts) {}

  /// One bidding decision (Fig. 3).  `snapshot` must cover every zone that
  /// `models` knows; zones without a feasible bid are skipped.  Failure
  /// probabilities compose with `spec.baseline_fp` as FP' (Eq. 4), not with
  /// the FP' the models were built with.
  BidDecision decide(const FailureModelBook& models,
                     const MarketSnapshot& snapshot,
                     const ServiceSpec& spec) const;
  /// As above, with the size budgets precomputed; `budgets` must have been
  /// built from `spec` and options().max_nodes.
  BidDecision decide(const FailureModelBook& models,
                     const MarketSnapshot& snapshot, const ServiceSpec& spec,
                     const SizeBudgets& budgets) const;

  const Options& options() const { return opts_; }
  /// Retargets the horizon (adaptive-interval extension, §5.5).
  void set_horizon_minutes(int minutes) { opts_.horizon_minutes = minutes; }

 private:
  struct ZoneCandidate {
    int zone;
    PriceTick bid;
    double est_fp;
  };

  [[nodiscard]] std::optional<BidDecision> decide_for_n(
      const std::vector<std::pair<int, BidCurve>>& curves,
      const ServiceSpec& spec, const SizeBudgets& budgets, int n) const;
  BidDecision fallback(const std::vector<std::pair<int, BidCurve>>& curves,
                       const ServiceSpec& spec) const;

  Options opts_;
};

}  // namespace jupiter
