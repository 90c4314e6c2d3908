#include "core/online_bidder.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "quorum/availability.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace jupiter {

std::optional<BidDecision> OnlineBidder::decide_for_n(
    const std::vector<std::pair<int, BidCurve>>& curves,
    const ServiceSpec& spec, int n) const {
  int tol = spec.tolerate(n);
  if (tol < 0) return std::nullopt;
  double target = spec.target_availability() - spec.epsilon;

  // Fig. 3 line 4: per-node failure budget under equal FPs.
  double fp_budget = equal_fp_for_availability(n, tol, target);
  if (fp_budget <= 0.0) return std::nullopt;

  // Lines 5-13: cheapest feasible bid per zone.
  std::vector<ZoneCandidate> candidates;
  for (const auto& [zone, curve] : curves) {
    auto bid = curve.min_bid_for_fp(fp_budget);
    if (!bid) continue;
    candidates.push_back(ZoneCandidate{zone, *bid, curve.fp_at(*bid)});
  }
  if (static_cast<int>(candidates.size()) < n) return std::nullopt;

  // Line 14: greedy — sort by bid, take the n cheapest (zone id breaks ties
  // deterministically).
  std::sort(candidates.begin(), candidates.end(),
            [](const ZoneCandidate& a, const ZoneCandidate& b) {
              if (a.bid != b.bid) return a.bid < b.bid;
              return a.zone < b.zone;
            });
  candidates.resize(static_cast<std::size_t>(n));

  BidDecision d;
  std::vector<double> fps;
  for (const auto& c : candidates) {
    d.bids.push_back(BidDecision::Entry{c.zone, c.bid, c.est_fp});
    d.bid_sum += c.bid.money();
    fps.push_back(c.est_fp);
  }
  // Constraint re-verification with the actual heterogeneous estimates.
  if (opts_.weighted_voting) {
    // Weighted-voting verification only applies to replication quorums;
    // RS-Paxos needs threshold intersection >= m, so erasure specs keep
    // the tolerate-f check regardless.
    if (spec.rule == QuorumRule::kMajority) {
      d.estimated_availability =
          availability(optimal_acceptance_set(fps), fps);
    } else {
      d.estimated_availability = availability_tolerate(fps, tol);
    }
  } else {
    d.estimated_availability = availability_tolerate(fps, tol);
  }
  d.satisfies_constraint = d.estimated_availability >= target;
  if (!d.satisfies_constraint) return std::nullopt;
  return d;
}

BidDecision OnlineBidder::fallback(
    const std::vector<std::pair<int, BidCurve>>& curves,
    const ServiceSpec& spec) const {
  // No configuration meets the target: keep the service as available as the
  // market allows.  Bid the maximum allowed (one tick under on-demand) in
  // the zones with the best achievable FP, trying each size and keeping the
  // highest estimated availability (ties -> fewer nodes -> cheaper).
  struct Ranked {
    int zone;
    PriceTick bid;
    double fp;
  };
  std::vector<Ranked> ranked;
  for (const auto& [zone, curve] : curves) {
    PriceTick cap = curve.on_demand() - 1;
    if (cap < curve.current_price()) continue;  // already above on-demand
    ranked.push_back(Ranked{zone, cap, curve.best_achievable_fp()});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.fp != b.fp) return a.fp < b.fp;
    return a.zone < b.zone;
  });

  BidDecision best;
  int max_n = std::min<int>(opts_.max_nodes, static_cast<int>(ranked.size()));
  for (int n = spec.min_nodes(); n <= max_n; ++n) {
    int tol = spec.tolerate(n);
    if (tol < 0) continue;
    std::vector<double> fps;
    BidDecision d;
    for (int i = 0; i < n; ++i) {
      const auto& r = ranked[static_cast<std::size_t>(i)];
      d.bids.push_back(BidDecision::Entry{r.zone, r.bid, r.fp});
      d.bid_sum += r.bid.money();
      fps.push_back(r.fp);
    }
    d.estimated_availability = availability_tolerate(fps, tol);
    d.satisfies_constraint = false;
    if (best.bids.empty() ||
        d.estimated_availability > best.estimated_availability) {
      best = d;
    }
  }
  JLOG(kWarning) << "bidder fallback engaged: best achievable availability "
                 << best.estimated_availability;
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("core.fallbacks").inc();
  }
  return best;
}

BidDecision OnlineBidder::decide(const FailureModelBook& models,
                                 const MarketSnapshot& snapshot,
                                 const ServiceSpec& spec) const {
  // One transient analysis per zone serves every candidate size below.
  std::vector<std::pair<int, BidCurve>> curves;
  curves.reserve(snapshot.size());
  for (const auto& st : snapshot) {
    if (!models.has(st.zone)) continue;
    curves.emplace_back(
        st.zone, models.model(st.zone).bid_curve(st, opts_.horizon_minutes,
                                                 spec.baseline_fp));
  }

  // Fill every zone's threshold curve up front, in parallel.  The size loop
  // below probes the same handful of thresholds per zone across all n, and
  // on a cold transient cache the lazy misses would run the per-zone DPs one
  // after another on this thread.  Priming computes the same values
  // (hit_curve is bit-identical to per-threshold hit_one), so decisions are
  // unaffected.
  // par: owned — each index primes only its own curve's private cache
  parallel_for(global_pool(), curves.size(),
               [&](std::size_t i) { curves[i].second.prime_all(); });

  BidDecision best;
  bool have = false;
  int max_n = std::min<int>(opts_.max_nodes, static_cast<int>(curves.size()));
  // Fig. 3 outer loop over deployment sizes; line 17 keeps the cheapest
  // upper bound.
  for (int n = spec.min_nodes(); n <= max_n; ++n) {
    auto d = decide_for_n(curves, spec, n);
    if (!d) {
      // No feasible equal-FP configuration at this deployment size.
      if (obs::Registry* reg = obs::metrics()) {
        reg->counter("core.feasibility_rejections").inc();
      }
      continue;
    }
    if (!have || d->bid_sum < best.bid_sum) {
      best = std::move(*d);
      have = true;
    }
  }
  if (!have) return fallback(curves, spec);
  if (obs::Registry* reg = obs::metrics()) {
    // Distribution of the chosen portfolio's total bid (micros) — the
    // integer twin of the per-decision cost gauges, mergeable across fleet
    // shards without touching floating point.
    reg->det_histogram("core.bid_total_micros")
        .observe(static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, best.bid_sum.micros())));
  }
  return best;
}

}  // namespace jupiter
