// Warm failure models shared across services (core/warm_models).
//
// The contract under test: a JupiterStrategy that reads its models through
// an owner shared with other services — different FP', horizons and
// cadences, deciding concurrently on one clock — returns exactly what a
// strategy with private models returns.  Sharing is a cost change only, and
// so is priming a shared owner's caches before a batch of decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "core/strategies.hpp"
#include "core/warm_models.hpp"
#include "replay/adaptive.hpp"
#include "replay/workloads.hpp"
#include "util/shared_state_audit.hpp"
#include "util/thread_pool.hpp"

namespace jupiter {
namespace {

struct Sharer {
  double baseline_fp;
  int horizon_minutes;
  int cadence_hours;
};

// Two services differ only in FP' so a model that ignored the caller's FP'
// would split them; the rest vary horizon and cadence.
constexpr Sharer kSharers[] = {
    {0.005, 60, 1}, {0.02, 60, 1}, {0.01, 180, 3},
    {0.02, 360, 6}, {0.005, 180, 2}, {0.01, 360, 3},
};
constexpr std::size_t kCount = std::size(kSharers);

struct Step {
  StrategyDecision decision;
  BidDecision last;
};

ServiceSpec spec_for(double baseline_fp) {
  ServiceSpec spec = ServiceSpec::lock_service();
  spec.baseline_fp = baseline_fp;
  return spec;
}

/// Drives `strategies` hour by hour over the scenario's replay week.  Each
/// strategy decides on its own cadence and holds what it last chose.  With
/// `concurrent`, the strategies due at one instant decide in parallel.
std::vector<std::vector<Step>> drive(
    const Scenario& sc,
    std::vector<std::unique_ptr<JupiterStrategy>>& strategies,
    bool concurrent) {
  std::vector<std::vector<Step>> out(strategies.size());
  std::vector<std::vector<ZoneBid>> held(strategies.size());
  for (SimTime t = sc.replay_start; t < sc.replay_end; t = t + kHour) {
    auto hour = static_cast<int>((t - sc.replay_start) / kHour);
    std::vector<std::size_t> due;
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      if (hour % kSharers[i].cadence_hours == 0) due.push_back(i);
    }
    MarketSnapshot snap =
        snapshot_at(sc.book, InstanceKind::kM1Small, sc.zones, t);
    std::vector<Step> steps(due.size());
    auto decide = [&](std::size_t k) {
      std::size_t i = due[k];
      steps[k].decision = strategies[i]->decide(snap, t, held[i]);
      steps[k].last = strategies[i]->last_decision();
    };
    if (concurrent) {
      // par: owned — index k writes only steps[k]
      parallel_for(global_pool(), due.size(), decide);
    } else {
      for (std::size_t k = 0; k < due.size(); ++k) decide(k);
    }
    for (std::size_t k = 0; k < due.size(); ++k) {
      held[due[k]] = steps[k].decision.spot_bids;
      out[due[k]].push_back(std::move(steps[k]));
    }
  }
  return out;
}

void expect_same(const Step& a, const Step& b, const std::string& where) {
  ASSERT_EQ(a.decision.spot_bids.size(), b.decision.spot_bids.size()) << where;
  for (std::size_t j = 0; j < a.decision.spot_bids.size(); ++j) {
    EXPECT_EQ(a.decision.spot_bids[j].zone, b.decision.spot_bids[j].zone)
        << where;
    EXPECT_EQ(a.decision.spot_bids[j].bid, b.decision.spot_bids[j].bid)
        << where;
  }
  EXPECT_EQ(a.decision.on_demand_zones, b.decision.on_demand_zones) << where;
  ASSERT_EQ(a.last.bids.size(), b.last.bids.size()) << where;
  for (std::size_t j = 0; j < a.last.bids.size(); ++j) {
    EXPECT_EQ(a.last.bids[j].estimated_fp, b.last.bids[j].estimated_fp)
        << where;
  }
  EXPECT_EQ(a.last.estimated_availability, b.last.estimated_availability)
      << where;
}

TEST(SharedWarmModels, ConcurrentSharersDecideLikePrivateModels) {
  Scenario sc = make_scenario(InstanceKind::kM1Small, 1, 1, 321);
  AuditScope audit(AuditPolicy::kRecord);
  SharedStateAuditor::drain();

  std::vector<std::unique_ptr<JupiterStrategy>> priv, shared;
  auto owner = std::make_shared<WarmFailureModels>(
      sc.book, InstanceKind::kM1Small, sc.history_start);
  EXPECT_GE(SharedStateAuditor::registered("WarmFailureModels"), 1u);
  for (const Sharer& s : kSharers) {
    OnlineBidder::Options bopts;
    bopts.horizon_minutes = s.horizon_minutes;
    priv.push_back(std::make_unique<JupiterStrategy>(
        sc.book, spec_for(s.baseline_fp), sc.history_start, bopts));
    shared.push_back(std::make_unique<JupiterStrategy>(
        owner, spec_for(s.baseline_fp), bopts));
  }
  auto want = drive(sc, priv, /*concurrent=*/false);
  auto got = drive(sc, shared, /*concurrent=*/true);

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(want[i].size(), got[i].size()) << "strategy " << i;
    ASSERT_FALSE(want[i].empty());
    for (std::size_t d = 0; d < want[i].size(); ++d) {
      expect_same(want[i][d], got[i][d],
                  "strategy " + std::to_string(i) + " decision " +
                      std::to_string(d));
    }
  }
  // FP' reaches the curves per service: same horizon and cadence, different
  // FP', different per-node estimates.
  ASSERT_FALSE(got[0][0].last.bids.empty());
  ASSERT_FALSE(got[1][0].last.bids.empty());
  EXPECT_NE(got[0][0].last.bids[0].estimated_fp,
            got[1][0].last.bids[0].estimated_fp);
  // One owner served everyone, and its training never overlapped.
  TransientCache::Stats stats = owner->cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_TRUE(SharedStateAuditor::drain().empty());
}

// A fleet decide batch: services at 3 h and 6 h and one on the adaptive
// interval share an owner that is primed once per batch for the sorted set
// of the due services' horizons, as the fleet's cluster thread does.
TEST(SharedWarmModels, BatchPrimingDecidesLikeLazyCurves) {
  Scenario sc = make_scenario(InstanceKind::kM1Small, 1, 1, 321);
  struct Member {
    double baseline_fp;
    TimeDelta interval;  // 0 = adaptive, chosen at each decision
  };
  constexpr Member kMembers[] = {
      {0.01, 3 * kHour}, {0.005, 6 * kHour}, {0.02, 0}};
  constexpr std::size_t kN = std::size(kMembers);

  auto owner = std::make_shared<WarmFailureModels>(
      sc.book, InstanceKind::kM1Small, sc.history_start);
  std::vector<std::unique_ptr<JupiterStrategy>> lazy, primed;
  for (const Member& m : kMembers) {
    lazy.push_back(std::make_unique<JupiterStrategy>(
        sc.book, spec_for(m.baseline_fp), sc.history_start,
        OnlineBidder::Options{}));
    primed.push_back(std::make_unique<JupiterStrategy>(
        owner, spec_for(m.baseline_fp), OnlineBidder::Options{}));
  }

  ThreadPool one(1);
  std::vector<SimTime> next(kN, sc.replay_start);
  std::vector<std::vector<ZoneBid>> held_lazy(kN), held_primed(kN);
  int batches = 0;
  int horizon_sets = 0;  // batches priming two or more horizons
  std::uint64_t primed_misses = 0;
  for (SimTime t = sc.replay_start; t < sc.replay_end; t = t + kHour) {
    std::vector<std::size_t> due;
    std::vector<int> horizon(kN, 0);
    for (std::size_t i = 0; i < kN; ++i) {
      if (next[i] != t) continue;
      TimeDelta iv = kMembers[i].interval;
      if (iv == 0) {
        iv = choose_interval(sc.book, InstanceKind::kM1Small, sc.zones, t);
      }
      horizon[i] = static_cast<int>(iv / kMinute);
      next[i] = t + iv;
      due.push_back(i);
    }
    if (due.empty()) continue;
    MarketSnapshot snap =
        snapshot_at(sc.book, InstanceKind::kM1Small, sc.zones, t);

    std::vector<int> horizons;
    for (std::size_t i : due) horizons.push_back(horizon[i]);
    std::sort(horizons.begin(), horizons.end());
    horizons.erase(std::unique(horizons.begin(), horizons.end()),
                   horizons.end());
    std::uint64_t before = owner->cache_stats().misses;
    owner->advance_to(sc.zones, t);
    owner->prime(snap, horizons, one);
    std::uint64_t after_prime = owner->cache_stats().misses;
    primed_misses += after_prime - before;
    ++batches;
    if (horizons.size() > 1) ++horizon_sets;

    for (std::size_t i : due) {
      const std::string where =
          "member " + std::to_string(i) + " at " + t.str();
      lazy[i]->set_horizon_minutes(horizon[i]);
      primed[i]->set_horizon_minutes(horizon[i]);
      Step want{lazy[i]->decide(snap, t, held_lazy[i]),
                lazy[i]->last_decision()};
      Step got{primed[i]->decide(snap, t, held_primed[i]),
               primed[i]->last_decision()};
      expect_same(want, got, where);
      held_lazy[i] = want.decision.spot_bids;
      held_primed[i] = got.decision.spot_bids;
    }
    // Every curve the batch read was already in the cache.
    EXPECT_EQ(owner->cache_stats().misses, after_prime)
        << "batch at " << t.str();
  }
  EXPECT_GT(batches, 0);
  EXPECT_GT(horizon_sets, 0);
  EXPECT_GT(primed_misses, 0u);
  EXPECT_GT(owner->cache_stats().hits, 0u);
}

TEST(SharedWarmModels, RewindingTheTrainedTailThrows) {
  Scenario sc = make_scenario(InstanceKind::kM1Small, 1, 1, 321);
  WarmFailureModels owner(sc.book, InstanceKind::kM1Small, sc.history_start);
  SimTime t = sc.replay_start + 6 * kHour;
  const FailureModelBook& models = owner.advance_to(sc.zones, t);
  EXPECT_TRUE(models.has(sc.zones.front()));
  EXPECT_NO_THROW(owner.advance_to(sc.zones, t));  // same instant: no-op
  EXPECT_THROW(owner.advance_to(sc.zones, t - kHour), std::logic_error);
  EXPECT_NO_THROW(owner.advance_to(sc.zones, t + kHour));

  // Through a strategy: deciding earlier than a previous decision throws.
  JupiterStrategy strategy(sc.book, ServiceSpec::lock_service(),
                           sc.history_start, {.horizon_minutes = 60});
  MarketSnapshot snap =
      snapshot_at(sc.book, InstanceKind::kM1Small, sc.zones, t);
  strategy.decide(snap, t, {});
  EXPECT_THROW(strategy.decide(snap, t - kHour, {}), std::logic_error);
}

TEST(SharedWarmModels, RejectsModelsOfAnotherKind) {
  Scenario sc = make_scenario(InstanceKind::kM1Small, 1, 1, 321);
  auto owner = std::make_shared<WarmFailureModels>(
      sc.book, InstanceKind::kM1Small, sc.history_start);
  EXPECT_THROW(JupiterStrategy(owner, ServiceSpec::storage_service(),
                               {.horizon_minutes = 60}),
               std::invalid_argument);
}

}  // namespace
}  // namespace jupiter
