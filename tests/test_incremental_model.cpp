// Incremental semi-Markov training and the shared transient-analysis cache.
//
// The contract under test is exactness: extend() must produce a chain
// bit-identical to retraining from scratch on the concatenated history, the
// batched hit_curve() must match per-threshold hit_one() to 1e-12, and a
// BidCurve served from a warm shared cache must answer exactly like one on a
// cold cache of its own — so switching the replay to the warm path cannot
// change a single decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/failure_model.hpp"
#include "core/strategies.hpp"
#include "market/semi_markov.hpp"
#include "market/spot_trace.hpp"
#include "replay/replay_engine.hpp"
#include "replay/workloads.hpp"

namespace jupiter {
namespace {

/// A deterministic pseudo-random change-point trace.  Prices revisit a small
/// set (so transitions repeat and counts exceed 1) but occasionally leave it
/// (so extend() has to insert brand-new states mid-stream).
SpotTrace synthetic_trace(SimTime start, SimTime end, std::uint64_t seed) {
  SpotTrace t;
  std::uint64_t x = seed * 2654435761u + 1;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  SimTime at = start;
  int last = -1;
  while (at < end) {
    int p = 40 + static_cast<int>(next() % 8) * 5;
    if (next() % 17 == 0) p = 100 + static_cast<int>(next() % 40);  // spike
    if (p != last) {
      t.append(at, PriceTick(p));
      last = p;
    }
    at += static_cast<TimeDelta>(3 * kMinute + (next() % (2 * kHour)));
  }
  return t;
}

void expect_chains_identical(const SemiMarkovChain& a,
                             const SemiMarkovChain& b) {
  ASSERT_EQ(a.state_count(), b.state_count());
  for (int s = 0; s < a.state_count(); ++s) {
    EXPECT_EQ(a.state_price(s).value(), b.state_price(s).value()) << "s=" << s;
    auto ra = a.row(s);
    auto rb = b.row(s);
    ASSERT_EQ(ra.size(), rb.size()) << "s=" << s;
    for (std::size_t c = 0; c < ra.size(); ++c) {
      EXPECT_EQ(ra[c].next, rb[c].next) << "s=" << s << " c=" << c;
      EXPECT_EQ(ra[c].sojourn, rb[c].sojourn) << "s=" << s << " c=" << c;
      EXPECT_EQ(ra[c].count, rb[c].count) << "s=" << s << " c=" << c;
      // prob = count / total with identical exact-integer sums: bit-equal.
      EXPECT_EQ(ra[c].prob, rb[c].prob) << "s=" << s << " c=" << c;
    }
    for (int age : {0, 1, 7, 60, 600}) {
      EXPECT_EQ(a.survival(s, age), b.survival(s, age))
          << "s=" << s << " age=" << age;
    }
  }
}

TEST(IncrementalModel, ExtendMatchesFullRetrain) {
  SimTime t0(0), t1(2 * kWeek), t2(3 * kWeek);
  SpotTrace full = synthetic_trace(t0, t2, 11);

  SemiMarkovChain warm = SemiMarkovChain::estimate(full.slice(t0, t1));
  int folded = warm.extend(full, t1, t2);
  EXPECT_GT(folded, 0);

  SemiMarkovChain fresh = SemiMarkovChain::estimate(full.slice(t0, t2));
  expect_chains_identical(warm, fresh);
}

TEST(IncrementalModel, ExtendInManyStepsMatchesOneShot) {
  SimTime t0(0), end(3 * kWeek);
  SpotTrace full = synthetic_trace(t0, end, 23);

  SemiMarkovChain warm = SemiMarkovChain::estimate(full.slice(t0, SimTime(kWeek)));
  for (SimTime t(kWeek); t < end; t += 6 * kHour) {
    warm.extend(full, t, std::min(t + 6 * kHour, end));
  }
  SemiMarkovChain fresh = SemiMarkovChain::estimate(full.slice(t0, end));
  expect_chains_identical(warm, fresh);
}

TEST(IncrementalModel, ExtendIntroducesNewStates) {
  // Train on a window without spikes, then extend over one that has them:
  // the spike prices must appear as new states, exactly as in a retrain.
  SpotTrace full;
  full.append(SimTime(0), PriceTick(10));
  full.append(SimTime(10 * kMinute), PriceTick(20));
  full.append(SimTime(25 * kMinute), PriceTick(10));
  full.append(SimTime(40 * kMinute), PriceTick(20));
  // after the training cut: revisit old states and add 15 and 50
  full.append(SimTime(70 * kMinute), PriceTick(50));
  full.append(SimTime(80 * kMinute), PriceTick(15));
  full.append(SimTime(95 * kMinute), PriceTick(10));

  SimTime cut(60 * kMinute), end(2 * kHour);
  SemiMarkovChain warm = SemiMarkovChain::estimate(full.slice(SimTime(0), cut));
  EXPECT_EQ(warm.state_count(), 2);
  EXPECT_EQ(warm.extend(full, cut, end), 3);
  EXPECT_EQ(warm.state_count(), 4);

  SemiMarkovChain fresh =
      SemiMarkovChain::estimate(full.slice(SimTime(0), end));
  expect_chains_identical(warm, fresh);
}

TEST(IncrementalModel, ExtendSkipsAlreadyFoldedPoints) {
  SimTime t0(0), t1(kWeek), t2(2 * kWeek);
  SpotTrace full = synthetic_trace(t0, t2, 7);
  SemiMarkovChain warm = SemiMarkovChain::estimate(full.slice(t0, t1));
  SemiMarkovChain before = warm;
  // Overlapping window: everything at or before the tail must be ignored.
  EXPECT_EQ(warm.extend(full, t0, t1), 0);
  expect_chains_identical(warm, before);
}

TEST(IncrementalModel, BatchedHitCurveMatchesHitOne) {
  SpotTrace tr = synthetic_trace(SimTime(0), SimTime(2 * kWeek), 31);
  SemiMarkovChain chain = SemiMarkovChain::estimate(tr);
  for (int state : {0, chain.state_count() / 2, chain.state_count() - 1}) {
    for (int age : {0, 4, 200}) {
      for (int horizon : {1, 60, 360}) {
        auto curve = chain.hit_curve(state, age, horizon);
        ASSERT_EQ(static_cast<int>(curve.size()), chain.state_count());
        for (int b = 0; b < chain.state_count(); ++b) {
          // The batched DP replicates hit_one's arithmetic: bit-identical,
          // which is stronger than the 1e-12 the cache contract requires.
          EXPECT_EQ(curve[b], chain.hit_one(state, age, horizon, b))
              << "state=" << state << " age=" << age << " horizon=" << horizon
              << " b=" << b;
        }
      }
    }
  }
}

TEST(IncrementalModel, HitProbabilityMatchesResolvedThreshold) {
  SpotTrace tr = synthetic_trace(SimTime(0), SimTime(kWeek), 43);
  SemiMarkovChain chain = SemiMarkovChain::estimate(tr);
  int state = chain.state_count() / 2;
  // Probe between, at, below, and above the state prices: the resolved
  // threshold is the largest state price <= bid.
  for (int v = chain.state_price(0).value() - 3;
       v <= chain.state_price(chain.state_count() - 1).value() + 3; ++v) {
    PriceTick bid(v);
    double got = chain.hit_probability(state, 0, 120, bid);
    double want;
    if (bid < chain.state_price(state)) {
      want = 1.0;
    } else {
      int idx = -1;
      for (int i = 0; i < chain.state_count(); ++i) {
        if (chain.state_price(i) <= bid) idx = i;
      }
      want = idx < 0 ? 1.0 : chain.hit_one(state, 0, 120, idx);
    }
    EXPECT_EQ(got, want) << "bid=" << v;
  }
}

/// A curve on the chain with a cold cache of its own, shared with nothing.
BidCurve fresh_curve(const SemiMarkovChain& chain, const MarketZoneState& st,
                     int horizon, PriceTick on_demand, OobEstimator est) {
  int state = chain.nearest_state(st.price);
  auto cache = std::make_shared<TransientCache>();
  auto memo = cache->entry(state, chain.clamped_age(state, st.age_minutes),
                           horizon, chain.state_count());
  return BidCurve(&chain, state, st.age_minutes, horizon, st.price, on_demand,
                  kOnDemandFailureProbability, est, std::move(cache),
                  std::move(memo));
}

TEST(IncrementalModel, CachedBidCurveMatchesFreshAndCountsHits) {
  SpotTrace tr = synthetic_trace(SimTime(0), SimTime(2 * kWeek), 57);
  for (OobEstimator est :
       {OobEstimator::kFirstPassage, OobEstimator::kOccupancy}) {
    ZoneFailureModel model(SemiMarkovChain::estimate(tr), PriceTick(200),
                           kOnDemandFailureProbability, est);
    // Reference: a curve on the same chain that shares no cache.
    MarketZoneState st{0, PriceTick(55), 12, PriceTick(200)};
    BidCurve fresh = fresh_curve(model.chain(), st, 90, PriceTick(200), est);

    BidCurve cached = model.bid_curve(st, 90);
    BidCurve cached2 = model.bid_curve(st, 90);  // same key, same entry
    for (int i = 0; i < model.chain().state_count(); ++i) {
      EXPECT_EQ(cached.oob_at_index(i), fresh.oob_at_index(i)) << "i=" << i;
      EXPECT_EQ(cached2.oob_at_index(i), fresh.oob_at_index(i)) << "i=" << i;
    }
    auto s = model.cache_stats();
    // Second curve re-read every index from the shared entry.
    EXPECT_GE(s.hits, static_cast<std::uint64_t>(model.chain().state_count()));
    EXPECT_GT(s.misses, 0u);
    EXPECT_GT(s.hit_rate(), 0.0);

    for (int v = 50; v < 200; v += 7) {
      EXPECT_EQ(cached.fp_at(PriceTick(v)), fresh.fp_at(PriceTick(v)));
    }
    for (double target : {0.005, 0.0103, 0.05, 0.3}) {
      EXPECT_EQ(cached.min_bid_for_fp(target), fresh.min_bid_for_fp(target));
    }

    // Retraining must drop the memoized values (fresh stats keep counting).
    SpotTrace longer = synthetic_trace(SimTime(0), SimTime(3 * kWeek), 57);
    EXPECT_TRUE(model.extend(longer, SimTime(2 * kWeek), SimTime(3 * kWeek)));
    BidCurve after = model.bid_curve(st, 90);
    BidCurve refreshed =
        fresh_curve(model.chain(), st, 90, PriceTick(200), est);
    for (int i = 0; i < model.chain().state_count(); ++i) {
      EXPECT_EQ(after.oob_at_index(i), refreshed.oob_at_index(i)) << "i=" << i;
    }
  }
}

TEST(IncrementalModel, PrimeAllMatchesLazyValues) {
  SpotTrace tr = synthetic_trace(SimTime(0), SimTime(2 * kWeek), 63);
  ZoneFailureModel model(SemiMarkovChain::estimate(tr), PriceTick(200));
  MarketZoneState st{0, PriceTick(50), 0, PriceTick(200)};
  BidCurve primed = model.bid_curve(st, 120);
  primed.prime_all();
  int state = model.chain().nearest_state(st.price);
  for (int i = 0; i < model.chain().state_count(); ++i) {
    EXPECT_NEAR(primed.oob_at_index(i),
                model.chain().hit_one(state, 0, 120, i), 1e-12)
        << "i=" << i;
  }
}

TEST(IncrementalModel, WarmStrategyReplaysIdenticallyToNaive) {
  Scenario sc = make_scenario(InstanceKind::kM1Small, 1, 1, 321);
  ServiceSpec spec = ServiceSpec::lock_service();
  ReplayConfig cfg = make_replay_config(sc, spec, 6 * kHour);
  OnlineBidder::Options bopts;
  bopts.horizon_minutes = static_cast<int>((6 * kHour) / kMinute);

  JupiterStrategy warm(sc.book, spec, sc.history_start, bopts);
  ReplayResult rw = replay_strategy(sc.book, warm, cfg);

  JupiterStrategy naive(sc.book, spec, sc.history_start, bopts);
  naive.set_incremental(false);
  ReplayResult rn = replay_strategy(sc.book, naive, cfg);

  EXPECT_EQ(rw.cost.micros(), rn.cost.micros());
  EXPECT_EQ(rw.downtime, rn.downtime);
  EXPECT_EQ(rw.decisions, rn.decisions);
  EXPECT_EQ(rw.out_of_bid_events, rn.out_of_bid_events);
  EXPECT_EQ(rw.instances_launched, rn.instances_launched);
  // The warm run actually hit its caches.
  auto s = warm.cache_stats();
  EXPECT_GT(s.hits + s.misses, 0u);
}

}  // namespace
}  // namespace jupiter
