#include "core/online_bidder.hpp"

#include <gtest/gtest.h>

#include "quorum/availability.hpp"

namespace jupiter {
namespace {

/// Builds a calm zone model: base price `base`, rare short spikes to
/// `spike`.  Bidding at/above `spike` is estimated perfectly safe.
ZoneFailureModel calm_model(int base, int spike, PriceTick od) {
  SemiMarkovChain chain({PriceTick(base), PriceTick(spike)});
  chain.add_transition(0, 1, 300, 1.0);
  chain.add_transition(1, 0, 5, 1.0);
  chain.normalize_rows();
  return ZoneFailureModel(std::move(chain), od);
}

/// A chaotic zone: price ricochets above the on-demand cap constantly.
ZoneFailureModel chaotic_model(PriceTick od) {
  SemiMarkovChain chain({PriceTick(100), PriceTick(od.value() + 50)});
  chain.add_transition(0, 1, 2, 1.0);
  chain.add_transition(1, 0, 2, 1.0);
  chain.normalize_rows();
  return ZoneFailureModel(std::move(chain), od);
}

MarketZoneState zone_state(int zone, int price, PriceTick od) {
  MarketZoneState st;
  st.zone = zone;
  st.price = PriceTick(price);
  st.age_minutes = 0;
  st.on_demand = od;
  return st;
}

struct BidderFixture : ::testing::Test {
  BidderFixture() {
    od = PriceTick(440);
    // 8 calm zones with increasing base prices.
    for (int z = 0; z < 8; ++z) {
      int base = 60 + z * 10;
      models.set(z, calm_model(base, base + 100, od));
      snapshot.push_back(zone_state(z, base, od));
    }
    spec = ServiceSpec::lock_service();
  }
  PriceTick od;
  FailureModelBook models;
  MarketSnapshot snapshot;
  ServiceSpec spec;
  OnlineBidder bidder{{.horizon_minutes = 60, .max_nodes = 8}};
};

TEST_F(BidderFixture, SatisfiesConstraintWithValidDeployment) {
  BidDecision d = bidder.decide(models, snapshot, spec);
  EXPECT_TRUE(d.satisfies_constraint);
  EXPECT_GE(d.nodes(), 5);
  EXPECT_GE(d.estimated_availability,
            spec.target_availability() - spec.epsilon);
}

TEST_F(BidderFixture, GreedyPicksCheapestZones) {
  BidDecision d = bidder.decide(models, snapshot, spec);
  // All zones are equally safe at bid = spike, so the cheapest spikes win —
  // those belong to the zones with the lowest bases (0, 1, 2, ...).
  for (const auto& e : d.bids) {
    EXPECT_LT(e.zone, d.nodes());
  }
}

TEST_F(BidderFixture, BidsRespectBounds) {
  BidDecision d = bidder.decide(models, snapshot, spec);
  for (const auto& e : d.bids) {
    const auto& st = snapshot[static_cast<std::size_t>(e.zone)];
    EXPECT_GE(e.bid, st.price);
    EXPECT_LT(e.bid, st.on_demand);
    EXPECT_LE(e.estimated_fp, 1.0);
  }
}

TEST_F(BidderFixture, BidSumIsConsistent) {
  BidDecision d = bidder.decide(models, snapshot, spec);
  Money sum;
  for (const auto& e : d.bids) sum += e.bid.money();
  EXPECT_EQ(sum, d.bid_sum);
}

TEST_F(BidderFixture, DecisionIsDeterministic) {
  BidDecision a = bidder.decide(models, snapshot, spec);
  BidDecision b = bidder.decide(models, snapshot, spec);
  ASSERT_EQ(a.nodes(), b.nodes());
  for (int i = 0; i < a.nodes(); ++i) {
    EXPECT_EQ(a.bids[static_cast<std::size_t>(i)].zone,
              b.bids[static_cast<std::size_t>(i)].zone);
    EXPECT_EQ(a.bids[static_cast<std::size_t>(i)].bid,
              b.bids[static_cast<std::size_t>(i)].bid);
  }
}

TEST_F(BidderFixture, ZonesWithoutModelsIgnored) {
  snapshot.push_back(zone_state(99, 10, od));  // dirt cheap but unknown
  BidDecision d = bidder.decide(models, snapshot, spec);
  for (const auto& e : d.bids) EXPECT_NE(e.zone, 99);
}

TEST_F(BidderFixture, ErasureSpecNeedsAtLeastMZones) {
  ServiceSpec storage = ServiceSpec::storage_service();
  storage.kind = InstanceKind::kM1Small;  // reuse the same snapshot
  BidDecision d = bidder.decide(models, snapshot, storage);
  EXPECT_GE(d.nodes(), storage.min_nodes());
  EXPECT_TRUE(d.satisfies_constraint);
}

TEST(OnlineBidder, FallbackWhenNothingSatisfies) {
  PriceTick od(440);
  FailureModelBook models;
  MarketSnapshot snapshot;
  for (int z = 0; z < 6; ++z) {
    models.set(z, chaotic_model(od));
    snapshot.push_back(zone_state(z, 100, od));
  }
  OnlineBidder bidder({.horizon_minutes = 60, .max_nodes = 6});
  ServiceSpec spec = ServiceSpec::lock_service();
  BidDecision d = bidder.decide(models, snapshot, spec);
  EXPECT_FALSE(d.satisfies_constraint);
  EXPECT_GT(d.nodes(), 0);  // degrades gracefully, never unprovisioned
  for (const auto& e : d.bids) {
    EXPECT_EQ(e.bid, od - 1);  // fallback bids the maximum allowed
  }
}

TEST(OnlineBidder, PrefersFewerNodesWhenBidSumsTie) {
  // Two configurations both satisfy; the smaller bid-sum one must win.
  PriceTick od(440);
  FailureModelBook models;
  MarketSnapshot snapshot;
  // 5 dirt-cheap, perfectly calm zones and 4 expensive ones.
  for (int z = 0; z < 5; ++z) {
    models.set(z, calm_model(50, 60, od));
    snapshot.push_back(zone_state(z, 50, od));
  }
  for (int z = 5; z < 9; ++z) {
    models.set(z, calm_model(400, 410, od));
    snapshot.push_back(zone_state(z, 400, od));
  }
  OnlineBidder bidder({.horizon_minutes = 60, .max_nodes = 9});
  BidDecision d = bidder.decide(models, snapshot, ServiceSpec::lock_service());
  EXPECT_EQ(d.nodes(), 5);
  for (const auto& e : d.bids) EXPECT_LT(e.zone, 5);
}

TEST(OnlineBidder, MaxNodesCapRespected) {
  PriceTick od(440);
  FailureModelBook models;
  MarketSnapshot snapshot;
  for (int z = 0; z < 12; ++z) {
    models.set(z, calm_model(60, 160, od));
    snapshot.push_back(zone_state(z, 60, od));
  }
  OnlineBidder bidder({.horizon_minutes = 60, .max_nodes = 7});
  BidDecision d = bidder.decide(models, snapshot, ServiceSpec::lock_service());
  EXPECT_LE(d.nodes(), 7);
}

TEST(SizeBudgets, EqualTheBisectedBudgetForEverySize) {
  constexpr int kMaxNodes = 9;
  for (const ServiceSpec& spec :
       {ServiceSpec::lock_service(), ServiceSpec::storage_service()}) {
    SizeBudgets budgets(spec, kMaxNodes);
    const double target = spec.target_availability() - spec.epsilon;
    EXPECT_EQ(budgets.target(), target) << spec.name;
    for (int n = spec.min_nodes(); n <= kMaxNodes; ++n) {
      EXPECT_EQ(budgets.fp_budget(n),
                equal_fp_for_availability(n, spec.tolerate(n), target))
          << spec.name << " n=" << n;
    }
    // Sizes outside the range carry no budget.
    EXPECT_EQ(budgets.fp_budget(spec.min_nodes() - 1), 0.0) << spec.name;
    EXPECT_EQ(budgets.fp_budget(kMaxNodes + 1), 0.0) << spec.name;
  }
}

TEST_F(BidderFixture, PrecomputedBudgetsDecideLikePerDecisionOnes) {
  BidDecision a = bidder.decide(models, snapshot, spec);
  BidDecision b = bidder.decide(models, snapshot, spec,
                                SizeBudgets(spec, bidder.options().max_nodes));
  ASSERT_EQ(a.nodes(), b.nodes());
  for (int i = 0; i < a.nodes(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(a.bids[k].zone, b.bids[k].zone);
    EXPECT_EQ(a.bids[k].bid, b.bids[k].bid);
    EXPECT_EQ(a.bids[k].estimated_fp, b.bids[k].estimated_fp);
  }
  EXPECT_EQ(a.estimated_availability, b.estimated_availability);
}

}  // namespace
}  // namespace jupiter
