// The deployment ledger (core/deployment.hpp): quorum downtime, the keep /
// retire / launch reconciliation, billing of a retired holding, interval
// closing, and the timeline-conservation check behind
// ReplayResult::internally_consistent and FleetReport::internally_consistent.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cloud/instance_type.hpp"
#include "core/deployment.hpp"
#include "fleet/fleet.hpp"
#include "replay/replay_engine.hpp"

namespace jupiter {
namespace {

using Ups = std::vector<std::pair<SimTime, SimTime>>;

const SimTime kT0(100);
const SimTime kT1(200);

TEST(QuorumDowntime, UpIntervalsTouchingTheWindowEdges) {
  // Covering exactly [t0, t1) is fully up.
  EXPECT_EQ(quorum_downtime({{kT0, kT1}}, kT0, kT1, 1), 0);
  // Ending at t0 or starting at t1 covers nothing inside the window.
  EXPECT_EQ(quorum_downtime({{SimTime(50), kT0}}, kT0, kT1, 1), 100);
  EXPECT_EQ(quorum_downtime({{kT1, SimTime(300)}}, kT0, kT1, 1), 100);
  // Two members handing over at 150 leave no gap.
  EXPECT_EQ(quorum_downtime({{kT0, SimTime(150)}, {SimTime(150), kT1}}, kT0,
                            kT1, 1),
            0);
  // Spilling over either edge counts only the part inside.
  EXPECT_EQ(quorum_downtime({{SimTime(50), SimTime(150)}}, kT0, kT1, 1), 50);
  EXPECT_EQ(quorum_downtime({{SimTime(170), SimTime(300)}}, kT0, kT1, 1), 70);
}

TEST(QuorumDowntime, ZeroLengthAndOutOfWindowIntervalsCountAsDown) {
  EXPECT_EQ(quorum_downtime({}, kT0, kT1, 1), 100);
  EXPECT_EQ(quorum_downtime({{SimTime(150), SimTime(150)}}, kT0, kT1, 1), 100);
  EXPECT_EQ(quorum_downtime({{SimTime(0), SimTime(50)},
                             {SimTime(250), SimTime(300)}},
                            kT0, kT1, 1),
            100);
}

TEST(QuorumDowntime, QuorumLargerThanMembersIsFullDowntime) {
  Ups ups = {{kT0, kT1}, {kT0, kT1}};
  EXPECT_EQ(quorum_downtime(ups, kT0, kT1, 2), 0);
  EXPECT_EQ(quorum_downtime(ups, kT0, kT1, 3), 100);
}

TEST(QuorumDowntime, OverlappingCoverage) {
  // Up counts per segment: [100,120) 1, [120,140) 2, [140,160) 3,
  // [160,180) 2, [180,200) 1.
  Ups ups = {{SimTime(100), SimTime(160)},
             {SimTime(140), SimTime(200)},
             {SimTime(120), SimTime(180)}};
  EXPECT_EQ(quorum_downtime(ups, kT0, kT1, 1), 0);
  EXPECT_EQ(quorum_downtime(ups, kT0, kT1, 2), 40);
  EXPECT_EQ(quorum_downtime(ups, kT0, kT1, 3), 80);
}

Holding spot(int zone, int bid) {
  return Holding{.zone = zone, .bid = PriceTick(bid), .spot = true};
}

Holding on_demand(int zone) { return Holding{.zone = zone, .spot = false}; }

TEST(Reconcile, KeepsSameZoneAndBidRetiresTheRestLaunchesTheRemainder) {
  Holding dead = spot(3, 100);
  dead.death = SimTime(50);
  std::vector<Holding> holdings = {spot(0, 100), spot(1, 100), on_demand(2),
                                   dead};
  StrategyDecision d;
  d.spot_bids = {{1, PriceTick(100)}, {0, PriceTick(150)}, {3, PriceTick(100)}};
  d.on_demand_zones = {2, 4};

  Reconciliation plan = reconcile(holdings, d, SimTime(100));
  EXPECT_EQ(plan.keep, (std::vector<char>{0, 1, 1, 0}));
  ASSERT_EQ(plan.spot_launches.size(), 2u);
  EXPECT_EQ(plan.spot_launches[0].zone, 0);  // re-bid: a new instance
  EXPECT_EQ(plan.spot_launches[0].bid, PriceTick(150));
  EXPECT_EQ(plan.spot_launches[1].zone, 3);  // dead: replaced
  EXPECT_EQ(plan.on_demand_launches, std::vector<int>{4});
  EXPECT_EQ(plan.launches(), 3);

  std::vector<Holding> retired = retire(holdings, plan);
  ASSERT_EQ(retired.size(), 2u);
  EXPECT_EQ(retired[0].zone, 0);
  EXPECT_EQ(retired[1].zone, 3);
  ASSERT_EQ(holdings.size(), 2u);
  EXPECT_EQ(holdings[0].zone, 1);
  EXPECT_EQ(holdings[1].zone, 2);
}

TEST(Reconcile, EachDecisionEntryKeepsAtMostOneHolding) {
  std::vector<Holding> holdings = {spot(0, 100), spot(0, 100)};
  StrategyDecision d;
  d.spot_bids = {{0, PriceTick(100)}};
  Reconciliation plan = reconcile(holdings, d, SimTime(0));
  EXPECT_EQ(plan.keep, (std::vector<char>{1, 0}));
  EXPECT_EQ(plan.launches(), 0);
}

TEST(Reconcile, HeldBidsAreTheLiveSpotHoldingsThroughAProjection) {
  Holding never = spot(2, 100);
  never.never_ran = true;
  Holding dead = spot(3, 100);
  dead.death = SimTime(10);
  std::vector<Holding> arena = {spot(0, 120), on_demand(1), never, dead};
  std::vector<int> ids = {3, 2, 1, 0};
  auto proj = [&](int id) -> const Holding& {
    return arena[static_cast<std::size_t>(id)];
  };
  std::vector<ZoneBid> held = held_bids(ids, SimTime(5), proj);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[0].zone, 3);  // still alive at 5
  EXPECT_EQ(held[1].zone, 0);
  EXPECT_EQ(held[1].bid, PriceTick(120));
  EXPECT_EQ(held_bids(ids, SimTime(10), proj).size(), 1u);
}

TEST(HoldingCharge, SpotOnDemandAndNeverRan) {
  SpotTrace tr;
  tr.append(SimTime(0), PriceTick(100));
  TraceBook book;
  book.set(0, InstanceKind::kM1Small, std::move(tr));
  const InstanceKind kind = InstanceKind::kM1Small;

  Holding s = spot(0, 200);
  // A user termination mid-hour pays the partial hour in full.
  EXPECT_EQ(holding_charge(s, book, kind, SimTime(90 * kMinute)),
            PriceTick(100).money() * 2);
  s.never_ran = true;
  EXPECT_EQ(holding_charge(s, book, kind, SimTime(90 * kMinute)), Money());

  // On-demand reads no trace: zone 5 is absent from the book.
  EXPECT_EQ(holding_charge(on_demand(5), book, kind, SimTime(kHour)),
            on_demand_price_zone(5, kind));
}

TEST(CloseInterval, CountsDeathsInsideTheWindowAndQuorumLoss) {
  ServiceSpec spec = ServiceSpec::lock_service();  // majority: 2 of 3
  Holding a = spot(0, 100);
  Holding b = spot(1, 100);
  b.ready = SimTime(600);
  b.death = SimTime(1800);
  Holding c = on_demand(2);
  Holding gone = spot(3, 100);
  gone.death = SimTime(-100);  // died before the window opened
  Holding later = spot(4, 100);
  later.death = SimTime(kHour + 5);  // dies after it closes
  Holding never = spot(5, 100);
  never.never_ran = true;

  IntervalRecord rec{.start = SimTime(0), .length = kHour, .nodes = 3};
  close_interval(rec, std::vector<Holding>{a, b, c, gone, later, never}, spec);
  EXPECT_EQ(rec.out_of_bid, 1);
  EXPECT_EQ(rec.downtime, 0);

  // Without the on-demand node only one member is up after b dies, and
  // nobody but a is up before b is ready.
  close_interval(rec, std::vector<Holding>{a, b}, spec);
  EXPECT_EQ(rec.out_of_bid, 1);
  EXPECT_EQ(rec.downtime, 600 + (kHour - 1800));

  IntervalRecord empty{.start = SimTime(0), .length = kHour, .nodes = 0};
  close_interval(empty, std::vector<Holding>{}, spec);
  EXPECT_EQ(empty.downtime, kHour);
}

// ---- timeline conservation ------------------------------------------------

struct Ledger {
  std::vector<IntervalRecord> timeline = {
      {SimTime(0), kHour, 3, 3, 0, 0},
      {SimTime(kHour), kHour, 3, 1, 1, 120},
  };
  LedgerTotals totals{.cost = Money::from_dollars(1.0),
                      .downtime = 120,
                      .elapsed = 2 * kHour,
                      .decisions = 2,
                      .out_of_bid = 1,
                      .launches = 4};
};

ReplayResult as_replay(const Ledger& l) {
  ReplayResult r;
  r.cost = l.totals.cost;
  r.downtime = l.totals.downtime;
  r.elapsed = l.totals.elapsed;
  r.decisions = l.totals.decisions;
  r.out_of_bid_events = l.totals.out_of_bid;
  r.instances_launched = l.totals.launches;
  r.timeline = l.timeline;
  return r;
}

fleet::FleetReport as_fleet(const Ledger& l) {
  fleet::ServiceResult s;
  s.id = 7;
  s.cost = l.totals.cost;
  s.downtime = l.totals.downtime;
  s.elapsed = l.totals.elapsed;
  s.decisions = l.totals.decisions;
  s.out_of_bid = l.totals.out_of_bid;
  s.launches = l.totals.launches;
  s.timeline = l.timeline;
  fleet::FleetReport report;
  report.services.push_back(std::move(s));
  return report;
}

TEST(TimelineConservation, BalancedLedgerPassesBothReports) {
  Ledger l;
  std::string why;
  EXPECT_TRUE(as_replay(l).internally_consistent(&why)) << why;
  EXPECT_TRUE(as_fleet(l).internally_consistent(&why)) << why;
}

TEST(TimelineConservation, EachRuleRejectsItsLeak) {
  struct Case {
    std::string why;
    std::function<void(Ledger&)> leak;
  };
  const std::vector<Case> cases = {
      {"decisions != timeline size", [](Ledger& l) { l.totals.decisions = 3; }},
      {"interval 1 downtime outside [0, length]",
       [](Ledger& l) { l.timeline[1].downtime = kHour + 1; }},
      {"interval 0 downtime outside [0, length]",
       [](Ledger& l) { l.timeline[0].downtime = -1; }},
      {"interval 0 does not tile",
       [](Ledger& l) { l.timeline[1].start = SimTime(kHour + 60); }},
      {"downtime total != sum of attributed quorum-loss seconds",
       [](Ledger& l) { l.totals.downtime = 100; }},
      {"interval lengths do not cover the window",
       [](Ledger& l) { l.totals.elapsed = 2 * kHour - 1; }},
      {"out-of-bid total != timeline sum",
       [](Ledger& l) { l.totals.out_of_bid = 2; }},
      {"launch total != timeline sum",
       [](Ledger& l) { l.totals.launches = 5; }},
      {"negative total cost", [](Ledger& l) { l.totals.cost = Money(-1); }},
  };
  for (const Case& c : cases) {
    Ledger l;
    c.leak(l);
    std::string why;
    EXPECT_FALSE(as_replay(l).internally_consistent(&why)) << c.why;
    EXPECT_EQ(why, c.why);
    why.clear();
    EXPECT_FALSE(as_fleet(l).internally_consistent(&why)) << c.why;
    EXPECT_EQ(why, "service 7: " + c.why);
  }
}

}  // namespace
}  // namespace jupiter
