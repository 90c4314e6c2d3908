#include "replay/adaptive.hpp"

#include <gtest/gtest.h>

#include "replay/replay_engine.hpp"
#include "replay/workloads.hpp"

namespace jupiter {
namespace {

/// Book with a controllable change count: `changes` evenly spaced price
/// flips over the last day before `now`.
TraceBook book_with_churn(int changes, SimTime now) {
  SpotTrace tr;
  tr.append(SimTime(0), PriceTick(100));
  SimTime from = now - 24 * kHour;
  for (int i = 0; i < changes; ++i) {
    SimTime at = from + (i + 1) * (24 * kHour / (changes + 1));
    tr.append(at, PriceTick(100 + (i % 2 ? 1 : 2)));
  }
  TraceBook book;
  book.set(0, InstanceKind::kM1Small, std::move(tr));
  return book;
}

TEST(Adaptive, ChurnCountsChangesPerZoneDay) {
  SimTime now(3 * kDay);
  TraceBook book = book_with_churn(24, now);
  double churn = market_churn(book, InstanceKind::kM1Small, {0}, now,
                              24 * kHour);
  EXPECT_NEAR(churn, 24.0, 1.0);
}

TEST(Adaptive, ChurnZeroOnFlatMarket) {
  SimTime now(3 * kDay);
  TraceBook book = book_with_churn(0, now);
  EXPECT_DOUBLE_EQ(
      market_churn(book, InstanceKind::kM1Small, {0}, now, 24 * kHour), 0.0);
  EXPECT_DOUBLE_EQ(
      market_churn(book, InstanceKind::kM1Small, {}, now, 24 * kHour), 0.0);
}

TEST(Adaptive, ChurnClampsEachZoneToItsOwnTraceStart) {
  // Zone 1's trace starts 6 h before `now`, inside the 24 h lookback; zone
  // 0's covers the whole window.  Listing zone 1 first must not cut zone
  // 0's window short, and the divisor is the 1.25 zone-days observed.
  SimTime now(3 * kDay);
  auto flips = [](SimTime from, SimTime to, int count) {
    SpotTrace tr;
    tr.append(from, PriceTick(100));
    for (int i = 0; i < count; ++i) {
      tr.append(from + (i + 1) * ((to - from) / (count + 1)),
                PriceTick(i % 2 ? 100 : 101));
    }
    return tr;
  };
  TraceBook book;
  // 12 changes inside zone 0's window, 3 inside zone 1's.
  book.set(0, InstanceKind::kM1Small, flips(now - 24 * kHour - kMinute, now, 12));
  book.set(1, InstanceKind::kM1Small, flips(now - 6 * kHour, now, 3));
  for (const std::vector<int>& zones :
       {std::vector<int>{1, 0}, std::vector<int>{0, 1}}) {
    EXPECT_DOUBLE_EQ(
        market_churn(book, InstanceKind::kM1Small, zones, now, 24 * kHour),
        (12.0 + 3.0) / 1.25);
  }
  // A zone whose trace starts at `now` observes nothing and adds no days.
  book.set(2, InstanceKind::kM1Small, flips(now, now + kHour, 0));
  EXPECT_DOUBLE_EQ(
      market_churn(book, InstanceKind::kM1Small, {2, 0}, now, 24 * kHour),
      12.0);
  EXPECT_DOUBLE_EQ(
      market_churn(book, InstanceKind::kM1Small, {2}, now, 24 * kHour), 0.0);
}

TEST(Adaptive, HighChurnPicksShortestInterval) {
  SimTime now(3 * kDay);
  TraceBook book = book_with_churn(100, now);
  EXPECT_EQ(choose_interval(book, InstanceKind::kM1Small, {0}, now), kHour);
}

TEST(Adaptive, LowChurnPicksLongestInterval) {
  SimTime now(3 * kDay);
  TraceBook book = book_with_churn(2, now);
  EXPECT_EQ(choose_interval(book, InstanceKind::kM1Small, {0}, now),
            12 * kHour);
}

TEST(Adaptive, MidChurnPicksMiddle) {
  SimTime now(3 * kDay);
  TraceBook book = book_with_churn(24, now);  // halfway between 8 and 40
  TimeDelta iv = choose_interval(book, InstanceKind::kM1Small, {0}, now);
  EXPECT_GT(iv, kHour);
  EXPECT_LT(iv, 12 * kHour);
}

TEST(Adaptive, IntervalIsMonotoneInChurn) {
  SimTime now(3 * kDay);
  TimeDelta prev = 13 * kHour;
  for (int changes : {2, 10, 16, 24, 32, 50}) {
    TraceBook book = book_with_churn(changes, now);
    TimeDelta iv = choose_interval(book, InstanceKind::kM1Small, {0}, now);
    EXPECT_LE(iv, prev) << changes << " changes";
    prev = iv;
  }
}

TEST(Adaptive, ReplayEngineHonorsPolicy) {
  // A policy alternating 1h and 2h must produce boundaries 0,1h,3h,4h,...
  SpotTrace tr;
  tr.append(SimTime(0), PriceTick(100));
  TraceBook book;
  book.set(0, InstanceKind::kM1Small, std::move(tr));

  class CountingStrategy : public BiddingStrategy {
   public:
    std::string name() const override { return "count"; }
    StrategyDecision decide(const MarketSnapshot&, SimTime now,
                            const std::vector<ZoneBid>&) override {
      times.push_back(now);
      StrategyDecision d;
      d.spot_bids.push_back(ZoneBid{0, PriceTick(150)});
      return d;
    }
    std::vector<SimTime> times;
  };
  CountingStrategy strat;
  ReplayConfig cfg;
  cfg.spec = ServiceSpec::lock_service();
  cfg.replay_start = SimTime(0);
  cfg.replay_end = SimTime(6 * kHour);
  cfg.zones = {0};
  int calls = 0;
  cfg.interval_policy = [&calls](SimTime) {
    return (calls++ % 2 == 0) ? kHour : 2 * kHour;
  };
  ReplayResult r = replay_strategy(book, strat, cfg);
  // Boundaries: 0, 1h, 3h, 4h, 6h(end) -> 4 decisions.
  EXPECT_EQ(r.decisions, 4);
  ASSERT_EQ(strat.times.size(), 4u);
  EXPECT_EQ(strat.times[0], SimTime(0));
  // Later decisions happen at boundary - lead.
  EXPECT_EQ(strat.times[1], SimTime(kHour - kMaxStartupLead));
  EXPECT_EQ(strat.times[2], SimTime(3 * kHour - kMaxStartupLead));
}

TEST(Adaptive, SubHourIntervalsClampToBillingHour) {
  SpotTrace tr;
  tr.append(SimTime(0), PriceTick(100));
  TraceBook book;
  book.set(0, InstanceKind::kM1Small, std::move(tr));
  class NopStrategy : public BiddingStrategy {
   public:
    std::string name() const override { return "nop"; }
    StrategyDecision decide(const MarketSnapshot&, SimTime,
                            const std::vector<ZoneBid>&) override {
      return {};
    }
  };
  NopStrategy strat;
  ReplayConfig cfg;
  cfg.spec = ServiceSpec::lock_service();
  cfg.replay_start = SimTime(0);
  cfg.replay_end = SimTime(2 * kHour);
  cfg.zones = {0};
  cfg.interval_policy = [](SimTime) { return TimeDelta{60}; };  // 1 minute?!
  ReplayResult r = replay_strategy(book, strat, cfg);
  EXPECT_EQ(r.decisions, 2);  // clamped to hourly
}

}  // namespace
}  // namespace jupiter
