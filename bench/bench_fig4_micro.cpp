// Figure 4 micro-benchmark: precision of the spot instance failure model.
//
// Procedure (§5.3): for each availability zone, train the failure model on
// ~3 months of prices, pick the lowest bid whose estimated out-of-bid
// failure probability over one month is <= 0.01, then measure the realized
// out-of-bid fraction against the *next* month of prices.  The paper
// reports the measurement below 0.01 in most zones with two mild
// exceptions (~0.014 and ~0.018).
//
// The monthly-horizon estimate uses the stationary occupancy of the
// estimated semi-Markov chain — the long-horizon limit of Eq. 5 — falling
// back to a 1-day transient if the estimated chain has absorbing states.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "cloud/region.hpp"
#include "core/failure_model.hpp"
#include "replay/workloads.hpp"

using namespace jupiter;

namespace {

std::optional<PriceTick> monthly_bid(const SemiMarkovChain& chain,
                                     PriceTick on_demand, double budget) {
  auto pi = chain.stationary_occupancy();
  if (pi.empty()) {
    // Absorbing estimate (degenerate trace): use a 1-day transient curve.
    auto exceed = chain.exceed_curve(0, 0, 1440);
    for (int s = 0; s < chain.state_count(); ++s) {
      if (chain.state_price(s) >= on_demand) break;
      if (exceed[static_cast<std::size_t>(s)] <= budget) {
        return chain.state_price(s);
      }
    }
    return std::nullopt;
  }
  double suffix = 0;
  std::vector<double> exceed(pi.size());
  for (std::size_t s = pi.size(); s-- > 0;) {
    exceed[s] = suffix;
    suffix += pi[s];
  }
  for (int s = 0; s < chain.state_count(); ++s) {
    if (chain.state_price(s) >= on_demand) break;
    if (exceed[static_cast<std::size_t>(s)] <= budget) {
      return chain.state_price(s);
    }
  }
  return std::nullopt;
}

/// Fraction of [from, to) the price spends strictly above `bid`.
double measured_oob(const SpotTrace& trace, SimTime from, SimTime to,
                    PriceTick bid) {
  TimeDelta above = 0;
  SpotTrace w = trace.slice(from, to);
  const auto& pts = w.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    SimTime seg_end = i + 1 < pts.size() ? pts[i + 1].at : to;
    if (pts[i].price > bid) above += seg_end - pts[i].at;
  }
  return static_cast<double>(above) / static_cast<double>(to - from);
}

void run_for_kind(InstanceKind kind, const std::vector<int>& zones) {
  const TimeDelta train = 13 * kWeek;
  const TimeDelta month = 30 * kDay;
  TraceBook book = TraceBook::synthetic(
      zones, kind, SimTime(0), SimTime(train + month), kExperimentSeed + 4);
  std::printf("  %s (target 0.01/month):\n", instance_type_info(kind).name);
  for (int z : zones) {
    const SpotTrace& trace = book.trace(z, kind);
    SemiMarkovChain chain =
        SemiMarkovChain::estimate(trace.slice(SimTime(0), SimTime(train)));
    PriceTick od = PriceTick::from_money(on_demand_price_zone(z, kind));
    auto bid = monthly_bid(chain, od, 0.01);
    const auto& zi = all_zones()[static_cast<std::size_t>(z)];
    if (!bid) {
      std::printf("    %-18s no feasible bid below on-demand\n",
                  zi.name.c_str());
      continue;
    }
    double oob =
        measured_oob(trace, SimTime(train), SimTime(train + month), *bid);
    std::printf("    %-18s bid %-9s measured out-of-bid %.6f%s\n",
                zi.name.c_str(), bid->money().str().c_str(), oob,
                oob > 0.01 ? "  (exceeds estimate)" : "");
  }
}

void print_figure4() {
  std::printf("Figure 4: measured out-of-bid failure probability under an\n"
              "estimated failure probability of 0.01 per month\n");
  // The paper's five zones, mapped into the experiment subset.
  std::vector<int> zones = {
      zone_index_by_name("us-east-1a"), zone_index_by_name("us-west-2b"),
      zone_index_by_name("ap-northeast-1a"), zone_index_by_name("eu-west-1a"),
      zone_index_by_name("sa-east-1a")};
  run_for_kind(InstanceKind::kM1Small, zones);
  run_for_kind(InstanceKind::kM3Large, zones);
}

void BM_estimate_chain_13_weeks(benchmark::State& state) {
  std::vector<int> zone = {0};
  TraceBook book = TraceBook::synthetic(zone, InstanceKind::kM1Small,
                                        SimTime(0), SimTime(13 * kWeek), 9);
  const SpotTrace& trace = book.trace(0, InstanceKind::kM1Small);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SemiMarkovChain::estimate(trace));
  }
}
BENCHMARK(BM_estimate_chain_13_weeks);

void BM_stationary_occupancy(benchmark::State& state) {
  ZoneProfile zp = draw_zone_profile(3, PriceTick(440), 1);
  SemiMarkovChain chain = make_ground_truth_chain(zp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.stationary_occupancy());
  }
}
BENCHMARK(BM_stationary_occupancy);

/// The chains the paper's lock-service replay bids on: every experiment
/// zone's m1.small model trained on 13 weeks of synthetic prices.
const std::vector<SemiMarkovChain>& trained_chains() {
  static const std::vector<SemiMarkovChain> chains = [] {
    Scenario sc = make_scenario(InstanceKind::kM1Small, 13, 0, kExperimentSeed);
    std::vector<SemiMarkovChain> out;
    for (int z : sc.zones) {
      out.push_back(SemiMarkovChain::estimate(
          sc.book.trace(z, InstanceKind::kM1Small)));
    }
    return out;
  }();
  return chains;
}

/// Every (chain, current state) pair of trained_chains(), in order.
std::vector<std::pair<const SemiMarkovChain*, int>> chain_states() {
  std::vector<std::pair<const SemiMarkovChain*, int>> out;
  for (const SemiMarkovChain& c : trained_chains()) {
    for (int s = 0; s < c.state_count(); ++s) out.emplace_back(&c, s);
  }
  return out;
}

/// One whole first-passage curve per iteration, cycling through every
/// (chain, current state) pair; Arg is the horizon in minutes.
void BM_hit_curve(benchmark::State& state) {
  const auto pairs = chain_states();
  const int horizon = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [chain, s] = pairs[i];
    benchmark::DoNotOptimize(chain->hit_curve(s, 0, horizon));
    i = (i + 1) % pairs.size();
  }
  state.counters["curves"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_hit_curve)->Arg(60)->Arg(180)->Arg(360)->Arg(720)
    ->Unit(benchmark::kMicrosecond);

/// One single-threshold first passage per iteration, as a held-set check
/// reads it: same pairs, the threshold halfway between the current state
/// and the chain's top state.
void BM_hit_one(benchmark::State& state) {
  const auto pairs = chain_states();
  const int horizon = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [chain, s] = pairs[i];
    const int b = s + (chain->state_count() - s) / 2;
    benchmark::DoNotOptimize(chain->hit_one(s, 0, horizon, b));
    i = (i + 1) % pairs.size();
  }
}
BENCHMARK(BM_hit_one)->Arg(60)->Arg(720)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
