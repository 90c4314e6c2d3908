// The transient first-passage DP (hit_one / hit_curve) against a frozen
// reference.
//
// ReferenceHitOne and ReferenceHitCurve are the threshold-major kernels the
// state-major one replaced, kept verbatim except that they read the chain
// through its public API.  Every double the live kernel returns must match
// them byte for byte: the failure model caches these curves and the bidder
// compares them, so one ulp can move a decision and an EXPERIMENTS.md cent.
// The multi-horizon entry point must return, for each horizon of its set,
// exactly the single-horizon reference curve, and a curve capped at
// threshold top exactly the reference's first top + 1 entries.  The second
// half pins the invariant the live kernel's early exit rests on: every
// kernel row stays sorted by (sojourn, next).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "market/price_process.hpp"
#include "market/semi_markov.hpp"
#include "market/spot_trace.hpp"

namespace jupiter {
namespace {

constexpr double kMassEps = 1e-12;  // semi_markov.cpp's cell-skip threshold

double ReferenceHitOne(const SemiMarkovChain& chain, int state, int age,
                       int horizon, int threshold_index) {
  if (horizon <= 0) throw std::invalid_argument("horizon must be positive");
  const int b = threshold_index;
  if (b < state) return 1.0;  // already above the threshold
  const int H = horizon;

  int a = chain.clamped_age(state, age);
  double sa = chain.survival(state, a);
  if (sa <= 0.0) sa = 1.0;

  std::vector<std::vector<double>> entries(
      static_cast<std::size_t>(H) + 1,
      std::vector<double>(static_cast<std::size_t>(b) + 1, 0.0));
  double no_hit = chain.survival(state, a + H) / sa;
  for (const auto& tr : chain.row(state)) {
    if (tr.sojourn <= a) continue;
    if (tr.sojourn - a > H) continue;
    if (tr.next > b) continue;
    entries[static_cast<std::size_t>(tr.sojourn - a)]
           [static_cast<std::size_t>(tr.next)] += tr.prob / sa;
  }
  for (int t = 1; t <= H; ++t) {
    const auto& et = entries[static_cast<std::size_t>(t)];
    for (int j = 0; j <= b; ++j) {
      double m = et[static_cast<std::size_t>(j)];
      if (m <= kMassEps) continue;
      no_hit += m * chain.survival(j, H - t);
      for (const auto& tr : chain.row(j)) {
        int tt = t + tr.sojourn;
        if (tt > H) continue;
        if (tr.next > b) continue;
        entries[static_cast<std::size_t>(tt)]
               [static_cast<std::size_t>(tr.next)] += m * tr.prob;
      }
    }
  }
  return std::clamp(1.0 - no_hit, 0.0, 1.0);
}

std::vector<double> ReferenceHitCurve(const SemiMarkovChain& chain, int state,
                                      int age, int horizon) {
  if (horizon <= 0) throw std::invalid_argument("horizon must be positive");
  const int n = chain.state_count();
  const int H = horizon;

  const auto np = static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) + 1) / 2;
  const std::size_t table = (static_cast<std::size_t>(H) + 1) * np;
  if (table > (std::size_t{1} << 23)) {
    std::vector<double> hit(static_cast<std::size_t>(n), 0.0);
    for (int b = 0; b < n; ++b) {
      hit[static_cast<std::size_t>(b)] =
          ReferenceHitOne(chain, state, age, horizon, b);
    }
    return hit;
  }
  auto tidx = [](int j, int b) {
    return static_cast<std::size_t>(b) * (static_cast<std::size_t>(b) + 1) / 2 +
           static_cast<std::size_t>(j);
  };

  std::vector<double> entries(table, 0.0);  // flat [t][tidx(j, b)]
  std::vector<double> no_hit(static_cast<std::size_t>(n), 0.0);

  int a = chain.clamped_age(state, age);
  double sa = chain.survival(state, a);
  if (sa <= 0.0) sa = 1.0;

  double stay = chain.survival(state, a + H) / sa;
  for (int b = state; b < n; ++b) no_hit[static_cast<std::size_t>(b)] = stay;
  for (const auto& tr : chain.row(state)) {
    if (tr.sojourn <= a) continue;
    if (tr.sojourn - a > H) continue;
    double w = tr.prob / sa;
    const std::size_t base = static_cast<std::size_t>(tr.sojourn - a) * np;
    for (int b = std::max(state, tr.next); b < n; ++b) {
      entries[base + tidx(tr.next, b)] += w;
    }
  }
  for (int t = 1; t <= H; ++t) {
    const std::size_t base = static_cast<std::size_t>(t) * np;
    for (int j = 0; j < n; ++j) {
      const int b0 = std::max(state, j);
      const double surv_j = chain.survival(j, H - t);
      bool live = false;
      for (int b = b0; b < n; ++b) {
        double mass = entries[base + tidx(j, b)];
        if (mass <= kMassEps) continue;
        no_hit[static_cast<std::size_t>(b)] += mass * surv_j;
        live = true;
      }
      if (!live) continue;
      for (const auto& tr : chain.row(j)) {
        int tt = t + tr.sojourn;
        if (tt > H) continue;
        const std::size_t tbase = static_cast<std::size_t>(tt) * np;
        for (int b = std::max(b0, tr.next); b < n; ++b) {
          double mass = entries[base + tidx(j, b)];
          if (mass <= kMassEps) continue;
          entries[tbase + tidx(tr.next, b)] += mass * tr.prob;
        }
      }
    }
  }

  std::vector<double> hit(static_cast<std::size_t>(n), 0.0);
  for (int b = 0; b < n; ++b) {
    hit[static_cast<std::size_t>(b)] =
        b < state
            ? 1.0
            : std::clamp(1.0 - no_hit[static_cast<std::size_t>(b)], 0.0, 1.0);
  }
  return hit;
}

constexpr SimTime kStart{0};
constexpr SimTime kEnd{13 * kWeek};
constexpr int kZones = 8;
constexpr std::uint64_t kTypeSeed = 7;

SpotTrace zone_trace(int zone) {
  ZoneProfile zp = draw_zone_profile(static_cast<std::size_t>(zone),
                                     PriceTick(440), kTypeSeed);
  return generate_zone_trace(zp, kStart, kEnd);
}

int longest_sojourn(const SemiMarkovChain& chain) {
  int longest = 0;
  for (int s = 0; s < chain.state_count(); ++s) {
    for (const auto& tr : chain.row(s)) longest = std::max(longest, tr.sojourn);
  }
  return longest;
}

struct Tally {
  long compared = 0;
  long mismatched = 0;
  std::string first;  // description of the first mismatch
};

bool same_bits(double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; }

/// Every state, the fixed age set plus one age past the longest sojourn, and
/// every horizon: the whole curve and each single threshold, byte for byte.
void compare_all(const SemiMarkovChain& chain, const std::string& label,
                 Tally& tally) {
  const int n = chain.state_count();
  const int beyond = longest_sojourn(chain) + 1;
  for (int state = 0; state < n; ++state) {
    for (int age : {0, 3, 17, 90, 400, beyond}) {
      for (int horizon : {1, 60, 180, 360, 720}) {
        std::vector<double> got = chain.hit_curve(state, age, horizon);
        std::vector<double> want = ReferenceHitCurve(chain, state, age, horizon);
        ASSERT_EQ(got.size(), want.size());
        for (int b = 0; b < n; ++b) {
          double one = chain.hit_one(state, age, horizon, b);
          double one_ref = ReferenceHitOne(chain, state, age, horizon, b);
          const auto i = static_cast<std::size_t>(b);
          for (auto [g, w, kind] : {std::tuple{got[i], want[i], "hit_curve"},
                                    std::tuple{one, one_ref, "hit_one"}}) {
            ++tally.compared;
            if (same_bits(g, w)) continue;
            if (tally.mismatched++ == 0) {
              std::ostringstream os;
              os.precision(17);
              os << label << ' ' << kind << " state=" << state
                 << " age=" << age << " H=" << horizon << " b=" << b
                 << " got=" << g << " want=" << w;
              tally.first = os.str();
            }
          }
        }
      }
    }
  }
}

TEST(TransientDpOracle, TrainedZoneChainsMatchReferenceBitForBit) {
  Tally tally;
  for (int z = 0; z < kZones; ++z) {
    SemiMarkovChain chain = SemiMarkovChain::estimate(zone_trace(z));
    ASSERT_GT(chain.state_count(), 1);
    compare_all(chain, "zone " + std::to_string(z), tally);
  }
  EXPECT_EQ(tally.mismatched, 0) << "first: " << tally.first;
  EXPECT_GT(tally.compared, 0);
}

TEST(TransientDpOracle, MemorylessChainsMatchReferenceBitForBit) {
  Tally tally;
  for (int z = 0; z < kZones; ++z) {
    SemiMarkovChain chain =
        SemiMarkovChain::estimate(zone_trace(z)).to_memoryless();
    compare_all(chain, "memoryless zone " + std::to_string(z), tally);
  }
  EXPECT_EQ(tally.mismatched, 0) << "first: " << tally.first;
  EXPECT_GT(tally.compared, 0);
}

TEST(TransientDpOracle, ExtendedChainWithInsertedStatesMatchesReference) {
  SpotTrace trace = zone_trace(3);
  const SimTime split = kStart + kDay;
  SemiMarkovChain chain = SemiMarkovChain::estimate(trace.slice(kStart, split));
  const int before = chain.state_count();
  chain.extend(trace, split, kEnd);
  // Prices first seen after the split were inserted mid-stream, remapping
  // every existing row's destination indices.
  ASSERT_GT(chain.state_count(), before);
  Tally tally;
  compare_all(chain, "extended", tally);
  EXPECT_EQ(tally.mismatched, 0) << "first: " << tally.first;
}

TEST(TransientDpOracle, ChainWithAbsorbingStateMatchesReference) {
  // A final change point at a never-seen price: its state is entered once
  // and never left, so it has no kernel row and survives forever.
  SpotTrace trace = zone_trace(5);
  SimTime last = trace.points().back().at;
  trace.append(last + 90 * kMinute, PriceTick(9999));
  SemiMarkovChain chain = SemiMarkovChain::estimate(trace);
  const int top = chain.state_count() - 1;
  ASSERT_TRUE(chain.is_absorbing(top));
  Tally tally;
  compare_all(chain, "absorbing", tally);
  EXPECT_EQ(tally.mismatched, 0) << "first: " << tally.first;
}

/// The four chain shapes the oracle covers: trained, memoryless, extended
/// with states inserted mid-stream, and one with an absorbing top state.
std::vector<std::pair<std::string, SemiMarkovChain>> oracle_chains() {
  std::vector<std::pair<std::string, SemiMarkovChain>> chains;
  SpotTrace trace = zone_trace(3);
  chains.emplace_back("trained", SemiMarkovChain::estimate(trace));
  chains.emplace_back("memoryless",
                      SemiMarkovChain::estimate(zone_trace(6)).to_memoryless());
  const SimTime split = kStart + kDay;
  SemiMarkovChain extended =
      SemiMarkovChain::estimate(trace.slice(kStart, split));
  extended.extend(trace, split, kEnd);
  chains.emplace_back("extended", std::move(extended));
  SpotTrace absorbing = zone_trace(5);
  absorbing.append(absorbing.points().back().at + 90 * kMinute,
                   PriceTick(9999));
  chains.emplace_back("absorbing", SemiMarkovChain::estimate(absorbing));
  return chains;
}

/// The multi-horizon kernel: every curve of hit_curve(state, age, set) must
/// equal the single-horizon reference at that horizon, byte for byte, with
/// the result aligned to the set's order (duplicates included).
void compare_sets(const SemiMarkovChain& chain, const std::string& label,
                  const std::vector<std::vector<int>>& sets,
                  const std::vector<int>& states, const std::vector<int>& ages,
                  Tally& tally) {
  const int n = chain.state_count();
  for (int state : states) {
    for (int age : ages) {
      std::map<int, std::vector<double>> want;  // reference per horizon
      for (const std::vector<int>& set : sets) {
        std::vector<std::vector<double>> got = chain.hit_curve(state, age, set);
        ASSERT_EQ(got.size(), set.size());
        for (std::size_t k = 0; k < set.size(); ++k) {
          const int h = set[k];
          auto it = want.find(h);
          if (it == want.end()) {
            it = want.emplace(h, ReferenceHitCurve(chain, state, age, h)).first;
          }
          ASSERT_EQ(got[k].size(), static_cast<std::size_t>(n));
          for (int b = 0; b < n; ++b) {
            const auto i = static_cast<std::size_t>(b);
            ++tally.compared;
            if (same_bits(got[k][i], it->second[i])) continue;
            if (tally.mismatched++ == 0) {
              std::ostringstream os;
              os.precision(17);
              os << label << " state=" << state << " age=" << age
                 << " H=" << h << " (set index " << k << ") b=" << b
                 << " got=" << got[k][i] << " want=" << it->second[i];
              tally.first = os.str();
            }
          }
        }
      }
    }
  }
}

std::vector<int> every_state(const SemiMarkovChain& chain) {
  std::vector<int> states(static_cast<std::size_t>(chain.state_count()));
  for (int s = 0; s < chain.state_count(); ++s) {
    states[static_cast<std::size_t>(s)] = s;
  }
  return states;
}

TEST(TransientDpOracle, SeveralHorizonsMatchReferenceBitForBit) {
  const std::vector<std::vector<int>> sets = {
      {1}, {60, 180, 360, 540, 720}, {360, 60, 720, 1, 60, 540, 360}};
  Tally tally;
  const auto chains = oracle_chains();
  for (const auto& [label, chain] : chains) {
    const int beyond = longest_sojourn(chain) + 1;
    compare_sets(chain, label, sets, every_state(chain), {0, 90, beyond},
                 tally);
  }

  // 200 states: the 60-minute table (61 x 20,100 cells) runs batched, the
  // 720-minute one (721 x 20,100 > 2^23) falls back to per-threshold DPs.
  constexpr int kStates = 200;
  std::vector<PriceTick> prices;
  for (int i = 0; i < kStates; ++i) prices.push_back(PriceTick(100 + 3 * i));
  SemiMarkovChain wide(prices);
  for (int i = 0; i < kStates; ++i) {
    wide.add_transition(i, (i + 1) % kStates, 1 + (i * 13) % 47, 3.0);
    wide.add_transition(i, (i + kStates - 1) % kStates, 2 + (i * 7) % 90, 2.0);
    wide.add_transition(i, (i * 37 + 11) % kStates, 30 + (i * 31) % 400, 1.0);
  }
  wide.normalize_rows();
  const std::size_t np = std::size_t{kStates} * (kStates + 1) / 2;
  ASSERT_LE(61 * np, std::size_t{1} << 23);
  ASSERT_GT(721 * np, std::size_t{1} << 23);
  compare_sets(wide, "fallback", {{720, 60, 720}}, {57, 150}, {0}, tally);

  EXPECT_EQ(tally.mismatched, 0) << "first: " << tally.first;
  EXPECT_GT(tally.compared, 0);
}

/// A capped curve holds exactly the thresholds 0..top of the uncapped
/// reference, byte for byte: the full cap (today's curve), one in the
/// middle, one below the current state, and a multi-horizon set.
TEST(TransientDpOracle, CappedCurveMatchesReferenceBelowTheCap) {
  const std::vector<int> set = {360, 60, 720, 180, 60};
  Tally tally;
  for (const auto& [label, chain] : oracle_chains()) {
    const int n = chain.state_count();
    ASSERT_GT(n, 2) << label;
    const int beyond = longest_sojourn(chain) + 1;
    for (int state : {0, n / 3, n - 1}) {
      for (int top : {n - 1, n / 2, state - 1, -1}) {
        for (int age : {0, 90, beyond}) {
          std::vector<std::vector<double>> got;
          got.push_back(chain.hit_curve(state, age, 180, top));
          std::vector<std::vector<double>> many =
              chain.hit_curve(state, age, set, top);
          got.insert(got.end(), many.begin(), many.end());
          std::vector<int> horizons = {180};
          horizons.insert(horizons.end(), set.begin(), set.end());
          for (std::size_t k = 0; k < got.size(); ++k) {
            const std::vector<double> want =
                ReferenceHitCurve(chain, state, age, horizons[k]);
            ASSERT_EQ(got[k].size(), static_cast<std::size_t>(std::max(top + 1, 0)))
                << label << " top=" << top;
            for (std::size_t b = 0; b < got[k].size(); ++b) {
              ++tally.compared;
              if (same_bits(got[k][b], want[b])) continue;
              if (tally.mismatched++ == 0) {
                std::ostringstream os;
                os.precision(17);
                os << label << " state=" << state << " age=" << age
                   << " H=" << horizons[k] << " top=" << top << " b=" << b
                   << " got=" << got[k][b] << " want=" << want[b];
                tally.first = os.str();
              }
            }
          }
        }
      }
    }
    // The default cap is the whole curve.
    EXPECT_EQ(chain.hit_curve(0, 0, 60, n - 1), chain.hit_curve(0, 0, 60))
        << label;
  }
  EXPECT_EQ(tally.mismatched, 0) << "first: " << tally.first;
  EXPECT_GT(tally.compared, 0);
}

/// The kernel's early exit needs every row strictly ordered by
/// (sojourn, next): the first transition past the horizon ends the row.
void expect_rows_sorted(const SemiMarkovChain& chain, const std::string& label) {
  for (int s = 0; s < chain.state_count(); ++s) {
    auto r = chain.row(s);
    for (std::size_t c = 1; c < r.size(); ++c) {
      bool ordered = r[c - 1].sojourn < r[c].sojourn ||
                     (r[c - 1].sojourn == r[c].sojourn && r[c - 1].next < r[c].next);
      EXPECT_TRUE(ordered) << label << " state=" << s << " cell=" << c;
    }
  }
}

TEST(TransientDpOracle, KernelRowsStaySortedBySojournThenNext) {
  SpotTrace trace = zone_trace(2);
  SemiMarkovChain trained = SemiMarkovChain::estimate(trace);
  expect_rows_sorted(trained, "estimate");

  const SimTime split = kStart + kDay;
  SemiMarkovChain extended = SemiMarkovChain::estimate(trace.slice(kStart, split));
  const int before = extended.state_count();
  extended.extend(trace, split, kEnd);
  ASSERT_GT(extended.state_count(), before);  // ensure_state remapped `next`
  expect_rows_sorted(extended, "extend");

  // Transitions added out of order, merged duplicates included.
  SemiMarkovChain built(std::vector<PriceTick>{PriceTick(10), PriceTick(20),
                                               PriceTick(30), PriceTick(40)});
  built.add_transition(0, 3, 50, 1.0);
  built.add_transition(0, 1, 50, 2.0);
  built.add_transition(0, 2, 5, 1.0);
  built.add_transition(0, 1, 5, 1.0);
  built.add_transition(0, 3, 50, 1.0);
  built.add_transition(1, 0, 900, 1.0);
  built.add_transition(1, 2, 1, 3.0);
  built.add_transition(2, 0, 30, 1.0);
  built.normalize_rows();
  expect_rows_sorted(built, "normalize_rows");

  expect_rows_sorted(trained.to_memoryless(), "to_memoryless");
}

}  // namespace
}  // namespace jupiter
