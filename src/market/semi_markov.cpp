#include "market/semi_markov.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>
#include <stdexcept>

namespace jupiter {

namespace {
constexpr double kMassEps = 1e-12;

/// One kernel transition as the first-passage DPs walk it: `dst` is the
/// offset of `next`'s row within a minute's slice, precomputed so the inner
/// loop does no index arithmetic, and the raw count is left out.
struct Hop {
  std::int32_t sojourn;
  std::int32_t next;
  std::uint32_t dst;
  double prob;
};

/// The hops of rows 0..last in kernel row order, packed back to back
/// (row j is hops[first[j], first[j + 1])).  Only the hops a DP to
/// `horizon` over the states 0..last can take are kept: sojourn <= horizon
/// and next <= last.  Kernel rows are sorted by (sojourn, next), so each
/// packed row keeps that order and a walk may still stop at its first jump
/// past the horizon.
struct HopTable {
  std::vector<Hop> hops;
  std::vector<std::uint32_t> first;
};

template <class RowOffset>
HopTable pack_hops(const std::vector<std::vector<SemiMarkovChain::Transition>>& kernel,
                   int last, int horizon, RowOffset row_offset) {
  HopTable t;
  t.first.reserve(static_cast<std::size_t>(last) + 2);
  for (int j = 0; j <= last; ++j) {
    t.first.push_back(static_cast<std::uint32_t>(t.hops.size()));
    for (const auto& tr : kernel[static_cast<std::size_t>(j)]) {
      if (tr.sojourn > horizon) break;
      if (tr.next > last) continue;
      t.hops.push_back(Hop{tr.sojourn, tr.next,
                           static_cast<std::uint32_t>(row_offset(tr.next)),
                           tr.prob});
    }
  }
  t.first.push_back(static_cast<std::uint32_t>(t.hops.size()));
  return t;
}
}  // namespace

SemiMarkovChain::SemiMarkovChain(std::vector<PriceTick> prices)
    : prices_(std::move(prices)) {
  std::sort(prices_.begin(), prices_.end());
  prices_.erase(std::unique(prices_.begin(), prices_.end()), prices_.end());
  kernel_.assign(prices_.size(), {});
  survival_.assign(prices_.size(), {});
  survival_dirty_ = false;  // all-absorbing is a consistent state
}

int SemiMarkovChain::find_state(PriceTick p) const {
  auto it = std::lower_bound(prices_.begin(), prices_.end(), p);
  if (it == prices_.end() || *it != p) return -1;
  return static_cast<int>(it - prices_.begin());
}

int SemiMarkovChain::nearest_state(PriceTick p) const {
  if (prices_.empty()) throw std::logic_error("empty state space");
  auto it = std::lower_bound(prices_.begin(), prices_.end(), p);
  if (it == prices_.end()) return state_count() - 1;
  if (it == prices_.begin()) return 0;
  auto lo = it - 1;
  // Tie (equidistant) resolves to the lower price.
  if (p.value() - lo->value() <= it->value() - p.value()) {
    return static_cast<int>(lo - prices_.begin());
  }
  return static_cast<int>(it - prices_.begin());
}

void SemiMarkovChain::add_transition(int from, int to, int sojourn_minutes,
                                     double weight) {
  if (weight <= 0) return;
  int k = std::clamp(sojourn_minutes, 1, kMaxSojournMinutes);
  auto& row = kernel_.at(static_cast<std::size_t>(from));
  // Merge with an existing identical (to, sojourn) cell if present.
  for (auto& tr : row) {
    if (tr.next == to && tr.sojourn == k) {
      tr.prob += weight;
      tr.count += weight;
      survival_dirty_ = true;
      return;
    }
  }
  if (to < 0 || to >= state_count()) throw std::out_of_range("bad state");
  row.push_back(Transition{to, k, weight, weight});
  survival_dirty_ = true;
}

void SemiMarkovChain::normalize_rows() {
  for (auto& row : kernel_) {
    double mass = 0;
    for (const auto& tr : row) mass += tr.prob;
    if (mass <= kMassEps) {
      row.clear();  // absorbing
      continue;
    }
    for (auto& tr : row) tr.prob /= mass;
    // Deterministic iteration order for reproducible sampling.
    std::sort(row.begin(), row.end(), [](const Transition& a, const Transition& b) {
      if (a.sojourn != b.sojourn) return a.sojourn < b.sojourn;
      return a.next < b.next;
    });
  }
  rebuild_survival();
}

std::span<const SemiMarkovChain::Transition> SemiMarkovChain::row(
    int state) const {
  const auto& r = kernel_.at(static_cast<std::size_t>(state));
  return {r.data(), r.size()};
}

double SemiMarkovChain::row_mass(int state) const {
  double m = 0;
  for (const auto& tr : kernel_.at(static_cast<std::size_t>(state))) m += tr.prob;
  return m;
}

SemiMarkovChain SemiMarkovChain::estimate(const SpotTrace& trace) {
  const auto& pts = trace.points();
  std::vector<PriceTick> prices;
  prices.reserve(pts.size());
  for (const auto& p : pts) prices.push_back(p.price);
  SemiMarkovChain chain(std::move(prices));

  // Eq. 13: q^(i,j,k) = N^k_{i,j} / N_i, with N_i the number of observed
  // transitions out of price s_i.  Each change point except the last yields
  // one (i -> j, sojourn) observation; Eq. 12 discretizes the sojourn to
  // whole minutes (clamped to >= 1).  Counts are aggregated in a hash map
  // first — the online bidder retrains on every decision, so this path is
  // hot.
  std::unordered_map<std::uint64_t, double> counts;
  counts.reserve(pts.size());
  for (std::size_t t = 0; t + 1 < pts.size(); ++t) {
    int i = chain.find_state(pts[t].price);
    int j = chain.find_state(pts[t + 1].price);
    auto sojourn = static_cast<int>((pts[t + 1].at - pts[t].at) / kMinute);
    sojourn = std::clamp(sojourn, 1, kMaxSojournMinutes);
    std::uint64_t key = (static_cast<std::uint64_t>(i) << 40) |
                        (static_cast<std::uint64_t>(j) << 20) |
                        static_cast<std::uint64_t>(sojourn);
    counts[key] += 1.0;
  }
  // Drain the hash map through a sorted vector so the kernel fold order —
  // and therefore every downstream float accumulation — is independent of
  // hash iteration order.  normalize_rows() re-sorts rows anyway, but the
  // determinism contract shouldn't hinge on that invariant at a distance.
  // detlint: allow(hash-iteration) — drained into `folded` and sorted below
  std::vector<std::pair<std::uint64_t, double>> folded(counts.begin(),
                                                       counts.end());
  std::sort(folded.begin(), folded.end());
  for (const auto& [key, count] : folded) {
    int i = static_cast<int>(key >> 40);
    int j = static_cast<int>((key >> 20) & 0xFFFFF);
    int k = static_cast<int>(key & 0xFFFFF);
    chain.kernel_[static_cast<std::size_t>(i)].push_back(
        Transition{j, k, count, count});
  }
  chain.survival_dirty_ = true;
  chain.normalize_rows();
  if (!pts.empty()) chain.tail_ = pts.back();
  return chain;
}

int SemiMarkovChain::extend(const SpotTrace& trace, SimTime from, SimTime to) {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  if (!tail_) {
    throw std::logic_error("extend() requires a chain built by estimate()");
  }
  const auto& pts = trace.points();
  // First change point at/after `from` (and strictly after the tail, so an
  // overlapping window never double-counts a transition).
  auto it = std::lower_bound(
      pts.begin(), pts.end(), from,
      [](const PricePoint& p, SimTime t) { return p.at < t; });

  // Rows needing renormalization, keyed by price: state indices can shift
  // when a new price inserts a state mid-extend.
  std::vector<PriceTick> touched;
  int folded = 0;
  for (; it != pts.end() && it->at < to; ++it) {
    if (it->at <= tail_->at) continue;
    int j = ensure_state(it->price);
    int i = find_state(tail_->price);  // exists: tail was folded before
    auto sojourn = static_cast<int>((it->at - tail_->at) / kMinute);
    sojourn = std::clamp(sojourn, 1, kMaxSojournMinutes);
    auto& row = kernel_[static_cast<std::size_t>(i)];
    // Rows stay sorted by (sojourn, next) — the normalize_rows() order.
    auto pos = std::lower_bound(
        row.begin(), row.end(), std::pair<int, int>{sojourn, j},
        [](const Transition& t, const std::pair<int, int>& key) {
          if (t.sojourn != key.first) return t.sojourn < key.first;
          return t.next < key.second;
        });
    if (pos != row.end() && pos->sojourn == sojourn && pos->next == j) {
      pos->count += 1.0;
    } else {
      row.insert(pos, Transition{j, sojourn, 0.0, 1.0});
    }
    PriceTick rp = prices_[static_cast<std::size_t>(i)];
    if (std::find(touched.begin(), touched.end(), rp) == touched.end()) {
      touched.push_back(rp);
    }
    tail_ = *it;
    ++folded;
  }
  for (PriceTick p : touched) {
    renormalize_row_from_counts(find_state(p));
  }
  return folded;
}

int SemiMarkovChain::ensure_state(PriceTick p) {
  auto it = std::lower_bound(prices_.begin(), prices_.end(), p);
  auto pos = static_cast<int>(it - prices_.begin());
  if (it != prices_.end() && *it == p) return pos;
  prices_.insert(it, p);
  // NB: insert(pos, {}) would pick the initializer-list overload and insert
  // nothing; emplace() inserts one empty row.
  kernel_.emplace(kernel_.begin() + pos);
  survival_.emplace(survival_.begin() + pos);
  // Shift destination indices at/after the insertion point.  The shift is
  // monotone, so per-row (sojourn, next) ordering is preserved.
  for (auto& row : kernel_) {
    for (auto& tr : row) {
      if (tr.next >= pos) ++tr.next;
    }
  }
  return pos;
}

void SemiMarkovChain::renormalize_row_from_counts(int state) {
  auto& row = kernel_.at(static_cast<std::size_t>(state));
  double total = 0;
  for (const auto& tr : row) total += tr.count;
  if (total <= kMassEps) {
    row.clear();  // absorbing
  } else {
    for (auto& tr : row) tr.prob = tr.count / total;
  }
  rebuild_survival_row(state);
}

void SemiMarkovChain::rebuild_survival() {
  survival_.assign(prices_.size(), {});
  for (int i = 0; i < state_count(); ++i) rebuild_survival_row(i);
  survival_dirty_ = false;
}

void SemiMarkovChain::rebuild_survival_row(int state) {
  const auto& row = kernel_[static_cast<std::size_t>(state)];
  auto& surv = survival_[static_cast<std::size_t>(state)];
  surv.clear();
  if (row.empty()) return;  // absorbing: survival implicitly 1 forever
  int maxk = 0;
  for (const auto& tr : row) maxk = std::max(maxk, tr.sojourn);
  // pmf over sojourn, then S(d) = 1 - CDF(d).
  std::vector<double> pmf(static_cast<std::size_t>(maxk) + 1, 0.0);
  for (const auto& tr : row) pmf[static_cast<std::size_t>(tr.sojourn)] += tr.prob;
  surv.resize(static_cast<std::size_t>(maxk) + 1);
  double cdf = 0;
  for (int d = 0; d <= maxk; ++d) {
    cdf += pmf[static_cast<std::size_t>(d)];
    surv[static_cast<std::size_t>(d)] = std::max(0.0, 1.0 - cdf);
  }
  surv[static_cast<std::size_t>(maxk)] = 0.0;  // guard against fp residue
}

double SemiMarkovChain::survival(int state, int d) const {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  if (d < 0) return 1.0;
  const auto& surv = survival_.at(static_cast<std::size_t>(state));
  if (surv.empty()) return 1.0;  // absorbing
  if (static_cast<std::size_t>(d) >= surv.size()) return 0.0;
  return surv[static_cast<std::size_t>(d)];
}

double SemiMarkovChain::survival_cumsum(int state, int d) const {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  if (d < 0) return 0.0;
  const auto& surv = survival_.at(static_cast<std::size_t>(state));
  if (surv.empty()) return static_cast<double>(d) + 1.0;  // absorbing
  double acc = 0;
  auto lim = std::min<std::size_t>(static_cast<std::size_t>(d) + 1, surv.size());
  // S(0) == 1 always; the stored array starts at d = 0.
  for (std::size_t t = 0; t < lim; ++t) acc += surv[t];
  return acc;
}

double SemiMarkovChain::mean_sojourn(int state) const {
  if (is_absorbing(state)) return std::numeric_limits<double>::infinity();
  double m = 0;
  for (const auto& tr : row(state)) m += tr.prob * tr.sojourn;
  return m;
}

int SemiMarkovChain::clamped_age(int state, int age) const {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  return clamp_age(state, age);
}

int SemiMarkovChain::clamp_age(int state, int age) const {
  const auto& surv = survival_.at(static_cast<std::size_t>(state));
  if (surv.empty()) return age;  // absorbing: any age is fine
  int a = std::max(age, 0);
  // Largest d with S(d) > 0 is size-2 at most (S(maxk) == 0).
  auto max_live = static_cast<int>(surv.size()) - 2;
  if (max_live < 0) max_live = 0;
  while (a > 0 && survival(state, a) <= 0.0) a = std::min(a - 1, max_live);
  return a;
}

std::optional<SemiMarkovChain::Jump> SemiMarkovChain::sample_jump(
    int state, Rng& rng) const {
  const auto& r = kernel_.at(static_cast<std::size_t>(state));
  if (r.empty()) return std::nullopt;
  double x = rng.uniform();
  double acc = 0;
  for (const auto& tr : r) {
    acc += tr.prob;
    if (x < acc) return Jump{tr.next, tr.sojourn};
  }
  return Jump{r.back().next, r.back().sojourn};
}

SpotTrace SemiMarkovChain::generate(SimTime from, SimTime to,
                                    int initial_state, Rng& rng) const {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  SpotTrace trace;
  int state = initial_state;
  SimTime t = from;
  trace.append(t, state_price(state));
  while (t < to) {
    auto jump = sample_jump(state, rng);
    if (!jump) break;  // absorbing: price holds to the end
    t += static_cast<TimeDelta>(jump->sojourn) * kMinute;
    if (t >= to) break;
    state = jump->next;
    trace.append(t, state_price(state));
  }
  return trace;
}

std::vector<double> SemiMarkovChain::average_occupancy(int state, int age,
                                                       int horizon) const {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  if (horizon <= 0) throw std::invalid_argument("horizon must be positive");
  const int n = state_count();
  const int H = horizon;
  std::vector<double> avg(static_cast<std::size_t>(n), 0.0);

  int a = clamp_age(state, age);
  double sa = survival(state, a);
  if (sa <= 0.0) sa = 1.0;  // defensive; clamp_age should prevent this

  // Minutes the chain is still in the initial state: Pr(sojourn > a + t | > a).
  avg[static_cast<std::size_t>(state)] +=
      (survival_cumsum(state, a + H) - survival_cumsum(state, a)) / sa;

  // e[t][j]: probability of entering state j exactly at minute t (1-based).
  std::vector<std::vector<double>> entries(
      static_cast<std::size_t>(H) + 1,
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (const auto& tr : row(state)) {
    if (tr.sojourn > a && tr.sojourn - a <= H) {
      entries[static_cast<std::size_t>(tr.sojourn - a)]
             [static_cast<std::size_t>(tr.next)] += tr.prob / sa;
    }
  }

  for (int t = 1; t <= H; ++t) {
    const auto& et = entries[static_cast<std::size_t>(t)];
    for (int j = 0; j < n; ++j) {
      double m = et[static_cast<std::size_t>(j)];
      if (m <= kMassEps) continue;
      // Occupies j from minute t while the new sojourn survives.
      avg[static_cast<std::size_t>(j)] += m * survival_cumsum(j, H - t);
      for (const auto& tr : row(j)) {
        int tt = t + tr.sojourn;
        if (tt <= H) {
          entries[static_cast<std::size_t>(tt)]
                 [static_cast<std::size_t>(tr.next)] += m * tr.prob;
        }
      }
    }
  }

  for (auto& v : avg) v /= static_cast<double>(H);
  return avg;
}

std::vector<double> SemiMarkovChain::exceed_curve(int state, int age,
                                                  int horizon) const {
  std::vector<double> avg = average_occupancy(state, age, horizon);
  // exceed[s] = total occupancy of states priced strictly above prices_[s].
  std::vector<double> exceed(avg.size(), 0.0);
  double suffix = 0.0;
  for (std::size_t s = avg.size(); s-- > 0;) {
    exceed[s] = suffix;
    suffix += avg[s];
  }
  return exceed;
}

double SemiMarkovChain::hit_one(int state, int age, int horizon,
                                int threshold_index) const {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  if (horizon <= 0) throw std::invalid_argument("horizon must be positive");
  // A threshold at or above the top state lets nothing escape; the top
  // state's DP is the same one.
  const int b = std::min(threshold_index, state_count() - 1);
  if (b < state) return 1.0;  // already above the threshold
  const int H = horizon;
  const auto w = static_cast<std::size_t>(b) + 1;

  int a = clamp_age(state, age);
  double sa = survival(state, a);
  if (sa <= 0.0) sa = 1.0;

  // Restrict the chain to states <= b and measure the mass that never
  // escapes within H minutes; hit = 1 - that mass.  Entry propagation as in
  // average_occupancy, on a flat [minute t][state j] table, walking only the
  // hops that stay under the threshold (an escape contributes to hit).
  // Rows are sorted by (sojourn, next), so the first jump past the horizon
  // ends a row.
  std::vector<double> entries((static_cast<std::size_t>(H) + 1) * w, 0.0);
  double no_hit = survival(state, a + H) / sa;  // never leaves initial state
  for (const auto& tr : row(state)) {
    if (tr.sojourn <= a) continue;
    // Jumps beyond the horizon are already in survival(state, a + H).
    if (tr.sojourn - a > H) break;
    if (tr.next > b) continue;  // escape: contributes to hit
    entries[static_cast<std::size_t>(tr.sojourn - a) * w +
            static_cast<std::size_t>(tr.next)] += tr.prob / sa;
  }
  const HopTable ht = pack_hops(kernel_, b, H, [](int next) { return next; });
  for (int t = 1; t <= H; ++t) {
    const double* et = entries.data() + static_cast<std::size_t>(t) * w;
    for (int j = 0; j <= b; ++j) {
      const double m = et[j];
      if (m <= kMassEps) continue;
      // survival(j, H - t), read inline.
      const std::vector<double>& surv = survival_[static_cast<std::size_t>(j)];
      const auto d = static_cast<std::size_t>(H - t);
      no_hit += m * (surv.empty() ? 1.0 : (d < surv.size() ? surv[d] : 0.0));
      const Hop* he = ht.hops.data() + ht.first[static_cast<std::size_t>(j) + 1];
      for (const Hop* hp = ht.hops.data() + ht.first[static_cast<std::size_t>(j)];
           hp != he; ++hp) {
        const int tt = t + hp->sojourn;
        // Jumps past the horizon are inside survival(j, H - t) above.
        if (tt > H) break;
        entries[static_cast<std::size_t>(tt) * w + hp->dst] += m * hp->prob;
      }
    }
  }
  return std::clamp(1.0 - no_hit, 0.0, 1.0);
}

std::vector<double> SemiMarkovChain::hit_curve(int state, int age,
                                               int horizon, int top) const {
  return std::move(hit_curve(state, age, {&horizon, 1}, top).front());
}

std::vector<std::vector<double>> SemiMarkovChain::hit_curve(
    int state, int age, std::span<const int> horizons, int top) const {
  if (survival_dirty_) throw std::logic_error("call normalize_rows() first");
  std::vector<int> hs(horizons.begin(), horizons.end());
  std::sort(hs.begin(), hs.end());
  hs.erase(std::unique(hs.begin(), hs.end()), hs.end());
  if (hs.empty()) return {};
  if (hs.front() <= 0) throw std::invalid_argument("horizon must be positive");
  // Thresholds 0..nt-1 are computed; each one's DP only visits the states
  // at or below it, so the curve is the uncapped one cut at `top`.
  const int n = state_count();
  const int nt = top >= n - 1 ? n : std::max(top + 1, 0);
  const auto np = static_cast<std::size_t>(nt) * (static_cast<std::size_t>(nt) + 1) / 2;
  // The horizons whose (horizon x state-pair) table fits share one DP at
  // the largest of them; each longer one falls back to per-threshold DPs.
  constexpr std::size_t kMaxTable = std::size_t{1} << 23;
  std::size_t fit = 0;
  while (fit < hs.size() &&
         (static_cast<std::size_t>(hs[fit]) + 1) * np <= kMaxTable) {
    ++fit;
  }
  std::vector<std::vector<double>> curves;  // aligned with hs
  curves.reserve(hs.size());
  if (fit > 0) hit_curves_batched(state, age, {hs.data(), fit}, nt, curves);
  for (std::size_t k = fit; k < hs.size(); ++k) {
    std::vector<double> hit(static_cast<std::size_t>(nt), 0.0);
    for (int b = 0; b < nt; ++b) {
      hit[static_cast<std::size_t>(b)] = hit_one(state, age, hs[k], b);
    }
    curves.push_back(std::move(hit));
  }
  if (std::equal(hs.begin(), hs.end(), horizons.begin(), horizons.end())) {
    return curves;  // the input was already a sorted set
  }
  std::vector<std::vector<double>> out;
  out.reserve(horizons.size());
  for (int h : horizons) {
    auto k = std::lower_bound(hs.begin(), hs.end(), h) - hs.begin();
    out.push_back(curves[static_cast<std::size_t>(k)]);
  }
  return out;
}

void SemiMarkovChain::hit_curves_batched(
    int state, int age, std::span<const int> hs, int nt,
    std::vector<std::vector<double>>& curves) const {
  const auto K = hs.size();
  const int H = hs.back();
  if (state >= nt) {
    // Every threshold computed is already below the current price.
    for (std::size_t k = 0; k < K; ++k) {
      curves.emplace_back(static_cast<std::size_t>(nt), 1.0);
    }
    return;
  }

  // Batched first passage for every threshold b < nt at once: one flat
  // table runs the per-threshold restricted DPs in lockstep.  Each minute's
  // slice is state-major and triangular, cell (j, b) at row0(j) + b for b in
  // [j, nt).  Threshold b's DP only holds states <= b, so the rows j >= nt
  // and the hops into them belong to no computed threshold and never run.
  // For each fixed b the seeding, the kMassEps cell skip, the survival
  // products and the accumulation order are exactly hit_one()'s, so the
  // curve equals the per-threshold values bit for bit.
  //
  // Every horizon shares the propagation, run once to the largest one H.
  // A cell at minute t only ever receives mass from minutes before t, so
  // slices 1..h hold the same values (added in the same order) whatever H
  // is, and horizon h's accumulator no_hit[k] collects exactly the terms of
  // a single-horizon run: its own start term plus m * S_j(h - t) for every
  // live (t, j) with t <= h.
  const auto np = static_cast<std::size_t>(nt) * (static_cast<std::size_t>(nt) + 1) / 2;
  auto row0 = [nt](int j) {
    return static_cast<std::size_t>(j * (2 * nt - j - 1) / 2);
  };

  std::vector<double> entries((static_cast<std::size_t>(H) + 1) * np, 0.0);
  std::vector<double> no_hit(K * static_cast<std::size_t>(nt), 0.0);  // [k][b]
  std::vector<double> masked(static_cast<std::size_t>(nt), 0.0);
  double* __restrict mm = masked.data();

  int a = clamp_age(state, age);
  double sa = survival(state, a);
  if (sa <= 0.0) sa = 1.0;

  // Never leaves the initial state within the horizon.
  for (std::size_t k = 0; k < K; ++k) {
    double stay = survival(state, a + hs[k]) / sa;
    double* nh = no_hit.data() + k * static_cast<std::size_t>(nt);
    for (int b = state; b < nt; ++b) nh[b] = stay;
  }
  for (const auto& tr : row(state)) {
    if (tr.sojourn <= a) continue;
    if (tr.sojourn - a > H) break;  // inside survival(state, a + H)
    if (tr.next >= nt) continue;    // escapes every computed threshold
    double w = tr.prob / sa;
    double* dst = entries.data() +
                  static_cast<std::size_t>(tr.sojourn - a) * np + row0(tr.next);
    // next > b escapes threshold b; seed only the thresholds it stays under.
    for (int b = std::max(state, tr.next); b < nt; ++b) dst[b] += w;
  }
  const HopTable ht = pack_hops(kernel_, nt - 1, H, row0);
  // Loop order (t, j, hop, b) walks each packed row once per (t, j) yet
  // visits each fixed b's cells in hit_one()'s order; slice t is read-only
  // while t runs, as every target is at t + sojourn > t.  Cells at or below
  // kMassEps are masked to +0.0 once per (t, j), so the b loops are
  // contiguous and branch-free: adding +0.0 to a non-negative cell is exact
  // while prob and survival are finite and non-negative.
  std::size_t k0 = 0;  // first horizon still running at minute t
  for (int t = 1; t <= H; ++t) {
    while (hs[k0] < t) ++k0;
    const double* slice = entries.data() + static_cast<std::size_t>(t) * np;
    for (int j = 0; j < nt; ++j) {
      const int b0 = std::max(state, j);
      const double* src = slice + row0(j);
      bool live = false;
      for (int b = b0; b < nt; ++b) {
        mm[b] = src[b] > kMassEps ? src[b] : 0.0;
        live |= mm[b] > 0.0;
      }
      if (!live) continue;
      // survival(j, h - t), read from j's row once for every horizon.
      const std::vector<double>& surv = survival_[static_cast<std::size_t>(j)];
      for (std::size_t k = k0; k < K; ++k) {
        const auto d = static_cast<std::size_t>(hs[k] - t);
        const double surv_j =
            surv.empty() ? 1.0 : (d < surv.size() ? surv[d] : 0.0);
        double* nh = no_hit.data() + k * static_cast<std::size_t>(nt);
        for (int b = b0; b < nt; ++b) nh[b] += mm[b] * surv_j;
      }
      const Hop* he = ht.hops.data() + ht.first[static_cast<std::size_t>(j) + 1];
      for (const Hop* hp = ht.hops.data() + ht.first[static_cast<std::size_t>(j)];
           hp != he; ++hp) {
        const int tt = t + hp->sojourn;
        if (tt > H) break;  // inside every survival(j, h - t) above
        const double prob = hp->prob;
        double* __restrict dst =
            entries.data() + static_cast<std::size_t>(tt) * np + hp->dst;
        // next > b escapes threshold b within the horizon.
        for (int b = std::max(b0, hp->next); b < nt; ++b) {
          dst[b] += mm[b] * prob;
        }
      }
    }
  }

  for (std::size_t k = 0; k < K; ++k) {
    const double* nh = no_hit.data() + k * static_cast<std::size_t>(nt);
    std::vector<double> hit(static_cast<std::size_t>(nt), 0.0);
    for (int b = 0; b < nt; ++b) {
      hit[static_cast<std::size_t>(b)] =
          b < state ? 1.0 : std::clamp(1.0 - nh[b], 0.0, 1.0);
    }
    curves.push_back(std::move(hit));
  }
}

double SemiMarkovChain::hit_probability(int state, int age, int horizon,
                                        PriceTick bid) const {
  if (bid < state_price(state)) return 1.0;
  // Largest state price <= bid determines the escape set; one transient
  // analysis for that single threshold instead of the whole curve.
  auto it = std::upper_bound(prices_.begin(), prices_.end(), bid);
  if (it == prices_.begin()) return 1.0;  // every known state exceeds the bid
  int idx = static_cast<int>(it - prices_.begin()) - 1;
  return hit_one(state, age, horizon, idx);
}

double SemiMarkovChain::exceed_probability(int state, int age, int horizon,
                                           PriceTick bid) const {
  std::vector<double> avg = average_occupancy(state, age, horizon);
  double p = 0.0;
  for (int s = 0; s < state_count(); ++s) {
    if (state_price(s) > bid) p += avg[static_cast<std::size_t>(s)];
  }
  return p;
}

SemiMarkovChain SemiMarkovChain::to_memoryless() const {
  SemiMarkovChain out(prices_);
  // Geometric sojourns discretized onto a coarse log-spaced grid: a dense
  // per-minute pmf would blow kernel rows into the thousands for calm
  // states (mean sojourns of many hours) and make the transient analyses
  // quadratically slower without changing the comparison the ablation
  // makes.  Cell boundaries are midpoints between grid values; each cell
  // carries the geometric mass of its minute range at its representative.
  static const int kGrid[] = {1,  2,  3,  4,   6,   8,   11,  15,  21,
                              30, 42, 60, 85,  120, 170, 240, 340, 480,
                              680, 960, 1440};
  constexpr int kGridN = static_cast<int>(std::size(kGrid));
  for (int i = 0; i < state_count(); ++i) {
    if (is_absorbing(i)) continue;
    std::map<int, double> marginal;
    for (const auto& tr : row(i)) marginal[tr.next] += tr.prob;
    double mu = std::max(1.0, mean_sojourn(i));
    double q = 1.0 - 1.0 / mu;  // geometric continue prob
    for (int g = 0; g < kGridN; ++g) {
      // Minute range [lo, hi) covered by this grid cell.
      int lo = g == 0 ? 1 : (kGrid[g - 1] + kGrid[g]) / 2 + 1;
      int hi = g + 1 == kGridN ? kMaxSojournMinutes + 1
                               : (kGrid[g] + kGrid[g + 1]) / 2 + 1;
      if (lo > kMaxSojournMinutes) break;
      // P(lo <= K < hi) for K ~ Geometric starting at 1.
      double mass = std::pow(q, lo - 1) - std::pow(q, hi - 1);
      if (mass <= kMassEps) continue;
      for (const auto& [j, pj] : marginal) {
        out.add_transition(i, j, kGrid[g], pj * mass);
      }
    }
  }
  out.normalize_rows();
  return out;
}

std::vector<double> SemiMarkovChain::stationary_occupancy() const {
  const int n = state_count();
  for (int i = 0; i < n; ++i) {
    if (is_absorbing(i)) return {};
  }
  // Embedded chain stationary distribution by power iteration.
  std::vector<double> pi(static_cast<std::size_t>(n),
                         1.0 / static_cast<double>(n));
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (int iter = 0; iter < 20000; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      for (const auto& tr : row(i)) {
        next[static_cast<std::size_t>(tr.next)] +=
            pi[static_cast<std::size_t>(i)] * tr.prob;
      }
    }
    double diff = 0;
    for (int i = 0; i < n; ++i) {
      diff += std::abs(next[static_cast<std::size_t>(i)] -
                       pi[static_cast<std::size_t>(i)]);
    }
    pi.swap(next);
    if (diff < 1e-14) break;
  }
  // Time-weight by mean sojourns.
  double total = 0;
  for (int i = 0; i < n; ++i) {
    pi[static_cast<std::size_t>(i)] *= mean_sojourn(i);
    total += pi[static_cast<std::size_t>(i)];
  }
  for (auto& v : pi) v /= total;
  return pi;
}

}  // namespace jupiter
