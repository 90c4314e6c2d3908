#include "core/failure_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace jupiter {

ZoneFailureModel::ZoneFailureModel(SemiMarkovChain chain, PriceTick on_demand,
                                   double fp_prime, OobEstimator est)
    : chain_(std::move(chain)),
      on_demand_(on_demand),
      fp_prime_(fp_prime),
      estimator_(est),
      cache_(std::make_shared<TransientCache>()) {
  if (fp_prime < 0 || fp_prime >= 1) throw std::invalid_argument("bad FP'");
}

ZoneFailureModel::ZoneFailureModel(const ZoneFailureModel& o)
    : chain_(o.chain_),
      on_demand_(o.on_demand_),
      fp_prime_(o.fp_prime_),
      estimator_(o.estimator_),
      cache_(std::make_shared<TransientCache>()) {}

ZoneFailureModel& ZoneFailureModel::operator=(const ZoneFailureModel& o) {
  if (this == &o) return *this;
  chain_ = o.chain_;
  on_demand_ = o.on_demand_;
  fp_prime_ = o.fp_prime_;
  estimator_ = o.estimator_;
  cache_ = std::make_shared<TransientCache>();
  return *this;
}

bool ZoneFailureModel::extend(const SpotTrace& history, SimTime from,
                              SimTime to) {
  int folded = chain_.extend(history, from, to);
  if (folded > 0) cache_->invalidate();  // keys/values reference the old chain
  return folded > 0;
}

ZoneFailureModel ZoneFailureModel::train(const SpotTrace& history,
                                         PriceTick on_demand, double fp_prime,
                                         OobEstimator est) {
  if (history.empty()) throw std::invalid_argument("empty training trace");
  return ZoneFailureModel(SemiMarkovChain::estimate(history), on_demand,
                          fp_prime, est);
}

double ZoneFailureModel::out_of_bid_probability(const MarketZoneState& st,
                                                int horizon_minutes,
                                                PriceTick bid) const {
  if (bid < st.price) return 1.0;  // would not even launch
  int state = chain_.nearest_state(st.price);
  if (estimator_ == OobEstimator::kFirstPassage) {
    return chain_.hit_probability(state, st.age_minutes, horizon_minutes, bid);
  }
  return chain_.exceed_probability(state, st.age_minutes, horizon_minutes,
                                   bid);
}

double ZoneFailureModel::estimate_fp(const MarketZoneState& st,
                                     int horizon_minutes,
                                     PriceTick bid) const {
  // Eq. 14: FP = 1 for b <= p (the paper's strict inequality corresponds to
  // its "price exceeds bid" launch rule; ours launches at equality, so only
  // bids strictly below the price are hopeless a priori — but an equal bid
  // dies at the first move, which the exceedance term captures).
  if (bid < st.price) return 1.0;
  // Forced below on-demand (§4.2); honor the stricter of the model's cap
  // and the snapshot's.
  if (bid >= std::min(on_demand_, st.on_demand)) return 1.0;
  return compose(out_of_bid_probability(st, horizon_minutes, bid));
}

std::optional<PriceTick> ZoneFailureModel::min_bid_for_fp(
    const MarketZoneState& st, int horizon_minutes, double fp_target) const {
  return bid_curve(st, horizon_minutes).min_bid_for_fp(fp_target);
}

double ZoneFailureModel::best_achievable_fp(const MarketZoneState& st,
                                            int horizon_minutes) const {
  PriceTick cap = st.on_demand - 1;
  if (cap < st.price) return 1.0;
  return estimate_fp(st, horizon_minutes, cap);
}

BidCurve::BidCurve(const SemiMarkovChain* chain, int state, int age,
                   int horizon, int top, PriceTick current_price,
                   PriceTick on_demand, double fp_prime,
                   OobEstimator estimator,
                   std::shared_ptr<TransientCache> cache,
                   std::shared_ptr<TransientCache::Entry> memo)
    : chain_(chain),
      state_(state),
      age_(age),
      horizon_(horizon),
      top_(top),
      current_price_(current_price),
      on_demand_(on_demand),
      fp_prime_(fp_prime),
      estimator_(estimator),
      stats_(std::move(cache)),
      memo_(std::move(memo)) {}

double BidCurve::occupancy_oob(int i) const {
  std::lock_guard<std::mutex> lk(memo_->mu);
  if (!memo_->exceed_filled) {
    memo_->exceed = chain_->exceed_curve(state_, age_, horizon_);
    memo_->exceed_filled = true;
    stats_->count_miss();
  } else {
    stats_->count_hit();
  }
  return memo_->exceed[static_cast<std::size_t>(i)];
}

double BidCurve::oob_at_index(int i) const {
  if (estimator_ == OobEstimator::kOccupancy) return occupancy_oob(i);
  auto idx = static_cast<std::size_t>(i);
  std::lock_guard<std::mutex> lk(memo_->mu);
  if (!memo_->hit_known[idx]) {
    memo_->hit[idx] = chain_->hit_one(state_, age_, horizon_, i);
    memo_->hit_known[idx] = 1;
    stats_->count_miss();
  } else {
    stats_->count_hit();
  }
  return memo_->hit[idx];
}

void BidCurve::prime_all() const {
  if (estimator_ == OobEstimator::kOccupancy) {
    occupancy_oob(0);  // one forward pass fills the whole curve
    return;
  }
  std::lock_guard<std::mutex> lk(memo_->mu);
  if (memo_->hits_complete(top_)) {
    stats_->count_hit();
    return;
  }
  memo_->fill_hits(chain_->hit_curve(state_, age_, horizon_, top_));
  stats_->count_miss();
}

double BidCurve::fp_at(PriceTick bid) const {
  if (bid < current_price_ || bid >= on_demand_) return 1.0;
  // Out-of-bid probability at `bid` equals the value at the largest state
  // price <= bid (the curve is a right-continuous step function of the bid).
  const auto& ps = prices();
  auto it = std::upper_bound(ps.begin(), ps.end(), bid);
  int idx = static_cast<int>(it - ps.begin()) - 1;
  // Bid below every known state: everything the chain can visit exceeds it.
  double oob = idx < 0 ? 1.0 : oob_at_index(idx);
  return 1.0 - (1.0 - fp_prime_) * (1.0 - oob);
}

std::optional<PriceTick> BidCurve::min_bid_for_fp(double fp_target) const {
  if (fp_target >= 1.0) fp_target = 1.0;
  double max_oob = 1.0 - (1.0 - fp_target) / (1.0 - fp_prime_);
  if (max_oob < 0) return std::nullopt;
  // Candidate bids are the state prices in [current, on-demand); the vector
  // is sorted, so the bounds come from two binary searches.
  const auto& ps = prices();
  int lo = static_cast<int>(
      std::lower_bound(ps.begin(), ps.end(), current_price_) - ps.begin());
  int hi = static_cast<int>(
      std::lower_bound(ps.begin(), ps.end(), on_demand_) - ps.begin()) - 1;
  if (lo > hi || lo >= static_cast<int>(ps.size())) return std::nullopt;
  // The out-of-bid probability is nonincreasing in the threshold index, so
  // binary search finds the cheapest feasible bid with O(log) transient
  // analyses instead of one per candidate.
  if (oob_at_index(hi) > max_oob) return std::nullopt;
  while (lo < hi) {
    int mid = lo + (hi - lo) / 2;
    if (oob_at_index(mid) <= max_oob) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return ps[static_cast<std::size_t>(lo)];
}

double BidCurve::best_achievable_fp() const {
  PriceTick cap = on_demand_ - 1;
  return fp_at(cap);
}

BidCurve ZoneFailureModel::bid_curve(const MarketZoneState& st,
                                     int horizon_minutes,
                                     double fp_prime) const {
  if (fp_prime < 0 || fp_prime >= 1) throw std::invalid_argument("bad FP'");
  int state = chain_.nearest_state(st.price);
  int age = chain_.clamped_age(state, st.age_minutes);
  auto memo = cache_->entry(state, age, horizon_minutes, chain_.state_count());
  return BidCurve(&chain_, state, st.age_minutes, horizon_minutes,
                  curve_top(), st.price, std::min(on_demand_, st.on_demand),
                  fp_prime, estimator_, cache_, std::move(memo));
}

int ZoneFailureModel::curve_top() const {
  const auto& ps = chain_.prices();
  return static_cast<int>(std::lower_bound(ps.begin(), ps.end(), on_demand_) -
                          ps.begin()) - 1;
}

void ZoneFailureModel::prime(const MarketZoneState& st,
                             std::span<const int> horizons) const {
  if (estimator_ != OobEstimator::kFirstPassage) return;
  int state = chain_.nearest_state(st.price);
  int age = chain_.clamped_age(state, st.age_minutes);
  const int top = curve_top();
  std::vector<int> todo;
  std::vector<std::shared_ptr<TransientCache::Entry>> memos;
  for (int h : horizons) {
    auto memo = cache_->entry(state, age, h, chain_.state_count());
    std::lock_guard<std::mutex> lk(memo->mu);
    if (memo->hits_complete(top)) {
      cache_->count_hit();
      continue;
    }
    todo.push_back(h);
    memos.push_back(std::move(memo));
  }
  if (todo.empty()) return;
  // One DP for every horizon still missing, outside the entry locks; a
  // racing filler computes the same values, so the first one in wins.
  std::vector<std::vector<double>> curves =
      chain_.hit_curve(state, st.age_minutes, todo, top);
  for (std::size_t k = 0; k < memos.size(); ++k) {
    std::lock_guard<std::mutex> lk(memos[k]->mu);
    memos[k]->fill_hits(curves[k]);
    cache_->count_miss();
  }
}

void FailureModelBook::set(int zone, ZoneFailureModel model) {
  auto it = std::lower_bound(
      models_.begin(), models_.end(), zone,
      [](const auto& kv, int z) { return kv.first < z; });
  if (it != models_.end() && it->first == zone) {
    it->second = std::move(model);
  } else {
    models_.emplace(it, zone, std::move(model));
  }
}

bool FailureModelBook::has(int zone) const {
  auto it = std::lower_bound(
      models_.begin(), models_.end(), zone,
      [](const auto& kv, int z) { return kv.first < z; });
  return it != models_.end() && it->first == zone;
}

const ZoneFailureModel& FailureModelBook::model(int zone) const {
  auto it = std::lower_bound(
      models_.begin(), models_.end(), zone,
      [](const auto& kv, int z) { return kv.first < z; });
  if (it == models_.end() || it->first != zone) {
    throw std::out_of_range("no model for zone");
  }
  return it->second;
}

FailureModelBook FailureModelBook::train(const TraceBook& book,
                                         InstanceKind kind,
                                         const std::vector<int>& zones,
                                         SimTime from, SimTime to,
                                         double fp_prime, OobEstimator est) {
  FailureModelBook out;
  for (int zone : zones) {
    SpotTrace slice = book.trace(zone, kind).slice(from, to);
    PriceTick od = PriceTick::from_money(on_demand_price_zone(zone, kind));
    out.set(zone, ZoneFailureModel::train(slice, od, fp_prime, est));
  }
  return out;
}

void FailureModelBook::extend(const TraceBook& book, InstanceKind kind,
                              const std::vector<int>& zones,
                              SimTime history_start, SimTime from, SimTime to,
                              OobEstimator est) {
  for (int zone : zones) {
    if (has(zone)) {
      auto it = std::lower_bound(
          models_.begin(), models_.end(), zone,
          [](const auto& kv, int z) { return kv.first < z; });
      // The raw trace works here: extend() skips everything at or before the
      // chain's trained tail, and slice() would only perturb the first point's
      // timestamp anyway.
      it->second.extend(book.trace(zone, kind), from, to);
    } else {
      SpotTrace slice = book.trace(zone, kind).slice(history_start, to);
      PriceTick od = PriceTick::from_money(on_demand_price_zone(zone, kind));
      set(zone, ZoneFailureModel::train(slice, od,
                                        kOnDemandFailureProbability, est));
    }
  }
}

TransientCache::Stats FailureModelBook::cache_stats() const {
  TransientCache::Stats total;
  for (const auto& [zone, model] : models_) total += model.cache_stats();
  return total;
}

}  // namespace jupiter
