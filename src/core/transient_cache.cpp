#include "core/transient_cache.hpp"

#include <algorithm>

namespace jupiter {

std::shared_ptr<TransientCache::Entry> TransientCache::entry(int state,
                                                             int age,
                                                             int horizon,
                                                             int state_count) {
  std::lock_guard<std::mutex> lk(mu_);
  auto key = std::make_tuple(state, age, horizon);
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  AuditWriteScope audit(audit_, "TransientCache::entry");
  if (entries_.size() >= kMaxEntries) entries_.clear();
  auto e = std::make_shared<Entry>();
  e->hit.assign(static_cast<std::size_t>(state_count), 0.0);
  e->hit_known.assign(static_cast<std::size_t>(state_count), 0);
  entries_.emplace(key, e);
  return e;
}

bool TransientCache::Entry::hits_complete(int top) const {
  auto end = hit_known.begin() +
             std::clamp<std::ptrdiff_t>(std::ptrdiff_t{top} + 1, 0,
                                        std::ssize(hit_known));
  return std::find(hit_known.begin(), end, 0) == end;
}

void TransientCache::Entry::fill_hits(const std::vector<double>& curve) {
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (!hit_known[i]) {
      hit[i] = curve[i];
      hit_known[i] = 1;
    }
  }
}

void TransientCache::invalidate() {
  std::lock_guard<std::mutex> lk(mu_);
  AuditWriteScope audit(audit_, "TransientCache::invalidate");
  entries_.clear();
}

TransientCache::Stats TransientCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace jupiter
