// Shared memo for the transient analyses behind the bidding hot path.
//
// One ZoneFailureModel owns one TransientCache.  Every BidCurve the model
// hands out for the same (state, clamped age, horizon) key shares one Entry,
// so the first-passage values computed while evaluating the held deployment
// are reused by the full bid search within the same decision, and — as long
// as the zone's chain has not been retrained — across decisions too.  Keys
// use the *clamped* age (see SemiMarkovChain::clamped_age): once a price has
// held longer than any observed sojourn, consecutive decisions map to the
// same entry even though the raw age keeps growing.
//
// Entries are filled lazily under a per-entry mutex (the parallel sweep and
// the parallel exhaustive search may evaluate curves from worker threads).
// Hit/miss counters are cumulative for the life of the cache; the
// strategy publishes them as the core.cache_hits / core.cache_misses /
// core.cache_hit_rate gauges.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "util/shared_state_audit.hpp"

namespace jupiter {

class TransientCache {
 public:
  /// Memoized transient results for one (state, clamped age, horizon) key.
  struct Entry {
    std::mutex mu;
    // First-passage probability per threshold index, filled lazily (the bid
    // search touches only the thresholds its binary search probes).
    std::vector<double> hit;
    std::vector<char> hit_known;
    // Occupancy exceedance curve; one forward pass fills it whole.
    std::vector<double> exceed;
    bool exceed_filled = false;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double hit_rate() const {
      std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
    Stats& operator+=(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      return *this;
    }
  };

  /// Finds or creates the entry for a key.  `state_count` sizes the
  /// threshold-indexed vectors of a fresh entry.  The returned pointer stays
  /// valid (detached) even if the cache is invalidated afterwards.
  std::shared_ptr<Entry> entry(int state, int age, int horizon,
                               int state_count);

  /// Drops every entry (the chain changed) but keeps the counters.
  void invalidate();

  void count_hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void count_miss() { misses_.fetch_add(1, std::memory_order_relaxed); }
  Stats stats() const;

 private:
  /// Safety valve: a replay probes a bounded key set per model (ages are
  /// clamped), but cap anyway so a pathological workload cannot grow the
  /// map without bound.
  static constexpr std::size_t kMaxEntries = 4096;

  mutable std::mutex mu_;
  std::map<std::tuple<int, int, int>, std::shared_ptr<Entry>> entries_;
  // Map mutations happen under mu_; the auditor proves the serialization.
  AuditToken audit_{"TransientCache", AuditMode::kSerialized};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace jupiter
