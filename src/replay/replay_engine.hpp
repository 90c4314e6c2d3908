// Trace-replay engine (paper §5.2, §5.5).
//
// Replays a bidding strategy against recorded spot price traces exactly the
// way the paper does: "as cost and availability of a spot instance are
// certained with the given spot prices data, the result is the same as real
// running the bidding framework on Amazon EC2."
//
// The framework's rules — which holdings are kept, how they are billed, how
// an interval's downtime is counted — come from the deployment ledger
// (core/deployment.hpp), shared with the fleet and the live framework.  What
// the replay adds, per bidding interval [T, T+I):
//   * prices come from the fixed trace book, and the strategy sees the
//     market a lead time before T (T itself for the first interval);
//   * retired instances are user-terminated at T (their partial hour is
//     charged); new ones are requested at the decision and spend a
//     region-dependent 200-700 s starting up (§4: the startup time shortens
//     the effective interval), drawn from the replay's own jitter stream;
//   * an instance's death is read ahead from the trace: it dies the moment
//     the spot price exceeds its bid and stays dead until the next boundary
//     (no mid-interval rebidding, matching the framework's cadence);
//   * billing is hour-anchored at each instance's launch across interval
//     boundaries; the service is available at each instant iff at least a
//     quorum of the interval's intended members is up.  Replay counts
//     out-of-bid downtime only (the paper's replays do not re-inject SLA
//     crashes; those enter through the failure model's FP').
#pragma once

#include <functional>
#include <vector>

#include "cloud/trace_book.hpp"
#include "core/deployment.hpp"
#include "core/service_spec.hpp"
#include "core/strategies.hpp"
#include "util/money.hpp"

namespace jupiter {

struct ReplayConfig {
  ServiceSpec spec;
  TimeDelta interval = kHour;
  SimTime replay_start;
  SimTime replay_end;
  std::vector<int> zones;
  bool account_startup = true;
  std::uint64_t seed = 0x5EED;  ///< startup-jitter stream

  /// Optional variable-interval policy (the paper's §5.5 extension:
  /// "detect the frequency of spot prices fluctuating and change the
  /// bidding interval correspondingly").  When set, it is queried at each
  /// boundary with the boundary time and returns the length of the
  /// interval that starts there; `interval` is ignored.
  std::function<TimeDelta(SimTime)> interval_policy;
};

struct ReplayResult {
  Money cost;
  TimeDelta downtime = 0;
  TimeDelta elapsed = 0;
  int decisions = 0;
  int out_of_bid_events = 0;
  int instances_launched = 0;
  double mean_nodes = 0.0;  ///< average deployment size across intervals
  std::vector<IntervalRecord> timeline;  ///< one record per interval

  double availability() const {
    if (elapsed <= 0) return 1.0;
    return 1.0 - static_cast<double>(downtime) / static_cast<double>(elapsed);
  }

  /// The ledger's timeline-conservation check (timeline_consistent) on
  /// this result — the chaos harness runs it as an invariant after every
  /// replay.
  bool internally_consistent(std::string* why = nullptr) const;
};

/// Replays `strategy` over the window in `cfg`.  The strategy is driven
/// from scratch (no state leaks between calls as long as the strategy
/// itself is fresh).
ReplayResult replay_strategy(const TraceBook& book, BiddingStrategy& strategy,
                             const ReplayConfig& cfg);

}  // namespace jupiter
