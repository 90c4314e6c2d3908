// Adaptive bidding interval (the extension the paper sketches in §5.5:
// "detect the frequency of spot prices fluctuating and change the bidding
// interval correspondingly").
//
// The policy watches how many price changes per zone-day occurred over a
// lookback window and maps that churn onto an interval menu: a jittery
// market re-bids hourly, a calm one stretches to half a day and saves the
// startup/replacement overhead.
#pragma once

#include <vector>

#include "cloud/trace_book.hpp"
#include "util/time.hpp"

namespace jupiter {

struct AdaptiveIntervalOptions {
  TimeDelta lookback = 24 * kHour;
  /// Interval menu, ascending.
  std::vector<TimeDelta> choices = {1 * kHour, 3 * kHour, 6 * kHour,
                                    9 * kHour, 12 * kHour};
  /// Churn (price changes per zone per day) at or above which the shortest
  /// interval is used...
  double churn_high = 40.0;
  /// ...and at or below which the longest is used; linear in between.
  double churn_low = 8.0;
};

/// Mean price changes per zone-day over [now - lookback, now).  A zone's
/// window starts no earlier than its trace, and the divisor counts only the
/// zone-days the windows cover (0 when they cover none).
double market_churn(const TraceBook& book, InstanceKind kind,
                    const std::vector<int>& zones, SimTime now,
                    TimeDelta lookback);

/// Picks the interval for the boundary at `now`.
TimeDelta choose_interval(const TraceBook& book, InstanceKind kind,
                          const std::vector<int>& zones, SimTime now,
                          const AdaptiveIntervalOptions& opts = {});

}  // namespace jupiter
