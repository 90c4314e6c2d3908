#include "replay/adaptive.hpp"

#include <algorithm>
#include <cmath>

namespace jupiter {

double market_churn(const TraceBook& book, InstanceKind kind,
                    const std::vector<int>& zones, SimTime now,
                    TimeDelta lookback) {
  if (zones.empty() || lookback <= 0) return 0.0;
  std::size_t changes = 0;
  TimeDelta observed = 0;  // zone-time the windows actually cover
  for (int z : zones) {
    const SpotTrace& trace = book.trace(z, kind);
    // Each zone's window starts no earlier than its own trace.
    SimTime from = std::max(now - lookback, trace.start());
    if (now <= from) continue;
    SpotTrace w = trace.slice(from, now);
    // The re-anchored first point is the pre-existing price, not a change.
    changes += w.empty() ? 0 : w.size() - 1;
    observed += now - from;
  }
  if (observed == 0) return 0.0;
  return static_cast<double>(changes) /
         (static_cast<double>(observed) / kDay);
}

TimeDelta choose_interval(const TraceBook& book, InstanceKind kind,
                          const std::vector<int>& zones, SimTime now,
                          const AdaptiveIntervalOptions& opts) {
  if (opts.choices.empty()) return kHour;
  double churn = market_churn(book, kind, zones, now, opts.lookback);
  if (churn >= opts.churn_high) return opts.choices.front();
  if (churn <= opts.churn_low) return opts.choices.back();
  // Linear position between high churn (index 0) and low churn (last).
  double t = (opts.churn_high - churn) / (opts.churn_high - opts.churn_low);
  auto idx = static_cast<std::size_t>(
      std::lround(t * static_cast<double>(opts.choices.size() - 1)));
  idx = std::min(idx, opts.choices.size() - 1);
  return opts.choices[idx];
}

}  // namespace jupiter
