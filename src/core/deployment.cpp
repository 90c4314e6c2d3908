#include "core/deployment.hpp"

#include "cloud/instance_type.hpp"
#include "market/billing.hpp"

namespace jupiter {

TimeDelta quorum_downtime(const std::vector<std::pair<SimTime, SimTime>>& ups,
                          SimTime t0, SimTime t1, int quorum) {
  std::vector<SimTime> edges{t0, t1};
  for (const auto& [a, b] : ups) {
    if (a > t0 && a < t1) edges.push_back(a);
    if (b > t0 && b < t1) edges.push_back(b);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  TimeDelta down = 0;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    SimTime a = edges[i], b = edges[i + 1];
    int up = 0;
    for (const auto& [ua, ub] : ups) {
      if (ua <= a && ub >= b) ++up;
    }
    if (up < quorum) down += b - a;
  }
  return down;
}

Money holding_charge(const Holding& h, const TraceBook& book,
                     InstanceKind kind, SimTime until) {
  if (!h.spot) {
    return bill_on_demand(on_demand_price_zone(h.zone, kind), h.launch, until);
  }
  if (h.never_ran) return Money();
  return bill_spot_instance(book.trace(h.zone, kind), h.launch, until, h.bid)
      .charge;
}

bool timeline_consistent(const std::vector<IntervalRecord>& timeline,
                         const LedgerTotals& totals, std::string* why) {
  auto fail = [why](std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  };
  if (totals.decisions != static_cast<int>(timeline.size())) {
    return fail("decisions != timeline size");
  }
  TimeDelta down_sum = 0, len_sum = 0;
  int oob_sum = 0, launch_sum = 0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const IntervalRecord& rec = timeline[i];
    if (rec.downtime < 0 || rec.downtime > rec.length) {
      return fail("interval " + std::to_string(i) +
                  " downtime outside [0, length]");
    }
    if (i + 1 < timeline.size() &&
        rec.start + rec.length != timeline[i + 1].start) {
      return fail("interval " + std::to_string(i) + " does not tile");
    }
    down_sum += rec.downtime;
    len_sum += rec.length;
    oob_sum += rec.out_of_bid;
    launch_sum += rec.launches;
  }
  if (down_sum != totals.downtime) {
    return fail("downtime total != sum of attributed quorum-loss seconds");
  }
  if (!timeline.empty() && len_sum != totals.elapsed) {
    return fail("interval lengths do not cover the window");
  }
  if (oob_sum != totals.out_of_bid) {
    return fail("out-of-bid total != timeline sum");
  }
  if (launch_sum != totals.launches) {
    return fail("launch total != timeline sum");
  }
  if (totals.cost.micros() < 0) return fail("negative total cost");
  return true;
}

}  // namespace jupiter
