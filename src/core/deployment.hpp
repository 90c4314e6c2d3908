// The deployment ledger: the rules of the bidding framework (paper §4,
// Fig. 2) that every driver shares — the trace replay, the fleet cluster
// and the live BiddingFramework.
//
//   * a holding is one instance a service holds: zone, bid, spot or
//     on-demand, and its life (launch, end of startup, out-of-bid death);
//   * each interval the strategy sees the live spot holdings (`held_bids`)
//     and names a deployment; `reconcile` keeps a holding iff the decision
//     names its zone again, with the same bid for spot (EC2 cannot re-bid a
//     live instance), and returns the entries left over to launch;
//   * a retired or settled holding owes `holding_charge`: spot hours at the
//     driver's prices, on-demand hours at the zone's list price;
//   * `close_interval` turns the members' up-intervals into the interval's
//     out-of-bid count and its seconds below quorum;
//   * `timeline_consistent` checks that a driver's headline totals equal
//     what its interval timeline attributes.
//
// The drivers differ only in where prices come from (a fixed trace, the
// provider, the fleet's published market), in how deaths are found, and in
// when startup delays are drawn.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/trace_book.hpp"
#include "core/service_spec.hpp"
#include "core/strategies.hpp"
#include "util/money.hpp"
#include "util/time.hpp"

namespace jupiter {

/// Replacement lead time: instances for the next interval are requested
/// this many seconds before the boundary, covering the worst-case 700 s
/// startup so view changes never dip below quorum by themselves.
inline constexpr TimeDelta kMaxStartupLead = 700;

/// One bidding interval of a deployment, for timelines and plots.
struct IntervalRecord {
  SimTime start;
  TimeDelta length = 0;
  int nodes = 0;            ///< intended deployment size
  int launches = 0;         ///< new instances requested for this interval
  int out_of_bid = 0;       ///< terminations inside this interval
  TimeDelta downtime = 0;   ///< seconds below quorum
};

/// Downtime within [t0, t1) given each member's up-interval [up_from,
/// up_to) and the quorum size: seconds during which fewer than `quorum`
/// members are simultaneously up.
TimeDelta quorum_downtime(const std::vector<std::pair<SimTime, SimTime>>& ups,
                          SimTime t0, SimTime t1, int quorum);

/// One instance a service holds.  Fields are ordered to pack into 48 bytes:
/// the fleet keeps one per instance it ever launched.
struct Holding {
  int zone = -1;
  PriceTick bid{};                 ///< spot only
  bool spot = true;
  bool never_ran = false;          ///< the price was above the bid at request
  SimTime launch{};                ///< request instant; hours bill from here
  SimTime ready{};                 ///< end of startup
  std::optional<SimTime> death{};  ///< out-of-bid kill, once known

  bool alive(SimTime t) const { return !never_ran && (!death || *death > t); }
};

/// What `h` owes when the user terminates it at `until`: spot hours at the
/// prices in `book` (nothing if it never ran), on-demand hours at the
/// zone's list price.
Money holding_charge(const Holding& h, const TraceBook& book,
                     InstanceKind kind, SimTime until);

/// The keep/retire/launch sets for one decision.
struct Reconciliation {
  std::vector<char> keep;               ///< per holding, in the order given
  std::vector<ZoneBid> spot_launches;   ///< unmatched spot bids
  std::vector<int> on_demand_launches;  ///< unmatched on-demand zones

  int launches() const {
    return static_cast<int>(spot_launches.size() + on_demand_launches.size());
  }
};

// The range functions below take any range of holdings; `proj` maps an
// element to its Holding (the fleet passes arena indices).

/// The live spot holdings at `at`, as the list decide() takes.
template <class Range, class Proj = std::identity>
std::vector<ZoneBid> held_bids(const Range& holdings, SimTime at,
                               Proj proj = {}) {
  std::vector<ZoneBid> held;
  for (const auto& x : holdings) {
    const Holding& h = std::invoke(proj, x);
    if (h.spot && h.alive(at)) held.push_back(ZoneBid{h.zone, h.bid});
  }
  return held;
}

/// Matches `holdings` against `d` one to one, in order: a holding alive at
/// `at` is kept by the first unclaimed entry that names its zone (and, for
/// spot, its bid).  Strategies name each zone at most once per decision.
template <class Range, class Proj = std::identity>
Reconciliation reconcile(const Range& holdings, const StrategyDecision& d,
                         SimTime at, Proj proj = {}) {
  Reconciliation plan;
  std::vector<char> spot_claimed(d.spot_bids.size(), 0);
  std::vector<char> od_claimed(d.on_demand_zones.size(), 0);
  for (const auto& x : holdings) {
    const Holding& h = std::invoke(proj, x);
    char keep = 0;
    if (h.alive(at)) {
      std::vector<char>& claimed = h.spot ? spot_claimed : od_claimed;
      for (std::size_t i = 0; i < claimed.size() && !keep; ++i) {
        bool names = h.spot ? d.spot_bids[i].zone == h.zone &&
                                  d.spot_bids[i].bid == h.bid
                            : d.on_demand_zones[i] == h.zone;
        if (names && !claimed[i]) {
          claimed[i] = 1;
          keep = 1;
        }
      }
    }
    plan.keep.push_back(keep);
  }
  for (std::size_t i = 0; i < d.spot_bids.size(); ++i) {
    if (!spot_claimed[i]) plan.spot_launches.push_back(d.spot_bids[i]);
  }
  for (std::size_t i = 0; i < d.on_demand_zones.size(); ++i) {
    if (!od_claimed[i]) plan.on_demand_launches.push_back(d.on_demand_zones[i]);
  }
  return plan;
}

/// Removes the holdings `plan` did not keep (the kept ones stay, in order)
/// and returns them, in order, for billing.
template <class T>
std::vector<T> retire(std::vector<T>& holdings, const Reconciliation& plan) {
  std::vector<T> kept, retired;
  for (std::size_t i = 0; i < holdings.size(); ++i) {
    (plan.keep[i] ? kept : retired).push_back(std::move(holdings[i]));
  }
  holdings = std::move(kept);
  return retired;
}

/// Closes `rec` over [start, start + length) for the holdings that served
/// it: counts their out-of-bid deaths inside the window and the seconds
/// fewer than a quorum of `rec.nodes` were up (the whole interval when the
/// deployment is empty).
template <class Range, class Proj = std::identity>
void close_interval(IntervalRecord& rec, const Range& members,
                    const ServiceSpec& spec, Proj proj = {}) {
  SimTime t0 = rec.start;
  SimTime t1 = rec.start + rec.length;
  std::vector<std::pair<SimTime, SimTime>> ups;
  rec.out_of_bid = 0;
  for (const auto& x : members) {
    const Holding& h = std::invoke(proj, x);
    if (h.never_ran) continue;
    SimTime to = t1;
    if (h.death && *h.death < t1) {
      to = *h.death;
      if (*h.death >= t0) ++rec.out_of_bid;
    }
    SimTime from = std::max(t0, h.ready);
    if (from < to) ups.emplace_back(from, to);
  }
  rec.downtime = rec.nodes > 0
                     ? quorum_downtime(ups, t0, t1, spec.quorum(rec.nodes))
                     : rec.length;
}

/// The headline totals a driver reports beside its interval timeline.
struct LedgerTotals {
  Money cost;
  TimeDelta downtime = 0;
  TimeDelta elapsed = 0;
  int decisions = 0;
  int out_of_bid = 0;
  int launches = 0;
};

/// Timeline conservation: one record per decision, every interval's
/// downtime inside [0, length], intervals tiling the window, and the
/// downtime, elapsed, out-of-bid and launch totals equal to the timeline's
/// sums, at a non-negative cost.  Returns false and explains in `why` (if
/// non-null) when the accounting leaks.
bool timeline_consistent(const std::vector<IntervalRecord>& timeline,
                         const LedgerTotals& totals, std::string* why);

}  // namespace jupiter
