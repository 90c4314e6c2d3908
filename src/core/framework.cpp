#include "core/framework.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace jupiter {

BiddingFramework::BiddingFramework(Simulator& sim, CloudProvider& provider,
                                   const TraceBook& book,
                                   BiddingStrategy& strategy, ServiceSpec spec,
                                   std::vector<int> zones, Options opts,
                                   ServiceAdapter* adapter)
    : sim_(sim),
      provider_(provider),
      book_(book),
      strategy_(strategy),
      spec_(std::move(spec)),
      zones_(std::move(zones)),
      opts_(opts),
      adapter_(adapter) {
  provider_.subscribe([this](CloudProvider::InstanceId id, InstanceState st) {
    on_instance_event(id, st);
  });
}

void BiddingFramework::start(SimTime at) {
  running_ = true;
  started_ = at;
  last_eval_ = at;
  was_up_ = false;
  // The very first interval cannot pre-launch in the past: decide and
  // launch right at `at`, then settle into the prelaunch/boundary cadence.
  sim_.schedule_at(at, [this, at] {
    if (!running_) return;
    decide_and_prelaunch();
    apply_boundary(at);  // also arms the next prelaunch/boundary pair
  });
}

void BiddingFramework::stop() {
  if (!running_) return;
  refresh_quorum_state();
  running_ = false;
  for (const auto& h : holdings_) {
    if (provider_.record(h.id).state != InstanceState::kTerminated) {
      provider_.terminate(h.id);
    }
  }
  holdings_.clear();
  notify_membership();
}

int BiddingFramework::quorum_needed() const {
  // Quorums are over the replication view: instances that have joined.
  // Pre-launched replacements only enter the view once they are up (a Paxos
  // node is added by view change after it has caught up).
  int n = 0;
  for (const auto& h : holdings_) {
    if (h.joined) ++n;
  }
  if (n == 0) return 1;
  return spec_.quorum(n);
}

void BiddingFramework::decide_and_prelaunch() {
  if (!running_) return;
  ++rebids_;
  SimTime now = sim_.now();
  MarketSnapshot snapshot = snapshot_at(book_, spec_.kind, zones_, now);
  StrategyDecision decision =
      strategy_.decide(snapshot, now, held_bids(holdings_, now));

  // Launch everything new now so it is (likely) ready by the boundary; the
  // holdings the decision does not keep retire at the boundary.
  Reconciliation plan = reconcile(holdings_, decision, now);
  for (std::size_t i = 0; i < holdings_.size(); ++i) {
    holdings_[i].retiring = !plan.keep[i];
  }
  for (const ZoneBid& b : plan.spot_launches) {
    auto id = provider_.request_spot(b.zone, spec_.kind, b.bid);
    if (id == 0) continue;  // price already above the bid
    holdings_.push_back(Instance{{b.zone, b.bid, true}, id, false,
                                 provider_.is_up(id)});
  }
  for (int zone : plan.on_demand_launches) {
    auto id = provider_.launch_on_demand(zone, spec_.kind);
    holdings_.push_back(Instance{{zone, PriceTick(), false}, id});
  }
  refresh_quorum_state();
  notify_membership();
}

void BiddingFramework::apply_boundary(SimTime boundary) {
  if (!running_) return;
  refresh_quorum_state();
  // Retire the instances that did not survive the reconciliation.
  for (auto& h : holdings_) {
    if (h.retiring &&
        provider_.record(h.id).state != InstanceState::kTerminated) {
      provider_.terminate(h.id);
    }
  }
  std::erase_if(holdings_, [&](const Instance& h) {
    return provider_.record(h.id).state == InstanceState::kTerminated;
  });
  notify_membership();
  refresh_quorum_state();

  SimTime next = boundary + opts_.interval;
  sim_.schedule_at(next - opts_.lead_time, [this] { decide_and_prelaunch(); });
  sim_.schedule_at(next, [this, next] { apply_boundary(next); });
}

void BiddingFramework::on_instance_event(CloudProvider::InstanceId id,
                                         InstanceState st) {
  if (!running_) return;
  bool ours = false;
  for (const auto& h : holdings_) {
    if (h.id == id) {
      ours = true;
      break;
    }
  }
  if (!ours) return;
  refresh_quorum_state();
  if (st == InstanceState::kRunning) {
    for (auto& h : holdings_) {
      if (h.id == id && !h.joined) {
        h.joined = true;  // view change: the caught-up node joins
        notify_membership();
      }
    }
    refresh_quorum_state();
  } else if (st == InstanceState::kTerminated) {
    // Out-of-bid kill (user terminations happen via apply_boundary/stop).
    std::erase_if(holdings_, [&](const Instance& h) { return h.id == id; });
    notify_membership();
    refresh_quorum_state();
  }
}

void BiddingFramework::refresh_quorum_state() {
  SimTime now = sim_.now();
  if (now > last_eval_) {
    if (!was_up_) downtime_ += now - last_eval_;
    last_eval_ = now;
  }
  int up = 0;
  bool any_joined = false;
  for (const auto& h : holdings_) {
    if (!h.joined) continue;
    any_joined = true;
    if (provider_.is_up(h.id)) ++up;
  }
  was_up_ = any_joined && up >= quorum_needed();
}

void BiddingFramework::notify_membership() {
  if (!adapter_) return;
  std::vector<CloudProvider::InstanceId> members;
  members.reserve(holdings_.size());
  for (const auto& h : holdings_) {
    if (h.joined) members.push_back(h.id);
  }
  adapter_->on_membership(members);
}

TimeDelta BiddingFramework::downtime_seconds() const {
  TimeDelta extra = 0;
  if (sim_.now() > last_eval_ && !was_up_) extra = sim_.now() - last_eval_;
  return downtime_ + extra;
}

TimeDelta BiddingFramework::elapsed_seconds() const {
  return std::max<TimeDelta>(0, sim_.now() - started_);
}

double BiddingFramework::availability() const {
  TimeDelta elapsed = elapsed_seconds();
  if (elapsed <= 0) return 1.0;
  return 1.0 - static_cast<double>(downtime_seconds()) /
                   static_cast<double>(elapsed);
}

std::vector<CloudProvider::InstanceId> BiddingFramework::members() const {
  std::vector<CloudProvider::InstanceId> m;
  for (const auto& h : holdings_) {
    if (h.joined) m.push_back(h.id);
  }
  return m;
}

}  // namespace jupiter
