// The bidding framework (paper Fig. 2) in live-run mode.
//
// At the start of every bidding interval the strategy produces a desired
// deployment; the framework reconciles the currently held instances against
// it with the deployment ledger's keep rule (core/deployment.hpp), the one
// the replay and the fleet use.  Replacements are overlapped for safety
// (§4): instances for the next interval are requested a lead time before
// the boundary (covering the 200-700 s startup), joined to the service as
// they become ready, and the instances being retired are terminated only at
// the boundary — the Paxos view change that adds/removes them is driven
// through the ServiceAdapter.
//
// Billing is the provider's (it is the bill in a live run).  Availability is
// counted event by event: the service is up whenever at least a quorum of
// current members is up, and every second below quorum is downtime.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cloud/provider.hpp"
#include "core/deployment.hpp"
#include "core/service_spec.hpp"
#include "core/strategies.hpp"
#include "sim/simulator.hpp"

namespace jupiter {

/// Hook for the replicated service runtime (Paxos group membership).
class ServiceAdapter {
 public:
  virtual ~ServiceAdapter() = default;
  /// Fired after every membership change with the full member list.
  virtual void on_membership(
      const std::vector<CloudProvider::InstanceId>& members) = 0;
};

class BiddingFramework {
 public:
  struct Options {
    TimeDelta interval = kHour;     ///< bidding interval (§5.5 sweeps this)
    TimeDelta lead_time = kMaxStartupLead;  ///< replacement lead before the boundary
  };

  BiddingFramework(Simulator& sim, CloudProvider& provider,
                   const TraceBook& book, BiddingStrategy& strategy,
                   ServiceSpec spec, std::vector<int> zones, Options opts,
                   ServiceAdapter* adapter = nullptr);

  /// Schedules the first decision at `at` and interval boundaries after it.
  void start(SimTime at);
  /// Terminates all held instances and stops rebidding.
  void stop();

  // ---- ledgers ----
  Money total_cost() const { return provider_.total_charges(); }
  TimeDelta downtime_seconds() const;
  TimeDelta elapsed_seconds() const;
  double availability() const;
  int rebids() const { return rebids_; }
  std::vector<CloudProvider::InstanceId> members() const;

 private:
  void decide_and_prelaunch();
  void apply_boundary(SimTime boundary);
  void on_instance_event(CloudProvider::InstanceId id, InstanceState st);
  void refresh_quorum_state();
  void notify_membership();
  int quorum_needed() const;

  /// A held instance: the ledger's holding (never dead here — a terminated
  /// instance leaves holdings_ as the provider reports it) plus its provider
  /// id and its place in the replication view.
  struct Instance : Holding {
    CloudProvider::InstanceId id = 0;
    bool retiring = false;  // leaves at the next boundary
    bool joined = false;    // part of the replication view (post-startup)
  };

  Simulator& sim_;
  CloudProvider& provider_;
  const TraceBook& book_;
  BiddingStrategy& strategy_;
  ServiceSpec spec_;
  std::vector<int> zones_;
  Options opts_;
  ServiceAdapter* adapter_;

  std::vector<Instance> holdings_;
  bool running_ = false;

  SimTime started_;
  SimTime last_eval_;
  bool was_up_ = false;
  TimeDelta downtime_ = 0;
  int rebids_ = 0;
};

}  // namespace jupiter
