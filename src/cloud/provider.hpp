// CloudProvider: the EC2-shaped front door for live-run experiments.
//
// Backed by a TraceBook (prices are pre-generated and replayed, so runs are
// deterministic) and a Simulator, it implements the full spot-instance
// lifecycle of §2.1/§4:
//   * a spot request launches iff bid >= current spot price;
//   * the instance spends a region-dependent 200-700 s in kPending before it
//     is usable (startup time shortens the effective bidding interval);
//   * the provider terminates it the moment the price strictly exceeds the
//     bid (out-of-bid failure), charging nothing for the broken hour;
//   * independent of the market, instances suffer crash/repair cycles tuned
//     to the 99 % SLA (FP' = 0.01) when failure injection is enabled;
//   * on-demand instances have the same lifecycle minus the market.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/region.hpp"
#include "cloud/trace_book.hpp"
#include "market/billing.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace jupiter {

enum class InstanceState {
  kPending,     // launched, still booting
  kRunning,     // up and usable
  kDown,        // transient SLA outage (crash being repaired)
  kTerminated,  // gone: out-of-bid or user-terminated
};

enum class TerminationReason { kNone, kOutOfBid, kUser };

struct InstanceRecord {
  std::uint64_t id = 0;
  int zone = -1;
  InstanceKind kind = InstanceKind::kM1Small;
  bool spot = false;
  PriceTick bid;  // spot only
  SimTime launched;
  SimTime ready;                    // end of startup
  SimTime terminated;               // valid once state == kTerminated
  InstanceState state = InstanceState::kPending;
  TerminationReason reason = TerminationReason::kNone;
};

struct SlaFailureConfig {
  bool enabled = false;
  double mtbf_seconds = 89'100.0;  // mean time between crashes
  double mttr_seconds = 900.0;     // mean repair time
  // 89100 / (89100 + 900) = 0.99 — the SLA availability of §3.1.
};

class CloudProvider {
 public:
  using InstanceId = std::uint64_t;
  /// Listener fires on every state change (after the record is updated).
  using Listener = std::function<void(InstanceId, InstanceState)>;

  CloudProvider(Simulator& sim, const TraceBook& book, std::uint64_t seed,
                SlaFailureConfig sla = {});

  /// Places a spot request.  Returns 0 if the current price exceeds the bid
  /// (request unfulfilled); otherwise the new instance id.  The bid is
  /// rejected above EC2's 4x-on-demand cap.
  InstanceId request_spot(int zone, InstanceKind kind, PriceTick bid);

  InstanceId launch_on_demand(int zone, InstanceKind kind);

  /// User-initiated termination; charges the partial hour like on-demand.
  void terminate(InstanceId id);

  PriceTick spot_price(int zone, InstanceKind kind) const;
  Money on_demand_hourly(int zone, InstanceKind kind) const {
    return on_demand_price_zone(zone, kind);
  }

  const InstanceRecord& record(InstanceId id) const;
  /// Up == usable by the service: running and not in an SLA outage.
  bool is_up(InstanceId id) const;

  /// Total charges accrued so far.  Charges post when an instance
  /// terminates; running instances contribute their charges-to-date with
  /// the in-progress hour treated as if user-terminated now.
  Money total_charges() const;

  void subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

  std::size_t live_instance_count() const;

 private:
  void set_state(InstanceRecord& rec, InstanceState st);
  void finish_startup(InstanceId id);
  void out_of_bid(InstanceId id);
  void schedule_next_crash(InstanceId id);
  void record_launch(const InstanceRecord& rec);
  Money charges_for(const InstanceRecord& rec, SimTime upto) const;

  Simulator& sim_;
  const TraceBook& book_;
  Rng rng_;
  SlaFailureConfig sla_;
  std::unordered_map<InstanceId, InstanceRecord> instances_;
  std::unordered_map<InstanceId, EventHandle> oob_events_;
  std::unordered_map<InstanceId, EventHandle> sla_events_;
  std::vector<Listener> listeners_;
  Money posted_charges_;  // terminated instances only
  InstanceId next_id_ = 1;
};

}  // namespace jupiter
