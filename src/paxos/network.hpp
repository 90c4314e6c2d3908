// Simulated message-passing network for Paxos nodes.
//
// Delivery is asynchronous with configurable latency plus jitter; messages
// to or from a node that is marked down are dropped (crash-stop between
// repair).  Geographic placement matters in the paper (replicas sit in
// different availability zones), so the default latency models WAN RTTs.
//
// Fault surface (used by the chaos harness in src/chaos):
//   * per-link cuts — cut_link(a, b) blocks the a->b direction only
//     (asymmetric partition); cut_pair cuts both directions.  Cuts are
//     checked at send time *and* at delivery time, so a link severed while
//     a message is in flight loses that message, like a real partition.
//   * a fault hook — an optional callback consulted once per send that can
//     drop the message, duplicate it, or add extra latency (reordering).
//     The hook draws from its owner's RNG, never from the network's, so
//     installing one does not perturb the base latency/drop streams.
//
// Determinism contract: with no cuts and no hook installed, the RNG draw
// sequence is identical to the pre-chaos network — existing seeded tests
// and replays are unaffected.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "paxos/types.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace jupiter::paxos {

class SimNetwork {
 public:
  /// Receives a delivered message it owns outright: the handler may move
  /// the payload into its own state.  A `const Message&` callable binds too.
  using Handler = std::function<void(Message&&)>;

  struct Options {
    TimeDelta min_latency = 0;   // seconds; sub-second WANs round to 0-1 s
    TimeDelta max_latency = 1;
    double drop_rate = 0.0;      // message loss probability
  };

  /// What the fault hook may do to one message.
  struct FaultAction {
    bool drop = false;
    int duplicates = 0;          // extra copies, each with its own latency draw
    TimeDelta extra_latency = 0; // added to every copy's latency
  };
  using FaultHook =
      std::function<FaultAction(NodeId from, NodeId to, const Message&)>;

  SimNetwork(Simulator& sim, std::uint64_t seed, Options opts)
      : sim_(sim), rng_(seed), opts_(opts) {}
  SimNetwork(Simulator& sim, std::uint64_t seed)
      : SimNetwork(sim, seed, Options{}) {}

  /// Registers (or replaces) a node's delivery handler.
  void attach(NodeId id, Handler handler) {
    slot(handlers_, id) = std::move(handler);
  }
  void detach(NodeId id) {
    if (in_range(handlers_, id)) handlers_[static_cast<std::size_t>(id)] = nullptr;
  }

  /// Marks a node reachable/unreachable (down nodes neither send nor
  /// receive).
  void set_up(NodeId id, bool up) { slot(down_, id) = !up; }
  bool is_up(NodeId id) const {
    return !in_range(down_, id) || !down_[static_cast<std::size_t>(id)];
  }

  // ---- per-link partitions ----
  /// Cuts the from->to direction only (asymmetric partition).
  void cut_link(NodeId from, NodeId to) { cut_links_.insert({from, to}); }
  void heal_link(NodeId from, NodeId to) { cut_links_.erase({from, to}); }
  /// Cuts both directions between a and b.
  void cut_pair(NodeId a, NodeId b) { cut_link(a, b); cut_link(b, a); }
  void heal_pair(NodeId a, NodeId b) { heal_link(a, b); heal_link(b, a); }
  bool link_cut(NodeId from, NodeId to) const {
    return cut_links_.contains({from, to});
  }
  std::size_t cut_link_count() const { return cut_links_.size(); }

  /// Installs (or clears, with nullptr) the per-send fault hook.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Sends msg to `to` (delivered via the simulator after a latency draw).
  /// The message moves into its delivery event; only fault-hook duplicates
  /// beyond the last copy are copied.  Pass an rvalue to skip the copy into
  /// the parameter.
  void send(NodeId to, Message msg);

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  /// Messages (or duplicated copies) lost to any cause: down sender, cut
  /// link, random drop, hook drop, or a receiver that was down/cut/detached
  /// at delivery time.  With no duplication, sent_ == delivered_ + dropped_
  /// once the simulator drains.
  std::uint64_t messages_dropped() const { return dropped_; }
  /// Payload bytes of value-carrying messages — RS-Paxos's saving shows up
  /// here.
  std::uint64_t value_bytes_sent() const { return value_bytes_; }

 private:
  enum DropReason {
    kDropSenderDownOrCut = 0,
    kDropRandom,
    kDropFaultHook,
    kDropReceiverDownOrCut,
    kDropNoHandler,
    kDropReasonCount,
  };

  /// Cached metric handles for one ordered link: the registry keeps metrics
  /// behind stable pointers, so the label strings ("from"/"to" rendered with
  /// std::to_string) are built once per link instead of once per message.
  struct LinkStats {
    obs::Counter* sent = nullptr;
    obs::Counter* drops[kDropReasonCount] = {};
  };

  template <class V>
  static bool in_range(const V& v, NodeId id) {
    return id >= 0 && static_cast<std::size_t>(id) < v.size();
  }
  template <class V>
  static typename V::reference slot(V& v, NodeId id) {
    if (!in_range(v, id)) v.resize(static_cast<std::size_t>(id) + 1);
    return v[static_cast<std::size_t>(id)];
  }

  LinkStats& link_stats(NodeId from, NodeId to, obs::Registry* reg);
  void record_drop(NodeId from, NodeId to, DropReason reason);

  Simulator& sim_;
  Rng rng_;
  Options opts_;
  // Node ids are dense (0..n-1 for single-digit n), so handler dispatch and
  // liveness are plain vector indexing — no hashing per message.
  std::vector<Handler> handlers_;
  std::vector<bool> down_;
  std::set<std::pair<NodeId, NodeId>> cut_links_;
  FaultHook fault_hook_;
  // Counter cache, invalidated when the installed registry changes (each
  // chaos run installs a fresh one).  std::map iteration order is
  // deterministic, though nothing iterates it today.
  std::map<std::pair<NodeId, NodeId>, LinkStats> link_stats_;
  obs::Registry* stats_reg_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t value_bytes_ = 0;
};

}  // namespace jupiter::paxos
