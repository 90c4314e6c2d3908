// Paxos group harness: wires N replicas over one SimNetwork, provides
// leader discovery, a retrying client, and membership changes — the
// machinery the lock/storage services and the bidding framework's view
// changes build on.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "paxos/replica.hpp"

namespace jupiter::paxos {

class Group {
 public:
  using SmFactory = std::function<std::unique_ptr<StateMachine>(NodeId)>;

  Group(Simulator& sim, SimNetwork& net, Replica::Options opts,
        SmFactory factory, std::uint64_t seed);

  /// Creates and starts replicas 0..n-1 with a shared initial config.
  void bootstrap(int n);

  Replica& replica(NodeId id);
  StateMachine& state_machine(NodeId id);
  bool has(NodeId id) const { return replicas_.contains(id); }
  std::vector<NodeId> node_ids() const;

  /// The current leader if one is alive and believes it leads; -1 if none.
  NodeId leader_id() const;

  /// Submits through the leader, retrying refusals (with re-discovery)
  /// every 2 s.  `cb` fires exactly once: ok when the op commits, or
  /// not-ok once `deadline` passes — then the op's fate is unknown, since a
  /// leader that crashed with it in flight may have got it chosen.
  void submit(SharedBytes command, Replica::Callback cb,
              TimeDelta deadline = 600);

  /// Lease fast path: answers the query from the leader's materialized
  /// state without a log entry, iff leases are enabled and the leader
  /// currently holds a quorum lease.  nullopt means "go through the log".
  std::optional<std::vector<std::uint8_t>> local_read(
      const std::vector<std::uint8_t>& query);

  /// Adds a fresh node: builds its replica with an empty log under the
  /// current config, starts it, then proposes the new config.  The joiner
  /// learns the chosen prefix, the new config included, by catch-up once
  /// the leader's heartbeats reach it.
  void add_node(NodeId id, Replica::Callback cb = nullptr);
  /// Removes a node from the config (it keeps running until crashed).
  void remove_node(NodeId id, Replica::Callback cb = nullptr);

  void crash(NodeId id);
  void restart(NodeId id);

 private:
  /// One Group::submit call: the command, the caller's callback, and the
  /// deadline event that fails it if nothing else resolves it first.  Every
  /// attempt hands the replica the same command buffer.
  struct Submission {
    SharedBytes command;
    Replica::Callback cb;
    EventHandle deadline;
    bool done = false;
  };
  /// Sends the command to the current leader; a failure retries 2 s later.
  void attempt(const std::shared_ptr<Submission>& sub);
  /// Resolves the submission: runs its callback exactly once.
  void finish(Submission& sub, bool ok,
              const std::vector<std::uint8_t>& response);
  void make_replica(NodeId id, const std::vector<NodeId>& config);

  Simulator& sim_;
  SimNetwork& net_;
  Replica::Options opts_;
  SmFactory factory_;
  Rng rng_;
  std::map<NodeId, std::unique_ptr<StateMachine>> sms_;
  std::map<NodeId, std::unique_ptr<Replica>> replicas_;
};

}  // namespace jupiter::paxos
