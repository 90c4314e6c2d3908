#include "paxos/group.hpp"

#include <stdexcept>

namespace jupiter::paxos {

Group::Group(Simulator& sim, SimNetwork& net, Replica::Options opts,
             SmFactory factory, std::uint64_t seed)
    : sim_(sim),
      net_(net),
      opts_(opts),
      factory_(std::move(factory)),
      rng_(seed) {}

void Group::make_replica(NodeId id, const std::vector<NodeId>& config) {
  auto sm = factory_(id);
  auto rep = std::make_unique<Replica>(sim_, net_, id, config, *sm, opts_,
                                       rng_());
  sms_[id] = std::move(sm);
  replicas_[id] = std::move(rep);
}

void Group::bootstrap(int n) {
  std::vector<NodeId> config;
  for (int i = 0; i < n; ++i) config.push_back(i);
  for (int i = 0; i < n; ++i) make_replica(i, config);
  for (auto& [id, rep] : replicas_) rep->start();
}

Replica& Group::replica(NodeId id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) throw std::out_of_range("no such replica");
  return *it->second;
}

StateMachine& Group::state_machine(NodeId id) {
  auto it = sms_.find(id);
  if (it == sms_.end()) throw std::out_of_range("no such replica");
  return *it->second;
}

std::vector<NodeId> Group::node_ids() const {
  std::vector<NodeId> ids;
  for (const auto& [id, _] : replicas_) ids.push_back(id);
  return ids;
}

NodeId Group::leader_id() const {
  for (const auto& [id, rep] : replicas_) {
    if (rep->alive() && rep->is_leader()) return id;
  }
  return -1;
}

void Group::submit(SharedBytes command, Replica::Callback cb,
                   TimeDelta deadline) {
  auto sub = std::make_shared<Submission>();
  sub->command = std::move(command);
  sub->cb = std::move(cb);
  // The deadline resolves the op even when no replica ever calls back (a
  // leader crash drops its queued and in-flight acks).  The op may still
  // commit after that, so it is failed, not retried: a retry could apply
  // it twice.
  sub->deadline = sim_.schedule_after(
      deadline, [this, sub] { finish(*sub, false, {}); });
  attempt(sub);
}

// Every pending continuation (deadline, retry event, replica callback) holds
// a strong reference to the record; none is stored in it, so nothing cycles.
void Group::attempt(const std::shared_ptr<Submission>& sub) {
  if (sub->done) return;
  NodeId lead = leader_id();
  if (lead < 0) {
    sim_.schedule_after(2, [this, sub] { attempt(sub); });
    return;
  }
  replica(lead).submit(
      sub->command,
      [this, sub](bool ok, const std::vector<std::uint8_t>& r) {
        if (ok) {
          finish(*sub, true, r);
        } else if (!sub->done) {
          sim_.schedule_after(2, [this, sub] { attempt(sub); });
        }
      });
}

void Group::finish(Submission& sub, bool ok,
                   const std::vector<std::uint8_t>& response) {
  if (sub.done) return;
  sub.done = true;
  sim_.cancel(sub.deadline);
  if (sub.cb) sub.cb(ok, response);
}

std::optional<std::vector<std::uint8_t>> Group::local_read(
    const std::vector<std::uint8_t>& query) {
  NodeId lead = leader_id();
  if (lead < 0) return std::nullopt;
  return replica(lead).local_read(query);
}

void Group::add_node(NodeId id, Replica::Callback cb) {
  if (replicas_.contains(id)) throw std::invalid_argument("node exists");
  NodeId lead = leader_id();
  if (lead < 0) {
    if (cb) cb(false, {});
    return;
  }
  Replica& leader = replica(lead);
  std::vector<NodeId> new_config = leader.config();
  new_config.push_back(id);
  std::sort(new_config.begin(), new_config.end());

  make_replica(id, leader.config());
  replica(id).start();
  leader.propose_config(new_config, std::move(cb));
}

void Group::remove_node(NodeId id, Replica::Callback cb) {
  NodeId lead = leader_id();
  if (lead < 0) {
    if (cb) cb(false, {});
    return;
  }
  Replica& leader = replica(lead);
  std::vector<NodeId> new_config;
  for (NodeId n : leader.config()) {
    if (n != id) new_config.push_back(n);
  }
  leader.propose_config(new_config, std::move(cb));
}

void Group::crash(NodeId id) { replica(id).crash(); }
void Group::restart(NodeId id) { replica(id).restart(); }

}  // namespace jupiter::paxos
