#include "paxos/replica.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace jupiter::paxos {

namespace {
// FNV-1a fold of one 64-bit word into a running digest (batch boundaries).
std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

Replica::Replica(Simulator& sim, SimNetwork& net, NodeId id,
                 std::vector<NodeId> initial_config, StateMachine& sm,
                 Options opts, std::uint64_t seed)
    : sim_(sim),
      net_(net),
      id_(id),
      sm_(sm),
      opts_(opts),
      rng_(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(id + 1))),
      config_(std::move(initial_config)) {
  std::sort(config_.begin(), config_.end());
}

void Replica::start() {
  alive_ = true;
  last_heartbeat_ = sim_.now();
  net_.attach(id_, [this](Message&& m) { handle(std::move(m)); });
  net_.set_up(id_, true);
  arm_failure_detector();
  arm_retry();
}

void Replica::crash() {
  alive_ = false;
  net_.set_up(id_, false);
  // Volatile leader state dies with the process; the acceptor log
  // (promised_, log_ accepted values) persists as stable storage.  The
  // lease *grant* (lease_granted_to_/until_) persists with it: a restarted
  // node must keep fencing the leaseholder it granted to, or two leaders
  // could hold overlapping leases across a crash/restart.
  preparing_ = false;
  leader_ = -1;
  batch_queue_.clear();
  acks_.clear();
  if (lease_noted_held_) note_lease_state("lost-crash", id_, lease_valid_until_);
  lease_valid_until_ = SimTime{};
  lease_acks_from_.clear();
  lease_stamp_ = 0;
  lease_noted_held_ = false;
}

void Replica::restart() {
  if (alive_) return;
  alive_ = true;
  last_heartbeat_ = sim_.now();
  net_.set_up(id_, true);
  arm_failure_detector();
  arm_retry();
}

void Replica::arm_failure_detector() {
  TimeDelta delay = kElectionTimeout + (id_ % 4) +
                    static_cast<TimeDelta>(rng_.below(4));
  sim_.schedule_after(delay, [this] {
    if (!alive_) return;
    if (!is_leader() &&
        sim_.now() - last_heartbeat_ >= kElectionTimeout &&
        !lease_fenced_against(id_)) {
      // A node still fencing for another leaseholder defers its election
      // until that grant expires — the candidate-side half of lease safety.
      start_election();
    }
    arm_failure_detector();
  });
}

void Replica::arm_heartbeat() {
  sim_.schedule_after(kHeartbeatPeriod, [this] {
    if (!alive_ || !is_leader()) return;
    Message hb;
    hb.type = MsgType::kHeartbeat;
    hb.from = id_;
    hb.ballot = ballot_;
    hb.commit_index = commit_index_;
    if (opts_.plane.leases) {
      // The heartbeat doubles as a lease offer.  Dating validity from the
      // *send* stamp (echoed in kLeaseAck) keeps the leader's window a
      // strict lower bound of every follower's grant window.
      hb.stamp = sim_.now().seconds();
      lease_stamp_ = hb.stamp;
      lease_acks_from_.clear();
      if (lease_noted_held_ && sim_.now() >= lease_valid_until_) {
        note_lease_state("expired", id_, lease_valid_until_);
        lease_noted_held_ = false;
      }
    }
    broadcast(hb);
    arm_heartbeat();
  });
}

void Replica::arm_retry() {
  sim_.schedule_after(kRetryPeriod, [this] {
    if (!alive_) return;
    if (is_leader()) {
      for (Slot s = commit_index_; s < next_slot_; ++s) {
        auto it = log_.find(s);
        if (it != log_.end() && it->second.proposing && !it->second.chosen) {
          send_accepts(s);
        }
      }
    }
    arm_retry();
  });
}

void Replica::broadcast(Message m) {
  m.from = id_;
  for (NodeId n : config_) net_.send(n, m);
}

bool Replica::in_config(NodeId n) const {
  return std::find(config_.begin(), config_.end(), n) != config_.end();
}

Replica::SlotState& Replica::slot_state(Slot s) { return log_[s]; }

// The proposer's id above bit 40 and its own counter below: unique per
// proposer (the counter survives crash and restart) and increasing in
// proposal order.
std::uint64_t Replica::fresh_value_id() {
  return (static_cast<std::uint64_t>(id_ + 1) << 40) | ++value_counter_;
}

Value Replica::make_noop() {
  Value noop;
  noop.kind = ValueKind::kNoop;
  noop.value_id = fresh_value_id();
  return noop;
}

const SharedBytes* Replica::full_payload(const SlotState& st) const {
  const Value& v = st.chosen_val;
  if (!v.coded) return &v.payload;
  // proposal_full is only ever a full value; its value_id says whether it
  // is the one chosen here or a proposal that lost the slot.
  if (!st.proposal_full.coded && st.proposal_full.value_id == v.value_id) {
    return &st.proposal_full.payload;
  }
  return nullptr;
}

// ---------------------------------------------------------------- election

void Replica::start_election() {
  ++elections_;
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("paxos.elections", {{"node", std::to_string(id_)}}).inc();
  }
  preparing_ = true;
  std::int64_t round = std::max(promised_.round, ballot_.round) + 1;
  ballot_ = Ballot{round, id_};
  promises_from_.clear();
  promise_msgs_.clear();
  JLOG(kDebug) << "node " << id_ << " starts election with ballot "
               << ballot_.str();
  Message m;
  m.type = MsgType::kPrepare;
  m.ballot = ballot_;
  // Prepare the whole log rather than just the open tail: in RS-Paxos a
  // follower that becomes leader has only applied *chunks* of the committed
  // commands, and the promise payloads below commit_index_ are what it
  // reconstructs its materialized state machine from (state rebuild).
  m.first_open = opts_.policy.coded() ? 0 : commit_index_;
  broadcast(m);
}

void Replica::on_prepare(const Message& m) {
  if (lease_fenced_against(m.from)) {
    // Lease fencing: while another node holds our unexpired grant we
    // refuse every rival prepare, so no rival quorum can form before the
    // leaseholder's validity window has ended (docs/paxos.md).
    Message r;
    r.type = MsgType::kPrepareNack;
    r.from = id_;
    r.ballot = promised_ > m.ballot ? promised_ : m.ballot;
    net_.send(m.from, std::move(r));
    return;
  }
  if (m.ballot >= promised_) {
    promised_ = m.ballot;
    last_heartbeat_ = sim_.now();  // yield to the candidate
    Message r;
    r.type = MsgType::kPromise;
    r.from = id_;
    r.ballot = m.ballot;
    r.commit_index = commit_index_;
    for (auto& [slot, st] : log_) {
      if (slot < m.first_open) continue;
      if (!st.acc.has_value) continue;
      r.promises.push_back(PromiseInfo{slot, st.acc.accepted, st.acc.value});
    }
    net_.send(m.from, std::move(r));
  } else {
    Message r;
    r.type = MsgType::kPrepareNack;
    r.from = id_;
    r.ballot = promised_;
    net_.send(m.from, std::move(r));
  }
}

void Replica::on_promise(Message&& m) {
  if (!preparing_ || m.ballot != ballot_) return;
  if (!in_config(m.from)) return;
  if (std::find(promises_from_.begin(), promises_from_.end(), m.from) !=
      promises_from_.end()) {
    return;
  }
  promises_from_.push_back(m.from);
  promise_msgs_.push_back(std::move(m));
  if (static_cast<int>(promises_from_.size()) >= quorum()) become_leader();
}

void Replica::on_prepare_nack(const Message& m) {
  if (m.ballot > ballot_) {
    preparing_ = false;
    if (leader_ == id_) leader_ = -1;
  }
}

void Replica::become_leader() {
  preparing_ = false;
  leader_ = id_;
  JLOG(kDebug) << "node " << id_ << " becomes leader, ballot "
               << ballot_.str();
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("paxos.leader_changes").inc();
    reg->gauge("paxos.last_ballot_round")
        .set(static_cast<double>(ballot_.round));
  }
  if (obs::TraceSink* tr = obs::trace()) {
    tr->instant(sim_.now(), obs::TraceTrack::kPaxos, "leader_elected",
                "paxos",
                {{"node", std::to_string(id_)},
                 {"ballot", ballot_.str()}});
  }
  obs::note(sim_.now(), "paxos",
            "node " + std::to_string(id_) + " elected leader, ballot " +
                ballot_.str());

  // Gather accepted values per open slot from the promise quorum.  The
  // promises are spent once gathered: releasing them here keeps the buffers
  // they reference from being pinned for the whole term.
  std::map<Slot, Accepted> seen;
  Slot max_slot = commit_index_ - 1;
  for (auto& msg : promise_msgs_) {
    for (auto& p : msg.promises) {
      seen[p.slot].emplace_back(p.accepted, std::move(p.value));
      max_slot = std::max(max_slot, p.slot);
    }
  }
  promise_msgs_.clear();
  for (const auto& [slot, st] : log_) {
    if (slot >= commit_index_ && st.acc.has_value) {
      seen[slot].emplace_back(st.acc.accepted, st.acc.value);
      max_slot = std::max(max_slot, slot);
    }
  }
  next_slot_ = max_slot + 1;

  // RS-Paxos state rebuild: slots we applied as chunks are reconstructed
  // from the promise payloads and replayed into the state machine in slot
  // order, materializing the full store at the new leader.  A slot applied
  // as a chunk counted as one command; its replay counts each op instead.
  if (opts_.policy.coded()) {
    for (const auto& [slot, vs] : seen) {
      if (slot >= commit_index_) break;
      auto it = log_.find(slot);
      if (it == log_.end() || !it->second.applied_chunk_only) continue;
      SlotState& st = it->second;
      if (auto full = reconstruct(st.chosen_val.value_id, &st.chosen_val, vs)) {
        --applied_commands_;
        apply_full(full->kind, full->payload);
        st.proposal_full = std::move(*full);
        st.applied_chunk_only = false;
      }
    }
  }

  for (Slot s = commit_index_; s < next_slot_; ++s) {
    SlotState& st = slot_state(s);
    auto it = seen.find(s);
    std::optional<Value> v =
        recovered_value(st, it == seen.end() ? nullptr : &it->second);
    propose(s, v ? std::move(*v) : make_noop());
  }

  // Ops queued while electing follow the recovered slots.
  if (!batch_queue_.empty()) arm_flush();
  arm_heartbeat();
}

// ---------------------------------------------------------------- phase 2

bool Replica::codes(const Value& v) const {
  return opts_.policy.coded() &&
         (v.kind == ValueKind::kCommand || v.kind == ValueKind::kBatch);
}

std::vector<SharedBytes> Replica::encode_fanout(const Value& full) const {
  const int n = static_cast<int>(config_.size());
  return ReedSolomon::shared(opts_.policy.rs_m, n).encode_shared(full.payload);
}

Value Replica::make_chunk_value(const Value& full, SharedBytes chunk,
                                int chunk_index) const {
  Value v;
  v.kind = full.kind;
  v.value_id = full.value_id;
  v.coded = true;
  v.chunk_index = chunk_index;
  v.full_size = static_cast<std::uint32_t>(full.payload.size());
  v.rs_n = static_cast<int>(config_.size());
  v.payload = std::move(chunk);
  return v;
}

std::optional<Value> Replica::reconstruct(std::uint64_t value_id,
                                          const Value* own,
                                          const Accepted& vs) const {
  std::vector<const Value*> chunks;
  if (own != nullptr && own->coded) chunks.push_back(own);
  for (const auto& bv : vs) {
    if (bv.second.coded && bv.second.value_id == value_id) {
      chunks.push_back(&bv.second);
    }
  }
  if (chunks.empty()) return std::nullopt;
  const Value& first = *chunks.front();
  if (first.rs_n < opts_.policy.rs_m) return std::nullopt;
  const ReedSolomon& rs = ReedSolomon::shared(opts_.policy.rs_m, first.rs_n);
  std::vector<ChunkView> have;
  for (const Value* c : chunks) {
    // A re-encode for a config of another size shares the value_id.
    if (c->rs_n != first.rs_n) continue;
    have.emplace_back(c->chunk_index, c->payload.span());
  }
  auto data = rs.decode(have, first.full_size);
  if (!data) return std::nullopt;
  Value full;
  full.kind = first.kind;
  full.value_id = first.value_id;
  full.payload = std::move(*data);
  return full;
}

std::optional<Value> Replica::recovered_value(const SlotState& st,
                                              const Accepted* vs) const {
  // We know the decision and hold the full value: re-publish it.  (Must be
  // chosen_val, not proposal_full — on a slot this node lost to a competing
  // leader, proposal_full still holds the losing value and re-publishing it
  // would overwrite the real decision.)
  if (st.chosen && !st.chosen_val.coded) return st.chosen_val;
  // Coded slot where we also hold the matching full value.
  if (st.chosen && full_payload(st) != nullptr) return st.proposal_full;
  if (vs == nullptr || vs->empty()) return std::nullopt;
  // Highest accepted ballot wins.
  const std::pair<Ballot, Value>* best = &vs->front();
  for (const auto& bv : *vs) {
    if (bv.first > best->first) best = &bv;
  }
  if (!best->second.coded) return best->second;
  // RS-Paxos recovery: decode the highest-ballot proposal from its chunks.
  // Fewer than m chunks visible in a prepare quorum means the value cannot
  // have been chosen (quorum intersection >= m), so a noop is safe.
  return reconstruct(best->second.value_id, nullptr, *vs);
}

void Replica::propose(Slot slot, Value full_value,
                      std::vector<PendingAck> acks, std::uint64_t trace_id) {
  SlotState& st = slot_state(slot);
  st.proposing = true;
  st.proposal_full = std::move(full_value);
  st.chunks.clear();
  st.accepted_from.clear();
  if (trace_id != 0) st.trace_id = trace_id;
  if (!acks.empty()) {
    acks_[slot] = std::move(acks);
    st.proposed_id = st.proposal_full.value_id;
  }
  send_accepts(slot);
}

void Replica::send_accepts(Slot slot) {
  SlotState& st = slot_state(slot);
  const bool code_it = codes(st.proposal_full);
  // Retries resend the kept chunks; a config of another size re-encodes.
  if (code_it && st.chunks.size() != config_.size()) {
    st.chunks = encode_fanout(st.proposal_full);
  }
  for (std::size_t i = 0; i < config_.size(); ++i) {
    Message m;
    m.type = MsgType::kAccept;
    m.from = id_;
    m.ballot = ballot_;
    m.slot = slot;
    m.trace_id = st.trace_id;
    m.value = code_it ? make_chunk_value(st.proposal_full, st.chunks[i],
                                         static_cast<int>(i))
                      : st.proposal_full;
    net_.send(config_[i], std::move(m));
  }
}

void Replica::on_accept(Message&& m) {
  if (m.ballot >= promised_) {
    promised_ = m.ballot;
    leader_ = m.from;
    last_heartbeat_ = sim_.now();
    SlotState& st = slot_state(m.slot);
    st.acc.promised = m.ballot;
    st.acc.accepted = m.ballot;
    st.acc.value = std::move(m.value);
    st.acc.has_value = true;
    Message r;
    r.type = MsgType::kAccepted;
    r.from = id_;
    r.ballot = m.ballot;
    r.slot = m.slot;
    r.trace_id = m.trace_id;  // echo: the reply is part of the same op
    net_.send(m.from, std::move(r));
  } else {
    Message r;
    r.type = MsgType::kAcceptNack;
    r.from = id_;
    r.ballot = promised_;
    net_.send(m.from, std::move(r));
  }
}

void Replica::on_accepted(const Message& m) {
  if (!is_leader() || m.ballot != ballot_) return;
  if (!in_config(m.from)) return;
  SlotState& st = slot_state(m.slot);
  if (st.chosen || !st.proposing) return;
  if (std::find(st.accepted_from.begin(), st.accepted_from.end(), m.from) !=
      st.accepted_from.end()) {
    return;
  }
  st.accepted_from.push_back(m.from);
  if (static_cast<int>(st.accepted_from.size()) < quorum()) return;

  // Decided.  Tell everyone; RS-Paxos followers get their chunk again so a
  // node that missed the accept still ends up holding its share.  The
  // fan-out takes the accept round's chunks out of the slot, so each
  // replica learns the very buffer it accepted.
  const bool coded = codes(st.proposal_full);
  std::vector<SharedBytes> chunks = std::exchange(st.chunks, {});
  for (std::size_t i = 0; i < config_.size(); ++i) {
    // The chunks are re-encoded only for a config of another size: one
    // that changed since the accept round, or one the leader's own decide()
    // installs mid-loop by applying a later, already-chosen kConfig slot.
    if (coded && chunks.size() != config_.size()) {
      chunks = encode_fanout(st.proposal_full);
    }
    Message c;
    c.type = MsgType::kChosen;
    c.from = id_;
    c.ballot = ballot_;
    c.slot = m.slot;
    c.trace_id = st.trace_id;
    c.value = coded ? make_chunk_value(st.proposal_full, chunks[i],
                                       static_cast<int>(i))
                    : st.proposal_full;
    if (config_[i] == id_) {
      learn(m.slot, std::move(c.value));
      apply_ready();
    } else {
      net_.send(config_[i], std::move(c));
    }
  }
}

void Replica::on_accept_nack(const Message& m) {
  if (m.ballot > ballot_) {
    if (leader_ == id_) leader_ = -1;
    preparing_ = false;
  }
}

void Replica::on_chosen(Message&& m) {
  leader_ = m.from;
  last_heartbeat_ = sim_.now();
  learn(m.slot, std::move(m.value), m.trace_id);
  apply_ready();
}

Replica::SlotState* Replica::learn(Slot slot, Value value,
                                   std::uint64_t trace_id) {
  SlotState& st = slot_state(slot);
  if (st.chosen) return nullptr;
  st.chosen = true;
  st.chosen_val = std::move(value);
  if (trace_id != 0) st.trace_id = trace_id;
  note_commit_lag(slot);
  return &st;
}

/// Distance between a freshly chosen slot and this node's applied prefix —
/// the "how far behind is the pipeline" distribution (det histogram, so the
/// fleet's merged exports stay integer-exact).
void Replica::note_commit_lag(Slot slot) {
  if (obs::Registry* reg = obs::metrics()) {
    std::uint64_t lag =
        slot >= commit_index_
            ? static_cast<std::uint64_t>(slot - commit_index_)
            : 0;
    reg->det_histogram("paxos.commit_slot_lag").observe(lag);
  }
}

// ---------------------------------------------------------------- learning

void Replica::apply_ready() {
  while (true) {
    auto it = log_.find(commit_index_);
    if (it == log_.end() || !it->second.chosen) break;
    SlotState& st = it->second;
    if (!st.applied) {
      st.applied = true;
      // A proposal that lost the slot to another leader's value leaves its
      // chunks behind; nothing sends them any more.
      st.chunks.clear();
      const Value& v = st.chosen_val;
      // Per-op responses, index-aligned with the slot's ack list.
      std::vector<std::vector<std::uint8_t>> responses;
      switch (v.kind) {
        case ValueKind::kNoop:
          break;
        case ValueKind::kCommand:
        case ValueKind::kBatch: {
          const SharedBytes* bytes = full_payload(st);
          if (bytes == nullptr) {
            sm_.apply_chunk(v);
            st.applied_chunk_only = true;
            ++applied_commands_;  // per-slot; op count needs the full value
          } else {
            responses = apply_full(v.kind, *bytes);
          }
          break;
        }
        case ValueKind::kConfig: {
          // Never coded.
          auto members = decode_config(std::vector<std::uint8_t>(v.payload));
          std::sort(members.begin(), members.end());
          // A joiner catching up replays configs from before it joined;
          // only a config that drops a member removes it.
          const bool was_member = in_config(id_);
          config_ = members;
          if (was_member && !in_config(id_) && alive_) {
            // We were removed: leave the group quietly rather than keep
            // timing out and disrupting the survivors with elections.
            // Deferred so the current apply loop finishes cleanly.
            JLOG(kDebug) << "node " << id_ << " removed by config; leaving";
            sim_.schedule_after(0, [this] {
              if (alive_ && !in_config(id_)) crash();
            });
          }
          responses.emplace_back();
          break;
        }
      }
      // Mark each op's flow where it takes effect on this replica: the
      // replica holding the slot's acks (the proposing leader) ends the
      // ops' arrow chains, other replicas contribute a step.
      auto flow = [&](obs::TraceFlow phase, std::uint64_t trace_id) {
        obs::TraceSink* tr = obs::trace();
        if (tr == nullptr || trace_id == 0) return;
        int tid = obs::kReplicaTrackBase + id_;
        tr->name_track(tid, "paxos.replica-" + std::to_string(id_));
        tr->flow(sim_.now(), tid, "apply", phase, trace_id, "paxos");
      };
      auto acks = acks_.find(commit_index_);
      if (acks == acks_.end()) {
        flow(obs::TraceFlow::kStep, st.trace_id);
      } else {
        // Success needs the value chosen here to be the one proposed for
        // these ops.  When a competing leader's value won the slot, none of
        // them committed: each is failed exactly once and the submit layer
        // retries it (no op acked twice, no op lost, even across leader
        // failover).  value_id survives prepare-phase adoption, so "chosen
        // id == proposed id" is exact.
        const bool ours = st.proposed_id != 0 && st.proposed_id == v.value_id;
        for (std::size_t i = 0; i < acks->second.size(); ++i) {
          PendingAck& a = acks->second[i];
          flow(obs::TraceFlow::kEnd, a.trace_id);
          if (!a.cb) continue;
          const bool ok = ours && i < responses.size();
          a.cb(ok, ok ? responses[i] : std::vector<std::uint8_t>{});
        }
        acks_.erase(acks);
      }
    }
    ++commit_index_;
  }
  // Commits free pipeline slots: push queued ops into the window.
  if (leader_ == id_ && alive_ && !batch_queue_.empty()) arm_flush();
}

std::vector<std::vector<std::uint8_t>> Replica::apply_full(
    ValueKind kind, const SharedBytes& bytes) {
  std::vector<std::vector<std::uint8_t>> responses;
  if (kind == ValueKind::kCommand) {
    responses.push_back(sm_.apply(bytes));
    ++applied_commands_;
    return responses;
  }
  // Apply each sub-op in order, as a view of the batch: a batch replays
  // identically on every replica (one log entry, many commands).
  auto ops = batch_ops(bytes.span());
  responses.reserve(ops.size());
  for (auto op : ops) {
    responses.push_back(sm_.apply(bytes.view(op)));
    ++applied_commands_;
  }
  return responses;
}

// ---------------------------------------------------------------- liveness

void Replica::on_heartbeat(const Message& m) {
  if (m.ballot >= promised_) {
    promised_ = m.ballot;
    leader_ = m.from;
    last_heartbeat_ = sim_.now();
    if (opts_.plane.leases && m.stamp != 0) maybe_grant_lease(m);
    if (m.commit_index > commit_index_) {
      // We missed decisions (crash, late join): ask the leader to replay
      // its chosen log from our commit point.
      Message req;
      req.type = MsgType::kCatchup;
      req.from = id_;
      req.slot = commit_index_;
      net_.send(m.from, std::move(req));
    }
  }
}

void Replica::on_catchup(const Message& m) {
  if (!is_leader()) return;
  int chunk_index = -1;
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (config_[i] == m.from) chunk_index = static_cast<int>(i);
  }
  // What to serve the requester for a chosen slot.
  auto value_for = [&](const SlotState& st) -> Value {
    // An uncoded chosen value IS the full value.  Never serve
    // proposal_full for it — on slots this node merely learned it is a
    // default (noop), and on slots it lost it is the losing value.
    if (!st.chosen_val.coded) return st.chosen_val;
    // Coded: chosen_val is our own chunk; re-code the requester's chunk
    // when we hold the chosen full value.
    if (full_payload(st) != nullptr) {
      if (chunk_index < 0) return st.proposal_full;
      std::vector<SharedBytes> chunks = encode_fanout(st.proposal_full);
      return make_chunk_value(
          st.proposal_full,
          std::move(chunks[static_cast<std::size_t>(chunk_index)]),
          chunk_index);
    }
    // Only our own chunk survives here; better than nothing — the
    // follower can at least advance past the slot.
    return st.chosen_val;
  };

  // One walk over the chosen suffix.  Each entry goes out as its own
  // kChosen or, with fast_catchup, packed into kCatchupBatch messages of up
  // to catchup_chunk entries.
  const bool batched = opts_.plane.fast_catchup;
  std::int64_t served = 0;
  Message batch;
  batch.type = MsgType::kCatchupBatch;
  batch.from = id_;
  batch.ballot = ballot_;
  batch.commit_index = commit_index_;
  for (Slot s = m.slot; s < commit_index_; ++s) {
    auto it = log_.find(s);
    if (it == log_.end() || !it->second.chosen) continue;
    if (!batched) {
      Message c;
      c.type = MsgType::kChosen;
      c.from = id_;
      c.ballot = ballot_;
      c.slot = s;
      c.value = value_for(it->second);
      net_.send(m.from, std::move(c));
      continue;
    }
    batch.promises.push_back(
        PromiseInfo{s, it->second.acc.accepted, value_for(it->second)});
    ++served;
    if (static_cast<int>(batch.promises.size()) >= opts_.plane.catchup_chunk) {
      net_.send(m.from, std::move(batch));
      batch.promises.clear();
    }
  }
  if (!batched) return;
  if (!batch.promises.empty()) net_.send(m.from, std::move(batch));
  catchup_slots_served_ += served;
  if (obs::Registry* reg = obs::metrics()) {
    reg->det_histogram("paxos.catchup_slots")
        .observe(static_cast<std::uint64_t>(served));
  }
}

void Replica::on_catchup_batch(Message&& m) {
  leader_ = m.from;
  last_heartbeat_ = sim_.now();
  for (auto& p : m.promises) {
    // A catch-up entry is also this node's acceptor value for the slot.
    SlotState* st = learn(p.slot, p.value);
    if (st == nullptr) continue;
    st->acc.has_value = true;
    st->acc.value = std::move(p.value);
    if (p.accepted.valid()) st->acc.accepted = p.accepted;
  }
  apply_ready();
}

// ---------------------------------------------------------------- leases

bool Replica::lease_fenced_against(NodeId candidate) const {
  if (!opts_.plane.leases) return false;
  return lease_granted_to_ != -1 && lease_granted_to_ != candidate &&
         sim_.now() < lease_granted_until_;
}

void Replica::maybe_grant_lease(const Message& m) {
  SimTime now = sim_.now();
  if (lease_granted_to_ != -1 && lease_granted_to_ != m.from &&
      now < lease_granted_until_) {
    return;  // fenced: an unexpired grant to someone else
  }
  if (lease_granted_to_ != m.from) {
    note_lease_state("granted", m.from, now + opts_.plane.lease_duration);
  }
  lease_granted_to_ = m.from;
  lease_granted_until_ = now + opts_.plane.lease_duration;
  Message r;
  r.type = MsgType::kLeaseAck;
  r.from = id_;
  r.ballot = m.ballot;
  r.stamp = m.stamp;  // echo so the leader dates the lease from the send
  net_.send(m.from, std::move(r));
}

void Replica::on_lease_ack(const Message& m) {
  if (!opts_.plane.leases || !is_leader()) return;
  if (m.ballot != ballot_ || m.stamp != lease_stamp_) return;
  if (!in_config(m.from)) return;
  if (std::find(lease_acks_from_.begin(), lease_acks_from_.end(), m.from) !=
      lease_acks_from_.end()) {
    return;
  }
  lease_acks_from_.push_back(m.from);
  if (static_cast<int>(lease_acks_from_.size()) < quorum()) return;
  // A quorum granted the offer stamped lease_stamp_: validity runs from the
  // send instant, so it ends no later than any granting follower's fence.
  SimTime until = SimTime(lease_stamp_) + opts_.plane.lease_duration;
  if (until > lease_valid_until_) lease_valid_until_ = until;
  if (!lease_noted_held_) {
    note_lease_state("acquired", id_, lease_valid_until_);
    lease_noted_held_ = true;
  }
}

bool Replica::holds_lease() const {
  return opts_.plane.leases && is_leader() && sim_.now() < lease_valid_until_;
}

std::optional<std::vector<std::uint8_t>> Replica::local_read(
    const std::vector<std::uint8_t>& query) {
  if (!holds_lease()) return std::nullopt;
  auto r = sm_.read(query);
  if (r) ++lease_reads_served_;
  return r;
}

void Replica::note_lease_state(const char* what, NodeId who, SimTime until) {
  obs::note(sim_.now(), "lease",
            "node " + std::to_string(id_) + " " + what + " node=" +
                std::to_string(who) + " until=" +
                std::to_string(until.seconds()));
}

// ---------------------------------------------------------------- op path

int Replica::open_slots() const {
  int n = 0;
  for (Slot s = commit_index_; s < next_slot_; ++s) {
    auto it = log_.find(s);
    if (it != log_.end() && it->second.proposing && !it->second.chosen) ++n;
  }
  return n;
}

void Replica::enqueue(SharedBytes command, Callback cb) {
  if (batch_queue_.size() >= kMaxQueuedOps) {
    // Backpressure: the leader's queue is full — fail fast so the client
    // retries later instead of growing an unbounded backlog.
    if (cb) cb(false, {});
    return;
  }
  // Allocate the op's causal TraceId at the moment the leader takes it on;
  // every accept/accepted/chosen hop echoes it, so the Chrome export draws
  // one connected arrow chain from this point to apply_ready().
  std::uint64_t trace_id = 0;
  if (obs::TraceSink* tr = obs::trace()) {
    trace_id = tr->next_flow_id();
    int tid = obs::kReplicaTrackBase + id_;
    tr->name_track(tid, "paxos.replica-" + std::to_string(id_));
    tr->flow(sim_.now(), tid, "submit", obs::TraceFlow::kStart, trace_id,
             "paxos");
  }
  batch_queue_.push_back(QueuedOp{std::move(command), std::move(cb), trace_id});
  arm_flush();
}

void Replica::arm_flush() {
  if (!opts_.plane.batching) {
    flush_batches();
    return;
  }
  if (flush_armed_) return;
  flush_armed_ = true;
  // With kBatchDelay = 0 this still coalesces: the flush event lands after
  // every submission already enqueued at the same instant (FIFO ties), so
  // same-tick arrivals share a slot with zero added latency.
  sim_.schedule_after(kBatchDelay, [this] {
    flush_armed_ = false;
    flush_batches();
  });
}

void Replica::flush_batches() {
  if (!alive_ || !is_leader() || preparing_) return;
  obs::Registry* reg = obs::metrics();
  obs::TraceSink* tr = obs::trace();
  while (!batch_queue_.empty()) {
    if (opts_.plane.pipeline && open_slots() >= opts_.plane.window) {
      // Window full: leave the rest queued; apply_ready() re-arms the
      // flush as commits free slots.
      return;
    }
    std::vector<QueuedOp> taken;
    std::size_t bytes = 0;
    const int cap = opts_.plane.batching ? opts_.plane.max_batch_ops : 1;
    while (!batch_queue_.empty() && static_cast<int>(taken.size()) < cap) {
      QueuedOp& front = batch_queue_.front();
      if (!taken.empty() &&
          bytes + front.command.size() > kMaxBatchBytes) {
        break;
      }
      bytes += front.command.size();
      taken.push_back(std::move(front));
      batch_queue_.pop_front();
    }

    Value v;
    v.value_id = fresh_value_id();
    if (taken.size() == 1) {
      v.kind = ValueKind::kCommand;
      v.payload = std::move(taken.front().command);
    } else {
      v.kind = ValueKind::kBatch;
      std::vector<SharedBytes> ops;
      ops.reserve(taken.size());
      for (auto& q : taken) ops.push_back(std::move(q.command));
      v.payload = encode_batch(ops);
    }

    Slot slot = claim_slot();
    std::vector<PendingAck> acks;
    acks.reserve(taken.size());
    std::uint64_t slot_trace = 0;
    for (auto& q : taken) {
      if (slot_trace == 0 && q.trace_id != 0) slot_trace = q.trace_id;
      acks.push_back(PendingAck{std::move(q.cb), q.trace_id});
    }
    if (tr != nullptr && slot_trace != 0 && taken.size() > 1) {
      // Coalesced ops share the lead op's arrow chain through the slot's
      // accept/chosen hops; each joins with a step at the flush instant.
      int tid = obs::kReplicaTrackBase + id_;
      for (const auto& q : taken) {
        if (q.trace_id != 0 && q.trace_id != slot_trace) {
          tr->flow(sim_.now(), tid, "coalesce", obs::TraceFlow::kStep,
                   q.trace_id, "paxos");
        }
      }
    }

    ++batches_proposed_;
    batched_ops_ += static_cast<std::int64_t>(taken.size());
    batch_digest_ = fnv_fold(batch_digest_, static_cast<std::uint64_t>(slot));
    batch_digest_ = fnv_fold(batch_digest_, taken.size());
    if (reg != nullptr) {
      if (opts_.plane.batching) {
        reg->det_histogram("paxos.batch_ops").observe(taken.size());
      }
      if (opts_.plane.pipeline) {
        reg->det_histogram("paxos.inflight_window")
            .observe(static_cast<std::uint64_t>(open_slots()) + 1);
      }
    }

    propose(slot, std::move(v), std::move(acks), slot_trace);
    if (opts_.plane.pipeline) {
      int open = open_slots();
      if (open > max_inflight_observed_) max_inflight_observed_ = open;
    }
  }
}

Slot Replica::claim_slot() {
  if (next_slot_ < commit_index_) next_slot_ = commit_index_;
  return next_slot_++;
}

// ---------------------------------------------------------------- client

void Replica::submit(SharedBytes command, Callback cb) {
  // A candidate keeps the op queued: flush_batches() holds the queue until
  // become_leader() has re-proposed the recovered slots.
  if (!alive_ || !(preparing_ || is_leader())) {
    if (cb) cb(false, {});
    return;
  }
  enqueue(std::move(command), std::move(cb));
}

void Replica::propose_config(std::vector<NodeId> members, Callback cb) {
  if (!is_leader()) {
    if (cb) cb(false, {});
    return;
  }
  Value v;
  v.kind = ValueKind::kConfig;
  v.value_id = fresh_value_id();
  v.payload = encode_config(members);
  std::vector<PendingAck> acks;
  if (cb) acks.push_back(PendingAck{std::move(cb)});
  propose(claim_slot(), std::move(v), std::move(acks));
}

const Value* Replica::chosen_value(Slot s) const {
  auto it = log_.find(s);
  if (it == log_.end() || !it->second.chosen) return nullptr;
  return &it->second.chosen_val;
}

// ---------------------------------------------------------------- dispatch

void Replica::handle(Message&& m) {
  if (!alive_) return;
  switch (m.type) {
    case MsgType::kPrepare:
      on_prepare(m);
      break;
    case MsgType::kPromise:
      on_promise(std::move(m));
      break;
    case MsgType::kPrepareNack:
      on_prepare_nack(m);
      break;
    case MsgType::kAccept:
      on_accept(std::move(m));
      break;
    case MsgType::kAccepted:
      on_accepted(m);
      break;
    case MsgType::kAcceptNack:
      on_accept_nack(m);
      break;
    case MsgType::kChosen:
      on_chosen(std::move(m));
      break;
    case MsgType::kHeartbeat:
      on_heartbeat(m);
      break;
    case MsgType::kCatchup:
      on_catchup(m);
      break;
    case MsgType::kLeaseAck:
      on_lease_ack(m);
      break;
    case MsgType::kCatchupBatch:
      on_catchup_batch(std::move(m));
      break;
  }
}

}  // namespace jupiter::paxos
