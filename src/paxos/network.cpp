#include "paxos/network.hpp"

#include <algorithm>
#include <string>

#include "obs/obs.hpp"

namespace jupiter::paxos {

namespace {

const char* drop_reason_name(int reason) {
  switch (reason) {
    case 0: return "sender_down_or_cut";
    case 1: return "random";
    case 2: return "fault_hook";
    case 3: return "receiver_down_or_cut";
    case 4: return "no_handler";
  }
  return "?";
}

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kPrepare: return "prepare";
    case MsgType::kPromise: return "promise";
    case MsgType::kPrepareNack: return "prepare_nack";
    case MsgType::kAccept: return "accept";
    case MsgType::kAccepted: return "accepted";
    case MsgType::kAcceptNack: return "accept_nack";
    case MsgType::kChosen: return "chosen";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kCatchup: return "catchup";
    case MsgType::kLeaseAck: return "lease_ack";
    case MsgType::kCatchupBatch: return "catchup_batch";
  }
  return "?";
}

/// One hop of a traced message on a per-replica flow track.  No-op unless a
/// trace sink is installed *and* the message carries a TraceId; the flow
/// chain is: submit (kStart) -> each send/delivery hop (kStep) -> the
/// deciding replica's apply (kEnd).
void flow_hop(NodeId node, const Message& msg, const char* direction,
              SimTime now) {
  if (msg.trace_id == 0) return;
  obs::TraceSink* tr = obs::trace();
  if (tr == nullptr) return;
  int tid = obs::kReplicaTrackBase + node;
  tr->name_track(tid, "paxos.replica-" + std::to_string(node));
  tr->flow(now, tid, std::string(direction) + ":" + msg_type_name(msg.type),
           obs::TraceFlow::kStep, msg.trace_id, "paxos");
}

}  // namespace

SimNetwork::LinkStats& SimNetwork::link_stats(NodeId from, NodeId to,
                                              obs::Registry* reg) {
  if (reg != stats_reg_) {
    // A different registry was installed (new run); every cached pointer is
    // stale.
    link_stats_.clear();
    delivered_counter_ = nullptr;
    stats_reg_ = reg;
  }
  // Counters materialize lazily — a series must not exist in the registry
  // (and hence in snapshots) until the first event it would count, exactly
  // as when the labels were rebuilt per message.
  LinkStats& ls = link_stats_[{from, to}];
  if (ls.sent == nullptr) {
    ls.sent = &reg->counter("paxos.messages_sent", {{"from", std::to_string(from)},
                                                    {"to", std::to_string(to)}});
  }
  return ls;
}

/// Per-link drop accounting.  Cluster sizes are single-digit, so the label
/// cardinality (one series per ordered pair) stays tiny.
void SimNetwork::record_drop(NodeId from, NodeId to, DropReason reason) {
  if (obs::Registry* reg = obs::metrics()) {
    LinkStats& ls = link_stats(from, to, reg);
    if (ls.drops[reason] == nullptr) {
      ls.drops[reason] = &reg->counter(
          "paxos.messages_dropped",
          {{"from", std::to_string(from)},
           {"to", std::to_string(to)},
           {"reason", drop_reason_name(reason)}});
    }
    ls.drops[reason]->inc();
  }
}

void SimNetwork::send(NodeId to, Message msg) {
  ++sent_;
  if (obs::Registry* reg = obs::metrics()) {
    link_stats(msg.from, to, reg).sent->inc();
  }
  if (!is_up(msg.from) || link_cut(msg.from, to)) {
    ++dropped_;
    record_drop(msg.from, to, kDropSenderDownOrCut);
    return;
  }
  if (opts_.drop_rate > 0 && rng_.bernoulli(opts_.drop_rate)) {
    ++dropped_;
    record_drop(msg.from, to, kDropRandom);
    return;
  }
  FaultAction act;
  if (fault_hook_) act = fault_hook_(msg.from, to, msg);
  if (act.drop) {
    ++dropped_;
    record_drop(msg.from, to, kDropFaultHook);
    return;
  }

  flow_hop(msg.from, msg, "send", sim_.now());

  std::uint64_t payload_bytes = msg.value.payload.size();
  for (const auto& p : msg.promises) payload_bytes += p.value.payload.size();
  const NodeId from = msg.from;
  int copies = 1 + std::max(0, act.duplicates);
  for (int c = 0; c < copies; ++c) {
    value_bytes_ += payload_bytes;

    TimeDelta latency = opts_.min_latency;
    if (opts_.max_latency > opts_.min_latency) {
      latency += static_cast<TimeDelta>(
          rng_.below(static_cast<std::uint64_t>(opts_.max_latency -
                                                opts_.min_latency + 1)));
    }
    latency += std::max<TimeDelta>(0, act.extra_latency);
    // The last copy takes the message itself; earlier duplicates copy it.
    // Receiver liveness and link state are re-checked at delivery time
    // (either may have changed in flight).
    Message copy = c + 1 < copies ? msg : std::move(msg);
    // The in-flight Message exceeds the inline-callback capacity, so this
    // closure is boxed: one explicit allocation per send.  The payload
    // buffers move with the Message and on into the handler.
    sim_.schedule_after(latency, Simulator::Callback::boxed(
                                     [this, from, to,
                                      copy = std::move(copy)]() mutable {
      if (!is_up(to) || link_cut(from, to)) {
        ++dropped_;
        record_drop(from, to, kDropReceiverDownOrCut);
        return;
      }
      const Handler* handler =
          in_range(handlers_, to) ? &handlers_[static_cast<std::size_t>(to)]
                                  : nullptr;
      if (handler == nullptr || !*handler) {
        ++dropped_;
        record_drop(from, to, kDropNoHandler);
        return;
      }
      ++delivered_;
      if (obs::Registry* reg = obs::metrics()) {
        if (reg != stats_reg_ || delivered_counter_ == nullptr) {
          // Reuse the cache-invalidation path, then pin the unlabelled
          // delivery counter.
          link_stats(from, to, reg);
          delivered_counter_ = &reg->counter("paxos.messages_delivered");
        }
        delivered_counter_->inc();
      }
      flow_hop(to, copy, "recv", sim_.now());
      (*handler)(std::move(copy));
    }));
  }
}

}  // namespace jupiter::paxos
