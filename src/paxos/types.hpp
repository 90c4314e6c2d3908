// Core vocabulary of the Paxos implementation: ballots, values (full or
// erasure-coded), log entries and the wire message.
//
// One value representation serves both protocols: classic Paxos replicates
// the full command bytes to every acceptor; RS-Paxos (Mu et al., HPDC'14)
// sends each acceptor only its Reed-Solomon chunk, identified by a
// (proposal) value_id so chunks of the same proposal can be matched and
// reconstructed during recovery.
//
// Payloads are immutable SharedBytes: every holder of a value (messages,
// acceptor and learner state, a follower's chunk log) shares one buffer,
// and a systematic RS chunk is a view of the proposal's own payload.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace jupiter::paxos {

using NodeId = int;
using Slot = std::int64_t;

/// Ballot number: (round, proposer) with lexicographic order, so concurrent
/// proposers never collide.
struct Ballot {
  std::int64_t round = 0;
  NodeId node = -1;

  auto operator<=>(const Ballot&) const = default;
  bool valid() const { return round > 0; }
  std::string str() const {
    return std::to_string(round) + "." + std::to_string(node);
  }
};

enum class ValueKind : std::uint8_t {
  kNoop = 0,     // filler for holes during recovery
  kCommand = 1,  // state-machine command
  kConfig = 2,   // membership change (serialized member list)
  kBatch = 3,    // several client commands coalesced into one slot
                 // (payload framed by encode_batch/decode_batch)
};

/// A proposed/accepted value.  For RS-Paxos the payload each node stores is
/// its own chunk; `value_id` ties chunks of one proposal together and
/// `full_size` lets the decoder trim padding.
struct Value {
  ValueKind kind = ValueKind::kNoop;
  std::uint64_t value_id = 0;
  SharedBytes payload;                // full command bytes, or this node's chunk
  bool coded = false;
  int chunk_index = -1;               // which chunk `payload` is (coded only)
  std::uint32_t full_size = 0;        // original command size (coded only)
  int rs_n = 0;                       // total chunks at encode time (coded)

  friend bool operator==(const Value&, const Value&) = default;
};

/// Per-slot acceptor state.
struct AcceptorSlot {
  Ballot promised;   // highest prepare answered
  Ballot accepted;   // highest accept taken
  Value value;       // the accepted value (chunk for RS-Paxos)
  bool has_value = false;
};

enum class MsgType : std::uint8_t {
  kPrepare,
  kPromise,
  kPrepareNack,
  kAccept,
  kAccepted,
  kAcceptNack,
  kChosen,        // learner broadcast from the proposer
  kHeartbeat,     // leader liveness (+ lease offer when leases are on)
  kCatchup,       // follower asks the leader for chosen slots >= `slot`
  kLeaseAck,      // follower grants the heartbeat's lease offer (leases on);
                  // echoes the heartbeat's `stamp`
  kCatchupBatch,  // fast catch-up: a chunk of chosen entries, carried in
                  // `promises` as (slot, ballot, value)
};

/// Promise payload entry: what an acceptor already accepted for a slot.
struct PromiseInfo {
  Slot slot = 0;
  Ballot accepted;
  Value value;
};

struct Message {
  MsgType type = MsgType::kHeartbeat;
  NodeId from = -1;
  Ballot ballot;
  Slot slot = 0;          // accept/accepted/chosen
  Slot first_open = 0;    // prepare: lowest slot being prepared
  Value value;            // accept/chosen
  std::vector<PromiseInfo> promises;  // promise / catch-up batch entries
  Slot commit_index = 0;  // heartbeat: leader's chosen prefix
  /// Heartbeat send time in sim-seconds (integer by the detlint float-timeout
  /// rule).  A kLeaseAck echoes it so the leader can date its lease from the
  /// *send* instant — strictly earlier than any follower's grant, which is
  /// what makes the leader's validity window a conservative lower bound.
  std::int64_t stamp = 0;
  /// Causal TraceId of the client operation this message serves; 0 = none.
  /// Allocated by the submitter (TraceSink::next_flow_id), echoed through
  /// replies and broadcasts, and emitted by SimNetwork as Perfetto flow
  /// steps so one client op renders as a connected arrow chain.
  std::uint64_t trace_id = 0;
};

/// Serialized membership for kConfig values: little-endian int32 count then
/// int32 node ids.
std::vector<std::uint8_t> encode_config(const std::vector<NodeId>& members);
std::vector<NodeId> decode_config(const std::vector<std::uint8_t>& bytes);

/// Batch framing for kBatch values: little-endian u32 op count, then per op
/// a u32 length prefix and the command bytes.  Deterministic and
/// self-delimiting, so a batch replays identically on every replica.
std::vector<std::uint8_t> encode_batch(const std::vector<SharedBytes>& ops);
/// The one parser of the batch framing: each op's bytes, in order, as a view
/// into `bytes`.  Validates the whole batch before returning, so a malformed
/// one throws std::invalid_argument ("short batch", "short batch op" or
/// "trailing batch bytes") before any op is applied.
std::vector<std::span<const std::uint8_t>> batch_ops(
    std::span<const std::uint8_t> bytes);
/// batch_ops with each op copied out.
std::vector<std::vector<std::uint8_t>> decode_batch(
    const std::vector<std::uint8_t>& bytes);

}  // namespace jupiter::paxos
