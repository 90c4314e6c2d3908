// Multi-Paxos replica (proposer + acceptor + learner in one process), the
// SMR engine under both evaluated services (paper §2.2, §5.1).
//
// Design points:
//   * A single *global* promised ballot covers all open slots (standard
//     multi-Paxos phase-1 amortization): a leader runs one prepare for the
//     whole log tail, then streams phase-2 accepts.
//   * Leader election is failure-detector based: followers expect
//     heartbeats; on timeout each starts a prepare with a ballot higher
//     than anything seen, with per-node jitter to avoid duels.
//   * Crash-stop with stable storage: crash() silences the node but keeps
//     its acceptor state; restart() rejoins with the same promises, which
//     is what preserves safety across instance churn.
//   * Value replication is pluggable (QuorumPolicy): classic majority
//     replication sends full values; RS-Paxos sends each acceptor its
//     Reed-Solomon chunk and requires quorums of ceil((n+m)/2) so any two
//     quorums intersect in >= m nodes — enough to reconstruct during
//     recovery (Mu et al., HPDC'14).
//   * Reconfiguration: membership is itself a log entry (kConfig); once
//     chosen and applied, later slots use the new member set.  A new node
//     starts with an empty log (Group::add_node) and learns the chosen
//     prefix by catch-up, as a restarted node does: every chosen value a
//     node did not decide itself reaches it as a message.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ec/reed_solomon.hpp"
#include "paxos/network.hpp"
#include "paxos/types.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace jupiter::paxos {

/// Replicated state machine interface.  apply() must be deterministic.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  /// Full-value command (classic replication, and the leader side of
  /// RS-Paxos), as a view of the chosen log payload: the one entry the
  /// replica calls.  A state machine may keep the view (the KV store keeps
  /// a put's value that way) instead of copying the bytes out.  The default
  /// copies the view into apply(const std::vector&).  Returns the response
  /// bytes.
  virtual std::vector<std::uint8_t> apply(const SharedBytes& command) {
    return apply(std::vector<std::uint8_t>(command));
  }
  /// The same command as owned bytes.  Services implement the view entry
  /// and forward this one to it; state machines that only need the bytes
  /// (test recorders, timing decorators) may implement just this one.
  virtual std::vector<std::uint8_t> apply(
      const std::vector<std::uint8_t>& command) = 0;
  /// Coded command (RS-Paxos followers): the node stores its chunk.  The
  /// default ignores it, which suits state machines that are only read
  /// through the leader.
  virtual void apply_chunk(const Value& /*value*/) {}
  /// Read-only query against the materialized state — the lease fast path
  /// (Replica::local_read) serves these at the leader without a log entry.
  /// Must not mutate state.  Default: queries unsupported.
  virtual std::optional<std::vector<std::uint8_t>> read(
      const std::vector<std::uint8_t>& /*query*/) {
    return std::nullopt;
  }
};

struct QuorumPolicy {
  enum class Kind { kMajority, kRsPaxos };
  Kind kind = Kind::kMajority;
  int rs_m = 3;  // data chunks (RS-Paxos only)
  // Chaos-harness negative testing only: when > 0, overrides the computed
  // quorum size.  Anything below the majority breaks quorum intersection —
  // two proposers can both "win" disjoint quorums — which MUST surface as
  // an agreement violation; the chaos invariant checkers are validated by
  // demonstrating they catch exactly that.
  int quorum_override = 0;

  int quorum(int n) const {
    if (quorum_override > 0) return quorum_override < n ? quorum_override : n;
    return kind == Kind::kMajority ? n / 2 + 1 : (n + rs_m + 1) / 2;
  }
  bool coded() const { return kind == Kind::kRsPaxos; }
};

/// Fixed protocol timing, in sim-seconds.  The leader heartbeats every
/// kHeartbeatPeriod; a follower that has heard none for kElectionTimeout
/// (checked every kElectionTimeout plus per-node jitter) starts an election;
/// the leader resends the accepts of its undecided slots every kRetryPeriod.
inline constexpr TimeDelta kHeartbeatPeriod = 2;
inline constexpr TimeDelta kElectionTimeout = 8;
inline constexpr TimeDelta kRetryPeriod = 4;

/// Fixed data-plane bounds.  A kBatch value stops at kMaxBatchBytes of
/// commands (or DataPlaneOptions::max_batch_ops ops).  A batching flush
/// waits kBatchDelay after it is armed: none, yet it still coalesces, since
/// the flush event runs after every submission already enqueued at the same
/// instant (FIFO ties).  Submits beyond kMaxQueuedOps queued-but-unproposed
/// ops fail fast so clients retry later (leader backpressure).
inline constexpr std::size_t kMaxBatchBytes = 256 * 1024;
inline constexpr TimeDelta kBatchDelay = 0;
inline constexpr std::size_t kMaxQueuedOps = 1 << 16;

/// High-throughput data-plane features.  Every client op takes one path —
/// queue, flush, propose — and these flags only parameterise it.  All default
/// OFF: an unbounded window, one op per slot flushed at submit time, no
/// leases, per-slot catch-up.  Off is the per-op protocol the chaos goldens
/// pin.
///
/// All durations are integer sim-seconds (TimeDelta) — the detlint
/// float-duration rule bans float timing knobs tree-wide.
struct DataPlaneOptions {
  /// Bounded multi-slot pipelining: at most `window` concurrently-proposed
  /// undecided slots; further client ops queue at the leader (backpressure)
  /// until a slot commits.
  bool pipeline = false;
  int window = 64;
  /// Op batching: the leader coalesces ops arriving within one flush window
  /// into a single kBatch value per slot; per-op acks fan back out when the
  /// slot commits.
  bool batching = false;
  int max_batch_ops = 64;
  /// Leader leases: heartbeats double as lease offers; a quorum of acks
  /// gives the leader a lease dated from the heartbeat's send instant.
  /// Granting followers refuse prepares and rival lease offers until their
  /// grant expires — the fencing that keeps leaseholders mutually exclusive
  /// (safety argument in docs/paxos.md).
  bool leases = false;
  TimeDelta lease_duration = 12;
  /// Fast catch-up: the leader answers kCatchup with kCatchupBatch chunks
  /// (up to `catchup_chunk` chosen entries per message) instead of one
  /// kChosen per slot.
  bool fast_catchup = false;
  int catchup_chunk = 64;
};

class Replica {
 public:
  struct Options {
    QuorumPolicy policy;
    DataPlaneOptions plane;
  };

  using Callback =
      std::function<void(bool ok, const std::vector<std::uint8_t>& response)>;

  Replica(Simulator& sim, SimNetwork& net, NodeId id,
          std::vector<NodeId> initial_config, StateMachine& sm, Options opts,
          std::uint64_t seed);

  /// Begins participating (failure detector, elections).
  void start();
  /// Crash-stop: stops timers and detaches from the network; acceptor state
  /// persists (stable storage).
  void crash();
  /// Rejoins after a crash with persisted state.
  void restart();
  bool alive() const { return alive_; }

  // ---- client API ----
  /// Submits a command.  If this node is not the leader the submission
  /// fails immediately with ok=false (clients retry against the leader, as
  /// Chubby clients do); use believed_leader() to find it.  A node running
  /// an election queues the op and proposes it, after the slots it
  /// recovers, once it wins; a lost election leaves the op queued until
  /// this node next wins or crashes (Group::submit's deadline covers it).
  void submit(SharedBytes command, Callback cb);
  /// Proposes a membership change (leader only).
  void propose_config(std::vector<NodeId> members, Callback cb);

  bool is_leader() const { return leader_ == id_ && alive_; }
  NodeId believed_leader() const { return leader_; }
  NodeId id() const { return id_; }
  const std::vector<NodeId>& config() const { return config_; }
  Slot commit_index() const { return commit_index_; }  // first unchosen slot

  /// Lease-guarded local read (leases on): serves the query from this
  /// node's state machine without a log entry, but only while this node
  /// both leads and holds a quorum lease — otherwise nullopt and the
  /// caller must go through the log.  Linearizable because a rival leader
  /// cannot commit before every lease grant it needs has expired.
  std::optional<std::vector<std::uint8_t>> local_read(
      const std::vector<std::uint8_t>& query);
  /// True while this node leads and its quorum lease is still valid.
  bool holds_lease() const;

  /// Chosen value at a slot, if known (tests, offline recovery checks).
  const Value* chosen_value(Slot s) const;

  // ---- stats ----
  int elections_started() const { return elections_; }
  /// Promise messages this node keeps from its current election; a node
  /// that has won releases them once it has gathered the accepted values.
  std::size_t promises_held() const { return promise_msgs_.size(); }
  std::int64_t commands_applied() const { return applied_commands_; }
  std::int64_t batches_proposed() const { return batches_proposed_; }
  std::int64_t batched_ops() const { return batched_ops_; }
  /// FNV-1a fold of every (slot, ops-in-batch) pair this leader flushed —
  /// equal digests mean identical batch boundaries (determinism test).
  std::uint64_t batch_digest() const { return batch_digest_; }
  int max_inflight_observed() const { return max_inflight_observed_; }
  std::int64_t catchup_slots_served() const { return catchup_slots_served_; }
  std::int64_t lease_reads_served() const { return lease_reads_served_; }
  /// Follower-side grant (lease fencing audit): who holds this node's
  /// grant and until when; granted_to = -1 when none was ever given.
  NodeId lease_granted_to() const { return lease_granted_to_; }
  SimTime lease_granted_until() const { return lease_granted_until_; }
  SimTime lease_valid_until() const { return lease_valid_until_; }

 private:
  struct SlotState {
    AcceptorSlot acc;             // durable acceptor state
    bool chosen = false;
    Value chosen_val;             // full value (classic) / own chunk (coded)
    bool applied = false;
    bool applied_chunk_only = false;  // SM saw the chunk, not the command
    // proposer bookkeeping (leader only)
    std::vector<NodeId> accepted_from;
    bool proposing = false;
    Value proposal_full;          // full value being proposed (leader)
    // RS chunks of proposal_full from the accept round, chunk i for
    // config_[i].  Retries and the kChosen fan-out send these same buffers;
    // propose() drops them and the kChosen fan-out takes them.
    std::vector<SharedBytes> chunks;
    // value_id of the client value whose acks wait on this slot (0: none).
    // The acks report success only if this exact value is chosen here — a
    // competing leader's value winning the slot means the client's ops did
    // NOT commit, and must be reported as failures so the submit layer
    // retries them.
    std::uint64_t proposed_id = 0;
    // Causal TraceId of the client op driving this slot (0: untraced).
    // Stamped into every accept/chosen message so SimNetwork renders the
    // op as one connected Perfetto flow across replica tracks.
    std::uint64_t trace_id = 0;
  };

  // message handlers
  // A delivered message is owned by its handler: the rvalue handlers move
  // values into acceptor/learner state instead of copying them.
  void handle(Message&& m);
  void on_prepare(const Message& m);
  void on_promise(Message&& m);
  void on_prepare_nack(const Message& m);
  void on_accept(Message&& m);
  void on_accepted(const Message& m);
  void on_accept_nack(const Message& m);
  void on_chosen(Message&& m);
  void on_heartbeat(const Message& m);
  void on_catchup(const Message& m);
  void on_lease_ack(const Message& m);
  void on_catchup_batch(Message&& m);

  /// One client op waiting on a slot: its callback and causal TraceId.
  struct PendingAck {
    Callback cb;
    std::uint64_t trace_id = 0;
  };
  struct QueuedOp {
    SharedBytes command;
    Callback cb;
    std::uint64_t trace_id = 0;
  };

  // roles
  void start_election();
  void become_leader();
  /// Starts phase 2 for `slot`.  Non-empty `acks` make it a client slot:
  /// they replace the slot's ack list and fire, in order, when it applies.
  void propose(Slot slot, Value full_value, std::vector<PendingAck> acks = {},
               std::uint64_t trace_id = 0);
  void send_accepts(Slot slot);
  /// The one way a chosen value enters this node's log: its own decision
  /// as leader, a kChosen, or an entry of a kCatchupBatch.  Returns the
  /// slot's state when `value` is news here, nullptr when the slot was
  /// already chosen.  Applying is left to apply_ready().
  SlotState* learn(Slot slot, Value value, std::uint64_t trace_id = 0);
  void note_commit_lag(Slot slot);
  void apply_ready();
  /// Applies the full bytes of a kCommand or kBatch value to the state
  /// machine, op by op, each op a view of `bytes`, and returns one
  /// response per op.
  std::vector<std::vector<std::uint8_t>> apply_full(ValueKind kind,
                                                    const SharedBytes& bytes);
  void broadcast(Message m);
  void arm_failure_detector();
  void arm_heartbeat();
  void arm_retry();
  SlotState& slot_state(Slot s);
  int quorum() const {
    return opts_.policy.quorum(static_cast<int>(config_.size()));
  }
  bool in_config(NodeId n) const;
  /// True when `v` is replicated as RS chunks (client values under
  /// RS-Paxos; noops and configs always travel whole).
  bool codes(const Value& v) const;
  /// All n Reed-Solomon chunks of `full` for the current config: one encode
  /// per fan-out, chunk i destined for config_[i].  The unpadded systematic
  /// chunks are views of `full`'s payload.
  std::vector<SharedBytes> encode_fanout(const Value& full) const;
  /// Wraps chunk `chunk_index` of `full`, already encoded, in a coded Value.
  Value make_chunk_value(const Value& full, SharedBytes chunk,
                         int chunk_index) const;
  /// The (ballot, value) pairs accepted at one slot by the promise quorum
  /// and by this node, as become_leader gathers them.
  using Accepted = std::vector<std::pair<Ballot, Value>>;
  /// The full value `value_id`, decoded from `own` (when coded) followed by
  /// the coded values of that id in `vs`; nullopt when they are too few.
  std::optional<Value> reconstruct(std::uint64_t value_id, const Value* own,
                                   const Accepted& vs) const;
  /// What a new leader re-proposes at the open slot `st`, given what the
  /// promise quorum accepted there (`vs`, null when nothing); nullopt means
  /// nothing can have been chosen there and a noop fills the slot.
  std::optional<Value> recovered_value(const SlotState& st,
                                       const Accepted* vs) const;
  Value make_noop();
  std::uint64_t fresh_value_id();
  /// The full bytes of the value chosen at `st`, or nullptr when this node
  /// holds only its RS chunk (a full proposal that lost the slot does not
  /// count).
  const SharedBytes* full_payload(const SlotState& st) const;

  // ---- client op path: enqueue -> flush_batches -> propose ----
  /// Queues an op and arms a flush.
  void enqueue(SharedBytes command, Callback cb);
  /// Coalesces queued ops into kBatch/kCommand values, one slot each,
  /// respecting the pipeline window.  Holds the queue while this node is
  /// not an elected leader; re-run after every commit.
  void flush_batches();
  /// Flushes now with batching off (one op per slot, nothing to wait for),
  /// else after kBatchDelay.
  void arm_flush();
  /// Next free slot for a new proposal.
  Slot claim_slot();
  /// Currently proposed-but-undecided slots (pipeline occupancy).
  int open_slots() const;
  /// Follower side of a lease offer carried on a heartbeat.
  void maybe_grant_lease(const Message& m);
  /// True while some *other* node holds this node's unexpired grant —
  /// the fencing predicate: refuse prepares, defer elections.
  bool lease_fenced_against(NodeId candidate) const;
  void note_lease_state(const char* what, NodeId who, SimTime until);

  Simulator& sim_;
  SimNetwork& net_;
  NodeId id_;
  StateMachine& sm_;
  Options opts_;
  Rng rng_;

  std::vector<NodeId> config_;
  std::map<Slot, SlotState> log_;
  Slot commit_index_ = 0;   // first slot not yet chosen-and-applied
  Slot next_slot_ = 0;      // leader: next free slot

  // acceptor: global promise
  Ballot promised_;
  // proposer/leader
  Ballot ballot_;             // my current ballot (valid while leading)
  NodeId leader_ = -1;        // who I believe leads
  bool preparing_ = false;
  std::vector<NodeId> promises_from_;
  std::vector<Message> promise_msgs_;

  SimTime last_heartbeat_;
  bool alive_ = false;
  int elections_ = 0;
  std::int64_t applied_commands_ = 0;
  std::uint64_t value_counter_ = 0;

  // ---- client op path state ----
  // Ops waiting for a flush (including those submitted during an election),
  // and per-slot ack lists — index-aligned with the decoded batch for a
  // kBatch slot, one entry for a kCommand or kConfig slot.
  std::deque<QueuedOp> batch_queue_;
  std::map<Slot, std::vector<PendingAck>> acks_;
  bool flush_armed_ = false;
  // Acceptor-side lease grant.  Survives crash() like promised_ does: a
  // restarting node must keep fencing the leaseholder it granted to, or
  // two leaders could hold overlapping leases across a crash/restart.
  NodeId lease_granted_to_ = -1;
  SimTime lease_granted_until_{};
  // Leader-side lease validity (volatile: a restarted leader re-earns it).
  SimTime lease_valid_until_{};
  std::int64_t lease_stamp_ = 0;         // stamp of the in-flight offer
  std::vector<NodeId> lease_acks_from_;  // acks for lease_stamp_
  bool lease_noted_held_ = false;        // flight-recorder edge detector

  std::int64_t batches_proposed_ = 0;
  std::int64_t batched_ops_ = 0;
  std::uint64_t batch_digest_ = 1469598103934665603ULL;  // FNV offset basis
  int max_inflight_observed_ = 0;
  std::int64_t catchup_slots_served_ = 0;
  std::int64_t lease_reads_served_ = 0;
};

}  // namespace jupiter::paxos
