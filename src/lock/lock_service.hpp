// Chubby-like distributed lock service (paper §5.1.1).
//
// The replicated state machine keeps a table of advisory locks with
// lease-bound sessions: clients open a session, keep it alive, and acquire
// or release named locks.  Lease expiry is deterministic because every
// command carries the leader's timestamp — replicas never read their own
// clocks during apply().
//
// Interface mirrors Chubby's shape at miniature scale: a file-system-ish
// lock namespace, advisory semantics (acquire fails instead of blocking;
// clients retry), and sessions whose expiry releases everything they held.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "paxos/group.hpp"
#include "paxos/replica.hpp"
#include "util/bytes.hpp"
#include "util/interner.hpp"

namespace jupiter::lock {

enum class LockOp : std::uint8_t {
  kOpenSession = 1,
  kKeepAlive = 2,
  kCloseSession = 3,
  kAcquire = 4,
  kTryAcquire = 5,  // same as acquire (advisory); kept for API parity
  kRelease = 6,
  kGetOwner = 7,
};

struct LockCommand {
  LockOp op = LockOp::kGetOwner;
  std::string session;    // client session name
  std::string path;       // lock path, e.g. "/ls/cell/leader"
  std::int64_t now = 0;   // leader-stamped seconds (drives lease expiry)
  std::int64_t lease = 0; // session lease length (kOpenSession)

  std::vector<std::uint8_t> encode() const;
  static LockCommand decode(std::span<const std::uint8_t> bytes);
};

enum class LockStatus : std::uint8_t {
  kOk = 0,
  kHeldByOther = 1,
  kNotHeld = 2,
  kNoSession = 3,
  kExpired = 4,
};

struct LockResponse {
  LockStatus status = LockStatus::kOk;
  std::string owner;  // kGetOwner / kHeldByOther

  std::vector<std::uint8_t> encode() const;
  static LockResponse decode(const std::vector<std::uint8_t>& bytes);
};

/// The replicated lock table.
class LockServiceState : public paxos::StateMachine {
 public:
  std::vector<std::uint8_t> apply(const SharedBytes& command) override;
  std::vector<std::uint8_t> apply(
      const std::vector<std::uint8_t>& command) override;
  /// Lease fast path: answers kGetOwner without a log entry.  Unlike
  /// apply() it must not mutate, so lapsed sessions are filtered by
  /// comparison instead of being expired in place.
  std::optional<std::vector<std::uint8_t>> read(
      const std::vector<std::uint8_t>& query) override;

  // Introspection (tests / monitoring; reads of the local replica state).
  std::optional<std::string> owner_of(const std::string& path) const;
  std::size_t held_locks() const;
  std::size_t open_sessions() const;

  /// FNV-1a digest of the full lock table (sessions, lease expiries, held
  /// locks, each table sorted by string so the byte stream is canonical).
  /// Two replicas that applied the same command sequence produce
  /// bit-identical digests; the chaos determinism test compares digests
  /// across whole runs.
  std::uint64_t state_digest() const;

  /// Entries in the lease-expiry queue, stale ones included.  Bounded by
  /// 2 * open_sessions() + kQueueSlack (tests check the bound).
  std::size_t expiry_queue_size() const { return expiry_.size(); }
  static constexpr std::size_t kQueueSlack = 64;

 private:
  struct Session {
    std::int64_t expires = 0;
    bool open = false;
    std::vector<Interner::Id> held;  // path ids, acquisition order
  };
  /// A lease deadline.  The entry is current while its session is open and
  /// still expires at `expires`; a keep-alive or close leaves it stale.
  struct Deadline {
    std::int64_t expires;
    Interner::Id session;
    auto operator<=>(const Deadline&) const = default;
  };

  Interner::Id intern(const std::string& name);
  bool is_open(Interner::Id session) const;
  Interner::Id owner_id(Interner::Id path) const;  // kNone when free
  void set_expiry(Interner::Id id, std::int64_t expires);
  void end_session(Interner::Id id);
  void expire_sessions(std::int64_t now);
  void compact_expiry_queue();
  LockResponse handle(const LockCommand& cmd);

  // Session names and lock paths share one interner, and both tables are
  // vectors indexed by its dense ids (grown on intern), so a command costs
  // one array probe per name.  A name may be both a session and a path; the
  // two tables are independent.  Nothing iterates the tables on the command
  // path: open_ and held_ count them, and state_digest() sorts the live
  // entries by string to stay bit-identical with the historical
  // string-keyed digest.
  //
  // expiry_ is a min-heap on (expires, session) with lazy deletion: every
  // open session has a current entry, and handle() pops only entries that
  // are due, so a command pays O(log sessions) for expiry, however many
  // sessions are open.  Stale entries are dropped when popped, or all at
  // once when they come to outnumber the open sessions.
  Interner names_;
  std::vector<Session> sessions_;    // by session id
  std::vector<Interner::Id> owner_;  // by path id; kNone when free
  std::vector<Deadline> expiry_;     // heap ordered by std::greater
  std::size_t open_ = 0;
  std::size_t held_ = 0;
};

/// Client library: wraps a Paxos group with the Chubby-style RPC surface.
/// All calls are asynchronous; callbacks fire when the command commits.
class LockClient {
 public:
  using Callback = std::function<void(LockResponse)>;

  LockClient(paxos::Group& group, Simulator& sim, std::string session,
             std::int64_t lease_seconds = 60);

  void open_session(Callback cb = nullptr);
  void keep_alive(Callback cb = nullptr);
  void acquire(const std::string& path, Callback cb);
  void release(const std::string& path, Callback cb);
  void get_owner(const std::string& path, Callback cb);

  /// Acquire with retry until success or deadline.
  void acquire_blocking(const std::string& path, Callback cb,
                        TimeDelta deadline = 600);

  const std::string& session() const { return session_; }

 private:
  void send(LockCommand cmd, Callback cb);

  paxos::Group& group_;
  Simulator& sim_;
  std::string session_;
  std::int64_t lease_;
};

}  // namespace jupiter::lock
