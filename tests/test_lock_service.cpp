#include "lock/lock_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>

#include "util/rng.hpp"

namespace jupiter::lock {
namespace {

LockCommand open_session(const std::string& s, std::int64_t now,
                         std::int64_t lease = 60) {
  LockCommand c;
  c.op = LockOp::kOpenSession;
  c.session = s;
  c.now = now;
  c.lease = lease;
  return c;
}

LockCommand acquire(const std::string& s, const std::string& path,
                    std::int64_t now) {
  LockCommand c;
  c.op = LockOp::kAcquire;
  c.session = s;
  c.path = path;
  c.now = now;
  return c;
}

LockResponse run(LockServiceState& sm, const LockCommand& c) {
  return LockResponse::decode(sm.apply(c.encode()));
}

TEST(LockCommand, EncodeDecodeRoundTrip) {
  LockCommand c;
  c.op = LockOp::kAcquire;
  c.session = "client-7";
  c.path = "/ls/cell/leader";
  c.now = 12345;
  c.lease = 60;
  LockCommand d = LockCommand::decode(c.encode());
  EXPECT_EQ(d.op, c.op);
  EXPECT_EQ(d.session, c.session);
  EXPECT_EQ(d.path, c.path);
  EXPECT_EQ(d.now, c.now);
  EXPECT_EQ(d.lease, c.lease);
}

TEST(LockResponse, EncodeDecodeRoundTrip) {
  LockResponse r;
  r.status = LockStatus::kHeldByOther;
  r.owner = "bob";
  LockResponse d = LockResponse::decode(r.encode());
  EXPECT_EQ(d.status, r.status);
  EXPECT_EQ(d.owner, r.owner);
}

TEST(LockServiceState, AcquireReleaseCycle) {
  LockServiceState sm;
  EXPECT_EQ(run(sm, open_session("a", 0)).status, LockStatus::kOk);
  EXPECT_EQ(run(sm, acquire("a", "/l", 1)).status, LockStatus::kOk);
  EXPECT_EQ(sm.owner_of("/l"), "a");
  EXPECT_EQ(sm.held_locks(), 1u);

  LockCommand rel;
  rel.op = LockOp::kRelease;
  rel.session = "a";
  rel.path = "/l";
  rel.now = 2;
  EXPECT_EQ(run(sm, rel).status, LockStatus::kOk);
  EXPECT_EQ(sm.owner_of("/l"), std::nullopt);
}

TEST(LockServiceState, AcquireWithoutSessionFails) {
  LockServiceState sm;
  EXPECT_EQ(run(sm, acquire("ghost", "/l", 0)).status, LockStatus::kNoSession);
}

TEST(LockServiceState, ContendedAcquireReportsOwner) {
  LockServiceState sm;
  run(sm, open_session("a", 0));
  run(sm, open_session("b", 0));
  EXPECT_EQ(run(sm, acquire("a", "/l", 1)).status, LockStatus::kOk);
  LockResponse r = run(sm, acquire("b", "/l", 2));
  EXPECT_EQ(r.status, LockStatus::kHeldByOther);
  EXPECT_EQ(r.owner, "a");
  // Re-acquire by owner is idempotent success.
  EXPECT_EQ(run(sm, acquire("a", "/l", 3)).status, LockStatus::kOk);
}

TEST(LockServiceState, ReleaseByNonOwnerFails) {
  LockServiceState sm;
  run(sm, open_session("a", 0));
  run(sm, open_session("b", 0));
  run(sm, acquire("a", "/l", 1));
  LockCommand rel;
  rel.op = LockOp::kRelease;
  rel.session = "b";
  rel.path = "/l";
  rel.now = 2;
  EXPECT_EQ(run(sm, rel).status, LockStatus::kNotHeld);
  EXPECT_EQ(sm.owner_of("/l"), "a");
}

TEST(LockServiceState, SessionExpiryReleasesLocks) {
  LockServiceState sm;
  run(sm, open_session("a", 0, 60));
  run(sm, acquire("a", "/l", 1));
  // At now=61 the session (expires at 60) is gone and so is the lock.
  run(sm, open_session("b", 61));
  EXPECT_EQ(sm.open_sessions(), 1u);
  EXPECT_EQ(run(sm, acquire("b", "/l", 62)).status, LockStatus::kOk);
  EXPECT_EQ(sm.owner_of("/l"), "b");
}

TEST(LockServiceState, KeepAliveExtendsLease) {
  LockServiceState sm;
  run(sm, open_session("a", 0, 60));
  run(sm, acquire("a", "/l", 1));
  LockCommand ka;
  ka.op = LockOp::kKeepAlive;
  ka.session = "a";
  ka.now = 50;
  ka.lease = 60;
  EXPECT_EQ(run(sm, ka).status, LockStatus::kOk);
  // At 100 the session would have died without the keep-alive.
  EXPECT_EQ(run(sm, acquire("a", "/l", 100)).status, LockStatus::kOk);
  // Keep-alive for an unknown session reports it.
  ka.session = "ghost";
  EXPECT_EQ(run(sm, ka).status, LockStatus::kNoSession);
}

TEST(LockServiceState, CloseSessionReleasesEverything) {
  LockServiceState sm;
  run(sm, open_session("a", 0));
  run(sm, acquire("a", "/x", 1));
  run(sm, acquire("a", "/y", 1));
  LockCommand close;
  close.op = LockOp::kCloseSession;
  close.session = "a";
  close.now = 2;
  run(sm, close);
  EXPECT_EQ(sm.open_sessions(), 0u);
  EXPECT_EQ(sm.held_locks(), 0u);
}

TEST(LockServiceState, GetOwnerQueries) {
  LockServiceState sm;
  run(sm, open_session("a", 0));
  run(sm, acquire("a", "/l", 1));
  LockCommand get;
  get.op = LockOp::kGetOwner;
  get.path = "/l";
  get.now = 2;
  LockResponse r = run(sm, get);
  EXPECT_EQ(r.status, LockStatus::kOk);
  EXPECT_EQ(r.owner, "a");
  get.path = "/missing";
  EXPECT_EQ(run(sm, get).status, LockStatus::kNotHeld);
}

// Safety invariant sweep: under arbitrary interleavings, a lock never has
// two owners and owners always hold live sessions.
TEST(LockServiceState, MutualExclusionInvariant) {
  LockServiceState sm;
  std::vector<std::string> clients = {"a", "b", "c"};
  std::int64_t now = 0;
  Rng rng(5);
  for (const auto& c : clients) run(sm, open_session(c, now, 120));
  for (int step = 0; step < 2000; ++step) {
    now += static_cast<std::int64_t>(rng.below(30));
    const auto& who = clients[rng.below(3)];
    std::string path = "/lock" + std::to_string(rng.below(4));
    if (rng.bernoulli(0.4)) {
      run(sm, acquire(who, path, now));
    } else if (rng.bernoulli(0.5)) {
      LockCommand rel;
      rel.op = LockOp::kRelease;
      rel.session = who;
      rel.path = path;
      rel.now = now;
      run(sm, rel);
    } else {
      LockCommand ka;
      ka.op = LockOp::kKeepAlive;
      ka.session = who;
      ka.now = now;
      ka.lease = 120;
      run(sm, ka);
    }
    // Invariant: every held lock's owner session is open.
    for (const auto& path2 : {"/lock0", "/lock1", "/lock2", "/lock3"}) {
      auto owner = sm.owner_of(path2);
      if (owner) {
        LockCommand get;
        get.op = LockOp::kGetOwner;
        get.path = path2;
        get.now = now;
        LockResponse r = run(sm, get);
        // GetOwner runs expiry first; an owner it reports must be live.
        if (r.status == LockStatus::kOk) {
          EXPECT_FALSE(r.owner.empty());
        }
      }
    }
  }
  EXPECT_LE(sm.held_locks(), 4u);
}

// Lease arithmetic on decoded commands saturates instead of overflowing
// (the UBSan gate would abort on the signed overflow).
TEST(LockServiceState, ExtremeLeasesSaturate) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  LockServiceState sm;
  EXPECT_EQ(run(sm, open_session("forever", 10, kMax)).status, LockStatus::kOk);
  LockCommand ka;
  ka.op = LockOp::kKeepAlive;
  ka.session = "forever";
  ka.now = kMax - 1;
  ka.lease = kMax;
  EXPECT_EQ(run(sm, ka).status, LockStatus::kOk);
  // A lease ending before INT64_MIN saturates there and lapses at once.
  run(sm, open_session("never", -10, kMin));
  EXPECT_EQ(sm.open_sessions(), 2u);
  run(sm, acquire("forever", "/l", kMin));
  EXPECT_EQ(sm.open_sessions(), 1u);
  EXPECT_EQ(sm.owner_of("/l"), "forever");
  // The saturated deadline is INT64_MAX, due only at the last instant.
  run(sm, acquire("forever", "/m", kMax - 1));
  EXPECT_EQ(sm.held_locks(), 2u);
  run(sm, open_session("late", kMax, 1));
  EXPECT_EQ(sm.open_sessions(), 1u);
  EXPECT_EQ(sm.held_locks(), 0u);
}

// ---- LockTableOracle: the id-indexed table against the original scan ----

// The lock table as it was before the expiry queue: string-keyed maps, and
// every command first walks all sessions for lapsed leases.  Kept here only
// as the reference the production table must match byte for byte.
class ScanLockTable {
 public:
  LockResponse apply(const LockCommand& cmd) {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.expires <= cmd.now) {
        drop_locks(it->first, it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    LockResponse resp;
    switch (cmd.op) {
      case LockOp::kOpenSession:
        sessions_[cmd.session].expires = end(cmd.now, cmd.lease);
        break;
      case LockOp::kKeepAlive: {
        auto it = sessions_.find(cmd.session);
        if (it == sessions_.end()) {
          resp.status = LockStatus::kNoSession;
        } else {
          it->second.expires =
              end(cmd.now, std::max<std::int64_t>(cmd.lease, 1));
        }
        break;
      }
      case LockOp::kCloseSession: {
        auto it = sessions_.find(cmd.session);
        if (it != sessions_.end()) {
          drop_locks(it->first, it->second);
          sessions_.erase(it);
        }
        break;
      }
      case LockOp::kAcquire:
      case LockOp::kTryAcquire: {
        auto sess = sessions_.find(cmd.session);
        if (sess == sessions_.end()) {
          resp.status = LockStatus::kNoSession;
          break;
        }
        auto lk = locks_.find(cmd.path);
        if (lk == locks_.end()) {
          locks_[cmd.path] = cmd.session;
          sess->second.held.push_back(cmd.path);
        } else if (lk->second != cmd.session) {
          resp.status = LockStatus::kHeldByOther;
          resp.owner = lk->second;
        }
        break;
      }
      case LockOp::kRelease: {
        auto lk = locks_.find(cmd.path);
        if (lk == locks_.end() || lk->second != cmd.session) {
          resp.status = LockStatus::kNotHeld;
          break;
        }
        locks_.erase(lk);
        auto& held = sessions_.at(cmd.session).held;
        held.erase(std::remove(held.begin(), held.end(), cmd.path),
                   held.end());
        break;
      }
      case LockOp::kGetOwner: {
        auto lk = locks_.find(cmd.path);
        if (lk == locks_.end()) {
          resp.status = LockStatus::kNotHeld;
        } else {
          resp.owner = lk->second;
        }
        break;
      }
    }
    return resp;
  }

  std::optional<LockResponse> read(const LockCommand& cmd) const {
    if (cmd.op != LockOp::kGetOwner) return std::nullopt;
    LockResponse resp;
    auto lk = locks_.find(cmd.path);
    if (lk == locks_.end() || sessions_.at(lk->second).expires <= cmd.now) {
      resp.status = LockStatus::kNotHeld;
    } else {
      resp.owner = lk->second;
    }
    return resp;
  }

  std::uint64_t state_digest() const {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix_byte = [&h](std::uint8_t b) {
      h ^= b;
      h *= 0x100000001B3ULL;
    };
    auto mix_str = [&](const std::string& s) {
      for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
      mix_byte(0);
    };
    for (const auto& [name, s] : sessions_) {
      mix_str(name);
      for (int i = 0; i < 8; ++i) {
        mix_byte(static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(s.expires) >> (8 * i)));
      }
      for (const auto& path : s.held) mix_str(path);
    }
    mix_byte(0xFF);
    for (const auto& [path, owner] : locks_) {
      mix_str(path);
      mix_str(owner);
    }
    return h;
  }

  std::size_t open_sessions() const { return sessions_.size(); }
  std::size_t held_locks() const { return locks_.size(); }

 private:
  struct Session {
    std::int64_t expires = 0;
    std::vector<std::string> held;
  };

  static std::int64_t end(std::int64_t now, std::int64_t lease) {
    return (SimTime(now) + lease).seconds();
  }

  void drop_locks(const std::string& name, const Session& s) {
    for (const auto& path : s.held) {
      auto lk = locks_.find(path);
      if (lk != locks_.end() && lk->second == name) locks_.erase(lk);
    }
  }

  std::map<std::string, Session> sessions_;
  std::map<std::string, std::string> locks_;
};

// A random command over a small name pool, so sessions collide, lapse and
// re-open often.  "x" and "y" are both session names and lock paths; "ghost"
// and "/never" are looked up but rarely created.  Stamps jitter backwards
// from a drifting clock, so `now` is not monotone in apply order.
LockCommand random_command(Rng& rng, std::int64_t clock) {
  static const std::vector<std::string> kSessions = {"a", "b", "c", "d",
                                                     "x", "y", "ghost"};
  static const std::vector<std::string> kPaths = {"/l0", "/l1", "/l2", "x",
                                                  "y", "/never"};
  constexpr std::array<double, 7> kOps = {0.15, 0.3, 0.05, 0.2,
                                          0.05, 0.15, 0.1};
  LockCommand c;
  c.op = static_cast<LockOp>(1 + rng.categorical(kOps));
  std::size_t who = rng.below(kSessions.size() - 1);
  if (c.op != LockOp::kOpenSession && rng.bernoulli(0.05)) {
    who = kSessions.size() - 1;
  }
  c.session = kSessions[who];
  c.path = kPaths[rng.below(kPaths.size() - (rng.bernoulli(0.9) ? 1 : 0))];
  c.now = clock - static_cast<std::int64_t>(rng.below(25));
  c.lease = static_cast<std::int64_t>(rng.below(40)) - 5;
  if (rng.bernoulli(0.01)) {
    c.lease = rng.bernoulli(0.5) ? std::numeric_limits<std::int64_t>::max()
                                 : std::numeric_limits<std::int64_t>::min();
  }
  return c;
}

void expect_same_table(const LockServiceState& sm, const ScanLockTable& ref) {
  EXPECT_EQ(sm.state_digest(), ref.state_digest());
  EXPECT_EQ(sm.open_sessions(), ref.open_sessions());
  EXPECT_EQ(sm.held_locks(), ref.held_locks());
}

TEST(LockTableOracle, RandomStreamsMatchScanTable) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    LockServiceState sm;
    ScanLockTable ref;
    std::int64_t clock = 0;
    for (int step = 0; step < 4000; ++step) {
      clock += static_cast<std::int64_t>(rng.below(4));
      LockCommand c = random_command(rng, clock);
      std::vector<std::uint8_t> bytes = c.encode();
      if (rng.bernoulli(0.15)) {
        // Lease read at an arbitrary stamp, often past the owner's lease:
        // same answer, no state change.  Other ops are not lease reads.
        if (rng.bernoulli(0.9)) c.op = LockOp::kGetOwner;
        c.now = clock + static_cast<std::int64_t>(rng.below(48)) - 8;
        bytes = c.encode();
        std::uint64_t before = sm.state_digest();
        auto got = sm.read(bytes);
        auto want = ref.read(c);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (want) {
          ASSERT_EQ(*got, want->encode()) << "step " << step;
        }
        ASSERT_EQ(sm.state_digest(), before);
      } else {
        ASSERT_EQ(sm.apply(bytes), ref.apply(c).encode()) << "step " << step;
      }
      expect_same_table(sm, ref);
      if (::testing::Test::HasFailure()) return;
      EXPECT_LE(sm.expiry_queue_size(),
                2 * sm.open_sessions() + LockServiceState::kQueueSlack);
    }
  }
}

// Many sessions with leases drawn so that large batches lapse together:
// exercises popping and compacting a big queue.
TEST(LockTableOracle, ManySessionsMassExpiry) {
  Rng rng(99);
  LockServiceState sm;
  ScanLockTable ref;
  std::int64_t clock = 0;
  auto step = [&](const LockCommand& c) {
    ASSERT_EQ(sm.apply(c.encode()), ref.apply(c).encode());
    expect_same_table(sm, ref);
  };
  for (int round = 0; round < 6; ++round) {
    for (int s = 0; s < 300; ++s) {
      LockCommand c = open_session("s" + std::to_string(s), clock,
                                   static_cast<std::int64_t>(rng.below(50)));
      step(c);
      if (s % 7 == 0) step(acquire(c.session, "/p" + std::to_string(s % 40),
                                   clock));
    }
    for (int k = 0; k < 900; ++k) {
      LockCommand c;
      c.op = rng.bernoulli(0.9) ? LockOp::kKeepAlive : LockOp::kCloseSession;
      c.session = "s" + std::to_string(rng.below(300));
      c.now = clock - static_cast<std::int64_t>(rng.below(10));
      c.lease = static_cast<std::int64_t>(rng.below(50));
      step(c);
      clock += static_cast<std::int64_t>(rng.below(2));
      if (::testing::Test::HasFailure()) return;
    }
    clock += 30;
  }
}

// The lazily deleted queue stays bounded however many keep-alives arrive.
TEST(LockTableOracle, KeepAlivesLeaveQueueBounded) {
  constexpr int kSessionCount = 100;
  LockServiceState sm;
  for (int s = 0; s < kSessionCount; ++s) {
    run(sm, open_session("s" + std::to_string(s), 0, 60));
  }
  LockCommand ka;
  ka.op = LockOp::kKeepAlive;
  ka.lease = 60;
  std::size_t peak = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    ka.session = "s" + std::to_string(i % kSessionCount);
    ka.now = i / kSessionCount;
    sm.apply(ka.encode());
    peak = std::max(peak, sm.expiry_queue_size());
  }
  EXPECT_EQ(sm.open_sessions(), static_cast<std::size_t>(kSessionCount));
  EXPECT_LE(peak, 2 * kSessionCount + LockServiceState::kQueueSlack);
}

struct LockClientFixture : ::testing::Test {
  LockClientFixture()
      : net(sim, 17),
        group(sim, net, paxos::Replica::Options{},
              [this](paxos::NodeId id) {
                auto sm = std::make_unique<LockServiceState>();
                sms[id] = sm.get();
                return sm;
              },
              888) {
    group.bootstrap(5);
    sim.run_until(sim.now() + 200);
  }

  Simulator sim;
  paxos::SimNetwork net;
  std::map<paxos::NodeId, LockServiceState*> sms;
  paxos::Group group;
};

TEST_F(LockClientFixture, EndToEndAcquireViaConsensus) {
  // Leases far beyond the test horizon; lease expiry has its own tests.
  LockClient alice(group, sim, "alice", 7200);
  LockClient bob(group, sim, "bob", 7200);
  alice.open_session();
  bob.open_session();
  sim.run_until(sim.now() + 120);

  LockStatus alice_status = LockStatus::kExpired;
  alice.acquire("/ls/leader", [&](LockResponse r) { alice_status = r.status; });
  sim.run_until(sim.now() + 120);
  EXPECT_EQ(alice_status, LockStatus::kOk);

  LockStatus bob_status = LockStatus::kOk;
  std::string owner;
  bob.acquire("/ls/leader", [&](LockResponse r) {
    bob_status = r.status;
    owner = r.owner;
  });
  sim.run_until(sim.now() + 120);
  EXPECT_EQ(bob_status, LockStatus::kHeldByOther);
  EXPECT_EQ(owner, "alice");

  // Every replica that applied the command agrees on the owner.
  paxos::NodeId lead = group.leader_id();
  ASSERT_GE(lead, 0);
  EXPECT_EQ(sms[lead]->owner_of("/ls/leader"), "alice");
}

TEST_F(LockClientFixture, AcquireBlockingRetriesUntilRelease) {
  LockClient alice(group, sim, "alice", 7200);
  LockClient bob(group, sim, "bob", 7200);
  alice.open_session();
  bob.open_session();
  sim.run_until(sim.now() + 120);
  alice.acquire("/l", nullptr);
  sim.run_until(sim.now() + 120);

  LockStatus bob_final = LockStatus::kExpired;
  bob.acquire_blocking("/l", [&](LockResponse r) { bob_final = r.status; },
                       1200);
  sim.run_until(sim.now() + 120);
  alice.release("/l", nullptr);
  sim.run_until(sim.now() + 600);
  EXPECT_EQ(bob_final, LockStatus::kOk);
}

}  // namespace
}  // namespace jupiter::lock
