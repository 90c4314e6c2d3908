#include "paxos/group.hpp"

#include <gtest/gtest.h>

#include <map>

#include "paxos/replica.hpp"

namespace jupiter::paxos {
namespace {

/// Appends every applied command to a log — enough to check SMR order and
/// agreement.
class RecordingSm : public StateMachine {
 public:
  std::vector<std::uint8_t> apply(
      const std::vector<std::uint8_t>& command) override {
    log_.push_back(command);
    return command;  // echo
  }
  const std::vector<std::vector<std::uint8_t>>& log() const { return log_; }

 private:
  std::vector<std::vector<std::uint8_t>> log_;
};

std::vector<std::uint8_t> cmd(const std::string& s) {
  return {s.begin(), s.end()};
}

struct PaxosFixture : ::testing::Test {
  PaxosFixture()
      : net(sim, 99),
        group(sim, net, Replica::Options{},
              [this](NodeId id) {
                auto sm = std::make_unique<RecordingSm>();
                sms[id] = sm.get();
                return sm;
              },
              1234) {}

  void bootstrap(int n) {
    group.bootstrap(n);
    // Let the cluster elect a leader.
    sim.run_until(sim.now() + 120);
  }

  NodeId wait_for_leader(TimeDelta budget = 600) {
    SimTime deadline = sim.now() + budget;
    while (sim.now() < deadline) {
      if (NodeId lead = group.leader_id(); lead >= 0) return lead;
      sim.run_until(sim.now() + 5);
    }
    return group.leader_id();
  }

  Simulator sim;
  SimNetwork net;
  std::map<NodeId, RecordingSm*> sms;
  Group group;
};

TEST_F(PaxosFixture, ElectsExactlyOneLeader) {
  bootstrap(5);
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  int leaders = 0;
  for (NodeId id : group.node_ids()) {
    if (group.replica(id).is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST_F(PaxosFixture, CommandCommitsAndEchoes) {
  bootstrap(3);
  ASSERT_GE(wait_for_leader(), 0);
  bool done = false;
  std::vector<std::uint8_t> response;
  group.submit(cmd("hello"), [&](bool ok, const std::vector<std::uint8_t>& r) {
    done = ok;
    response = r;
  });
  sim.run_until(sim.now() + 120);
  ASSERT_TRUE(done);
  EXPECT_EQ(response, cmd("hello"));
}

TEST_F(PaxosFixture, AllReplicasApplySameSequence) {
  bootstrap(5);
  ASSERT_GE(wait_for_leader(), 0);
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    group.submit(cmd("op" + std::to_string(i)),
                 [&](bool ok, const std::vector<std::uint8_t>&) {
                   if (ok) ++committed;
                 });
    sim.run_until(sim.now() + 30);
  }
  sim.run_until(sim.now() + 300);
  EXPECT_EQ(committed, 10);
  const auto& reference = sms[0]->log();
  EXPECT_EQ(reference.size(), 10u);
  for (NodeId id : group.node_ids()) {
    EXPECT_EQ(sms[id]->log(), reference) << "replica " << id;
  }
}

TEST_F(PaxosFixture, SurvivesMinorityCrash) {
  bootstrap(5);
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  // Crash two non-leader replicas.
  int crashed = 0;
  for (NodeId id : group.node_ids()) {
    if (id != lead && crashed < 2) {
      group.crash(id);
      ++crashed;
    }
  }
  bool done = false;
  group.submit(cmd("after-crashes"),
               [&](bool ok, const std::vector<std::uint8_t>&) { done = ok; });
  sim.run_until(sim.now() + 300);
  EXPECT_TRUE(done);
}

TEST_F(PaxosFixture, LeaderFailoverPreservesCommittedCommands) {
  bootstrap(5);
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  bool first_done = false;
  group.submit(cmd("before"), [&](bool ok, const std::vector<std::uint8_t>&) {
    first_done = ok;
  });
  sim.run_until(sim.now() + 120);
  ASSERT_TRUE(first_done);

  group.crash(lead);
  // A new leader must emerge and accept commands.
  bool second_done = false;
  SimTime deadline = sim.now() + 600;
  group.submit(cmd("after"), [&](bool ok, const std::vector<std::uint8_t>&) {
    second_done = ok;
  });
  while (sim.now() < deadline && !second_done) sim.run_until(sim.now() + 10);
  ASSERT_TRUE(second_done);
  NodeId new_lead = group.leader_id();
  ASSERT_GE(new_lead, 0);
  EXPECT_NE(new_lead, lead);
  // The survivor's log contains both commands in order.
  ASSERT_GE(sms[new_lead]->log().size(), 2u);
  EXPECT_EQ(sms[new_lead]->log()[0], cmd("before"));
  EXPECT_EQ(sms[new_lead]->log().back(), cmd("after"));
}

TEST_F(PaxosFixture, CrashedReplicaCatchesUpAfterRestart) {
  bootstrap(3);
  ASSERT_GE(wait_for_leader(), 0);
  NodeId victim = -1;
  for (NodeId id : group.node_ids()) {
    if (!group.replica(id).is_leader()) {
      victim = id;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  group.crash(victim);
  bool done = false;
  group.submit(cmd("while-down"),
               [&](bool ok, const std::vector<std::uint8_t>&) { done = ok; });
  sim.run_until(sim.now() + 200);
  ASSERT_TRUE(done);
  group.restart(victim);
  // The retry/heartbeat machinery re-delivers; give it time plus another
  // command to force progress.
  group.submit(cmd("after-restart"), nullptr);
  sim.run_until(sim.now() + 600);
  EXPECT_GE(group.replica(victim).commit_index(), 1);
}

TEST_F(PaxosFixture, NoQuorumNoProgress) {
  bootstrap(5);
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  // Crash three of five: no quorum.
  int crashed = 0;
  for (NodeId id : group.node_ids()) {
    if (id != lead && crashed < 3) {
      group.crash(id);
      ++crashed;
    }
  }
  bool committed = false;
  group.replica(lead).submit(
      cmd("stuck"),
      [&](bool ok, const std::vector<std::uint8_t>&) { committed = ok; });
  sim.run_until(sim.now() + 600);
  EXPECT_FALSE(committed);
  // Safety held: the command was never applied anywhere.
  for (NodeId id : group.node_ids()) {
    for (const auto& c : sms[id]->log()) EXPECT_NE(c, cmd("stuck"));
  }
}

TEST_F(PaxosFixture, SubmitToFollowerFailsFast) {
  bootstrap(3);
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  NodeId follower = -1;
  for (NodeId id : group.node_ids()) {
    if (id != lead) follower = id;
  }
  bool called = false, ok_value = true;
  group.replica(follower).submit(
      cmd("x"), [&](bool ok, const std::vector<std::uint8_t>&) {
        called = true;
        ok_value = ok;
      });
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok_value);
  EXPECT_EQ(group.replica(follower).believed_leader(), lead);
}

TEST_F(PaxosFixture, MembershipGrowsViaConfigEntry) {
  bootstrap(3);
  ASSERT_GE(wait_for_leader(), 0);
  group.submit(cmd("seed"), nullptr);
  sim.run_until(sim.now() + 120);

  bool config_done = false;
  group.add_node(3, [&](bool ok, const std::vector<std::uint8_t>&) {
    config_done = ok;
  });
  sim.run_until(sim.now() + 300);
  ASSERT_TRUE(config_done);
  for (NodeId id : group.node_ids()) {
    if (group.replica(id).commit_index() > 0) {
      EXPECT_EQ(group.replica(id).config().size(), 4u) << "replica " << id;
    }
  }
  // The newcomer caught up over the wire (seed command applied).
  EXPECT_GE(sms[3]->log().size(), 1u);
  // And the grown cluster still commits.
  bool done = false;
  group.submit(cmd("with-4"), [&](bool ok, const std::vector<std::uint8_t>&) {
    done = ok;
  });
  sim.run_until(sim.now() + 300);
  EXPECT_TRUE(done);
}

TEST_F(PaxosFixture, MembershipShrinks) {
  bootstrap(5);
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  NodeId victim = -1;
  for (NodeId id : group.node_ids()) {
    if (id != lead) victim = id;
  }
  bool config_done = false;
  group.remove_node(victim, [&](bool ok, const std::vector<std::uint8_t>&) {
    config_done = ok;
  });
  sim.run_until(sim.now() + 300);
  ASSERT_TRUE(config_done);
  EXPECT_EQ(group.replica(lead).config().size(), 4u);
  bool done = false;
  group.submit(cmd("with-4"), [&](bool ok, const std::vector<std::uint8_t>&) {
    done = ok;
  });
  sim.run_until(sim.now() + 300);
  EXPECT_TRUE(done);
}

TEST_F(PaxosFixture, ValueBytesTravelOnce) {
  bootstrap(3);
  ASSERT_GE(wait_for_leader(), 0);
  std::uint64_t before = net.value_bytes_sent();
  group.submit(cmd(std::string(1000, 'x')), nullptr);
  sim.run_until(sim.now() + 200);
  std::uint64_t sent = net.value_bytes_sent() - before;
  // Full replication: leader sends the 1000-byte value to each peer in
  // accept and chosen messages (plus self-delivery bookkeeping).  It must
  // be a small multiple of n * size, not quadratic.
  EXPECT_GT(sent, 2000u);
  EXPECT_LT(sent, 12000u);
}

// Classic Paxos replicates the full value: the leader's accept and chosen
// fan-outs share its proposal, so every replica holds the one buffer.
TEST_F(PaxosFixture, ChosenPayloadIsOneBufferOnEveryReplica) {
  bootstrap(5);
  const NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  const Slot slot = group.replica(lead).commit_index();
  bool done = false;
  group.submit(cmd(std::string(2000, 'v')),
               [&](bool ok, const std::vector<std::uint8_t>&) { done = ok; });
  sim.run_until(sim.now() + 200);
  ASSERT_TRUE(done);
  const Value* at_lead = group.replica(lead).chosen_value(slot);
  ASSERT_NE(at_lead, nullptr);
  ASSERT_EQ(std::vector<std::uint8_t>(at_lead->payload),
            cmd(std::string(2000, 'v')));
  for (NodeId id : group.node_ids()) {
    const Value* v = group.replica(id).chosen_value(slot);
    ASSERT_NE(v, nullptr) << "replica " << id;
    EXPECT_EQ(v->payload.data(), at_lead->payload.data()) << "replica " << id;
  }
}

// Safety property under message-level chaos: drop 20% of messages and crash
// /restart nodes; all replicas that applied slot i applied the same value.
TEST(PaxosChaos, AgreementUnderDropsAndCrashes) {
  Simulator sim;
  SimNetwork::Options nopts;
  nopts.drop_rate = 0.2;
  nopts.min_latency = 0;
  nopts.max_latency = 3;
  SimNetwork net(sim, 7, nopts);
  std::map<NodeId, RecordingSm*> sms;
  Group group(
      sim, net, Replica::Options{},
      [&](NodeId id) {
        auto sm = std::make_unique<RecordingSm>();
        sms[id] = sm.get();
        return sm;
      },
      555);
  group.bootstrap(5);
  Rng rng(2024);

  int submitted = 0;
  for (int round = 0; round < 40; ++round) {
    sim.run_until(sim.now() + 30);
    if (NodeId lead = group.leader_id(); lead >= 0) {
      group.replica(lead).submit(cmd("op" + std::to_string(submitted++)),
                                 nullptr);
    }
    // Random crash/restart churn on a minority.
    if (round % 7 == 3) {
      NodeId victim = static_cast<NodeId>(rng.below(5));
      if (group.replica(victim).alive()) {
        group.crash(victim);
      } else {
        group.restart(victim);
      }
    }
    if (round % 7 == 6) {
      for (NodeId id : group.node_ids()) {
        if (!group.replica(id).alive()) group.restart(id);
      }
    }
  }
  for (NodeId id : group.node_ids()) {
    if (!group.replica(id).alive()) group.restart(id);
  }
  sim.run_until(sim.now() + 2000);

  // Agreement: compare applied prefixes pairwise.
  for (NodeId a : group.node_ids()) {
    for (NodeId b : group.node_ids()) {
      const auto& la = sms[a]->log();
      const auto& lb = sms[b]->log();
      std::size_t common = std::min(la.size(), lb.size());
      for (std::size_t i = 0; i < common; ++i) {
        EXPECT_EQ(la[i], lb[i]) << "divergence at " << i << " between " << a
                                << " and " << b;
      }
    }
  }
  EXPECT_GT(submitted, 10);
}

}  // namespace
}  // namespace jupiter::paxos
