// Paxos edge cases: config codec, catch-up gaps, group-level deadline
// failures (no quorum, lost in-flight acks), ballot ordering.
#include <gtest/gtest.h>

#include <map>

#include "paxos/group.hpp"
#include "paxos/harness.hpp"

namespace jupiter::paxos {
namespace {

class NullSm : public StateMachine {
 public:
  std::vector<std::uint8_t> apply(
      const std::vector<std::uint8_t>& command) override {
    ++applied;
    return command;
  }
  int applied = 0;
};

TEST(ConfigCodec, RoundTrip) {
  std::vector<NodeId> members = {0, 3, 7, 12};
  EXPECT_EQ(decode_config(encode_config(members)), members);
  EXPECT_TRUE(decode_config(encode_config({})).empty());
}

TEST(ConfigCodec, RejectsMalformed) {
  EXPECT_THROW(decode_config({1, 2, 3}), std::invalid_argument);
  auto bytes = encode_config({1, 2});
  bytes.pop_back();
  EXPECT_THROW(decode_config(bytes), std::invalid_argument);
  // Count larger than the payload.
  std::vector<std::uint8_t> lying = {5, 0, 0, 0, 1, 0, 0, 0};
  EXPECT_THROW(decode_config(lying), std::invalid_argument);
}

TEST(Ballot, LexicographicOrdering) {
  EXPECT_LT((Ballot{1, 5}), (Ballot{2, 0}));
  EXPECT_LT((Ballot{2, 0}), (Ballot{2, 1}));
  EXPECT_EQ((Ballot{3, 3}), (Ballot{3, 3}));
  EXPECT_FALSE(Ballot{}.valid());
  EXPECT_TRUE((Ballot{1, 0}).valid());
  EXPECT_EQ((Ballot{4, 2}).str(), "4.2");
}

// Chosen values a replica did not decide reach it only as messages.  Its
// applied prefix stops at the first slot it has not learned, however far
// past it it has learned, and a slot learned twice keeps its first value.
TEST(Replica, CatchupGapStopsTheAppliedPrefix) {
  Simulator sim;
  SimNetwork net(sim, 1);
  NullSm sm;
  Replica rep(sim, net, 9, {9}, sm, Replica::Options{}, 1);
  rep.start();
  auto command = [](std::uint8_t byte) {
    Value v;
    v.kind = ValueKind::kCommand;
    v.payload = std::vector<std::uint8_t>{byte};
    return v;
  };
  Message batch;
  batch.type = MsgType::kCatchupBatch;
  batch.from = 1;
  for (Slot s : {0, 1, 3}) {
    batch.promises.push_back(
        PromiseInfo{s, Ballot{}, command(static_cast<std::uint8_t>(s + 1))});
  }
  net.send(9, batch);
  sim.run_until(sim.now() + 3);
  EXPECT_EQ(rep.commit_index(), 2);
  EXPECT_EQ(sm.applied, 2);
  ASSERT_NE(rep.chosen_value(3), nullptr);

  // The missing slot arrives as a kChosen and the prefix closes over slot 3.
  Message chosen;
  chosen.type = MsgType::kChosen;
  chosen.from = 1;
  chosen.slot = 2;
  chosen.value = command(3);
  net.send(9, chosen);
  sim.run_until(sim.now() + 3);
  EXPECT_EQ(rep.commit_index(), 4);
  EXPECT_EQ(sm.applied, 4);

  chosen.slot = 0;
  chosen.value = command(99);
  net.send(9, chosen);
  sim.run_until(sim.now() + 3);
  EXPECT_EQ(rep.chosen_value(0)->payload, command(1).payload);
  EXPECT_EQ(sm.applied, 4);
}

TEST(Replica, SubmitWhenDeadFailsImmediately) {
  Simulator sim;
  SimNetwork net(sim, 2);
  NullSm sm;
  Replica rep(sim, net, 0, {0, 1, 2}, sm, Replica::Options{}, 3);
  // Never started: not alive.
  bool called = false, ok = true;
  rep.submit(std::vector<std::uint8_t>{1}, [&](bool o, const std::vector<std::uint8_t>&) {
    called = true;
    ok = o;
  });
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(Group, SubmitFailsAfterDeadlineWithoutQuorum) {
  Simulator sim;
  SimNetwork net(sim, 3);
  Group group(
      sim, net, Replica::Options{},
      [](NodeId) { return std::make_unique<NullSm>(); }, 4);
  group.bootstrap(3);
  sim.run_until(sim.now() + 120);
  ASSERT_GE(group.leader_id(), 0);
  // Kill everyone: no leader can serve.
  for (NodeId id : group.node_ids()) group.crash(id);
  bool called = false, ok = true;
  group.submit(std::vector<std::uint8_t>{1}, [&](bool o, const std::vector<std::uint8_t>&) {
    called = true;
    ok = o;
  }, /*deadline=*/100);
  sim.run_until(sim.now() + 400);
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(Group, SubmitResolvesByDeadlineWhenTheLeaderCrashesMidFlight) {
  // crash() drops the leader's queued and in-flight acks without calling
  // them, so only Group's own deadline can resolve the op.  Its outcome is
  // unknown (it may yet commit through the next leader), so it must fail
  // rather than retry: a retry could apply it twice.
  for (bool preset : {false, true}) {
    Simulator sim;
    SimNetwork net(sim, 11);
    Replica::Options opts;
    if (preset) opts.plane = ClusterHarness::data_plane_preset();
    Group group(
        sim, net, opts, [](NodeId) { return std::make_unique<NullSm>(); }, 12);
    group.bootstrap(5);
    sim.run_until(sim.now() + 120);
    NodeId lead = group.leader_id();
    ASSERT_GE(lead, 0);
    const SimTime deadline = sim.now() + 600;
    int calls = 0;
    bool ok = true;
    SimTime resolved_at;
    group.submit(std::vector<std::uint8_t>{1}, [&](bool o, const std::vector<std::uint8_t>&) {
      ++calls;
      ok = o;
      resolved_at = sim.now();
    });
    group.crash(lead);
    sim.run_until(sim.now() + 2000);
    EXPECT_EQ(calls, 1) << (preset ? "preset" : "plane off");
    EXPECT_FALSE(ok) << (preset ? "preset" : "plane off");
    EXPECT_LE(resolved_at, deadline) << (preset ? "preset" : "plane off");
    EXPECT_GE(group.leader_id(), 0);  // a successor took over meanwhile
  }
}

TEST(Group, AddExistingNodeThrows) {
  Simulator sim;
  SimNetwork net(sim, 5);
  Group group(
      sim, net, Replica::Options{},
      [](NodeId) { return std::make_unique<NullSm>(); }, 6);
  group.bootstrap(3);
  EXPECT_THROW(group.add_node(0), std::invalid_argument);
  EXPECT_THROW(group.replica(99), std::out_of_range);
}

TEST(Group, AddNodeWithoutLeaderFails) {
  Simulator sim;
  SimNetwork net(sim, 7);
  Group group(
      sim, net, Replica::Options{},
      [](NodeId) { return std::make_unique<NullSm>(); }, 8);
  group.bootstrap(3);
  // No time to elect a leader yet.
  bool called = false, ok = true;
  group.add_node(7, [&](bool o, const std::vector<std::uint8_t>&) {
    called = true;
    ok = o;
  });
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(QuorumPolicyMath, MajorityAndRsTables) {
  QuorumPolicy maj;
  EXPECT_EQ(maj.quorum(1), 1);
  EXPECT_EQ(maj.quorum(3), 2);
  EXPECT_EQ(maj.quorum(5), 3);
  EXPECT_EQ(maj.quorum(7), 4);
  EXPECT_FALSE(maj.coded());
  QuorumPolicy rs;
  rs.kind = QuorumPolicy::Kind::kRsPaxos;
  rs.rs_m = 3;
  EXPECT_EQ(rs.quorum(5), 4);
  EXPECT_EQ(rs.quorum(6), 5);  // ceil((6+3)/2)
  EXPECT_EQ(rs.quorum(9), 6);
  // Intersection of any two quorums >= m.
  for (int n = 3; n <= 12; ++n) {
    EXPECT_GE(2 * rs.quorum(n) - n, 3) << n;
  }
}

}  // namespace
}  // namespace jupiter::paxos
