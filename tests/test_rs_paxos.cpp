#include <gtest/gtest.h>

#include <map>

#include "paxos/group.hpp"
#include "paxos/harness.hpp"
#include "storage/kv_store.hpp"

namespace jupiter::paxos {
namespace {

using storage::KvClient;
using storage::KvCommand;
using storage::KvOp;
using storage::KvResponse;
using storage::KvStatus;
using storage::KvStoreState;

Replica::Options rs_options() {
  Replica::Options opts;
  opts.policy.kind = QuorumPolicy::Kind::kRsPaxos;
  opts.policy.rs_m = 3;
  return opts;
}

struct RsPaxosFixture : ::testing::Test {
  RsPaxosFixture()
      : net(sim, 31),
        group(sim, net, rs_options(),
              [this](NodeId id) {
                auto sm = std::make_unique<KvStoreState>();
                sms[id] = sm.get();
                return sm;
              },
              777) {}

  void bootstrap(int n = 5) {
    group.bootstrap(n);
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

  bool put(const std::string& key, const std::string& value) {
    KvClient client(group);
    bool done = false, ok = false;
    std::vector<std::uint8_t> bytes(value.begin(), value.end());
    client.put(key, bytes, [&](KvResponse r) {
      done = true;
      ok = r.status == KvStatus::kOk;
    });
    sim.run_until(sim.now() + 200);
    return done && ok;
  }

  Simulator sim;
  SimNetwork net;
  std::map<NodeId, KvStoreState*> sms;
  Group group;
};

TEST_F(RsPaxosFixture, QuorumIsFourOfFive) {
  QuorumPolicy policy = rs_options().policy;
  EXPECT_EQ(policy.quorum(5), 4);  // ceil((5+3)/2) — §5.1.2
  EXPECT_EQ(policy.quorum(7), 5);
  EXPECT_TRUE(policy.coded());
}

TEST_F(RsPaxosFixture, PutCommitsAndLeaderServesReads) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  ASSERT_TRUE(put("k", "hello-rs-paxos"));
  auto v = sms[lead]->get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "hello-rs-paxos");
}

TEST_F(RsPaxosFixture, FollowersStoreChunksNotFullValues) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  std::string big(3000, 'z');
  ASSERT_TRUE(put("big", big));
  for (NodeId id : group.node_ids()) {
    if (id == lead) continue;
    // Followers hold chunk logs; each chunk is ~1/3 of the command.
    ASSERT_GE(sms[id]->chunk_count(), 1u) << "follower " << id;
    EXPECT_LT(sms[id]->chunk_bytes(), big.size()) << "follower " << id;
    EXPECT_GT(sms[id]->chunk_bytes(), big.size() / 5) << "follower " << id;
    // And no materialized key-value state.
    EXPECT_EQ(sms[id]->keys(), 0u);
  }
}

TEST_F(RsPaxosFixture, NetworkCarriesLessThanFullReplication) {
  bootstrap();
  ASSERT_GE(wait_for_leader(), 0);
  std::string big(6000, 'q');
  std::uint64_t before = net.value_bytes_sent();
  ASSERT_TRUE(put("big", big));
  std::uint64_t sent = net.value_bytes_sent() - before;
  // Full replication would ship ~n * size twice (accept + chosen):
  // ~60 KB.  RS-Paxos ships chunks of size/3: ~20 KB.
  EXPECT_LT(sent, 36000u);
  EXPECT_GT(sent, 6000u);
}

TEST_F(RsPaxosFixture, AnyThreeChunkLogsReconstructTheStore) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  ASSERT_TRUE(put("a", "alpha"));
  ASSERT_TRUE(put("b", "bravo"));
  ASSERT_TRUE(put("c", "charlie"));
  sim.run_until(sim.now() + 300);

  std::vector<const KvStoreState*> followers;
  for (NodeId id : group.node_ids()) {
    if (id != lead && followers.size() < 3) followers.push_back(sms[id]);
  }
  ASSERT_EQ(followers.size(), 3u);
  KvStoreState recovered;
  std::size_t n = KvStoreState::reconstruct_into(followers, 3, recovered);
  EXPECT_EQ(n, 3u);
  auto v = recovered.get("b");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "bravo");
}

// The data plane coalesces puts into kBatch slots; each follower's chunk
// then encodes a whole batch, and recovery must unpack it.
TEST(RsPaxosDataPlane, ChunkLogsOfBatchedPutsReconstructTheStore) {
  Replica::Options opts = rs_options();
  opts.plane = ClusterHarness::data_plane_preset();
  Simulator sim;
  SimNetwork net(sim, 31);
  std::map<NodeId, KvStoreState*> sms;
  Group group(sim, net, opts,
              [&sms](NodeId id) {
                auto sm = std::make_unique<KvStoreState>();
                sms[id] = sm.get();
                return sm;
              },
              777);
  group.bootstrap(5);
  sim.run_until(sim.now() + 120);
  NodeId lead = group.leader_id();
  ASSERT_GE(lead, 0);

  // Submitted at one instant, the puts share a flush window and batch.
  KvClient client(group);
  int acked = 0;
  const int kPuts = 12;
  for (int i = 0; i < kPuts; ++i) {
    std::string value = "value-" + std::to_string(i);
    client.put("k" + std::to_string(i),
               std::vector<std::uint8_t>(value.begin(), value.end()),
               [&acked](KvResponse r) {
                 if (r.status == KvStatus::kOk) ++acked;
               });
  }
  sim.run_until(sim.now() + 300);
  ASSERT_EQ(acked, kPuts);

  std::vector<const KvStoreState*> followers;
  for (NodeId id : group.node_ids()) {
    if (id != lead && followers.size() < 3) followers.push_back(sms[id]);
  }
  ASSERT_EQ(followers.size(), 3u);
  // Fewer chunks than puts: the commands really were batched.
  ASSERT_LT(followers[0]->chunk_count(), static_cast<std::size_t>(kPuts));
  KvStoreState recovered;
  EXPECT_EQ(KvStoreState::reconstruct_into(followers, 3, recovered),
            static_cast<std::size_t>(kPuts));
  EXPECT_EQ(recovered.keys(), static_cast<std::size_t>(kPuts));
  for (int i = 0; i < kPuts; ++i) {
    auto v = recovered.get("k" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(std::string(v->begin(), v->end()),
              "value-" + std::to_string(i));
  }
}

TEST_F(RsPaxosFixture, ToleratesExactlyOneFailure) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  // One non-leader crash: quorum of 4 still reachable.
  for (NodeId id : group.node_ids()) {
    if (id != lead) {
      group.crash(id);
      break;
    }
  }
  EXPECT_TRUE(put("k1", "survives-one"));
  // A second crash drops below the 4-node quorum: no progress.
  for (NodeId id : group.node_ids()) {
    if (id != lead && group.replica(id).alive()) {
      group.crash(id);
      break;
    }
  }
  EXPECT_FALSE(put("k2", "needs-four"));
}

TEST_F(RsPaxosFixture, LeaderFailoverRecoversCodedValue) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  ASSERT_TRUE(put("k", "precious"));
  sim.run_until(sim.now() + 120);
  group.crash(lead);
  NodeId new_lead = -1;
  SimTime deadline = sim.now() + 900;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + 10);
    new_lead = group.leader_id();
    if (new_lead >= 0 && new_lead != lead) break;
  }
  ASSERT_GE(new_lead, 0);
  ASSERT_NE(new_lead, lead);
  // Recovery reconstructed the chosen command from >= m chunks, so the new
  // leader's materialized store has the key.
  sim.run_until(sim.now() + 300);
  auto v = sms[new_lead]->get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "precious");
  // And the store keeps accepting writes.
  EXPECT_TRUE(put("k2", "after-failover"));
}

}  // namespace
}  // namespace jupiter::paxos
