#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
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
using storage::StoredChunk;

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

// On a stable config the leader Reed-Solomon encodes a coded slot once:
// its chosen fan-out resends the accept round's chunks.  Re-encoding per
// fan-out would cost 2 encodes per slot, per destination 10 at theta(3,5).
TEST_F(RsPaxosFixture, OneEncodePerFanOut) {
  obs::Registry reg;
  obs::ObsContext ctx{&reg, nullptr, nullptr};
  obs::ContextScope scope(&ctx);
  bootstrap();
  ASSERT_GE(wait_for_leader(), 0);
  obs::DetHistogram& encodes = reg.det_histogram("ec.encode_bytes");
  const std::uint64_t before = encodes.count();
  constexpr int kPuts = 8;  // one coded slot each: batching is off
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(put("k" + std::to_string(i), std::string(4096, 'a')));
  }
  EXPECT_EQ(encodes.count() - before, static_cast<std::uint64_t>(kPuts));
}

// A follower's accepted chunk, its chosen chunk and its store's chunk log
// are one buffer: the leader's chosen fan-out resends the accept round's
// buffers, and the store keeps a reference instead of a copy.
TEST_F(RsPaxosFixture, FollowerChunkLogSharesTheChosenPayload) {
  bootstrap();
  const NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  const Slot first = group.replica(lead).commit_index();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(put("k" + std::to_string(i), std::string(3000, 'a' + i)));
  }
  for (NodeId id : group.node_ids()) {
    if (id == lead) continue;
    const Replica& r = group.replica(id);
    for (Slot s = first; s < first + 4; ++s) {
      const Value* v = r.chosen_value(s);
      ASSERT_NE(v, nullptr) << "node " << id << " slot " << s;
      ASSERT_TRUE(v->coded);
      const StoredChunk& c = sms[id]->chunks().at(v->value_id);
      ASSERT_FALSE(c.bytes.empty());
      EXPECT_EQ(c.bytes.data(), v->payload.data())
          << "node " << id << " slot " << s;
    }
  }
}

// Followers key their chunk logs by value_id, so two puts with one id keep
// one chunk and recovery loses the other.  Ids must be unique per proposer
// however many puts share a sim-second.
TEST_F(RsPaxosFixture, HighRatePutsKeepEveryChunk) {
  bootstrap();
  const NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  KvClient client(group);
  constexpr int kSeconds = 5;
  constexpr int kPerSecond = 200;
  constexpr std::size_t kPuts = kSeconds * kPerSecond;
  std::size_t acked = 0;
  for (int s = 0; s < kSeconds; ++s) {
    sim.schedule_after(s, [&client, &acked, s] {
      for (int i = 0; i < kPerSecond; ++i) {
        const std::string k = std::to_string(s * kPerSecond + i);
        const std::string value = "value-" + k;
        client.put("k" + k,
                   std::vector<std::uint8_t>(value.begin(), value.end()),
                   [&acked](KvResponse r) {
                     if (r.status == KvStatus::kOk) ++acked;
                   });
      }
    });
  }
  sim.run_until(sim.now() + 600);
  ASSERT_EQ(acked, kPuts);

  std::vector<const KvStoreState*> followers;
  for (NodeId id : group.node_ids()) {
    if (id == lead) continue;
    EXPECT_EQ(sms[id]->chunk_count(), kPuts) << "follower " << id;
    if (followers.size() < 3) followers.push_back(sms[id]);
  }
  KvStoreState recovered;
  EXPECT_EQ(KvStoreState::reconstruct_into(followers, 3, recovered), kPuts);
  EXPECT_EQ(recovered.keys(), kPuts);
  auto v = recovered.get("k999");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "value-999");
}

// A leader has no use for its election's promises once it has gathered the
// accepted values from them; keeping them would pin every promised chunk
// for the whole term.
TEST_F(RsPaxosFixture, NewLeaderHoldsNoPromises) {
  bootstrap();
  const NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  EXPECT_EQ(group.replica(lead).promises_held(), 0u);
  ASSERT_TRUE(put("k", "before-failover"));
  group.crash(lead);
  NodeId new_lead = -1;
  const SimTime deadline = sim.now() + 900;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + 10);
    new_lead = group.leader_id();
    if (new_lead >= 0 && new_lead != lead) break;
  }
  ASSERT_GE(new_lead, 0);
  ASSERT_NE(new_lead, lead);
  EXPECT_EQ(group.replica(new_lead).promises_held(), 0u);
  // The rebuild ran before the promises went: the key is there.
  auto v = sms[new_lead]->get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "before-failover");
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

// Systematic chunks are views of the leader's proposed payload: each
// follower's unpadded data chunk lies inside the very buffer the leader's
// store keeps its values in.  Only a chunk that needed zero padding, or a
// parity chunk, has bytes of its own.  The chunk-log and wire byte counts
// are those of a copying encode (kChunkBytes and kSentBytes were measured
// with one).
TEST(RsPaxosDataPlane, SystematicChunksViewTheLeaderPayload) {
  constexpr std::uint64_t kChunkBytes = 32616;
  constexpr std::uint64_t kSentBytes = 86976;
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
  const NodeId lead = group.leader_id();
  ASSERT_GE(lead, 0);
  const std::uint64_t sent_before = net.value_bytes_sent();

  // One batch per round; a value one byte longer per round moves the batch
  // size through every residue mod 3.
  KvClient client(group);
  constexpr int kRounds = 6;
  constexpr int kPerRound = 4;
  int acked = 0;
  for (int r = 0; r < kRounds; ++r) {
    sim.schedule_after(r, [&client, &acked, r] {
      for (int i = 0; i < kPerRound; ++i) {
        const int k = r * kPerRound + i;
        client.put("k" + std::to_string(k),
                   std::vector<std::uint8_t>(1000 + static_cast<std::size_t>(r),
                                             static_cast<std::uint8_t>('a' + k)),
                   [&acked](KvResponse resp) {
                     if (resp.status == KvStatus::kOk) ++acked;
                   });
      }
    });
  }
  sim.run_until(sim.now() + 300);
  ASSERT_EQ(acked, kRounds * kPerRound);

  std::vector<SharedBytes> leader_buffers;
  for (int k = 0; k < kRounds * kPerRound; ++k) {
    const SharedBytes* v = sms[lead]->find("k" + std::to_string(k));
    ASSERT_NE(v, nullptr) << k;
    leader_buffers.push_back(v->buffer());
  }
  auto in_leader_buffer = [&leader_buffers](const SharedBytes& c) {
    return std::ranges::any_of(leader_buffers, [&c](const SharedBytes& b) {
      return c.buffer().data() == b.data() && c.data() >= b.data() &&
             c.data() + c.size() <= b.data() + b.size();
    });
  };
  int views = 0, owned = 0;
  bool multiple_of_3 = false, not_multiple_of_3 = false;
  std::uint64_t chunk_bytes = 0;
  for (NodeId id : group.node_ids()) {
    if (id == lead) continue;
    for (const auto& [vid, c] : sms[id]->chunks()) {
      const std::size_t len = (c.full_size + 2) / 3;
      ASSERT_EQ(c.bytes.size(), len);
      const bool unpadded =
          c.chunk_index < 3 &&
          static_cast<std::size_t>(c.chunk_index + 1) * len <= c.full_size;
      EXPECT_EQ(in_leader_buffer(c.bytes), unpadded)
          << "node " << id << " chunk " << c.chunk_index << " of "
          << c.full_size << " bytes";
      ++(unpadded ? views : owned);
      (c.full_size % 3 == 0 ? multiple_of_3 : not_multiple_of_3) = true;
    }
    chunk_bytes += sms[id]->chunk_bytes();
  }
  EXPECT_GT(views, 0);
  EXPECT_GT(owned, 0);
  EXPECT_TRUE(multiple_of_3);
  EXPECT_TRUE(not_multiple_of_3);
  EXPECT_EQ(chunk_bytes, kChunkBytes);
  EXPECT_EQ(net.value_bytes_sent() - sent_before, kSentBytes);
}

// A follower applies a batched slot as its chunk only.  When it becomes
// leader it rebuilds the slot from the promise quorum's chunks and must
// replay each op of the batch, not hand the batch framing to the store as
// one command.
TEST(RsPaxosDataPlane, FailoverRebuildsBatchedPuts) {
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
  const NodeId lead = group.leader_id();
  ASSERT_GE(lead, 0);

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

  group.crash(lead);
  NodeId new_lead = -1;
  const SimTime deadline = sim.now() + 900;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + 10);
    new_lead = group.leader_id();
    if (new_lead >= 0 && new_lead != lead) break;
  }
  ASSERT_GE(new_lead, 0);
  ASSERT_NE(new_lead, lead);
  sim.run_until(sim.now() + 300);

  EXPECT_EQ(sms[new_lead]->keys(), static_cast<std::size_t>(kPuts));
  for (int i = 0; i < kPuts; ++i) {
    auto v = sms[new_lead]->get("k" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(std::string(v->begin(), v->end()),
              "value-" + std::to_string(i));
  }
  bool done = false;
  client.put("after", {1, 2, 3}, [&done](KvResponse r) {
    done = r.status == KvStatus::kOk;
  });
  sim.run_until(sim.now() + 300);
  EXPECT_TRUE(done);
}

TEST_F(RsPaxosFixture, CutOffLeaderAppliesTheChosenValueNotItsOwnProposal) {
  // A leader cut off mid-proposal still holds the full bytes of a value
  // that loses its slot.  Once it learns the rival's chosen value it must
  // apply that slot as the winner's chunk — applying its own proposal
  // would leave its store (and its lease reads) diverged for good.
  bootstrap();
  NodeId a = wait_for_leader();
  ASSERT_GE(a, 0);
  auto put_k = [](const std::string& value) {
    KvCommand c;
    c.op = KvOp::kPut;
    c.key = "k";
    c.value.assign(value.begin(), value.end());
    return c.encode();
  };
  for (NodeId id : group.node_ids()) {
    if (id != a) net.cut_pair(a, id);
  }
  const Slot slot = group.replica(a).commit_index();
  group.replica(a).submit(put_k("X"), nullptr);

  // The majority side elects B, whose put lands in the same slot.
  NodeId b = -1;
  for (int i = 0; i < 120 && b < 0; ++i) {
    sim.run_until(sim.now() + 5);
    for (NodeId id : group.node_ids()) {
      if (id != a && group.replica(id).is_leader()) b = id;
    }
  }
  ASSERT_GE(b, 0);
  bool b_ok = false;
  group.replica(b).submit(put_k("Y"),
                          [&b_ok](bool ok, const std::vector<std::uint8_t>&) {
                            b_ok = ok;
                          });
  for (NodeId id : group.node_ids()) {
    if (id != a) net.heal_pair(a, id);
  }
  sim.run_until(sim.now() + 300);
  ASSERT_TRUE(b_ok);

  const Value* at_a = group.replica(a).chosen_value(slot);
  const Value* at_b = group.replica(b).chosen_value(slot);
  ASSERT_NE(at_a, nullptr);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_a->value_id, at_b->value_id);  // Y won the contested slot
  auto on_b = sms[b]->get("k");
  ASSERT_TRUE(on_b.has_value());
  EXPECT_EQ(std::string(on_b->begin(), on_b->end()), "Y");
  // A holds only Y's chunk, so its materialized store has no value for k.
  auto on_a = sms[a]->get("k");
  EXPECT_FALSE(on_a.has_value())
      << "cut-off leader applied its losing proposal X";
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

// Value ids carry their proposer in the top bits, so they order one
// leader's puts, not puts across a failover.  Rebuilding from the chunk logs
// must follow the commit order: after a put by one leader and a later put
// of the same key by a lower-numbered one, the store holds the later put.
TEST_F(RsPaxosFixture, ChunkLogsRebuildInCommitOrderAcrossLeaders) {
  bootstrap();
  ASSERT_GE(wait_for_leader(), 0);
  // Each round puts under the current leader, then fails it over (one node
  // down at a time: RS-Paxos(3,5) needs four), until a later put comes
  // from a lower node than the one before it.
  NodeId prev = -1, down = -1;
  std::string last;
  bool downward = false;
  for (int round = 0; round < 12 && !downward; ++round) {
    NodeId lead = group.leader_id();
    ASSERT_GE(lead, 0);
    last = "put" + std::to_string(round);
    ASSERT_TRUE(put("k", last));
    downward = prev >= 0 && lead < prev;
    prev = lead;
    if (downward) break;
    group.crash(lead);
    if (down >= 0) group.restart(down);
    down = lead;
    sim.run_until(sim.now() + 60);
    ASSERT_NE(wait_for_leader(), lead);
  }
  ASSERT_TRUE(downward) << "no failover to a lower node id";
  if (down >= 0) group.restart(down);
  sim.run_until(sim.now() + 300);

  std::vector<const KvStoreState*> logs;
  for (NodeId id : group.node_ids()) logs.push_back(sms[id]);
  KvStoreState rebuilt;
  KvStoreState::reconstruct_into(logs, 3, rebuilt);
  auto v = rebuilt.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), last);
}

}  // namespace
}  // namespace jupiter::paxos
