// The high-throughput data plane: op batching, multi-slot pipelining,
// leader leases, and fast catch-up — exercised directly on a ClusterHarness
// and, for lease safety, across the seeded chaos corpus.  PaxosOpPath pins
// the one client-op path (queue -> flush -> propose) with the plane off and
// with the preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/chaos_runner.hpp"
#include "paxos/harness.hpp"

namespace jupiter::paxos {
namespace {

/// Appends every applied command — order and multiplicity are the facts
/// the batching/pipelining tests check.
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

/// Plain struct (not a gtest fixture) so the determinism test can run two
/// independent instances side by side.
struct TestCluster {
  void start(int nodes = 5, std::uint64_t seed = 7,
             std::optional<DataPlaneOptions> plane = std::nullopt) {
    ClusterHarness::Options o;
    o.nodes = nodes;
    o.replica.plane = plane ? *plane : ClusterHarness::data_plane_preset();
    o.net_seed = seed;
    o.group_seed = seed + 1;
    o.settle = 120;
    cluster.emplace(o, [this](NodeId id) {
      auto sm = std::make_unique<RecordingSm>();
      sms[id] = sm.get();
      return sm;
    });
  }

  Simulator& sim() { return cluster->sim; }
  Group& group() { return cluster->group; }

  /// Submits `n` commands through the group client, one per sim-second.
  /// Returns how many were acked ok after `settle` extra seconds.
  int submit_burst(int n, const std::string& prefix, TimeDelta settle = 600) {
    int committed = 0;
    for (int i = 0; i < n; ++i) {
      group().submit(cmd(prefix + std::to_string(i)),
                     [&committed](bool ok, const std::vector<std::uint8_t>&) {
                       if (ok) ++committed;
                     });
      sim().run_until(sim().now() + 1);
    }
    sim().run_until(sim().now() + settle);
    return committed;
  }

  std::map<NodeId, RecordingSm*> sms;
  std::optional<ClusterHarness> cluster;
};

struct PaxosDataPlane : ::testing::Test, TestCluster {};

TEST_F(PaxosDataPlane, BatchingCoalescesOpsAndFansAcksBack) {
  start();
  NodeId lead = cluster->wait_for_leader();
  ASSERT_GE(lead, 0);
  // All 64 ops submitted at one instant: the flush must coalesce them into
  // far fewer slots than ops, and every per-op callback must still fire.
  int committed = 0;
  for (int i = 0; i < 64; ++i) {
    group().submit(cmd("op" + std::to_string(i)),
                   [&committed](bool ok, const std::vector<std::uint8_t>&) {
                     if (ok) ++committed;
                   });
  }
  sim().run_until(sim().now() + 600);
  EXPECT_EQ(committed, 64);

  const Replica& leader = group().replica(lead);
  EXPECT_GT(leader.batches_proposed(), 0);
  EXPECT_LT(leader.commit_index(), 64u);  // fewer slots than ops
  // Every replica applied the same 64 commands in the same order.
  const auto& ref = sms[lead]->log();
  EXPECT_EQ(ref.size(), 64u);
  for (NodeId id : group().node_ids()) {
    EXPECT_EQ(sms[id]->log(), ref) << "replica " << id;
  }
}

TEST_F(PaxosDataPlane, BatchingIsDeterministic) {
  // Same seeds, same workload => bit-identical batch boundaries.  The
  // digest folds every (slot, ops) pair the leader flushed, so any
  // divergence in coalescing shows up here before anything else.
  auto run_once = [](std::uint64_t* digest, std::int64_t* batches,
                     std::int64_t* ops) {
    TestCluster f;
    f.start(5, 21);
    NodeId lead = f.cluster->wait_for_leader();
    ASSERT_GE(lead, 0);
    EXPECT_EQ(f.submit_burst(50, "det"), 50);
    const Replica& leader = f.group().replica(lead);
    *digest = leader.batch_digest();
    *batches = leader.batches_proposed();
    *ops = leader.batched_ops();
  };
  std::uint64_t d1 = 0, d2 = 0;
  std::int64_t b1 = 0, b2 = 0, o1 = 0, o2 = 0;
  run_once(&d1, &b1, &o1);
  run_once(&d2, &b2, &o2);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(d1, d2);
}

TEST_F(PaxosDataPlane, PipelinedGapRecoveryAfterLeaderCrash) {
  start();
  NodeId lead = cluster->wait_for_leader();
  ASSERT_GE(lead, 0);

  // Fill the pipeline, then kill the leader with a window of undecided
  // slots in flight — some slots will be chosen at a quorum, later ones
  // not, and the next leader must finish the prefix without leaving holes.
  int committed = 0;
  auto count = [&committed](bool ok, const std::vector<std::uint8_t>&) {
    if (ok) ++committed;
  };
  for (int i = 0; i < 40; ++i) {
    group().submit(cmd("pre" + std::to_string(i)), count);
  }
  sim().run_until(sim().now() + 1);  // accepts in flight, nothing settled
  group().crash(lead);

  NodeId lead2 = cluster->wait_for_leader();
  ASSERT_GE(lead2, 0);
  EXPECT_NE(lead2, lead);
  for (int i = 0; i < 40; ++i) {
    group().submit(cmd("post" + std::to_string(i)), count);
    sim().run_until(sim().now() + 1);
  }
  group().restart(lead);
  sim().run_until(sim().now() + 900);

  // Liveness: the post-crash workload commits (pre-crash ops may have died
  // with the leader's queue — Group retries them until its deadline).
  EXPECT_GE(committed, 40);

  // Gap-safety: every slot below each replica's commit index is chosen,
  // and all replicas applied identical sequences.
  const auto& ref = sms[lead2]->log();
  EXPECT_GE(ref.size(), 40u);
  for (NodeId id : group().node_ids()) {
    const Replica& r = group().replica(id);
    for (Slot s = 0; s < r.commit_index(); ++s) {
      EXPECT_NE(r.chosen_value(s), nullptr)
          << "replica " << id << " has a hole at slot " << s;
    }
    EXPECT_EQ(sms[id]->log(), ref) << "replica " << id;
  }
}

TEST_F(PaxosDataPlane, LeaseMutualExclusionAcrossPartition) {
  start();
  NodeId lead = cluster->wait_for_leader();
  ASSERT_GE(lead, 0);
  sim().run_until(sim().now() + 30);
  EXPECT_TRUE(group().replica(lead).holds_lease());

  // Cut the leader off.  Its lease must lapse before any rival can both
  // win an election and earn a lease — poll every simulated second that
  // no two replicas ever hold one simultaneously.
  for (NodeId id : group().node_ids()) {
    if (id != lead) cluster->net.cut_pair(lead, id);
  }
  SimTime deadline = sim().now() + 120;
  NodeId new_lead = -1;
  while (sim().now() < deadline) {
    sim().run_until(sim().now() + 1);
    int holders = 0;
    for (NodeId id : group().node_ids()) {
      if (group().replica(id).holds_lease()) {
        ++holders;
        if (id != lead) new_lead = id;
      }
    }
    ASSERT_LE(holders, 1) << "two leaseholders at t=" << sim().now().seconds();
  }
  // A rival took over once the old grants expired; the deposed leader's
  // lease is gone even though it still cannot hear the new ballot.
  ASSERT_GE(new_lead, 0);
  EXPECT_NE(new_lead, lead);
  EXPECT_TRUE(group().replica(new_lead).holds_lease());
  EXPECT_FALSE(group().replica(lead).holds_lease());

  for (NodeId id : group().node_ids()) {
    if (id != lead) cluster->net.heal_pair(lead, id);
  }
  sim().run_until(sim().now() + 60);
  EXPECT_FALSE(group().replica(lead).is_leader());
}

TEST_F(PaxosDataPlane, FastCatchupRestoresACrashedFollower) {
  start();
  NodeId lead = cluster->wait_for_leader();
  ASSERT_GE(lead, 0);
  NodeId follower = -1;
  for (NodeId id : group().node_ids()) {
    if (id != lead) {
      follower = id;
      break;
    }
  }
  group().crash(follower);

  EXPECT_EQ(submit_burst(120, "cu", 300), 120);
  group().restart(follower);
  sim().run_until(sim().now() + 600);

  // The follower converged, and the leader served its recovery in batched
  // catch-up chunks rather than one message per slot.
  EXPECT_EQ(sms[follower]->log(), sms[lead]->log());
  EXPECT_GT(group().replica(lead).catchup_slots_served(), 0);
}

// ---- one client-op path: queue -> flush -> propose --------------------------

/// Runs each case with the plane off and with data_plane_preset(): the flags
/// parameterise the one op path, so both must keep the same guarantees.
struct PaxosOpPath : ::testing::TestWithParam<bool>, TestCluster {
  void start_cluster() {
    start(5, 7, GetParam() ? ClusterHarness::data_plane_preset()
                           : DataPlaneOptions{});
  }
};

std::string plane_name(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "Preset" : "PlaneOff";
}

INSTANTIATE_TEST_SUITE_P(Plane, PaxosOpPath, ::testing::Bool(), plane_name);

TEST_P(PaxosOpPath, OpsQueuedWhileElectingCommitOnceInOrderAfterRecovery) {
  start_cluster();
  NodeId lead = cluster->wait_for_leader();
  ASSERT_GE(lead, 0);
  // Slots in flight at the old leader: its successor must recover them
  // before anything it queued while electing.
  for (int i = 0; i < 6; ++i) {
    group().replica(lead).submit(cmd("pre" + std::to_string(i)), nullptr);
  }
  sim().run_until(sim().now() + 1);
  group().crash(lead);

  // Hand every candidate two ops the instant it broadcasts a prepare.  The
  // submit event runs before any prepare is delivered, so the ops land
  // strictly inside the election.
  std::map<NodeId, std::vector<std::string>> queued;  // per candidate, in order
  std::map<std::string, int> resolved, acked;
  std::map<NodeId, Ballot> prepared;
  int seq = 0;
  auto submit_to = [&](NodeId id) {
    for (int k = 0; k < 2; ++k) {
      std::string op = "elect" + std::to_string(seq++);
      group().replica(id).submit(
          cmd(op), [&resolved, &acked, op](bool ok,
                                           const std::vector<std::uint8_t>&) {
            ++resolved[op];
            if (ok) ++acked[op];
          });
      EXPECT_FALSE(resolved.contains(op)) << "candidate " << id
                                          << " refused " << op;
      queued[id].push_back(op);
    }
  };
  cluster->net.set_fault_hook([&](NodeId from, NodeId, const Message& m) {
    if (m.type == MsgType::kPrepare && group().leader_id() < 0 &&
        prepared[from] != m.ballot) {
      prepared[from] = m.ballot;
      sim().schedule_after(0, [&submit_to, from] { submit_to(from); });
    }
    return SimNetwork::FaultAction{};
  });
  ASSERT_GE(cluster->wait_for_leader(), 0);
  sim().run_until(sim().now() + 600);
  cluster->net.set_fault_hook(nullptr);
  const NodeId winner = group().leader_id();
  ASSERT_GE(winner, 0);
  ASSERT_NE(winner, lead);

  // A candidate that lost a duel may have led briefly: its ops either
  // committed or lost their slot to the winner and were failed.  Either
  // way each resolves at most once, and is applied iff it was acked.
  const auto& log = sms[winner]->log();
  auto position = [&log](const std::string& op) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i] == cmd(op)) at.push_back(i);
    }
    return at;
  };
  for (const auto& [id, ops] : queued) {
    std::size_t prev = 0;
    for (const std::string& op : ops) {
      EXPECT_LE(resolved[op], 1) << op;
      std::vector<std::size_t> at = position(op);
      ASSERT_EQ(at.size(), acked.contains(op) ? 1u : 0u) << op;
      if (at.empty()) continue;
      EXPECT_GE(at[0], prev) << op << " applied out of submit order";
      prev = at[0];
    }
  }
  // Everything the winner queued while electing committed exactly once,
  // after every slot it recovered (pre-crash ops and rivals' proposals).
  ASSERT_FALSE(queued[winner].empty());
  std::size_t first_own = log.size();
  for (const std::string& op : queued[winner]) {
    EXPECT_EQ(acked[op], 1) << op;
    std::vector<std::size_t> at = position(op);
    if (!at.empty()) first_own = std::min(first_own, at[0]);
  }
  std::vector<std::string> recovered;
  for (int i = 0; i < 6; ++i) recovered.push_back("pre" + std::to_string(i));
  for (const auto& [id, ops] : queued) {
    if (id != winner) recovered.insert(recovered.end(), ops.begin(), ops.end());
  }
  for (const std::string& op : recovered) {
    for (std::size_t at : position(op)) {
      EXPECT_LT(at, first_own) << op << " applied after the winner's queue";
    }
  }
  for (NodeId id : group().node_ids()) {
    if (id != lead) {
      EXPECT_EQ(sms[id]->log(), log) << "replica " << id;
    }
  }
}

TEST_P(PaxosOpPath, ConfigChangeAcksFireOnceThroughTheSlotAckList) {
  start_cluster();
  ASSERT_GE(cluster->wait_for_leader(), 0);
  int add_calls = 0, add_ok = 0, remove_calls = 0, remove_ok = 0;
  group().add_node(5, [&](bool ok, const std::vector<std::uint8_t>&) {
    ++add_calls;
    add_ok += ok ? 1 : 0;
  });
  sim().run_until(sim().now() + 300);
  EXPECT_EQ(add_calls, 1);
  EXPECT_EQ(add_ok, 1);
  NodeId lead = group().leader_id();
  ASSERT_GE(lead, 0);
  EXPECT_EQ(group().replica(lead).config().size(), 6u);

  group().remove_node(5, [&](bool ok, const std::vector<std::uint8_t>&) {
    ++remove_calls;
    remove_ok += ok ? 1 : 0;
  });
  sim().run_until(sim().now() + 300);
  EXPECT_EQ(remove_calls, 1);
  EXPECT_EQ(remove_ok, 1);
  lead = group().leader_id();
  ASSERT_GE(lead, 0);
  EXPECT_EQ(group().replica(lead).config().size(), 5u);
  // Client ops still commit through the same list after both changes.
  EXPECT_EQ(submit_burst(8, "after-config", 300), 8);
}

// A joiner starts with an empty log and learns the chosen prefix the way a
// restarted replica does: heartbeat -> kCatchup -> kChosen, or chunked
// kCatchupBatch messages under the preset's fast catch-up.
TEST_P(PaxosOpPath, JoinerLearnsThePrefixByCatchup) {
  start_cluster();
  ASSERT_GE(cluster->wait_for_leader(), 0);
  EXPECT_EQ(submit_burst(80, "pre", 60), 80);
  NodeId lead = group().leader_id();
  ASSERT_GE(lead, 0);
  const Replica& leader = group().replica(lead);
  const Slot prefix = leader.commit_index();
  const DataPlaneOptions plane = GetParam()
                                     ? ClusterHarness::data_plane_preset()
                                     : DataPlaneOptions{};
  ASSERT_GT(prefix, plane.catchup_chunk);  // more than one catch-up chunk
  const std::int64_t served_before = leader.catchup_slots_served();

  bool added = false;
  group().add_node(5, [&](bool ok, const std::vector<std::uint8_t>&) {
    added = ok;
  });
  EXPECT_EQ(group().replica(5).commit_index(), 0);
  EXPECT_TRUE(sms[5]->log().empty());
  sim().run_until(sim().now() + 300);
  ASSERT_TRUE(added);
  ASSERT_EQ(group().leader_id(), lead);
  EXPECT_EQ(group().replica(5).config().size(), 6u);
  EXPECT_EQ(group().replica(5).commit_index(), leader.commit_index());
  EXPECT_EQ(sms[5]->log(), sms[lead]->log());
  if (GetParam()) {
    EXPECT_GE(leader.catchup_slots_served() - served_before, prefix);
  }

  // The grown group keeps the joiner in step.
  EXPECT_EQ(submit_burst(8, "post", 300), 8);
  EXPECT_EQ(sms[5]->log(), sms[lead]->log());
}

// A second joiner replays the first join's config, which does not name it,
// on its way to the config that adds it: only a config that drops a member
// makes that member leave.
TEST_P(PaxosOpPath, JoinerReplaysEarlierConfigsAndStays) {
  start_cluster();
  ASSERT_GE(cluster->wait_for_leader(), 0);
  int added = 0;
  auto count = [&added](bool ok, const std::vector<std::uint8_t>&) {
    added += ok ? 1 : 0;
  };
  group().add_node(5, count);
  sim().run_until(sim().now() + 300);
  EXPECT_EQ(submit_burst(80, "mid", 60), 80);
  group().add_node(6, count);
  sim().run_until(sim().now() + 300);
  ASSERT_EQ(added, 2);
  NodeId lead = group().leader_id();
  ASSERT_GE(lead, 0);
  for (NodeId id : {5, 6}) {
    EXPECT_TRUE(group().replica(id).alive()) << "replica " << id;
    EXPECT_EQ(group().replica(id).config().size(), 7u) << "replica " << id;
    EXPECT_EQ(sms[id]->log(), sms[lead]->log()) << "replica " << id;
  }
}

}  // namespace
}  // namespace jupiter::paxos

namespace jupiter::chaos {
namespace {

ChaosOptions data_plane_quick() {
  ChaosOptions opts;
  opts.horizon = kHour;
  opts.fault_events = 8;
  opts.data_plane = true;
  return opts;
}

TEST(DataPlaneChaos, SixteenSeedLeaseSafety) {
  // The full feature set under seeded fault schedules (leaseholder crashes
  // in the mix), with the lease-exclusion and apply-once checkers polling
  // throughout.  Any double-leaseholder or re-applied batch fails here.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ChaosReport report = ChaosRunner(seed, data_plane_quick()).run();
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations.front().detail);
    EXPECT_GT(report.checks_run, 0u) << "seed " << seed;
  }
}

TEST(DataPlaneChaos, SameSeedSameFingerprintWithDataPlane) {
  // Batching and leases must not cost determinism: one seed, two runs,
  // identical fingerprints with the whole data plane enabled.
  ChaosReport a = ChaosRunner(5, data_plane_quick()).run();
  ChaosReport b = ChaosRunner(5, data_plane_quick()).run();
  EXPECT_EQ(a.commands_applied, b.commands_applied);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.lock_digest, b.lock_digest);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace jupiter::chaos
