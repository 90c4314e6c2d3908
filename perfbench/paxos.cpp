// The two Paxos workloads: lock_paxos (classic majority, LockServiceState)
// and kv_rs_paxos (RS-Paxos theta(3,5), KvStoreState).  Both run a 5-node
// ClusterHarness with the full data plane and drive it open-loop: Poisson
// arrivals drawn from the workload seed, at a fixed rate below capacity.
// Both offer 200 ops/sim-s, 44% of the lowest closed-loop capacity that
// bench_perf_paxos measures for either protocol (450 ops/sim-s), so queues
// stay short and commit latency shows the protocol's cost, not a backlog.
#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>

#include "ec/reed_solomon.hpp"
#include "harness.hpp"
#include "lock/lock_service.hpp"
#include "paxos/harness.hpp"
#include "storage/kv_store.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace jupiter;
using paxos::ClusterHarness;
using paxos::NodeId;

// ---- StateMachine decorator ------------------------------------------------

struct SmTimes {
  double apply_calls = 0;
  double apply_s = 0;
  double chunk_calls = 0;
  double chunk_s = 0;
  double read_s = 0;
};

/// Forwards every call to the wrapped state machine and times it.
class TimedSm final : public paxos::StateMachine {
 public:
  TimedSm(std::unique_ptr<paxos::StateMachine> inner, SmTimes& times)
      : inner_(std::move(inner)), times_(times) {}
  std::vector<std::uint8_t> apply(
      const std::vector<std::uint8_t>& command) override {
    double t0 = wall_now();
    auto out = inner_->apply(command);
    times_.apply_s += wall_now() - t0;
    ++times_.apply_calls;
    return out;
  }
  void apply_chunk(const paxos::Value& value) override {
    double t0 = wall_now();
    inner_->apply_chunk(value);
    times_.chunk_s += wall_now() - t0;
    ++times_.chunk_calls;
  }
  std::optional<std::vector<std::uint8_t>> read(
      const std::vector<std::uint8_t>& query) override {
    double t0 = wall_now();
    auto out = inner_->read(query);
    times_.read_s += wall_now() - t0;
    return out;
  }

 private:
  std::unique_ptr<paxos::StateMachine> inner_;
  SmTimes& times_;
};

// ---- open-loop load ------------------------------------------------------

constexpr int kNodes = 5;

/// One client operation of the schedule.
struct Op {
  std::int64_t due = 0;  ///< sim-seconds after the load starts
  std::uint8_t kind = 0;
  std::uint16_t client = 0;
  std::uint16_t key = 0;
};

/// Poisson arrivals at `rate` ops/sim-second over [0, horizon); `pick` fills
/// each op's kind, client and key.  Sim time has whole seconds only, so an
/// op is due at the second its arrival falls in.
std::vector<Op> poisson_schedule(Rng& rng, double rate, TimeDelta horizon,
                                 const std::function<void(Rng&, Op&)>& pick) {
  std::vector<Op> ops;
  double t = 0;
  for (;;) {
    t += rng.exponential(1.0 / rate);
    if (t >= static_cast<double>(horizon)) break;
    Op op;
    op.due = static_cast<std::int64_t>(t);
    pick(rng, op);
    ops.push_back(op);
  }
  return ops;
}

ClusterHarness::Options cluster_options(paxos::QuorumPolicy policy,
                                        std::uint64_t seed) {
  ClusterHarness::Options o;
  o.nodes = kNodes;
  o.replica.policy = policy;
  paxos::DataPlaneOptions plane;
  plane.pipeline = true;
  plane.batching = true;
  plane.leases = true;
  plane.fast_catchup = true;
  o.replica.plane = plane;
  Rng rng(seed ^ 0xC1057E6ULL);
  o.net_seed = rng();
  o.group_seed = rng();
  return o;
}

/// Shared base of both Paxos workloads: cluster set-up, the arrival
/// events, latency and status accounting, and the paxos/sim layer metrics.
/// Subclasses submit one op and check the replicas' state.
class PaxosWorkload : public Workload {
 public:
  PaxosWorkload(paxos::QuorumPolicy policy, std::uint64_t seed,
                TimeDelta horizon)
      : policy_(policy), seed_(seed), horizon_(horizon) {}

  /// Bootstrap, first election and first lease, then the client sessions and
  /// the arrival events.  A traced pass wraps every state machine in TimedSm.
  void setup(bool traced) override {
    cluster_.reset();
    times_ = SmTimes{};
    inner_.assign(kNodes, nullptr);
    cluster_ = std::make_unique<ClusterHarness>(
        cluster_options(policy_, seed_),
        [this, traced](NodeId id) -> std::unique_ptr<paxos::StateMachine> {
          std::unique_ptr<paxos::StateMachine> sm = make_state_machine();
          inner_[static_cast<std::size_t>(id)] = sm.get();
          if (!traced) return sm;
          return std::make_unique<TimedSm>(std::move(sm), times_);
        });
    Simulator& sim = cluster_->sim;
    NodeId leader = cluster_->wait_for_leader();
    for (int i = 0; i < 60 && leader >= 0 &&
                    !cluster_->group.replica(leader).holds_lease();
         ++i) {
      sim.run_until(sim.now() + 1);
    }
    setup_why_.clear();
    double_acks_ = 0;
    prepare_clients(&setup_why_);
    times_ = SmTimes{};  // the layer times cover the run, not the set-up
    start_ = sim.now();
    latency_.assign(ops_.size(), -1);
    status_.assign(ops_.size(), 0);
    outstanding_ = ops_.size();
    // One arrival event per busy second submits that second's ops.
    for (std::size_t b = 0; b < ops_.size();) {
      std::size_t e = b;
      while (e < ops_.size() && ops_[e].due == ops_[b].due) ++e;
      sim.schedule_at(start_ + ops_[b].due, [this, b, e] {
        for (std::size_t i = b; i < e; ++i) submit(i);
      });
      b = e;
    }
  }

  void run(bool /*traced*/) override {
    double t0 = wall_now();
    Simulator& sim = cluster_->sim;
    sent0_ = cluster_->net.messages_sent();
    bytes0_ = cluster_->net.value_bytes_sent();
    dropped0_ = cluster_->net.messages_dropped();
    lease0_ = lease_reads();
    sim.run_until(start_ + horizon_);
    // Drain: every op is acked or has failed once Group::submit's 600 s
    // deadline has passed.  An op still open after that fails the check.
    SimTime give_up = start_ + horizon_ + 900;
    while (outstanding_ > 0 && sim.now() < give_up && sim.step()) {
    }
    end_ = sim.now();
    run_s_ = wall_now() - t0;
  }

  PassResult finish(bool traced, LayerValues* layers) override {
    PassResult r = account();
    if (r.ok && traced) fill_layers(*layers);
    cluster_.reset();  // free the log outside the timed region
    return r;
  }

 protected:
  static constexpr std::uint8_t kFailed = 0xFF;

  virtual std::unique_ptr<paxos::StateMachine> make_state_machine() = 0;
  /// Opens client sessions and loads initial state; advances the
  /// simulator.  Returns false, with the reason, if that did not succeed.
  virtual bool prepare_clients(std::string* why) = 0;
  /// Submits ops_[i]; its completion calls done(i, status).
  virtual void submit(std::size_t i) = 0;
  virtual bool is_read(const Op& op) const = 0;
  /// Compares the replicas' state; folds the leader's state into `d`.
  virtual bool check_replicas(NodeId lead, Digest& d, std::string* why) = 0;
  virtual void service_layers(LayerValues& m, const SmTimes& t,
                              NodeId lead) = 0;

  /// Runs the simulator in 1 s steps until `count` reaches `want`, at most
  /// 120 sim-seconds.  Returns whether it did.
  bool settle(const int& count, int want) {
    Simulator& sim = cluster_->sim;
    for (int i = 0; i < 120 && count < want; ++i) sim.run_until(sim.now() + 1);
    return count >= want;
  }

  void done(std::size_t i, std::uint8_t status) {
    if (latency_[i] >= 0) {  // a second ack for the same op
      ++double_acks_;
      return;
    }
    latency_[i] = cluster_->sim.now() - (start_ + ops_[i].due);
    status_[i] = status;
    --outstanding_;
  }

  paxos::QuorumPolicy policy_;
  std::uint64_t seed_;
  TimeDelta horizon_;
  std::vector<Op> ops_;
  std::unique_ptr<ClusterHarness> cluster_;
  std::vector<paxos::StateMachine*> inner_;  ///< undecorated, by node id

 private:
  PassResult account() {
    PassResult r;
    r.ok = false;
    if (!setup_why_.empty()) {
      r.why = "set-up: " + setup_why_;
      return r;
    }
    // Every op must be acked exactly once, and none may fail: the rate is
    // below capacity, so a failed op is a fault, not load.
    if (double_acks_ > 0) {
      r.why = std::to_string(double_acks_) + " acks for already-acked ops";
      return r;
    }
    Digest d;
    std::vector<std::int64_t> commit_lat;
    committed_ = reads_ = 0;
    std::int64_t failed = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (latency_[i] < 0) {
        r.why = "op " + std::to_string(i) + " was never acked";
        return r;
      }
      d.add(static_cast<std::uint64_t>(latency_[i]));
      d.add(status_[i]);
      if (status_[i] == kFailed) {
        ++failed;
      } else if (is_read(ops_[i])) {
        ++reads_;
      } else {
        ++committed_;
        commit_lat.push_back(latency_[i]);
      }
    }
    if (failed > 0) {
      r.why = std::to_string(failed) + " of " + std::to_string(ops_.size()) +
              " ops failed";
      return r;
    }
    r.ok = true;
    // Let every replica learn and apply the log's tail before comparing.
    cluster_->sim.run_until(cluster_->sim.now() + 30);
    leader_ = cluster_->group.leader_id();
    if (leader_ < 0) {
      r.ok = false;
      r.why = "no leader after the run";
      return r;
    }
    if (!check_replicas(leader_, d, &r.why)) {
      r.ok = false;
      return r;
    }
    d.add(cluster_->net.messages_sent() - sent0_);
    d.add(cluster_->net.value_bytes_sent() - bytes0_);
    r.digest = d.value();
    r.attempted = static_cast<std::int64_t>(ops_.size());
    r.ops = static_cast<double>(committed_);
    r.service_weeks = static_cast<double>(horizon_) / kWeek;
    r.commit_p50_sim_s = interpolated_quantile(commit_lat, 0.50);
    r.commit_p99_sim_s = interpolated_quantile(commit_lat, 0.99);
    return r;
  }

  void fill_layers(LayerValues& m) {
    Simulator::CoreStats core = cluster_->sim.core_stats();
    auto per_op = [&](std::uint64_t v) {
      return committed_ > 0
                 ? static_cast<double>(v) / static_cast<double>(committed_)
                 : 0;
    };
    std::int64_t lease_served = lease_reads() - lease0_;
    auto events = static_cast<double>(core.dispatched);
    m["sim.events"] = events;
    m["sim.events_per_s"] = run_s_ > 0 ? events / run_s_ : 0;
    m["sim.peak_pending"] = static_cast<double>(core.peak_pending);
    m["sim.engine_allocs"] = static_cast<double>(core.engine_allocs);
    m["paxos.msgs_per_op"] = per_op(cluster_->net.messages_sent() - sent0_);
    m["paxos.value_bytes_per_op"] =
        per_op(cluster_->net.value_bytes_sent() - bytes0_);
    m["paxos.msgs_dropped"] =
        static_cast<double>(cluster_->net.messages_dropped() - dropped0_);
    m["paxos.lease_read_share"] = ratio(static_cast<double>(lease_served),
                                        static_cast<double>(reads_));
    m["paxos.ops_per_sim_s"] = ratio(static_cast<double>(committed_ + reads_),
                                     static_cast<double>(end_ - start_));
    service_layers(m, times_, leader_);
  }

  /// Reads served under a lease, summed over replicas (leadership may move).
  std::int64_t lease_reads() {
    std::int64_t n = 0;
    for (NodeId id : cluster_->group.node_ids()) {
      n += cluster_->group.replica(id).lease_reads_served();
    }
    return n;
  }

  SmTimes times_;
  std::string setup_why_;  ///< why prepare_clients() failed, if it did
  std::int64_t double_acks_ = 0;
  NodeId leader_ = -1;  ///< after the run
  SimTime start_;
  SimTime end_;
  double run_s_ = 0;
  std::vector<std::int64_t> latency_;
  std::vector<std::uint8_t> status_;
  std::size_t outstanding_ = 0;
  std::int64_t committed_ = 0;
  std::int64_t reads_ = 0;
  std::uint64_t sent0_ = 0, bytes0_ = 0, dropped0_ = 0;
  std::int64_t lease0_ = 0;
};

// ---- lock_paxos --------------------------------------------------------

// The request mix of a typical Chubby cell (Burrows, "The Chubby lock service
// for loosely-coupled distributed systems", OSDI 2006, section 4.1):
// KeepAlive 93%, GetStat 2%, Open 1%, CreateSession 1%, GetContentsAndStat
// 0.4%, SetContents 680 ppm, Acquire 31 ppm.  This service has no file
// handles or contents, so Open and SetContents are left out, and GetStat and
// GetContentsAndStat become get_owner reads.  The table has no Release row;
// releases get Acquire's rate, so the number of held locks stays level.
class LockPaxos final : public PaxosWorkload {
 public:
  enum Kind : std::uint8_t {
    kKeepAlive, kGetOwner, kOpenSession, kAcquire, kRelease
  };
  // Weights by Kind: KeepAlive, GetStat + GetContentsAndStat, CreateSession,
  // Acquire, and Release at Acquire's rate.
  static constexpr std::array<double, 5> kMix = {0.93, 0.02 + 0.004, 0.01,
                                                 31e-6, 31e-6};
  static constexpr double kRate = 200;  // ops per sim-second
  static constexpr TimeDelta kHorizon = 60;
  // A Chubby client sends about one KeepAlive per 12 s session lease (the
  // default lease extension), so kRate ops/s come from this many sessions.
  static constexpr int kSessions =
      static_cast<int>(kMix[kKeepAlive] * kRate * 12);
  // The cell held 1k exclusive locks for 22k direct clients.  Here every
  // lock path is held from set-up on, one per 22 sessions.
  static constexpr int kPaths = kSessions / 22;
  // Longer than any run, so no session ever lapses and kExpired can only
  // mean a failed submission.
  static constexpr std::int64_t kLease = 7 * 24 * 3600;

  explicit LockPaxos(std::uint64_t seed)
      : PaxosWorkload(paxos::QuorumPolicy{}, seed, kHorizon) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    ops_ = poisson_schedule(rng, kRate, kHorizon, [](Rng& r, Op& op) {
      op.kind = static_cast<std::uint8_t>(r.categorical(kMix));
      op.client = static_cast<std::uint16_t>(r.below(kSessions));
      op.key = static_cast<std::uint16_t>(r.below(kPaths));
    });
    for (int p = 0; p < kPaths; ++p) {
      paths_.push_back("/ls/cell/lock-" + std::to_string(p));
    }
  }

 private:
  std::unique_ptr<paxos::StateMachine> make_state_machine() override {
    return std::make_unique<lock::LockServiceState>();
  }

  /// Opens every session, then has session p acquire lock path p.
  bool prepare_clients(std::string* why) override {
    clients_.clear();
    held_.assign(kSessions, {});
    acquires_ = contended_ = 0;
    ready_ = 0;
    auto count_ok = [this](lock::LockResponse resp) {
      if (resp.status == lock::LockStatus::kOk) ++ready_;
    };
    for (int s = 0; s < kSessions; ++s) {
      clients_.push_back(std::make_unique<lock::LockClient>(
          cluster_->group, cluster_->sim, "session-" + std::to_string(s),
          kLease));
      clients_.back()->open_session(count_ok);
    }
    if (!settle(ready_, kSessions)) {
      *why = std::to_string(ready_) + " of " + std::to_string(kSessions) +
             " sessions opened";
      return false;
    }
    ready_ = 0;
    for (int p = 0; p < kPaths; ++p) {
      clients_[static_cast<std::size_t>(p)]->acquire(paths_[p], count_ok);
      held_[static_cast<std::size_t>(p)].push_back(
          static_cast<std::uint16_t>(p));
    }
    if (!settle(ready_, kPaths)) {
      *why = std::to_string(ready_) + " of " + std::to_string(kPaths) +
             " initial locks acquired";
      return false;
    }
    return true;
  }

  void submit(std::size_t i) override {
    const Op& op = ops_[i];
    lock::LockClient& c = *clients_[op.client];
    // A release gives up the session's oldest lock, if it holds one.
    std::uint16_t key = op.key;
    std::deque<std::uint16_t>& held = held_[op.client];
    if (op.kind == kRelease && !held.empty()) {
      key = held.front();
      held.pop_front();
    }
    const std::string& path = paths_[key];
    auto cb = [this, i, key](lock::LockResponse resp) {
      if (resp.status == lock::LockStatus::kExpired) {
        done(i, kFailed);
        return;
      }
      if (ops_[i].kind == kAcquire) {
        ++acquires_;
        if (resp.status == lock::LockStatus::kHeldByOther) ++contended_;
        if (resp.status == lock::LockStatus::kOk) {
          held_[ops_[i].client].push_back(key);
        }
      }
      done(i, static_cast<std::uint8_t>(resp.status));
    };
    switch (op.kind) {
      case kKeepAlive: c.keep_alive(cb); break;
      case kGetOwner: c.get_owner(path, cb); break;
      case kOpenSession: c.open_session(cb); break;
      case kAcquire: c.acquire(path, cb); break;
      default: c.release(path, cb); break;
    }
  }

  bool is_read(const Op& op) const override { return op.kind == kGetOwner; }

  bool check_replicas(NodeId lead, Digest& d, std::string* why) override {
    auto digest = [&](std::size_t id) {
      return static_cast<const lock::LockServiceState*>(inner_[id])
          ->state_digest();
    };
    std::uint64_t want = digest(static_cast<std::size_t>(lead));
    for (std::size_t id = 0; id < inner_.size(); ++id) {
      if (digest(id) != want) {
        *why = "replica " + std::to_string(id) +
               " lock table differs from the leader's";
        return false;
      }
    }
    d.add(want);
    d.add(static_cast<std::uint64_t>(contended_));
    return true;
  }

  void service_layers(LayerValues& m, const SmTimes& t,
                      NodeId /*lead*/) override {
    m["lock.apply_calls"] = t.apply_calls;
    m["lock.apply_s"] = t.apply_s;
    m["lock.read_s"] = t.read_s;
    m["lock.contended_share"] = ratio(static_cast<double>(contended_),
                                      static_cast<double>(acquires_));
  }

  std::vector<std::string> paths_;
  std::vector<std::unique_ptr<lock::LockClient>> clients_;
  std::vector<std::deque<std::uint16_t>> held_;  ///< per session, oldest first
  int ready_ = 0;  ///< set-up commands acked kOk
  std::int64_t acquires_ = 0;
  std::int64_t contended_ = 0;
};

// ---- kv_rs_paxos -------------------------------------------------------

/// Zipfian ranks: rank k in [0, n) has weight 1 / (k + 1)^theta.
class Zipf {
 public:
  Zipf(int n, double theta) : cdf_(static_cast<std::size_t>(n)) {
    double acc = 0;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[k] = acc;
    }
  }
  std::size_t operator()(Rng& rng) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(),
                               rng.uniform() * cdf_.back());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// YCSB core workload A, "update heavy" (Cooper et al., "Benchmarking Cloud
// Serving Systems with YCSB", SoCC 2010): 50% reads and 50% updates, keys
// drawn Zipfian with constant 0.99 over 1000 records, all loaded before the
// run.  Values are 4 KiB instead of YCSB's 1 KB, the value size that
// bench_perf_paxos measures RS-Paxos with.
class KvRsPaxos final : public PaxosWorkload {
 public:
  enum Kind : std::uint8_t { kPut, kGet };
  static constexpr int kKeys = 1000;
  static constexpr double kZipfTheta = 0.99;
  static constexpr std::size_t kValueBytes = 4096;
  static constexpr double kRate = 200;  // ops per sim-second
  static constexpr TimeDelta kHorizon = 120;
  static constexpr int kDataChunks = 3;

  explicit KvRsPaxos(std::uint64_t seed)
      : PaxosWorkload(rs_policy(), seed, kHorizon) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 2);
    Zipf zipf(kKeys, kZipfTheta);
    ops_ = poisson_schedule(rng, kRate, kHorizon, [&zipf](Rng& r, Op& op) {
      op.kind = r.bernoulli(0.5) ? kPut : kGet;
      op.key = static_cast<std::uint16_t>(zipf(r));
    });
    for (int k = 0; k < kKeys; ++k) keys_.push_back("key-" + std::to_string(k));
  }

 private:
  static paxos::QuorumPolicy rs_policy() {
    paxos::QuorumPolicy p;
    p.kind = paxos::QuorumPolicy::Kind::kRsPaxos;
    p.rs_m = kDataChunks;
    return p;
  }

  std::unique_ptr<paxos::StateMachine> make_state_machine() override {
    return std::make_unique<storage::KvStoreState>();
  }

  /// YCSB's load phase: one put per key.
  bool prepare_clients(std::string* why) override {
    client_ = std::make_unique<storage::KvClient>(cluster_->group);
    loaded_ = 0;
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      client_->put(keys_[k], value_of(ops_.size() + k),
                   [this](storage::KvResponse resp) {
                     if (resp.status == storage::KvStatus::kOk) ++loaded_;
                   });
    }
    if (!settle(loaded_, kKeys)) {
      *why = std::to_string(loaded_) + " of " + std::to_string(kKeys) +
             " records loaded";
      return false;
    }
    return true;
  }

  /// A 4 KiB value whose first 8 bytes name it: ops_[i] writes value_of(i),
  /// the load phase value_of(ops_.size() + key).
  static std::vector<std::uint8_t> value_of(std::size_t i) {
    std::vector<std::uint8_t> v(kValueBytes, static_cast<std::uint8_t>(i));
    for (std::size_t b = 0; b < 8; ++b) {
      v[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    return v;
  }

  void submit(std::size_t i) override {
    const Op& op = ops_[i];
    auto cb = [this, i](storage::KvResponse resp) {
      done(i, resp.status == storage::KvStatus::kError
                  ? kFailed
                  : static_cast<std::uint8_t>(resp.status));
    };
    if (op.kind == kPut) {
      client_->put(keys_[op.key], value_of(i), cb);
    } else {
      client_->get(keys_[op.key], cb);
    }
  }

  bool is_read(const Op& op) const override { return op.kind == kGet; }

  const storage::KvStoreState& state(NodeId id) const {
    return *static_cast<const storage::KvStoreState*>(
        inner_[static_cast<std::size_t>(id)]);
  }

  /// Rebuilds the store from three followers' chunk logs: RS-decodes every
  /// chosen command or batch in slot order and applies its ops to `out`.
  /// (KvStoreState::reconstruct_into decodes each chunk set as a single
  /// command, so it cannot read the batched values the data plane writes.)
  bool reconstruct(const std::vector<NodeId>& followers,
                   storage::KvStoreState& out, std::string* why) const {
    const paxos::Replica& ref = cluster_->group.replica(followers.front());
    for (paxos::Slot s = 0; s < ref.commit_index(); ++s) {
      const paxos::Value* v = ref.chosen_value(s);
      if (v == nullptr) {
        *why = "follower misses chosen slot " + std::to_string(s);
        return false;
      }
      if (v->kind != paxos::ValueKind::kCommand &&
          v->kind != paxos::ValueKind::kBatch) {
        continue;
      }
      std::vector<std::pair<int, Chunk>> have;
      int rs_n = 0;
      std::uint32_t full_size = 0;
      for (NodeId f : followers) {
        const auto& chunks = state(f).chunks();
        auto it = chunks.find(v->value_id);
        if (it == chunks.end()) continue;
        have.emplace_back(it->second.chunk_index, it->second.bytes);
        rs_n = it->second.rs_n;
        full_size = it->second.full_size;
      }
      if (static_cast<int>(have.size()) < kDataChunks) {
        *why = "fewer than 3 chunks for slot " + std::to_string(s);
        return false;
      }
      auto data =
          ReedSolomon::shared(kDataChunks, rs_n).decode(have, full_size);
      if (!data) {
        *why = "RS decode failed for slot " + std::to_string(s);
        return false;
      }
      if (v->kind == paxos::ValueKind::kBatch) {
        for (const auto& op : paxos::decode_batch(*data)) out.apply(op);
      } else {
        out.apply(*data);
      }
    }
    return true;
  }

  bool check_replicas(NodeId lead, Digest& d, std::string* why) override {
    std::vector<NodeId> followers;
    for (NodeId id = 0; id < kNodes && followers.size() < kDataChunks; ++id) {
      if (id != lead) followers.push_back(id);
    }
    storage::KvStoreState rebuilt;
    if (!reconstruct(followers, rebuilt, why)) return false;
    const storage::KvStoreState& leader = state(lead);
    if (rebuilt.keys() != leader.keys()) {
      *why = "store rebuilt from 3 followers has " +
             std::to_string(rebuilt.keys()) + " keys, the leader " +
             std::to_string(leader.keys());
      return false;
    }
    for (const std::string& k : keys_) {
      auto want = leader.get(k);
      if (rebuilt.get(k) != want) {
        *why = "store rebuilt from 3 followers differs at " + k;
        return false;
      }
      d.add(k);
      if (want) d.add(std::string(want->begin(), want->begin() + 8));
    }
    return true;
  }

  void service_layers(LayerValues& m, const SmTimes& t, NodeId lead) override {
    m["storage.apply_s"] = t.apply_s;
    m["storage.apply_chunk_calls"] = t.chunk_calls;
    m["storage.apply_chunk_s"] = t.chunk_s;
    m["storage.read_s"] = t.read_s;
    // Computed from the followers' chunk logs, not measured inside ec.
    double coded = 0, full = 0, values = 0;
    for (NodeId id = 0; id < kNodes; ++id) {
      if (id == lead) continue;
      coded += static_cast<double>(state(id).chunk_bytes());
      for (const auto& [vid, c] : state(id).chunks()) {
        full += c.full_size;
        ++values;
      }
    }
    m["ec.coded_bytes"] = coded;
    m["ec.encode_mb_per_s"] = encode_mb_per_s(
        values > 0 ? static_cast<std::size_t>(full / values) : kValueBytes);
  }

  /// Encode throughput of the shared theta(3,5) coder on payloads of the
  /// run's mean batch size.
  static double encode_mb_per_s(std::size_t payload_bytes) {
    std::vector<std::uint8_t> payload(payload_bytes);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    const ReedSolomon& rs = ReedSolomon::shared(kDataChunks, kNodes);
    double bytes = 0;
    double t0 = wall_now();
    double dt = 0;
    while (dt < 0.1) {
      for (int k = 0; k < 16; ++k) {
        auto chunks = rs.encode(payload);
        bytes += static_cast<double>(payload.size());
        payload[0] ^= chunks.back()[0];
      }
      dt = wall_now() - t0;
    }
    return bytes / dt / 1e6;
  }

  std::vector<std::string> keys_;
  std::unique_ptr<storage::KvClient> client_;
  int loaded_ = 0;  ///< load-phase puts acked kOk
};

}  // namespace

std::unique_ptr<Workload> make_lock_paxos(std::uint64_t seed) {
  return std::make_unique<LockPaxos>(seed);
}

std::unique_ptr<Workload> make_kv_rs_paxos(std::uint64_t seed) {
  return std::make_unique<KvRsPaxos>(seed);
}

}  // namespace perfbench
