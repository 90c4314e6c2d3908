// Paxos data-plane throughput guardrail: the pipelined + batched + leased
// data plane vs the plane off, for both classic majority replication and
// RS-Paxos (Mu et al.; paper §5.1.2).
//
// Two drivers per replication policy:
//   * serial — the plane off, one put at a time: wait for the ack, submit
//     the next.  Every op pays a full accept round and the commit latency
//     is the throughput.
//   * closed loop — kClients clients that each resubmit the moment their
//     previous put is acked, against a cluster with the full data plane on
//     (multi-slot pipelining, op batching, leader leases, fast catch-up).
//     Sized to carry ~1e6 ops per simulated hour.
//
// Reported per run: committed ops per simulated second (the protocol-level
// number — how much log the cluster sustains), committed ops per wall
// second (how fast the simulator chews through it), messages per op and
// value bytes per op (batching amortizes the accept round; RS-Paxos shrinks
// the bytes).  After the closed loop, 1000 gets measure the lease fast
// path: reads served by the leaseholder from materialized state with no
// log entry (lease_reads_served delta).
//
// Guardrail (enforced by exit code; ctest runs --smoke):
//   * data-plane committed ops/sim-second >= 10x the serial baseline, for
//     classic AND RS-Paxos.
//
// Run from the build directory:
//   ./bench/bench_perf_paxos [--smoke] [out.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "paxos/harness.hpp"
#include "storage/kv_store.hpp"

using namespace jupiter;
using namespace jupiter::paxos;

namespace {

constexpr int kClients = 800;            // closed-loop multiprogramming level
constexpr std::size_t kClassicValue = 64;    // lock-service sized commands
constexpr std::size_t kRsValue = 4096;       // storage-service sized commands

// detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
double seconds_between(std::chrono::steady_clock::time_point a,
                       // detlint: allow(banned-time) — wall-clock benchmark timing
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

QuorumPolicy rs_policy() {
  QuorumPolicy rs;
  rs.kind = QuorumPolicy::Kind::kRsPaxos;
  rs.rs_m = 3;
  return rs;
}

ClusterHarness::Options cluster_options(QuorumPolicy policy, bool data_plane,
                                        std::uint64_t seed) {
  ClusterHarness::Options o;
  o.replica.policy = policy;
  if (data_plane) {
    // Full-size data plane (the chaos preset shrinks these so faults land
    // inside windows; throughput wants the defaults).
    DataPlaneOptions plane;
    plane.pipeline = true;
    plane.batching = true;
    plane.leases = true;
    plane.fast_catchup = true;
    o.replica.plane = plane;
  }
  o.net_seed = seed;
  o.group_seed = seed + 1;
  o.settle = 120;  // first election settles before the clock starts
  return o;
}

Group::SmFactory kv_factory() {
  return [](NodeId) { return std::make_unique<storage::KvStoreState>(); };
}

struct RunStats {
  std::int64_t committed = 0;
  std::int64_t failed = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  std::uint64_t messages = 0;
  std::uint64_t value_bytes = 0;

  double ops_per_sim_sec() const {
    return sim_seconds > 0 ? static_cast<double>(committed) / sim_seconds : 0;
  }
  double ops_per_wall_sec() const {
    return wall_seconds > 0 ? static_cast<double>(committed) / wall_seconds
                            : 0;
  }
  double msgs_per_op() const {
    return committed > 0
               ? static_cast<double>(messages) / static_cast<double>(committed)
               : 0;
  }
  double bytes_per_op() const {
    return committed > 0 ? static_cast<double>(value_bytes) /
                               static_cast<double>(committed)
                         : 0;
  }
};

/// Seed-protocol client pattern: one op in flight, ever.
RunStats run_serial(QuorumPolicy policy, std::size_t value_size, int ops,
                    std::uint64_t seed) {
  ClusterHarness cluster(cluster_options(policy, false, seed), kv_factory());
  cluster.wait_for_leader();
  storage::KvClient client(cluster.group);

  RunStats r;
  SimTime sim0 = cluster.sim.now();
  std::uint64_t m0 = cluster.net.messages_sent();
  std::uint64_t b0 = cluster.net.value_bytes_sent();
  // detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    bool done = false;
    bool ok = false;
    client.put("k" + std::to_string(i),
               std::vector<std::uint8_t>(value_size, 0xAB),
               [&done, &ok](storage::KvResponse resp) {
                 done = true;
                 ok = resp.status == storage::KvStatus::kOk;
               });
    while (!done && cluster.sim.step()) {
    }
    if (ok) {
      ++r.committed;
    } else {
      ++r.failed;
    }
  }
  // detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
  auto t1 = std::chrono::steady_clock::now();
  r.sim_seconds = static_cast<double>(cluster.sim.now() - sim0);
  r.wall_seconds = seconds_between(t0, t1);
  r.messages = cluster.net.messages_sent() - m0;
  r.value_bytes = cluster.net.value_bytes_sent() - b0;
  return r;
}

/// Closed-loop data-plane run; also measures the lease read fast path once
/// the write load drains.
RunStats run_closed_loop(QuorumPolicy policy, std::size_t value_size,
                         TimeDelta horizon, std::uint64_t seed,
                         std::int64_t* lease_reads, int* lease_read_probes) {
  ClusterHarness cluster(cluster_options(policy, true, seed), kv_factory());
  cluster.wait_for_leader();
  storage::KvClient client(cluster.group);

  RunStats r;
  SimTime start = cluster.sim.now();
  SimTime end = start + horizon;
  std::uint64_t m0 = cluster.net.messages_sent();
  std::uint64_t b0 = cluster.net.value_bytes_sent();

  // Each client owns one key and resubmits the instant its ack lands; the
  // leader's flush coalesces whatever arrived together into one slot.
  std::function<void(int)> pump = [&](int c) {
    if (cluster.sim.now() >= end) return;
    client.put("c" + std::to_string(c),
               std::vector<std::uint8_t>(value_size, 0x5A),
               [&, c](storage::KvResponse resp) {
                 if (cluster.sim.now() < end) {
                   if (resp.status == storage::KvStatus::kOk) {
                     ++r.committed;
                   } else {
                     ++r.failed;
                   }
                 }
                 pump(c);
               });
  };
  // detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
  auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) pump(c);
  cluster.sim.run_until(end);
  // detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
  auto t1 = std::chrono::steady_clock::now();
  r.sim_seconds = static_cast<double>(horizon);
  r.wall_seconds = seconds_between(t0, t1);
  r.messages = cluster.net.messages_sent() - m0;
  r.value_bytes = cluster.net.value_bytes_sent() - b0;

  // Lease fast path: drain the in-flight tail, then issue gets.  With the
  // leader quiescent and its lease renewed by heartbeats, every get should
  // be served locally — no log entry, no accept round.
  cluster.sim.run_until(end + 60);
  NodeId lead = cluster.group.leader_id();
  std::int64_t lr0 =
      lead >= 0 ? cluster.group.replica(lead).lease_reads_served() : 0;
  const int probes = 1000;
  for (int i = 0; i < probes; ++i) {
    bool done = false;
    client.get("c" + std::to_string(i % kClients),
               [&done](storage::KvResponse) { done = true; });
    while (!done && cluster.sim.step()) {
    }
  }
  lead = cluster.group.leader_id();
  *lease_reads =
      (lead >= 0 ? cluster.group.replica(lead).lease_reads_served() : 0) - lr0;
  *lease_read_probes = probes;
  return r;
}

void print_run(const char* name, const RunStats& r) {
  std::printf(
      "  %-18s committed %8lld (%lld failed) in %8.0f sim-s / %6.3f wall-s"
      "  ->  %8.2f ops/sim-s  %8.0f ops/wall-s  %6.1f msgs/op  %8.0f B/op\n",
      name, static_cast<long long>(r.committed),
      static_cast<long long>(r.failed), r.sim_seconds, r.wall_seconds,
      r.ops_per_sim_sec(), r.ops_per_wall_sec(), r.msgs_per_op(),
      r.bytes_per_op());
}

void json_run(std::FILE* f, const char* name, const RunStats& r,
              const char* trailing_comma) {
  std::fprintf(
      f,
      "    \"%s\": {\"committed\": %lld, \"failed\": %lld, "
      "\"sim_seconds\": %.0f, \"wall_seconds\": %.4f, "
      "\"ops_per_sim_sec\": %.3f, \"ops_per_wall_sec\": %.0f, "
      "\"messages_per_op\": %.2f, \"value_bytes_per_op\": %.1f}%s\n",
      name, static_cast<long long>(r.committed),
      static_cast<long long>(r.failed), r.sim_seconds, r.wall_seconds,
      r.ops_per_sim_sec(), r.ops_per_wall_sec(), r.msgs_per_op(),
      r.bytes_per_op(), trailing_comma);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_paxos_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int serial_ops = smoke ? 400 : 2000;
  const TimeDelta horizon = smoke ? 10 * kMinute : kHour;

  std::printf(
      "paxos data plane: 5 nodes, %d closed-loop clients, %lld sim-s "
      "horizon%s\n",
      kClients, static_cast<long long>(horizon), smoke ? " (smoke)" : "");

  RunStats serial_classic = run_serial(QuorumPolicy{}, kClassicValue,
                                       serial_ops, 41);
  print_run("serial classic", serial_classic);
  RunStats serial_rs = run_serial(rs_policy(), kRsValue, serial_ops, 42);
  print_run("serial RS-Paxos", serial_rs);

  std::int64_t lease_reads_classic = 0, lease_reads_rs = 0;
  int probes_classic = 0, probes_rs = 0;
  RunStats dp_classic =
      run_closed_loop(QuorumPolicy{}, kClassicValue, horizon, 43,
                      &lease_reads_classic, &probes_classic);
  print_run("pipeline classic", dp_classic);
  RunStats dp_rs = run_closed_loop(rs_policy(), kRsValue, horizon, 44,
                                   &lease_reads_rs, &probes_rs);
  print_run("pipeline RS-Paxos", dp_rs);

  double speedup_classic =
      serial_classic.ops_per_sim_sec() > 0
          ? dp_classic.ops_per_sim_sec() / serial_classic.ops_per_sim_sec()
          : 0;
  double speedup_rs = serial_rs.ops_per_sim_sec() > 0
                          ? dp_rs.ops_per_sim_sec() / serial_rs.ops_per_sim_sec()
                          : 0;
  bool classic_ok = speedup_classic >= 10.0;
  bool rs_ok = speedup_rs >= 10.0;
  std::printf(
      "  speedup (ops/sim-s): classic %.1fx, RS-Paxos %.1fx (floor 10x) — "
      "%s\n",
      speedup_classic, speedup_rs, classic_ok && rs_ok ? "PASS" : "FAIL");
  std::printf(
      "  lease fast path: classic %lld/%d gets served locally, RS-Paxos "
      "%lld/%d\n",
      static_cast<long long>(lease_reads_classic), probes_classic,
      static_cast<long long>(lease_reads_rs), probes_rs);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\n"
               "  \"workload\": {\"nodes\": 5, \"clients\": %d, "
               "\"serial_ops\": %d, \"horizon_sim_seconds\": %lld, "
               "\"classic_value_bytes\": %zu, \"rs_value_bytes\": %zu, "
               "\"smoke\": %s},\n"
               "  \"serial\": {\n",
               kClients, serial_ops, static_cast<long long>(horizon),
               kClassicValue, kRsValue, smoke ? "true" : "false");
  json_run(f, "classic", serial_classic, ",");
  json_run(f, "rs_paxos", serial_rs, "");
  std::fprintf(f, "  },\n  \"data_plane\": {\n");
  json_run(f, "classic", dp_classic, ",");
  json_run(f, "rs_paxos", dp_rs, "");
  std::fprintf(
      f,
      "  },\n"
      "  \"lease_reads\": {\"classic_served\": %lld, \"rs_served\": %lld, "
      "\"probes\": %d},\n"
      "  \"speedup\": {\"classic\": %.3f, \"rs_paxos\": %.3f},\n"
      "  \"guardrails\": {\"min_speedup\": 10.0, \"pass\": %s}\n"
      "}\n",
      static_cast<long long>(lease_reads_classic),
      static_cast<long long>(lease_reads_rs), probes_classic, speedup_classic,
      speedup_rs, classic_ok && rs_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return classic_ok && rs_ok ? 0 : 1;
}
