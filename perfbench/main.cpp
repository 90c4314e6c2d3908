// perfbench: runs one named workload and prints its metrics as the last line
// of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--source-digest <hex>]
//
// Exit status 0 when every pass passed its output check, 1 when a check
// failed (the result line then carries no metrics), 2 on a usage error.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "ec/cpu_dispatch.hpp"
#include "harness.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_replay|fleet_week|lock_paxos|kv_rs_paxos> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               why);
  return 2;
}

/// JSON string literal for the plain ASCII names and messages used here.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_sha = "unknown", source_digest = "unknown";
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || seconds <= 0) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      trace = val[0] - '0';
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else if (arg == "--source-digest") {
      source_digest = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (seconds <= 0 || trace < 0) {
    return usage("--seconds and --trace are required");
  }

  std::unique_ptr<Workload> w;
  if (workload == "paper_replay") {
    w = make_paper_replay(seed);
  } else if (workload == "fleet_week") {
    w = make_fleet_week(seed);
  } else if (workload == "lock_paxos") {
    w = make_lock_paxos(seed);
  } else if (workload == "kv_rs_paxos") {
    w = make_kv_rs_paxos(seed);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  // The default WARNING threshold writes thousands of "bidder fallback
  // engaged" lines from inside the timed fleet code.
  jupiter::set_log_level(jupiter::LogLevel::kError);

  RunOptions opts;
  opts.seconds = seconds;
  opts.trace = trace == 1;
  RunReport rep = drive(*w, opts);

  std::printf(
      "# meta {\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"passes\": %d, \"git_sha\": %s, \"source_digest\": %s, "
      "\"nproc\": %u, \"pool_threads\": %zu, \"build_type\": %s, "
      "\"compiler\": %s, \"gf_tier\": %s}\n",
      quoted(workload).c_str(), seed, trace, rep.passes,
      quoted(git_sha).c_str(), quoted(source_digest).c_str(),
      std::thread::hardware_concurrency(), jupiter::global_pool().size(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_COMPILER).c_str(),
      quoted(jupiter::gf_tier_name(jupiter::gf_active_tier())).c_str());
  if (!rep.correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", rep.why.c_str());
  }

  std::string metrics;
  for (const Metrics::Entry& e : rep.metrics.entries()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(e.name) + ": {\"value\": " + number(e.value) +
               ", \"unit\": " + quoted(e.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": {%s}}\n",
      rep.correct ? "true" : "false", std::max<std::int64_t>(rep.attempted, 1),
      rep.failed, metrics.c_str());
  return rep.correct ? 0 : 1;
}
