// The benchmark harness: runs one workload for a fixed wall budget, times its
// set-up and its passes from outside, and reports end-to-end or per-layer
// metrics as one JSON line.
//
// Every layer is measured from the benchmark's own code: decorators around
// the library's public interfaces (BiddingStrategy::decide, the Paxos
// StateMachine), counters the library already exposes (Simulator::core_stats,
// SimNetwork), getrusage deltas, and timers inside the benchmark's own
// parallel_for bodies.  Nothing under src/ is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
double wall_now();

/// Process resource usage (getrusage RUSAGE_SELF).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double ctx_switches_vol = 0;
  double max_rss_mb = 0;
};
Usage usage_now();

/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b != 0 ? a / b : 0; }

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Nearest-rank quantile of `v`, q in [0, 1] (0 for an empty vector).
double quantile(std::vector<double> v, double q);

/// Quantile of integer-second samples, read off their histogram with each
/// one-second bin [k, k+1) taken as uniformly filled.  Simulated time only
/// has whole seconds; the interpolation turns the bin counts into a value
/// that still moves when the distribution inside a bin edge moves.
double interpolated_quantile(std::vector<std::int64_t> secs, double q);

/// Ordered (name, value, unit) list, printed in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  /// Sets (or overwrites) a metric.
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Per-layer metric values by name; units live in layer_metric_units().
using LayerValues = std::map<std::string, double>;

/// FNV-1a folding helper for result digests.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// What one pass produced, reported after the timed region.
struct PassResult {
  bool ok = true;
  std::string why;            ///< first failed check, when !ok
  std::uint64_t digest = 0;   ///< folds every output the checks cover
  std::int64_t attempted = 0; ///< operations the pass attempted
  std::int64_t failed = 0;    ///< ... and how many of them failed
  double ops = 0;             ///< operations completed (ops_per_s)
  double service_weeks = 0;   ///< simulated service time (service_weeks_per_s)
  double commit_p50_sim_s = 0;
  double commit_p99_sim_s = 0;
};

/// One workload.  drive() calls setup() before every pass (timed as
/// setup_s), run() inside the timed region, and finish() after it.
/// `traced` is the same for all three calls of one pass.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(bool traced) = 0;
  /// The timed work.  `traced` switches on the benchmark's decorators.
  virtual void run(bool traced) = 0;
  /// Checks the pass's outputs and, for a traced pass, fills the per-layer
  /// metrics this workload has (drive() fills proc.* and bench.*).
  virtual PassResult finish(bool traced, LayerValues* layers) = 0;
  /// Traced runs only: extra per-layer measurements made once, after all
  /// passes (e.g. a serial re-run).  `pass_wall_s` is the median wall time of
  /// the untraced passes.
  virtual bool extra_layers(double /*pass_wall_s*/, LayerValues& /*layers*/,
                            std::string* /*why*/) {
    return true;
  }
};

std::unique_ptr<Workload> make_paper_replay(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_week(std::uint64_t seed);
std::unique_ptr<Workload> make_lock_paxos(std::uint64_t seed);
std::unique_ptr<Workload> make_kv_rs_paxos(std::uint64_t seed);

/// Every per-layer metric name with its unit, in report order.  Workloads
/// that do not exercise a layer report it as 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

struct RunOptions {
  double seconds = 10;
  bool trace = false;
};

struct RunReport {
  bool correct = false;
  std::string why;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
  int passes = 0;
};

/// Drives `w` through one untimed warm-up pass, then timed passes until
/// they add up to `opts.seconds` (at least three; a traced run alternates
/// untraced and traced passes, at least one of each).
RunReport drive(Workload& w, const RunOptions& opts);

}  // namespace perfbench
