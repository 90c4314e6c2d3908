#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double wall_now() {
  auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.ctx_switches_vol = static_cast<double>(ru.ru_nvcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double interpolated_quantile(std::vector<std::int64_t> secs, double q) {
  if (secs.empty()) return 0;
  std::sort(secs.begin(), secs.end());
  double target = q * static_cast<double>(secs.size());
  std::size_t i = 0;
  while (i < secs.size()) {
    std::size_t j = i;
    while (j < secs.size() && secs[j] == secs[i]) ++j;
    if (static_cast<double>(j) >= target) {
      double inside = (target - static_cast<double>(i)) /
                      static_cast<double>(j - i);
      return static_cast<double>(secs[i]) + inside;
    }
    i = j;
  }
  return static_cast<double>(secs.back()) + 1.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  add(s.size());
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"core.decide_calls", "count"},
      {"core.decide_s", "s"},
      {"core.decide_s.jupiter", "s"},
      {"core.decide_s.extra", "s"},
      {"core.decide_p50_us.jupiter", "us"},
      {"core.decide_p99_us.jupiter", "us"},
      {"core.cache_hit_rate", "share"},
      {"replay.cells", "count"},
      {"replay.cell_s_sum", "s"},
      {"replay.cell_s_max", "s"},
      {"replay.fanout_efficiency", "share"},
      {"replay.self_s", "s"},
      {"replay.decisions", "count"},
      {"replay.launches", "count"},
      {"replay.out_of_bid", "count"},
      {"market.scenario_s", "s"},
      {"cloud.live_run_s", "s"},
      {"cloud.live_sim_events", "count"},
      {"fleet.events", "count"},
      {"fleet.clearings", "count"},
      {"fleet.decisions", "count"},
      {"fleet.launches", "count"},
      {"fleet.serial_wall_s", "s"},
      {"fleet.parallel_speedup", "x"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.peak_pending", "count"},
      {"sim.engine_allocs", "count"},
      {"paxos.msgs_per_op", "msgs/op"},
      {"paxos.value_bytes_per_op", "B/op"},
      {"paxos.msgs_dropped", "count"},
      {"paxos.lease_read_share", "share"},
      {"paxos.ops_per_sim_s", "ops/sim_s"},
      {"lock.apply_calls", "count"},
      {"lock.apply_s", "s"},
      {"lock.read_s", "s"},
      {"lock.contended_share", "share"},
      {"storage.apply_s", "s"},
      {"storage.apply_chunk_calls", "count"},
      {"storage.apply_chunk_s", "s"},
      {"storage.read_s", "s"},
      {"ec.coded_bytes", "B"},
      {"ec.encode_mb_per_s", "MB/s"},
      {"proc.user_s", "s"},
      {"proc.sys_s", "s"},
      {"proc.minor_faults", "count"},
      {"proc.ctx_switches_vol", "count"},
      {"proc.cpu_util", "share"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kLayers;
}

namespace {

constexpr int kSetupsPerPass = 3;

RunReport failed(RunReport rep, std::string why) {
  rep.correct = false;
  rep.why = std::move(why);
  rep.metrics = Metrics{};
  return rep;
}

}  // namespace

RunReport drive(Workload& w, const RunOptions& opts) {
  RunReport rep;
  std::vector<double> setup_s, wall_plain, cpu_plain, wall_traced;
  std::vector<double> user_traced, sys_traced, faults_traced, ctx_traced;
  LayerValues layers;
  PassResult first;
  double timed = 0;
  const int min_passes = opts.trace ? 2 : 3;

  // Pass 0 warms the heap, caches and lazy set-up.  It is checked like
  // every other pass but not timed.
  for (int pass = 0;; ++pass) {
    bool warmup = pass == 0;
    // A traced run alternates plain and traced passes, so both see the same
    // machine state and their wall-time ratio is the tracing overhead.
    bool traced = opts.trace && !warmup && pass % 2 == 0;
    // Set up several times per pass (each set-up replaces the last), so
    // setup_s is a median over many samples even when passes are few.
    for (int k = 0; k < kSetupsPerPass; ++k) {
      double s0 = wall_now();
      w.setup(traced);
      setup_s.push_back(wall_now() - s0);
    }

    Usage u0 = usage_now();
    double t0 = wall_now();
    w.run(traced);
    double dt = wall_now() - t0;
    Usage u1 = usage_now();

    LayerValues pass_layers;
    PassResult r = w.finish(traced, traced ? &pass_layers : nullptr);
    if (!r.ok) {
      return failed(rep, "pass " + std::to_string(pass) + ": " + r.why);
    }
    if (pass == 0) {
      first = r;
    } else if (r.digest != first.digest) {
      return failed(rep, "pass " + std::to_string(pass) +
                             (traced ? " (traced)" : "") +
                             " gave different outputs than pass 0");
    }
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    rep.passes = pass + 1;

    double user = u1.user_s - u0.user_s;
    double sys = u1.sys_s - u0.sys_s;
    std::fprintf(stderr, "pass %d%s: setup %.6f s, run %.6f s, cpu %.6f s\n",
                 pass, warmup ? " (warm-up)" : traced ? " (traced)" : "",
                 setup_s.back(), dt, user + sys);
    if (warmup) continue;
    timed += dt;
    if (traced) {
      wall_traced.push_back(dt);
      user_traced.push_back(user);
      sys_traced.push_back(sys);
      faults_traced.push_back(u1.minor_faults - u0.minor_faults);
      ctx_traced.push_back(u1.ctx_switches_vol - u0.ctx_switches_vol);
      layers = pass_layers;
    } else {
      wall_plain.push_back(dt);
      cpu_plain.push_back(user + sys);
    }
    if (timed >= opts.seconds && pass >= min_passes) break;
  }

  double wall = median(wall_plain);
  if (opts.trace) {
    std::string why;
    if (!w.extra_layers(wall, layers, &why)) return failed(rep, why);
    double wall_t = median(wall_traced);
    layers["proc.user_s"] = median(user_traced);
    layers["proc.sys_s"] = median(sys_traced);
    layers["proc.minor_faults"] = median(faults_traced);
    layers["proc.ctx_switches_vol"] = median(ctx_traced);
    layers["proc.cpu_util"] =
        ratio(median(user_traced) + median(sys_traced), wall_t);
    layers["bench.trace_overhead_pct"] =
        wall > 0 ? 100.0 * (wall_t / wall - 1.0) : 0;
    // Report every per-layer metric, in the fixed order, 0 when unused.
    for (const auto& [name, unit] : layer_metric_units()) {
      auto it = layers.find(name);
      rep.metrics.set(name, it == layers.end() ? 0 : it->second, unit);
      if (it != layers.end()) layers.erase(it);
    }
    if (!layers.empty()) {
      return failed(rep, "unlisted per-layer metric " + layers.begin()->first);
    }
  } else {
    rep.metrics.set("setup_s", median(setup_s), "s");
    rep.metrics.set("wall_s", wall, "s");
    rep.metrics.set("cpu_s", median(cpu_plain), "s");
    rep.metrics.set("peak_rss_mb", usage_now().max_rss_mb, "MB");
    rep.metrics.set("service_weeks_per_s", ratio(first.service_weeks, wall),
                    "svc_weeks/s");
    rep.metrics.set("ops_per_s", ratio(first.ops, wall), "1/s");
    rep.metrics.set("commit_p50_sim_s", first.commit_p50_sim_s, "sim_s");
    rep.metrics.set("commit_p99_sim_s", first.commit_p99_sim_s, "sim_s");
    rep.metrics.set("acked_op_share",
                    ratio(static_cast<double>(rep.attempted - rep.failed),
                          static_cast<double>(rep.attempted)),
                    "share");
  }
  rep.correct = true;
  return rep;
}

}  // namespace perfbench
