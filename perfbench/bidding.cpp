// The two bidding workloads: paper_replay (the Fig. 5-9 experiments) and
// fleet_week (1000 services bidding into one endogenous market).
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/framework.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "replay/sweep.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace jupiter;

// ---- decide() decorator ----------------------------------------------------

/// Wall time of every decide() call made through one TimedStrategy.
struct DecideLog {
  bool jupiter = false;
  std::vector<double> secs;
  TransientCache::Stats cache;  ///< Jupiter only, read after the run
};

/// Forwards to the wrapped strategy and times each decision.  Holds no
/// other state, so a replay through it makes the same decisions.
class TimedStrategy final : public BiddingStrategy {
 public:
  TimedStrategy(BiddingStrategy& inner, DecideLog& log)
      : inner_(inner), log_(log) {}
  std::string name() const override { return inner_.name(); }
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override {
    double t0 = wall_now();
    StrategyDecision d = inner_.decide(snapshot, now, held);
    log_.secs.push_back(wall_now() - t0);
    return d;
  }

 private:
  BiddingStrategy& inner_;
  DecideLog& log_;
};

// ---- sweeps ------------------------------------------------------------

struct CellTrace {
  DecideLog log;
  double cell_s = 0;
};

struct SweepTrace {
  std::vector<CellTrace> cells;
  double wall_s = 0;
};

/// The same jobs, in the same order, as run_sweep(), fanned out on the same
/// pool, with a timer around every cell and a TimedStrategy around every
/// strategy.  Its cells must equal run_sweep()'s; finish() checks that.
std::vector<SweepCell> traced_sweep(const Scenario& sc, const ServiceSpec& spec,
                                    const SweepOptions& opts, SweepTrace& tr) {
  struct Job {
    bool jupiter = false;
    int extra_nodes = 0;
    double extra_portion = 0;
    TimeDelta interval = kHour;
  };
  std::vector<Job> jobs;
  if (opts.include_jupiter) {
    for (TimeDelta iv : opts.intervals) jobs.push_back(Job{true, 0, 0, iv});
  }
  for (const auto& [m, p] : opts.extras) {
    for (TimeDelta iv : opts.intervals) jobs.push_back(Job{false, m, p, iv});
  }
  std::vector<SweepCell> cells(jobs.size());
  tr.cells.assign(jobs.size(), CellTrace{});
  double t0 = wall_now();
  // Each job writes only its own cells[i] and tr.cells[i].
  parallel_for(global_pool(), jobs.size(), [&](std::size_t i) {
    double c0 = wall_now();
    const Job& job = jobs[i];
    CellTrace& ct = tr.cells[i];
    ReplayConfig cfg = make_replay_config(sc, spec, job.interval);
    if (job.jupiter) {
      OnlineBidder::Options bopts;
      bopts.horizon_minutes = static_cast<int>(job.interval / kMinute);
      bopts.max_nodes = opts.bidder_max_nodes;
      JupiterStrategy strat(sc.book, spec, sc.history_start, bopts);
      TimedStrategy timed(strat, ct.log);
      ct.log.jupiter = true;
      cells[i] = SweepCell{strat.name(), job.interval,
                           replay_strategy(sc.book, timed, cfg)};
      ct.log.cache = strat.cache_stats();
    } else {
      ExtraStrategy strat(spec, job.extra_nodes, job.extra_portion);
      TimedStrategy timed(strat, ct.log);
      cells[i] = SweepCell{strat.name(), job.interval,
                           replay_strategy(sc.book, timed, cfg)};
    }
    ct.cell_s = wall_now() - c0;
  });
  tr.wall_s = wall_now() - t0;
  return cells;
}

// ---- Fig. 5 live run ----------------------------------------------------

struct LiveRun {
  Money cost;
  TimeDelta downtime = 0;
  TimeDelta elapsed = 0;
  int rebids = 0;
  Simulator::CoreStats core;
  double wall_s = 0;
  DecideLog log;
};

/// The Fig. 5 one-week live run: Jupiter through BiddingFramework over
/// CloudProvider, exactly as bench_fig5_feasibility drives it.
LiveRun live_run(const Scenario& sc, const ServiceSpec& spec,
                 std::uint64_t provider_seed, bool traced) {
  LiveRun out;
  double t0 = wall_now();
  Simulator sim;
  CloudProvider provider(sim, sc.book, provider_seed);
  JupiterStrategy strategy(sc.book, spec, sc.history_start,
                           {.horizon_minutes = 60, .max_nodes = 9});
  TimedStrategy timed(strategy, out.log);
  out.log.jupiter = true;
  BiddingStrategy& used = traced ? static_cast<BiddingStrategy&>(timed)
                                 : static_cast<BiddingStrategy&>(strategy);
  BiddingFramework fw(sim, provider, sc.book, used, spec, sc.zones,
                      {.interval = kHour, .lead_time = 700});
  fw.start(sc.replay_start);
  sim.run_until(sc.replay_end);
  out.cost = fw.total_cost();
  out.downtime = fw.downtime_seconds();
  out.elapsed = fw.elapsed_seconds();
  out.rebids = fw.rebids();
  fw.stop();
  out.core = sim.core_stats();
  out.log.cache = strategy.cache_stats();
  out.wall_s = wall_now() - t0;
  return out;
}

// ---- golden tables (EXPERIMENTS.md, kExperimentSeed) --------------------

struct GoldenCell {
  const char* strategy;
  int hours;
  std::int64_t cents;
  double availability;  ///< as the benches print it, 6 decimals
};

// Figures 6 & 7 (lock service, 11 weeks).
const GoldenCell kLockSweep[] = {
    {"Jupiter", 1, 7948, 1.0},          {"Jupiter", 3, 7853, 1.0},
    {"Jupiter", 6, 8395, 1.0},          {"Jupiter", 9, 8950, 1.0},
    {"Jupiter", 12, 9344, 1.0},         {"Extra(0,0.2)", 1, 7362, 1.0},
    {"Extra(0,0.2)", 3, 6436, 0.998755}, {"Extra(0,0.2)", 6, 5844, 0.987978},
    {"Extra(0,0.2)", 9, 5411, 0.968543}, {"Extra(0,0.2)", 12, 5036, 0.936661},
    {"Extra(2,0.2)", 1, 10659, 1.0},    {"Extra(2,0.2)", 3, 9346, 1.0},
    {"Extra(2,0.2)", 6, 8503, 0.995824}, {"Extra(2,0.2)", 9, 7894, 0.985750},
    {"Extra(2,0.2)", 12, 7397, 0.968028},
};
// Figures 8 & 9 (storage service, 11 weeks).
const GoldenCell kStorageSweep[] = {
    {"Jupiter", 1, 33404, 0.999847},     {"Jupiter", 3, 33315, 0.999603},
    {"Jupiter", 6, 24516, 1.0},          {"Jupiter", 9, 22846, 1.0},
    {"Jupiter", 12, 22830, 1.0},         {"Extra(0,0.2)", 1, 24733, 0.974549},
    {"Extra(0,0.2)", 3, 20009, 0.883992}, {"Extra(0,0.2)", 6, 17225, 0.718678},
    {"Extra(0,0.2)", 9, 15514, 0.601290}, {"Extra(0,0.2)", 12, 14139, 0.495951},
    {"Extra(2,0.2)", 1, 36121, 0.994174}, {"Extra(2,0.2)", 3, 29465, 0.955213},
    {"Extra(2,0.2)", 6, 25451, 0.835552}, {"Extra(2,0.2)", 9, 23019, 0.717433},
    {"Extra(2,0.2)", 12, 21176, 0.633036},
};
// Figure 5 (one week, 1 h interval): lock, then storage.
const GoldenCell kFig5Lock[] = {{"Jupiter", 1, 680, 1.0},
                                {"Extra(0,0.1)", 1, 616, 1.0}};
const GoldenCell kFig5Storage[] = {{"Jupiter", 1, 3044, 0.999405},
                                   {"Extra(0,0.1)", 1, 1998, 0.892063}};
// Figure 5 live runs (bench_fig5_feasibility): cents, availability, rounds.
struct GoldenLive {
  std::int64_t cents;
  double availability;
  int rebids;
};
const GoldenLive kLiveLock{756, 0.999600, 169};
const GoldenLive kLiveStorage{3200, 0.999372, 169};

std::int64_t cents(Money m) {
  return std::llround(static_cast<double>(m.micros()) / 1e4);
}

bool same_availability(double got, double want) {
  return std::fabs(got - want) < 5e-7;
}

template <std::size_t N>
bool check_golden(const std::vector<SweepCell>& cells,
                  const GoldenCell (&want)[N],
                  const char* what, std::string* why) {
  if (cells.size() != N) {
    *why = std::string(what) + ": wrong cell count";
    return false;
  }
  for (std::size_t i = 0; i < N; ++i) {
    const SweepCell& c = cells[i];
    const GoldenCell& g = want[i];
    if (c.strategy != g.strategy || c.interval != g.hours * kHour ||
        cents(c.result.cost) != g.cents ||
        !same_availability(c.result.availability(), g.availability)) {
      *why = std::string(what) + ": " + c.strategy + " @" +
             std::to_string(c.interval / kHour) + "h gave " +
             c.result.cost.str() + " / " +
             std::to_string(c.result.availability()) +
             ", EXPERIMENTS.md has cents " + std::to_string(g.cents);
      return false;
    }
  }
  return true;
}

bool check_live(const LiveRun& r, const GoldenLive& g, const char* what,
                std::string* why) {
  double avail = r.elapsed > 0 ? 1.0 - static_cast<double>(r.downtime) /
                                           static_cast<double>(r.elapsed)
                               : 1.0;
  if (cents(r.cost) == g.cents && same_availability(avail, g.availability) &&
      r.rebids == g.rebids) {
    return true;
  }
  *why = std::string(what) + " live run gave " + r.cost.str() + " / " +
         std::to_string(avail) + " / " + std::to_string(r.rebids) + " rounds";
  return false;
}

void fold_cells(Digest& d, const std::vector<SweepCell>& cells) {
  for (const SweepCell& c : cells) {
    d.add(c.strategy);
    d.add(static_cast<std::uint64_t>(c.interval));
    d.add(static_cast<std::uint64_t>(c.result.cost.micros()));
    d.add(static_cast<std::uint64_t>(c.result.downtime));
    d.add(static_cast<std::uint64_t>(c.result.elapsed));
    d.add(static_cast<std::uint64_t>(c.result.decisions));
    d.add(static_cast<std::uint64_t>(c.result.out_of_bid_events));
    d.add(static_cast<std::uint64_t>(c.result.instances_launched));
  }
}

/// Seconds below quorum in each bidding interval that lost quorum.  This is
/// not the length of each outage: IntervalRecord keeps only an interval's
/// total, so an outage across an interval boundary gives two samples and two
/// outages inside one interval give one.
void collect_outages(const std::vector<IntervalRecord>& timeline,
                     std::vector<std::int64_t>& out) {
  for (const IntervalRecord& r : timeline) {
    if (r.downtime > 0) out.push_back(r.downtime);
  }
}

// ---- paper_replay ------------------------------------------------------

/// The Fig. 6-9 sweeps always replay the canonical market (kExperimentSeed),
/// so their dollar tables are checked against EXPERIMENTS.md on every run.
/// The workload seed draws the Fig. 5 week's market and the live runs'
/// provider; at seed 0 those are canonical too and are checked as well.
class PaperReplay final : public Workload {
 public:
  explicit PaperReplay(std::uint64_t seed)
      : scenario_seed_(kExperimentSeed + seed), golden_(seed == 0) {}

  void setup(bool /*traced*/) override {
    global_pool();
    double t0 = wall_now();
    lock11_ = std::make_unique<Scenario>(
        make_scenario(InstanceKind::kM1Small, 13, 11, kExperimentSeed));
    storage11_ = std::make_unique<Scenario>(
        make_scenario(InstanceKind::kM3Large, 13, 11, kExperimentSeed));
    lock1_ = std::make_unique<Scenario>(
        make_scenario(InstanceKind::kM1Small, 13, 1, scenario_seed_));
    storage1_ = std::make_unique<Scenario>(
        make_scenario(InstanceKind::kM3Large, 13, 1, scenario_seed_));
    scenario_s_ = wall_now() - t0;
  }

  void run(bool traced) override {
    SweepOptions fig5;
    fig5.intervals = {kHour};
    fig5.extras = {{0, 0.1}};
    const ServiceSpec lock = ServiceSpec::lock_service();
    const ServiceSpec storage = ServiceSpec::storage_service();
    auto sweep = [&](const Scenario& sc, const ServiceSpec& spec,
                     const SweepOptions& opts, SweepTrace& tr) {
      return traced ? traced_sweep(sc, spec, opts, tr)
                    : run_sweep(sc, spec, opts);
    };
    cells_[0] = sweep(*lock1_, lock, fig5, trace_[0]);
    cells_[1] = sweep(*storage1_, storage, fig5, trace_[1]);
    live_[0] = live_run(*lock1_, lock, scenario_seed_, traced);
    live_[1] = live_run(*storage1_, storage, scenario_seed_, traced);
    cells_[2] = sweep(*lock11_, lock, SweepOptions{}, trace_[2]);
    cells_[3] = sweep(*storage11_, storage, SweepOptions{}, trace_[3]);
  }

  PassResult finish(bool traced, LayerValues* layers) override {
    PassResult r;
    Digest d;
    std::vector<std::int64_t> outages;
    for (const auto& cells : cells_) {
      for (const SweepCell& c : cells) {
        std::string why;
        if (!c.result.internally_consistent(&why)) {
          r.ok = false;
          r.why = c.strategy + " @" + std::to_string(c.interval / kHour) +
                  "h is not internally consistent: " + why;
          return r;
        }
        collect_outages(c.result.timeline, outages);
        r.ops += c.result.decisions;
        r.service_weeks += static_cast<double>(c.result.elapsed) / kWeek;
        ++r.attempted;
      }
      fold_cells(d, cells);
    }
    for (const LiveRun& l : live_) {
      d.add(static_cast<std::uint64_t>(l.cost.micros()));
      d.add(static_cast<std::uint64_t>(l.downtime));
      d.add(static_cast<std::uint64_t>(l.rebids));
      r.ops += l.rebids;
      r.service_weeks += static_cast<double>(l.elapsed) / kWeek;
      ++r.attempted;
    }
    if (!check_goldens(&r.why)) {
      r.ok = false;
      return r;
    }
    r.digest = d.value();
    r.commit_p50_sim_s = interpolated_quantile(outages, 0.50);
    r.commit_p99_sim_s = interpolated_quantile(outages, 0.99);
    if (traced) fill_layers(*layers);
    return r;
  }

 private:
  bool check_goldens(std::string* why) const {
    const ServiceSpec lock = ServiceSpec::lock_service();
    const ServiceSpec storage = ServiceSpec::storage_service();
    if (cents(baseline_cost(lock, 11 * kWeek)) != 40656 ||
        cents(baseline_cost(storage, 11 * kWeek)) != 129360 ||
        cents(baseline_cost(lock, kWeek)) != 3696 ||
        cents(baseline_cost(storage, kWeek)) != 11760) {
      *why = "on-demand baselines differ from EXPERIMENTS.md";
      return false;
    }
    if (golden_ &&
        !(check_golden(cells_[0], kFig5Lock, "Fig. 5 lock", why) &&
          check_golden(cells_[1], kFig5Storage, "Fig. 5 storage", why) &&
          check_live(live_[0], kLiveLock, "Fig. 5 lock", why) &&
          check_live(live_[1], kLiveStorage, "Fig. 5 storage", why))) {
      return false;
    }
    return check_golden(cells_[2], kLockSweep, "Fig. 6/7 lock", why) &&
           check_golden(cells_[3], kStorageSweep, "Fig. 8/9 storage", why);
  }

  void fill_layers(LayerValues& m) const {
    std::vector<double> jupiter_us;
    double decide_s = 0, jupiter_s = 0, extra_s = 0, calls = 0;
    TransientCache::Stats cache;
    auto add_log = [&](const DecideLog& log) {
      for (double s : log.secs) {
        decide_s += s;
        (log.jupiter ? jupiter_s : extra_s) += s;
        if (log.jupiter) jupiter_us.push_back(s * 1e6);
      }
      calls += static_cast<double>(log.secs.size());
      if (log.jupiter) cache += log.cache;
    };
    double cell_sum = 0, cell_max = 0, cell_decide = 0, sweep_wall = 0;
    double cells = 0, decisions = 0, launches = 0, oob = 0;
    for (int k = 0; k < 4; ++k) {
      sweep_wall += trace_[k].wall_s;
      for (const CellTrace& ct : trace_[k].cells) {
        add_log(ct.log);
        cell_sum += ct.cell_s;
        cell_max = std::max(cell_max, ct.cell_s);
        for (double s : ct.log.secs) cell_decide += s;
        ++cells;
      }
      for (const SweepCell& c : cells_[k]) {
        decisions += c.result.decisions;
        launches += c.result.instances_launched;
        oob += c.result.out_of_bid_events;
      }
    }
    double live_s = 0, live_events = 0, peak = 0, allocs = 0;
    for (const LiveRun& l : live_) {
      add_log(l.log);
      live_s += l.wall_s;
      live_events += static_cast<double>(l.core.dispatched);
      peak = std::max(peak, static_cast<double>(l.core.peak_pending));
      allocs += static_cast<double>(l.core.engine_allocs);
    }
    // parallel_for's caller runs cells too, beside the pool's workers.
    double threads = static_cast<double>(global_pool().size() + 1);
    m["core.decide_calls"] = calls;
    m["core.decide_s"] = decide_s;
    m["core.decide_s.jupiter"] = jupiter_s;
    m["core.decide_s.extra"] = extra_s;
    m["core.decide_p50_us.jupiter"] = quantile(jupiter_us, 0.50);
    m["core.decide_p99_us.jupiter"] = quantile(jupiter_us, 0.99);
    m["core.cache_hit_rate"] = cache.hit_rate();
    m["replay.cells"] = cells;
    m["replay.cell_s_sum"] = cell_sum;
    m["replay.cell_s_max"] = cell_max;
    m["replay.fanout_efficiency"] = ratio(cell_sum, sweep_wall * threads);
    m["replay.self_s"] = cell_sum - cell_decide;
    m["replay.decisions"] = decisions;
    m["replay.launches"] = launches;
    m["replay.out_of_bid"] = oob;
    m["market.scenario_s"] = scenario_s_;
    m["cloud.live_run_s"] = live_s;
    m["cloud.live_sim_events"] = live_events;
    m["sim.events"] = live_events;
    m["sim.events_per_s"] = live_s > 0 ? live_events / live_s : 0;
    m["sim.peak_pending"] = peak;
    m["sim.engine_allocs"] = allocs;
  }

  std::uint64_t scenario_seed_;
  bool golden_;
  std::unique_ptr<Scenario> lock11_, storage11_, lock1_, storage1_;
  double scenario_s_ = 0;
  // Fig. 5 lock, Fig. 5 storage, Fig. 6/7 lock, Fig. 8/9 storage.
  std::vector<SweepCell> cells_[4];
  SweepTrace trace_[4];
  LiveRun live_[2];
};

// ---- fleet_week --------------------------------------------------------

/// Fingerprint of the default fleet_week options at kExperimentSeed.
constexpr std::uint64_t kFleetFingerprint = 0x7EABF04D0C35C953ULL;

class FleetWeek final : public Workload {
 public:
  /// The market and the fleet's composition are always the canonical ones
  /// (kExperimentSeed); the workload seed draws each service's start-up
  /// jitter stream.
  explicit FleetWeek(std::uint64_t seed)
      : golden_(seed == 0), services_seed_(kExperimentSeed + seed) {
    opts_.services = 1000;
    opts_.clusters = 4;
    opts_.horizon = kWeek;
    opts_.history = 2 * kWeek;
    opts_.seed = kExperimentSeed;
    opts_.keep_instance_records = false;
    opts_.keep_clearing_records = false;
  }

  void setup(bool /*traced*/) override {
    global_pool();
    configs_ = services();
  }

  void run(bool /*traced*/) override {
    double t0 = wall_now();
    report_ = fleet::run_fleet(opts_, std::move(configs_));
    wall_s_ = wall_now() - t0;
  }

  PassResult finish(bool traced, LayerValues* layers) override {
    PassResult r;
    std::string why;
    if (!report_.internally_consistent(&why)) {
      r.ok = false;
      r.why = "fleet report is not internally consistent: " + why;
      return r;
    }
    fingerprint_ = report_.fingerprint();
    if (golden_ && fingerprint_ != kFleetFingerprint) {
      r.ok = false;
      r.why = "fleet fingerprint differs from the recorded one";
      return r;
    }
    std::vector<std::int64_t> outages;
    double decisions = 0, launches = 0;
    for (const fleet::ServiceResult& s : report_.services) {
      collect_outages(s.timeline, outages);
      decisions += s.decisions;
      launches += s.launches;
    }
    r.digest = fingerprint_;
    r.attempted = static_cast<std::int64_t>(report_.services.size());
    r.ops = decisions;
    r.service_weeks = static_cast<double>(report_.services.size()) *
                      static_cast<double>(opts_.horizon) / kWeek;
    r.commit_p50_sim_s = interpolated_quantile(outages, 0.50);
    r.commit_p99_sim_s = interpolated_quantile(outages, 0.99);
    if (traced) {
      double clearings = 0;
      for (const fleet::MarketAudit& m : report_.markets) {
        clearings += static_cast<double>(m.total_clearings);
      }
      auto events = static_cast<double>(report_.events_dispatched);
      (*layers)["fleet.events"] = events;
      (*layers)["fleet.clearings"] = clearings;
      (*layers)["fleet.decisions"] = decisions;
      (*layers)["fleet.launches"] = launches;
      (*layers)["sim.events"] = events;
      (*layers)["sim.events_per_s"] = wall_s_ > 0 ? events / wall_s_ : 0;
    }
    return r;
  }

  /// The same fleet with its clusters on a one-thread pool, and a check that
  /// the fingerprint does not depend on the pool.  The bidders' own
  /// parallel_for still runs on the global pool, so this removes only the
  /// cluster fan-out.
  bool extra_layers(double pass_wall_s, LayerValues& layers,
                    std::string* why) override {
    ThreadPool one(1);
    double t0 = wall_now();
    fleet::FleetReport serial = fleet::run_fleet(opts_, services(), &one);
    double serial_s = wall_now() - t0;
    if (serial.fingerprint() != fingerprint_) {
      *why = "fleet fingerprint differs between the 1-thread and full pool";
      return false;
    }
    layers["fleet.serial_wall_s"] = serial_s;
    layers["fleet.parallel_speedup"] = ratio(serial_s, pass_wall_s);
    return true;
  }

 private:
  std::vector<fleet::ServiceConfig> services() const {
    std::vector<fleet::ServiceConfig> configs =
        fleet::make_fleet_services(opts_);
    if (services_seed_ != kExperimentSeed) {
      Rng root(services_seed_);
      for (fleet::ServiceConfig& c : configs) c.seed = root();
    }
    return configs;
  }

  bool golden_;
  std::uint64_t services_seed_;
  fleet::FleetOptions opts_;
  std::vector<fleet::ServiceConfig> configs_;
  fleet::FleetReport report_;
  std::uint64_t fingerprint_ = 0;
  double wall_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_replay(std::uint64_t seed) {
  return std::make_unique<PaperReplay>(seed);
}

std::unique_ptr<Workload> make_fleet_week(std::uint64_t seed) {
  return std::make_unique<FleetWeek>(seed);
}

}  // namespace perfbench
