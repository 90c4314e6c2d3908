// Fleet-scale simulation: hundreds to thousands of independently-bidding
// deployments sharing one *endogenous* spot market (src/fleet overview; the
// full model is documented in docs/fleet.md).
//
// The replay stack (src/replay) evaluates ONE service against recorded
// prices; prices are exogenous.  At fleet scale that assumption breaks: when
// the whole fleet bids in the same (zone, instance type) markets, its
// aggregate demand moves the price everyone pays.  This driver closes the
// loop:
//
//   * every service runs the unchanged bidding strategies from src/core
//     (Jupiter's online algorithm, Extra(m, p), on-demand) through the
//     strategy_factory seam, on its own cadence, with its own spec,
//     quorum rule, theta, per-node FP budget and epsilon;
//   * each (zone, kind) pair is a SpotMarket: calibrated semi-Markov
//     baseline plus a markup set by uniform-price clearing of the fleet's
//     aggregate demand against a piecewise SupplyCurve once per epoch;
//   * the cleared price is *published* into the cluster's shared TraceBook,
//     so snapshots, incremental Jupiter training and billing all read the
//     very prices the fleet itself caused;
//   * a cluster's Jupiter services share one set of warm failure models per
//     (instance kind, history start, estimator) — WarmFailureModels — so
//     each chain and each transient analysis is computed once per cluster.
//
// Determinism contract: services are partitioned into per-AZ-subset
// clusters with disjoint markets; each cluster is a single-threaded
// discrete-event simulation (jupiter::Simulator) whose per-service RNG
// streams are split from the fleet seed by service id.  Clusters run
// concurrently on a nested-safe parallel_for and are merged in cluster
// order, so the FleetReport — and its fingerprint() — is bit-identical
// across thread counts and across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cloud/trace_book.hpp"
#include "fleet/spot_market.hpp"
#include "obs/metrics.hpp"
#include "replay/replay_engine.hpp"
#include "replay/strategy_factory.hpp"
#include "util/money.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace jupiter::fleet {

/// A correlated capacity fault injected into the fleet's markets (chaos
/// harness; §2.1's motivation that failures are not independent).
struct FleetFault {
  enum class Kind : std::uint8_t {
    kAzOutage,        ///< capacity -> 0 in every market of one region
    kCapacityCrunch,  ///< capacity scaled to `capacity_permille`
  };
  Kind kind = Kind::kCapacityCrunch;
  int region = -1;  ///< ec2_regions() index; -1 = every market in the fleet
  SimTime from;
  SimTime to;
  int capacity_permille = 500;  ///< ignored for kAzOutage (forced to 0)

  std::string str() const;
};

/// One service of the fleet: which strategy bids for it, on what cadence.
struct ServiceConfig {
  int id = 0;
  StrategyParams strategy;
  TimeDelta interval = kHour;     ///< bidding cadence (epoch multiple)
  bool adaptive_interval = false; ///< churn-based interval policy (§5.5)
  std::uint64_t seed = 0;         ///< startup-jitter stream
};

struct FleetOptions {
  int services = 100;
  /// Independent market+service clusters; clamped to [1, 4] so every
  /// cluster keeps at least 6 of the 24 AZs.  Clusters share nothing and
  /// run concurrently.
  int clusters = 4;
  TimeDelta horizon = kWeek;        ///< measured fleet window
  TimeDelta history = 2 * kWeek;    ///< training history before the window
  TimeDelta epoch = kHour;          ///< market-clearing cadence
  std::uint64_t seed = 20150615;    ///< kExperimentSeed
  /// Nominal units per market; 0 = auto-size from the fleet's expected
  /// demand with ~30% headroom (so the unstressed fleet sits in the gentle
  /// part of the supply curve).
  int capacity_per_market = 0;
  // ---- strategy mix, in percent of the fleet (rest = Extra(m, p)) ----
  int jupiter_pct = 15;
  int adaptive_pct = 10;   ///< Jupiter + adaptive bidding interval
  int on_demand_pct = 5;
  /// Keep per-instance billing records / per-clearing market records in the
  /// report (needed by the chaos invariants; benches switch them off).
  bool keep_instance_records = true;
  bool keep_clearing_records = true;
  /// Fleet observability: when set, every cluster records counters, integer
  /// log2-bucket histograms, per-epoch market rows and a bounded flight ring
  /// into its own obs::MetricsShard, merged in cluster order into
  /// FleetReport::telemetry.  Recording draws no randomness and never feeds
  /// back into the simulation, so fingerprints match telemetry-off runs.
  bool collect_telemetry = false;
  /// Per-cluster flight-recorder ring capacity (collect_telemetry only).
  std::size_t flight_capacity = 256;
  std::vector<FleetFault> faults;
  /// Test-only hook (SharedStateAuditor regression): when set, every
  /// cluster performs one deliberate write into this *foreign* book at its
  /// first tick — exactly the cross-cluster write the audit layer exists to
  /// catch.  Must never be set outside tests.
  TraceBook* debug_foreign_book = nullptr;
};

/// Per-service outcome, same accounting as ReplayResult (the timeline
/// reuses IntervalRecord so report tooling works on both).
struct ServiceResult {
  int id = 0;
  int cluster = 0;
  std::string strategy;  ///< concrete strategy name, e.g. "Extra(1,0.2)"
  std::string service;   ///< spec name, e.g. "lock-17"
  Money cost;
  TimeDelta downtime = 0;
  TimeDelta elapsed = 0;
  int decisions = 0;
  int launches = 0;
  int out_of_bid = 0;
  int never_ran = 0;
  int sla_violations = 0;  ///< intervals below the spec's target availability
  double mean_nodes = 0.0;
  std::vector<IntervalRecord> timeline;

  double availability() const {
    if (elapsed <= 0) return 1.0;
    return 1.0 - static_cast<double>(downtime) / static_cast<double>(elapsed);
  }
};

/// One instance's life, as billed — enough for an independent re-derivation
/// of the whole fleet's bill against the published traces.
struct InstanceRecord {
  int service = -1;
  int zone = -1;
  InstanceKind kind = InstanceKind::kM1Small;
  bool spot = true;
  bool never_ran = false;
  SimTime launch;
  SimTime term;   ///< user-termination request instant billed to
  PriceTick bid;  ///< spot only
  Money charge;
};

/// Everything one market did, for audits and price-path plots.
struct MarketAudit {
  int cluster = 0;
  int zone = -1;
  InstanceKind kind = InstanceKind::kM1Small;
  SupplyCurve curve;
  SpotTrace published;  ///< the endogenous price path the fleet lived under
  std::vector<SpotMarket::ClearingRecord> clearings;  ///< when kept
  std::uint64_t total_clearings = 0;
  PriceTick peak_price;
  std::int64_t units_allocated = 0;
  std::int64_t units_demanded = 0;
};

/// One market clearing as telemetry: the per-(zone, kind, epoch) price,
/// demand, supply tier and rationing outcome.  Pure integers, so the CSV
/// rendering is byte-identical across thread counts and runs.
struct MarketEpochRow {
  int cluster = 0;
  int zone = -1;
  InstanceKind kind = InstanceKind::kM1Small;
  SimTime at;
  int price_ticks = 0;       ///< uniform clearing price published at `at`
  int markup_ticks = 0;      ///< endogenous markup over the baseline
  int tier = 0;              ///< supply tier cleared (tiers().size() = bid war)
  int demand = 0;            ///< units bid for this epoch
  int allocated = 0;         ///< units with bid >= price
  int rejected = 0;          ///< demand - allocated (rationing)
  int supply_at_price = 0;   ///< scaled supply on offer at the price
  int capacity_permille = kFullCapacityPermille;  ///< chaos capacity scale
};

/// Fleet observability output (FleetOptions::collect_telemetry): the merged
/// shard metrics, every market clearing, and the per-cluster flight rings.
/// All three are recorded under the phased shard discipline and merged in
/// cluster order, so csv() — and fingerprint(), FNV-1a over its bytes — is
/// byte-identical across pool sizes and repeated runs.
struct FleetTelemetry {
  bool enabled = false;
  obs::MetricsSnapshot metrics;        ///< merged across cluster shards
  std::vector<MarketEpochRow> epochs;  ///< every clearing, cluster order
  std::vector<std::string> flight;     ///< "[cN] seq @t [tag] text" lines

  /// Three sections — merged metrics, market epoch rows, flight lines —
  /// each introduced by a "section,<name>" row.
  std::string csv() const;
  std::uint64_t fingerprint() const;
};

struct FleetReport {
  FleetOptions options;
  SimTime start;  ///< fleet window start (= history end)
  SimTime end;
  std::vector<ServiceConfig> configs;
  std::vector<ServiceResult> services;
  std::vector<MarketAudit> markets;
  std::vector<InstanceRecord> instances;  ///< when kept
  FleetTelemetry telemetry;               ///< when options.collect_telemetry
  std::uint64_t events_dispatched = 0;    ///< summed over cluster simulators

  Money total_cost() const;
  TimeDelta total_downtime() const;

  /// Folds every per-service and per-market outcome into one value; two
  /// runs of the same options must match bit for bit, regardless of the
  /// thread pool driving the clusters.
  std::uint64_t fingerprint() const;

  /// Deterministic CSV (metric,id,value) covering the same fields the
  /// fingerprint folds; byte-identical across runs by the same contract.
  std::string metrics_csv() const;

  /// Fleet-wide accounting conservation: every service's headline totals
  /// must equal its timeline's attribution (the ledger's
  /// timeline_consistent, as for ReplayResult), the
  /// fleet totals must equal the per-service sums, and every market's
  /// running totals must equal its clearing records' sums (when kept).
  bool internally_consistent(std::string* why = nullptr) const;

  void print_summary(std::ostream& os) const;
};

/// Expands the options into the heterogeneous per-service configs (60/40
/// lock/storage mix, varied theta, deployment size, FP budget, epsilon,
/// cadence and the configured strategy mix), deterministically from the
/// fleet seed.
std::vector<ServiceConfig> make_fleet_services(const FleetOptions& opts);

/// Runs the fleet.  `pool` drives the cluster fan-out (nullptr = global
/// pool); the result is independent of the pool's thread count.
FleetReport run_fleet(const FleetOptions& opts, ThreadPool* pool = nullptr);

/// As above with explicit service configs (tests build hand-crafted
/// fleets).  `configs[i].id` must equal i.
FleetReport run_fleet(const FleetOptions& opts,
                      std::vector<ServiceConfig> configs,
                      ThreadPool* pool = nullptr);

/// Derives a correlated fault schedule (one AZ outage, one or two capacity
/// crunches, all healed well before the horizon ends) from `seed` — the
/// chaos corpus for `chaos_runner --fleet`.
std::vector<FleetFault> make_fleet_fault_schedule(std::uint64_t seed,
                                                  SimTime start,
                                                  TimeDelta horizon);

}  // namespace jupiter::fleet
