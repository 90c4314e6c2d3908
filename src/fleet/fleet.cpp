#include "fleet/fleet.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "cloud/region.hpp"
#include "core/market_state.hpp"
#include "core/warm_models.hpp"
#include "market/billing.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "replay/adaptive.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace jupiter::fleet {

namespace {

constexpr InstanceKind kKinds[] = {InstanceKind::kM1Small,
                                   InstanceKind::kM3Large};

int clamp_clusters(const FleetOptions& opts) {
  int c = std::clamp(opts.clusters, 1, 4);
  return std::min(c, std::max(1, opts.services));
}

/// One instance's life inside a cluster.  Indices into the cluster's
/// instance arena are stable (the arena only grows).
struct Instance {
  int service = -1;
  int market = -1;  ///< cluster market index; -1 for on-demand
  int zone = -1;
  PriceTick bid;
  bool spot = true;
  bool pending = false;    ///< requested this epoch, awaiting the clearing
  bool never_ran = false;  ///< rejected at request time (bid < clearing)
  bool active = true;      ///< still held by its service
  SimTime launch;
  SimTime ready;
  std::optional<SimTime> death;  ///< provider out-of-bid kill

  bool alive(SimTime t) const {
    return !never_ran && (!death || *death > t);
  }
};

/// The bidding interval currently open for a service; closed (and turned
/// into an IntervalRecord) when the simulation clock reaches its end.
struct OpenInterval {
  SimTime start;
  TimeDelta length = 0;
  int intended = 0;
  int launches = 0;
  int out_of_bid = 0;
  std::vector<std::uint32_t> members;
};

struct ServiceState {
  ServiceConfig cfg;
  std::unique_ptr<BiddingStrategy> strategy;
  bool is_jupiter = false;
  WarmFailureModels* models = nullptr;  ///< Jupiter: the cluster's shared owner
  Rng rng{0};
  SimTime next_decide;
  bool interval_open = false;
  OpenInterval interval;
  std::vector<std::uint32_t> holdings;
  double node_sum = 0.0;
  ServiceResult out;
};

/// One independent market+service cluster: disjoint AZ subset, its own
/// discrete-event simulator, strictly single-threaded state.  Decision
/// batches fan out on the (nested-safe) pool but only write private slots;
/// everything that mutates cluster state runs in service order.
class Cluster {
 public:
  Cluster(const FleetOptions& opts, int index, std::vector<int> zones,
          std::vector<ServiceConfig> cfgs, ThreadPool& pool)
      : opts_(opts),
        index_(index),
        zones_(std::move(zones)),
        pool_(pool),
        start_(SimTime::zero() + opts.history),
        end_(SimTime::zero() + opts.history + opts.horizon) {
    // Private baseline book over the full horizon (history + window).  The
    // seed mixes only the fleet seed, so a zone's baseline is identical no
    // matter how the fleet is partitioned into clusters.
    baseline_ = TraceBook::synthetic(zones_, kKinds[0], SimTime::zero(), end_,
                                     opts.seed);
    baseline_.merge(TraceBook::synthetic(zones_, kKinds[1], SimTime::zero(),
                                         end_, opts.seed));
    // The shared book the strategies see: history only; the post-history
    // segment is written by the markets epoch by epoch (never the future).
    for (int z : zones_) {
      for (InstanceKind kind : kKinds) {
        shared_.set(z, kind, baseline_.trace(z, kind).slice(SimTime::zero(),
                                                            start_));
      }
    }
    // Markets, in (zone, kind) order — the deterministic clearing order.
    std::map<InstanceKind, int> kind_count;
    for (const ServiceConfig& c : cfgs) {
      ++kind_count[c.strategy.spec.kind];
    }
    for (int z : zones_) {
      for (InstanceKind kind : kKinds) {
        int capacity = opts_.capacity_per_market;
        if (capacity <= 0) {
          // Expected steady demand: each service of this kind keeps about
          // baseline+1 nodes spread over the cluster's zones; ~30% headroom
          // parks the unstressed fleet in the gentle part of the curve.
          std::int64_t demand = 6 * kind_count[kind];
          std::int64_t per_market =
              demand / static_cast<std::int64_t>(zones_.size()) + 1;
          capacity = static_cast<int>(std::max<std::int64_t>(
              16, per_market * 13 / 10));
        }
        PriceTick od = PriceTick::from_money(on_demand_price_zone(z, kind));
        market_index_[{z, static_cast<int>(kind)}] =
            static_cast<int>(markets_.size());
        markets_.emplace_back(z, kind, &baseline_.trace(z, kind),
                              shared_.mutable_trace(z, kind),
                              SupplyCurve::standard(capacity, od));
      }
    }
    live_.resize(markets_.size());
    for (const FleetFault& f : opts_.faults) {
      for (SpotMarket& m : markets_) {
        if (f.region >= 0 &&
            all_zones().at(static_cast<std::size_t>(m.zone())).region !=
                f.region) {
          continue;
        }
        int permille =
            f.kind == FleetFault::Kind::kAzOutage ? 0 : f.capacity_permille;
        m.add_capacity_window(f.from, f.to, permille);
      }
    }
    // Services, in id order.
    services_.reserve(cfgs.size());
    for (ServiceConfig& c : cfgs) {
      ServiceState s;
      s.cfg = std::move(c);
      s.is_jupiter = s.cfg.strategy.kind == StrategyKind::kJupiter;
      std::shared_ptr<WarmFailureModels> models;
      if (s.is_jupiter) {
        models = shared_models(s.cfg.strategy);
        s.models = models.get();
      }
      s.strategy = make_strategy(shared_, s.cfg.strategy, std::move(models));
      s.rng = Rng(s.cfg.seed);
      s.next_decide = start_;
      s.out.id = s.cfg.id;
      s.out.cluster = index_;
      s.out.strategy = s.strategy->name();
      s.out.service = s.cfg.strategy.spec.name;
      s.out.elapsed = end_ - start_;
      services_.push_back(std::move(s));
    }
    if (opts_.collect_telemetry) {
      shard_ = std::make_unique<obs::MetricsShard>(
          "c" + std::to_string(index_), opts_.flight_capacity);
    }
  }

  void run() {
    // Phase ownership: until the releases below, this thread is the only
    // legal writer of the cluster's books, markets and metrics shard.  The
    // merge loop in run_fleet moves results out on the main thread strictly
    // after.  The log tag keeps interleaved JUPITER_LOG lines from parallel
    // clusters attributable.
    LogTagScope log_tag("c" + std::to_string(index_));
    if (shard_) shard_->acquire("Cluster::run");
    obs::ContextScope obs_scope(shard_ ? shard_->context() : nullptr);
    shared_.audit_acquire();
    baseline_.audit_acquire();
    for (SpotMarket& m : markets_) m.audit_acquire();
    sim_ = std::make_unique<Simulator>();
    prev_tick_ = start_;
    sim_->schedule_at(start_, [this] { tick(); });
    sim_->run_until(end_);
    events_dispatched_ = sim_->core_stats().dispatched;
    finish();
    for (SpotMarket& m : markets_) m.audit_release();
    baseline_.audit_release();
    shared_.audit_release();
    if (shard_) shard_->release();
  }

  // ---- outputs (valid after run()) ----
  std::vector<ServiceState>& services() { return services_; }
  std::vector<SpotMarket>& markets() { return markets_; }
  TraceBook& shared_book() { return shared_; }
  std::vector<InstanceRecord>& instance_records() { return records_; }
  obs::MetricsShard* shard() { return shard_.get(); }
  std::vector<MarketEpochRow>& epoch_rows() { return epoch_rows_; }
  std::uint64_t events_dispatched() const { return events_dispatched_; }
  int index() const { return index_; }

 private:
  int market_of(int zone, InstanceKind kind) const {
    auto it = market_index_.find({zone, static_cast<int>(kind)});
    if (it == market_index_.end()) {
      throw std::logic_error("bid outside the cluster's markets");
    }
    return it->second;
  }

  /// The cluster's warm failure models for a Jupiter service's market
  /// family: one owner per (instance kind, history start, estimator),
  /// created on first use and shared by every Jupiter service that bids in
  /// it.  FP' is per service and stays out of the key.
  std::shared_ptr<WarmFailureModels> shared_models(const StrategyParams& p) {
    auto key = std::make_tuple(static_cast<int>(p.spec.kind),
                               p.history_start.seconds(),
                               static_cast<int>(p.estimator));
    std::shared_ptr<WarmFailureModels>& owner = warm_models_[key];
    if (!owner) {
      owner = std::make_shared<WarmFailureModels>(shared_, p.spec.kind,
                                                  p.history_start, p.estimator);
    }
    return owner;
  }

  TimeDelta snap_interval(TimeDelta iv) const {
    TimeDelta lo = std::max<TimeDelta>(opts_.epoch, kHour);
    iv = std::max(iv, lo);
    iv -= iv % opts_.epoch;
    return std::max(iv, opts_.epoch);
  }

  void tick() {
    SimTime t = sim_->now();
    if (opts_.debug_foreign_book && t == start_ && index_ == 0) {
      // Deliberate cross-phase write; see FleetOptions::debug_foreign_book.
      // Only cluster 0 writes so the injection races with the *phase
      // discipline*, never structurally with another injecting cluster.
      opts_.debug_foreign_book->set(index_, kKinds[0], SpotTrace{});
    }
    // 1. Publish the baseline's change points since the previous epoch.
    for (SpotMarket& m : markets_) m.advance_to(t);
    // 2. Discover out-of-bid deaths caused by those baseline moves.
    if (t > prev_tick_) discover_deaths(t);
    // 3. Close every bidding interval ending at this boundary.
    for (ServiceState& s : services_) {
      if (s.interval_open && s.interval.start + s.interval.length == t) {
        finalize_interval(s, t);
      }
    }
    if (t >= end_) {
      settle(t);
      return;
    }
    // 4. Batch-decide every service whose cadence is due (parallel, private
    //    slots; applied sequentially in service order in step 5).
    std::vector<std::size_t> due;
    for (std::size_t i = 0; i < services_.size(); ++i) {
      if (services_[i].next_decide == t) due.push_back(i);
    }
    struct Slot {
      StrategyDecision decision;
      TimeDelta interval = 0;
    };
    std::vector<Slot> slots(due.size());
    // The shared failure models train here, on the cluster thread, before
    // the batch: inside it every Jupiter service's advance_to(t) finds its
    // owner already at t and only reads the models.
    for (std::size_t i : due) {
      if (WarmFailureModels* m = services_[i].models) m->advance_to(zones_, t);
    }
    // Each index fills its own pre-allocated decision slot and only reads
    // the shared failure models (their transient caches are mutex-guarded);
    // decisions are applied in service order afterwards.
    // par: owned — slot i and the models' read-only view
    parallel_for(pool_, due.size(), [&](std::size_t i) {
      // Decision batches land on arbitrary pool threads — the cluster
      // thread (shard context installed) among them.  Suppress the context
      // uniformly so strategy-internal metrics cannot vary with the pool
      // size; the single-service replay path still records them.
      obs::ContextScope quiet(nullptr);
      ServiceState& s = services_[due[i]];
      TimeDelta iv = s.cfg.interval;
      if (s.cfg.adaptive_interval) {
        iv = snap_interval(choose_interval(
            shared_, s.cfg.strategy.spec.kind, zones_, t));
      }
      if (s.is_jupiter) {
        static_cast<JupiterStrategy*>(s.strategy.get())
            ->set_horizon_minutes(static_cast<int>(iv / kMinute));
      }
      MarketSnapshot snapshot =
          snapshot_at(shared_, s.cfg.strategy.spec.kind, zones_, t);
      std::vector<ZoneBid> held;
      for (std::uint32_t id : s.holdings) {
        const Instance& inst = instances_[id];
        if (inst.spot && inst.alive(t)) held.push_back({inst.zone, inst.bid});
      }
      slots[i].decision = s.strategy->decide(snapshot, t, held);
      slots[i].interval = iv;
    });
    // 5. Apply the decisions in service order: terminate and bill retired
    //    holdings, register new spot requests (pending until the clearing),
    //    launch on-demand nodes, open the next interval.
    for (std::size_t i = 0; i < due.size(); ++i) {
      apply_decision(services_[due[i]], slots[i].decision, slots[i].interval,
                     t);
    }
    // 6. Clear every market at this epoch, in market order; resolve the
    //    pending requests and clearing-price kills.
    clear_markets(t);
    prev_tick_ = t;
    sim_->schedule_at(std::min(t + opts_.epoch, end_), [this] { tick(); });
  }

  void discover_deaths(SimTime t) {
    for (std::size_t m = 0; m < markets_.size(); ++m) {
      if (live_[m].empty()) continue;
      const SpotTrace& trace = markets_[m].published();
      PriceTick peak = trace.max_price(prev_tick_, t);
      for (std::uint32_t id : live_[m]) {
        Instance& inst = instances_[id];
        if (!inst.active || inst.never_ran || inst.death || inst.pending) {
          continue;
        }
        if (peak > inst.bid) {
          auto oob = trace.first_exceed(prev_tick_, inst.bid);
          if (oob && *oob < t) {
            inst.death = *oob;
            ServiceState& s = services_[svc_slot(inst.service)];
            ++s.out.out_of_bid;
            ++s.interval.out_of_bid;
            if (obs::Registry* reg = obs::metrics()) {
              reg->counter("fleet.out_of_bid_kills").inc();
            }
            obs::note(*oob, "fleet",
                      s.cfg.strategy.spec.name + " out-of-bid in zone " +
                          std::to_string(inst.zone));
          }
        }
      }
    }
  }

  void finalize_interval(ServiceState& s, SimTime t_end) {
    const OpenInterval& iv = s.interval;
    IntervalRecord rec;
    rec.start = iv.start;
    rec.length = iv.length;
    rec.nodes = iv.intended;
    rec.launches = iv.launches;
    rec.out_of_bid = iv.out_of_bid;
    if (iv.intended > 0) {
      int quorum = s.cfg.strategy.spec.quorum(iv.intended);
      std::vector<std::pair<SimTime, SimTime>> ups;
      for (std::uint32_t id : iv.members) {
        const Instance& inst = instances_[id];
        if (inst.never_ran) continue;
        SimTime from = std::max(iv.start, inst.ready);
        SimTime to = t_end;
        if (inst.death && *inst.death < to) to = *inst.death;
        if (from < to) ups.emplace_back(from, to);
      }
      rec.downtime = quorum_downtime(ups, iv.start, t_end, quorum);
    } else {
      rec.downtime = rec.length;
    }
    s.out.downtime += rec.downtime;
    double avail =
        rec.length > 0
            ? 1.0 - static_cast<double>(rec.downtime) /
                        static_cast<double>(rec.length)
            : 1.0;
    bool violated = avail < s.cfg.strategy.spec.target_availability();
    if (violated) ++s.out.sla_violations;
    if (obs::Registry* reg = obs::metrics()) {
      obs::Labels svc{{"service", s.cfg.strategy.spec.name}};
      reg->counter("fleet.intervals", svc).inc();
      reg->counter("fleet.downtime_s", svc)
          .inc(static_cast<std::uint64_t>(rec.downtime));
      if (violated) {
        reg->counter("fleet.sla_violations", svc).inc();
        obs::note(t_end, "sla",
                  s.cfg.strategy.spec.name + " below target over interval at " +
                      rec.start.str());
      }
    }
    s.out.timeline.push_back(rec);
    s.interval_open = false;
  }

  void apply_decision(ServiceState& s, const StrategyDecision& decision,
                      TimeDelta interval, SimTime t) {
    ++s.out.decisions;
    s.node_sum += decision.total_nodes();
    // Reconcile: an instance is kept iff the decision names its exact
    // (zone, bid) again — EC2 cannot re-bid a live instance (replay rule).
    std::vector<char> matched_spot(decision.spot_bids.size(), 0);
    std::vector<char> matched_od(decision.on_demand_zones.size(), 0);
    std::vector<std::uint32_t> next;
    for (std::uint32_t id : s.holdings) {
      Instance& inst = instances_[id];
      bool keep = false;
      if (inst.alive(t)) {
        if (inst.spot) {
          for (std::size_t i = 0; i < decision.spot_bids.size(); ++i) {
            const ZoneBid& b = decision.spot_bids[i];
            if (!matched_spot[i] && b.zone == inst.zone && b.bid == inst.bid) {
              matched_spot[i] = 1;
              keep = true;
              break;
            }
          }
        } else {
          for (std::size_t i = 0; i < decision.on_demand_zones.size(); ++i) {
            if (!matched_od[i] && decision.on_demand_zones[i] == inst.zone) {
              matched_od[i] = 1;
              keep = true;
              break;
            }
          }
        }
      }
      if (keep) {
        next.push_back(id);
      } else {
        bill_and_drop(s, inst, t);
      }
    }
    // New spot requests: demand for this epoch's clearing.
    for (std::size_t i = 0; i < decision.spot_bids.size(); ++i) {
      if (matched_spot[i]) continue;
      const ZoneBid& b = decision.spot_bids[i];
      Instance inst;
      inst.service = s.cfg.id;
      inst.market = market_of(b.zone, s.cfg.strategy.spec.kind);
      inst.zone = b.zone;
      inst.bid = b.bid;
      inst.spot = true;
      inst.pending = true;
      inst.launch = t;
      inst.ready = t;
      auto id = static_cast<std::uint32_t>(instances_.size());
      instances_.push_back(inst);
      live_[static_cast<std::size_t>(inst.market)].push_back(id);
      next.push_back(id);
      ++s.out.launches;
    }
    // On-demand nodes launch unconditionally (no market).
    for (std::size_t i = 0; i < decision.on_demand_zones.size(); ++i) {
      if (matched_od[i]) continue;
      Instance inst;
      inst.service = s.cfg.id;
      inst.zone = decision.on_demand_zones[i];
      inst.spot = false;
      inst.launch = t;
      // The very first interval is assumed already bootstrapped, as in the
      // replay engine.
      inst.ready =
          t == start_ ? t : t + draw_startup(s.rng, inst.zone);
      auto id = static_cast<std::uint32_t>(instances_.size());
      instances_.push_back(inst);
      next.push_back(id);
      ++s.out.launches;
    }
    s.holdings = std::move(next);
    OpenInterval iv;
    iv.start = t;
    iv.length = std::min(interval, end_ - t);
    iv.intended = decision.total_nodes();
    iv.launches = static_cast<int>(decision.spot_bids.size() +
                                   decision.on_demand_zones.size()) -
                  static_cast<int>(std::count(matched_spot.begin(),
                                              matched_spot.end(), 1)) -
                  static_cast<int>(std::count(matched_od.begin(),
                                              matched_od.end(), 1));
    iv.members = s.holdings;
    s.interval = std::move(iv);
    s.interval_open = true;
    s.next_decide = t + s.interval.length;
  }

  void clear_markets(SimTime t) {
    for (std::size_t m = 0; m < markets_.size(); ++m) {
      // Compact the live list and gather this epoch's demand: every active
      // holding (running or pending) bids for one unit.
      std::vector<std::uint32_t>& list = live_[m];
      std::size_t w = 0;
      std::vector<PriceTick> bids;
      for (std::uint32_t id : list) {
        const Instance& inst = instances_[id];
        if (!inst.active || inst.never_ran || inst.death) continue;
        list[w++] = id;
        bids.push_back(inst.bid);
      }
      list.resize(w);
      ClearingResult res =
          markets_[m].clear(t, std::move(bids), opts_.keep_clearing_records);
      if (opts_.collect_telemetry) record_epoch(m, t, res);
      for (std::uint32_t id : list) {
        Instance& inst = instances_[id];
        if (inst.bid >= res.price) {
          if (inst.pending) {
            inst.pending = false;
            inst.ready = inst.launch == start_
                             ? inst.launch
                             : inst.launch +
                                   draw_startup(
                                       services_[svc_slot(inst.service)].rng,
                                       inst.zone);
            if (obs::Registry* reg = obs::metrics()) {
              // Bid-to-serving lag: 0 for the bootstrapped first interval,
              // the startup draw otherwise.  Integer seconds, shard-merge
              // exact.
              reg->det_histogram("fleet.bid_ready_lag_s")
                  .observe(static_cast<std::uint64_t>(
                      std::max<TimeDelta>(0, inst.ready - inst.launch)));
            }
          }
          continue;
        }
        ServiceState& s = services_[svc_slot(inst.service)];
        if (inst.pending) {
          inst.pending = false;
          inst.never_ran = true;
          ++s.out.never_ran;
        } else {
          inst.death = t;
          ++s.out.out_of_bid;
          ++s.interval.out_of_bid;
        }
      }
    }
  }

  /// Telemetry for one clearing: an integer MarketEpochRow in the cluster's
  /// private list plus shard counters/histograms.  Runs on the cluster
  /// thread under the shard's phased ownership; draws no randomness, so the
  /// simulation (and the report fingerprint) is unchanged by collection.
  void record_epoch(std::size_t m, SimTime t, const ClearingResult& res) {
    const SpotMarket& mkt = markets_[m];
    MarketEpochRow row;
    row.cluster = index_;
    row.zone = mkt.zone();
    row.kind = mkt.kind();
    row.at = t;
    row.price_ticks = res.price.value();
    row.markup_ticks = mkt.current_markup().value();
    row.tier = tier_of(mkt.curve(), row.markup_ticks);
    row.demand = res.demand;
    row.allocated = res.allocated;
    row.rejected = res.demand - res.allocated;
    row.supply_at_price = res.supply_at_price;
    row.capacity_permille = mkt.capacity_permille_at(t);
    if (shard_) shard_->audit_write("Cluster::record_epoch");
    epoch_rows_.push_back(row);
    if (obs::Registry* reg = obs::metrics()) {
      reg->counter("fleet.clearings").inc();
      reg->counter("fleet.rationing_rejections")
          .inc(static_cast<std::uint64_t>(row.rejected));
      reg->det_histogram("fleet.clearing_price_ticks")
          .observe(static_cast<std::uint64_t>(
              std::max(0, row.price_ticks)));
      reg->det_histogram("fleet.clearing_demand")
          .observe(static_cast<std::uint64_t>(std::max(0, row.demand)));
    }
    if (row.rejected > 0) {
      obs::note(t, "market",
                "zone " + std::to_string(row.zone) + " rationed " +
                    std::to_string(row.rejected) + "/" +
                    std::to_string(row.demand) + " units at " +
                    std::to_string(row.price_ticks) + " ticks");
    }
  }

  /// Supply tier index that cleared at `markup_ticks` (first tier whose
  /// markup covers it); tiers().size() means the bid-war regime beyond the
  /// curve.
  static int tier_of(const SupplyCurve& curve, int markup_ticks) {
    int tier = 0;
    for (const SupplyCurve::Tier& t : curve.tiers()) {
      if (markup_ticks <= t.markup_ticks) return tier;
      ++tier;
    }
    return tier;
  }

  void bill_and_drop(ServiceState& s, Instance& inst, SimTime t) {
    Money charge;
    if (inst.spot) {
      if (!inst.never_ran) {
        charge = bill_spot_instance(markets_[static_cast<std::size_t>(
                                                 inst.market)]
                                        .published(),
                                    inst.launch, t, inst.bid)
                     .charge;
      }
    } else {
      charge = bill_on_demand(
          on_demand_price_zone(inst.zone, s.cfg.strategy.spec.kind),
          inst.launch, t);
    }
    s.out.cost += charge;
    inst.active = false;
    if (opts_.keep_instance_records) {
      records_.push_back(InstanceRecord{
          inst.service, inst.zone, s.cfg.strategy.spec.kind, inst.spot,
          inst.never_ran, inst.launch, t, inst.bid, charge});
    }
  }

  void settle(SimTime t) {
    for (ServiceState& s : services_) {
      if (s.interval_open) finalize_interval(s, t);  // defensive; ends tile
      for (std::uint32_t id : s.holdings) {
        bill_and_drop(s, instances_[id], t);
      }
      s.holdings.clear();
    }
  }

  void finish() {
    for (ServiceState& s : services_) {
      s.out.mean_nodes =
          s.out.decisions ? s.node_sum / s.out.decisions : 0.0;
    }
  }

  std::size_t svc_slot(int service_id) const {
    // Services arrive in id order but ids are fleet-global; binary search.
    auto it = std::partition_point(
        services_.begin(), services_.end(),
        [service_id](const ServiceState& s) { return s.cfg.id < service_id; });
    if (it == services_.end() || it->cfg.id != service_id) {
      throw std::logic_error("unknown service id");
    }
    return static_cast<std::size_t>(it - services_.begin());
  }

  const FleetOptions& opts_;
  int index_;
  std::vector<int> zones_;
  ThreadPool& pool_;
  SimTime start_, end_, prev_tick_;
  TraceBook baseline_;
  TraceBook shared_;
  std::map<std::pair<int, int>, int> market_index_;
  std::vector<SpotMarket> markets_;
  std::vector<std::vector<std::uint32_t>> live_;  ///< per market
  std::map<std::tuple<int, std::int64_t, int>,
           std::shared_ptr<WarmFailureModels>>
      warm_models_;
  std::vector<ServiceState> services_;
  std::vector<Instance> instances_;
  std::vector<InstanceRecord> records_;
  std::unique_ptr<obs::MetricsShard> shard_;  ///< when collect_telemetry
  std::vector<MarketEpochRow> epoch_rows_;    ///< when collect_telemetry
  std::unique_ptr<Simulator> sim_;
  std::uint64_t events_dispatched_ = 0;
};

}  // namespace

std::string FleetFault::str() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s region=%d [%lld, %lld) cap=%d%%o",
                kind == Kind::kAzOutage ? "az-outage" : "capacity-crunch",
                region, static_cast<long long>(from.seconds()),
                static_cast<long long>(to.seconds()),
                kind == Kind::kAzOutage ? 0 : capacity_permille);
  return buf;
}

std::vector<ServiceConfig> make_fleet_services(const FleetOptions& opts) {
  std::vector<ServiceConfig> out;
  out.reserve(static_cast<std::size_t>(opts.services));
  Rng root(opts.seed);
  Rng gen = root.split(0xF1EE7);
  for (int i = 0; i < opts.services; ++i) {
    Rng r = gen.split(static_cast<std::uint64_t>(i) + 1);
    ServiceConfig c;
    c.id = i;
    // 60/40 lock/storage mix, heterogeneous deployment shape and SLA.
    bool lock = r.below(100) < 60;
    ServiceSpec spec =
        lock ? ServiceSpec::lock_service() : ServiceSpec::storage_service();
    if (lock) {
      spec.baseline_nodes = 3 + 2 * static_cast<int>(r.below(3));  // 3|5|7
    } else {
      spec.erasure_m = 2 + static_cast<int>(r.below(3));  // theta in 2..4
      spec.baseline_nodes = spec.erasure_m + 2 + static_cast<int>(r.below(3));
    }
    constexpr double kFp[] = {0.005, 0.01, 0.02};
    constexpr double kEps[] = {1e-6, 1e-5, 1e-4};
    spec.baseline_fp = kFp[r.below(3)];
    spec.epsilon = kEps[r.below(3)];
    spec.name = (lock ? "lock-" : "store-") + std::to_string(i);
    c.strategy.spec = std::move(spec);
    c.strategy.history_start = SimTime::zero();
    // Strategy mix.
    auto mix = static_cast<int>(r.below(100));
    if (mix < opts.jupiter_pct) {
      c.strategy.kind = StrategyKind::kJupiter;
      c.interval = (3 + 3 * static_cast<TimeDelta>(r.below(2))) * kHour;
    } else if (mix < opts.jupiter_pct + opts.adaptive_pct) {
      c.strategy.kind = StrategyKind::kJupiter;
      c.adaptive_interval = true;
      c.interval = kHour;
    } else if (mix < opts.jupiter_pct + opts.adaptive_pct +
                         opts.on_demand_pct) {
      c.strategy.kind = StrategyKind::kOnDemand;
      c.interval = 12 * kHour;
    } else {
      c.strategy.kind = StrategyKind::kExtra;
      c.strategy.extra_nodes = static_cast<int>(r.below(3));
      constexpr double kPortion[] = {0.1, 0.2, 0.5};
      c.strategy.extra_portion = kPortion[r.below(3)];
      constexpr TimeDelta kIv[] = {kHour, 3 * kHour, 6 * kHour, 12 * kHour};
      c.interval = kIv[r.below(4)];
    }
    Rng jitter = r.split(0x57A7);
    c.seed = jitter();
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<FleetFault> make_fleet_fault_schedule(std::uint64_t seed,
                                                  SimTime start,
                                                  TimeDelta horizon) {
  Rng r(seed ^ 0xF1EE7FA017ULL);
  std::vector<FleetFault> out;
  TimeDelta pct = horizon / 100;
  auto window = [&](TimeDelta from_pct_lo, TimeDelta from_pct_hi,
                    TimeDelta max_epochs, TimeDelta heal_pct) {
    TimeDelta off =
        pct * (from_pct_lo +
               static_cast<TimeDelta>(r.below(static_cast<std::uint64_t>(
                   from_pct_hi - from_pct_lo))));
    SimTime from = start + off;
    TimeDelta dur =
        (2 + static_cast<TimeDelta>(r.below(static_cast<std::uint64_t>(
             max_epochs - 1)))) * kHour;
    SimTime to = std::min(from + dur, start + pct * heal_pct);
    if (to <= from) to = from + kHour;
    return std::pair{from, to};
  };
  {
    FleetFault f;
    f.kind = FleetFault::Kind::kAzOutage;
    f.region = static_cast<int>(r.below(9));
    std::tie(f.from, f.to) = window(20, 40, 6, 60);
    out.push_back(f);
  }
  int crunches = 1 + static_cast<int>(r.below(2));
  for (int i = 0; i < crunches; ++i) {
    FleetFault f;
    f.kind = FleetFault::Kind::kCapacityCrunch;
    f.region = r.below(3) == 0 ? -1 : static_cast<int>(r.below(9));
    f.capacity_permille = 200 + 100 * static_cast<int>(r.below(6));
    std::tie(f.from, f.to) = window(15, 55, 9, 70);
    out.push_back(f);
  }
  return out;
}

FleetReport run_fleet(const FleetOptions& opts, ThreadPool* pool) {
  return run_fleet(opts, make_fleet_services(opts), pool);
}

FleetReport run_fleet(const FleetOptions& opts,
                      std::vector<ServiceConfig> configs, ThreadPool* pool) {
  if (static_cast<int>(configs.size()) != opts.services) {
    throw std::invalid_argument("configs.size() != options.services");
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].id != static_cast<int>(i)) {
      throw std::invalid_argument("configs[i].id must equal i");
    }
  }
  if (opts.epoch <= 0 || opts.epoch > kHour || kHour % opts.epoch != 0) {
    throw std::invalid_argument("epoch must divide the billing hour");
  }
  if (opts.horizon <= 0 || opts.horizon % opts.epoch != 0) {
    throw std::invalid_argument("horizon must be a positive epoch multiple");
  }
  ThreadPool& tp = pool ? *pool : global_pool();
  // Metric/trace attribution is thread-local; a fleet run fans out across
  // the pool, so observability context is suppressed for determinism (the
  // report carries its own metrics_csv()).
  obs::ContextScope quiet(nullptr);

  int nclusters = clamp_clusters(opts);
  // Partition the 24 AZs round-robin so every cluster sees every region.
  std::vector<std::vector<int>> zone_sets(
      static_cast<std::size_t>(nclusters));
  int zone_count = static_cast<int>(all_zones().size());
  for (int z = 0; z < zone_count; ++z) {
    zone_sets[static_cast<std::size_t>(z % nclusters)].push_back(z);
  }
  std::vector<std::vector<ServiceConfig>> cfg_sets(
      static_cast<std::size_t>(nclusters));
  for (ServiceConfig& c : configs) {
    cfg_sets[static_cast<std::size_t>(c.id % nclusters)].push_back(c);
  }

  std::vector<std::unique_ptr<Cluster>> clusters(
      static_cast<std::size_t>(nclusters));
  // par: merged — clusters touch disjoint zone sets and merge in cluster
  // order below, so fingerprints are identical across pool sizes
  parallel_for(tp, static_cast<std::size_t>(nclusters), [&](std::size_t i) {
    clusters[i] = std::make_unique<Cluster>(opts, static_cast<int>(i),
                                            zone_sets[i],
                                            std::move(cfg_sets[i]), tp);
    clusters[i]->run();
  });

  // Deterministic merge, in cluster order.
  FleetReport report;
  report.options = opts;
  report.start = SimTime::zero() + opts.history;
  report.end = report.start + opts.horizon;
  report.configs = std::move(configs);
  report.services.resize(report.configs.size());
  report.telemetry.enabled = opts.collect_telemetry;
  std::vector<obs::MetricsSnapshot> shard_parts;
  for (auto& cl : clusters) {
    for (ServiceState& s : cl->services()) {
      report.services[static_cast<std::size_t>(s.out.id)] = std::move(s.out);
    }
    for (SpotMarket& m : cl->markets()) {
      MarketAudit audit;
      audit.cluster = cl->index();
      audit.zone = m.zone();
      audit.kind = m.kind();
      audit.curve = m.curve();
      audit.published =
          std::move(*cl->shared_book().mutable_trace(m.zone(), m.kind()));
      audit.clearings = m.records();
      audit.total_clearings = m.clearings();
      audit.peak_price = m.peak_price();
      audit.units_allocated = m.units_allocated();
      audit.units_demanded = m.units_demanded();
      report.markets.push_back(std::move(audit));
    }
    if (opts.keep_instance_records) {
      auto& recs = cl->instance_records();
      report.instances.insert(report.instances.end(), recs.begin(),
                              recs.end());
    }
    if (obs::MetricsShard* sh = cl->shard()) {
      // Re-acquire on the merge thread: the cluster thread released at the
      // bottom of Cluster::run, so this is the phased ownership handoff the
      // auditor expects (same pattern as the TraceBook moves above).
      sh->acquire("run_fleet::merge");
      shard_parts.push_back(sh->snapshot());
      for (const std::string& line : sh->recorder().render()) {
        report.telemetry.flight.push_back("[" + sh->name() + "] " + line);
      }
      sh->release();
      auto& rows = cl->epoch_rows();
      report.telemetry.epochs.insert(report.telemetry.epochs.end(),
                                     rows.begin(), rows.end());
    }
    report.events_dispatched += cl->events_dispatched();
  }
  if (opts.collect_telemetry) {
    report.telemetry.metrics = obs::MetricsSnapshot::merge(shard_parts);
  }
  return report;
}

std::string FleetTelemetry::csv() const {
  std::ostringstream os;
  os << "section,metrics\n";
  os << metrics.to_csv();
  os << "section,market_epochs\n";
  os << "cluster,zone,kind,at_s,price_ticks,markup_ticks,tier,demand,"
        "allocated,rejected,supply_at_price,capacity_permille\n";
  for (const MarketEpochRow& r : epochs) {
    os << r.cluster << ',' << r.zone << ','
       << instance_type_info(r.kind).name << ',' << r.at.seconds() << ','
       << r.price_ticks << ',' << r.markup_ticks << ',' << r.tier << ','
       << r.demand << ',' << r.allocated << ',' << r.rejected << ','
       << r.supply_at_price << ',' << r.capacity_permille << '\n';
  }
  os << "section,flight\n";
  for (const std::string& line : flight) os << line << '\n';
  return os.str();
}

std::uint64_t FleetTelemetry::fingerprint() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : csv()) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

Money FleetReport::total_cost() const {
  Money sum;
  for (const ServiceResult& s : services) sum += s.cost;
  return sum;
}

TimeDelta FleetReport::total_downtime() const {
  TimeDelta sum = 0;
  for (const ServiceResult& s : services) sum += s.downtime;
  return sum;
}

std::uint64_t FleetReport::fingerprint() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 0x100000001B3ULL;
    }
  };
  mix(options.seed);
  mix(static_cast<std::uint64_t>(services.size()));
  for (const ServiceResult& s : services) {
    mix(static_cast<std::uint64_t>(s.cost.micros()));
    mix(static_cast<std::uint64_t>(s.downtime));
    mix(static_cast<std::uint64_t>(s.decisions));
    mix(static_cast<std::uint64_t>(s.launches));
    mix(static_cast<std::uint64_t>(s.out_of_bid));
    mix(static_cast<std::uint64_t>(s.never_ran));
    mix(static_cast<std::uint64_t>(s.sla_violations));
  }
  for (const MarketAudit& m : markets) {
    mix(m.total_clearings);
    mix(static_cast<std::uint64_t>(m.peak_price.value()));
    mix(static_cast<std::uint64_t>(m.units_allocated));
    mix(static_cast<std::uint64_t>(m.units_demanded));
  }
  mix(events_dispatched);
  return h;
}

std::string FleetReport::metrics_csv() const {
  std::ostringstream os;
  os << "metric,id,value\n";
  for (const ServiceResult& s : services) {
    os << "service.cost_micros," << s.id << ',' << s.cost.micros() << '\n';
    os << "service.downtime_s," << s.id << ',' << s.downtime << '\n';
    os << "service.decisions," << s.id << ',' << s.decisions << '\n';
    os << "service.launches," << s.id << ',' << s.launches << '\n';
    os << "service.out_of_bid," << s.id << ',' << s.out_of_bid << '\n';
    os << "service.never_ran," << s.id << ',' << s.never_ran << '\n';
    os << "service.sla_violations," << s.id << ',' << s.sla_violations
       << '\n';
  }
  for (const MarketAudit& m : markets) {
    std::string id = all_zones().at(static_cast<std::size_t>(m.zone)).name +
                     "." + instance_type_info(m.kind).name;
    os << "market.clearings," << id << ',' << m.total_clearings << '\n';
    os << "market.peak_ticks," << id << ',' << m.peak_price.value() << '\n';
    os << "market.units_allocated," << id << ',' << m.units_allocated
       << '\n';
    os << "market.units_demanded," << id << ',' << m.units_demanded << '\n';
  }
  os << "fleet.cost_micros,," << total_cost().micros() << '\n';
  os << "fleet.downtime_s,," << total_downtime() << '\n';
  os << "fleet.events,," << events_dispatched << '\n';
  return os.str();
}

bool FleetReport::internally_consistent(std::string* why) const {
  auto fail = [why](std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  };
  for (const ServiceResult& s : services) {
    if (s.decisions != static_cast<int>(s.timeline.size())) {
      return fail("service " + std::to_string(s.id) +
                  ": decisions != timeline size");
    }
    TimeDelta down = 0, len = 0;
    int oob = 0, launches = 0;
    for (std::size_t i = 0; i < s.timeline.size(); ++i) {
      const IntervalRecord& rec = s.timeline[i];
      if (rec.downtime < 0 || rec.downtime > rec.length) {
        return fail("service " + std::to_string(s.id) + " interval " +
                    std::to_string(i) + ": downtime outside [0, length]");
      }
      if (i + 1 < s.timeline.size() &&
          rec.start + rec.length != s.timeline[i + 1].start) {
        return fail("service " + std::to_string(s.id) + " interval " +
                    std::to_string(i) + " does not tile");
      }
      down += rec.downtime;
      len += rec.length;
      oob += rec.out_of_bid;
      launches += rec.launches;
    }
    if (down != s.downtime) {
      return fail("service " + std::to_string(s.id) +
                  ": downtime != timeline sum");
    }
    if (!s.timeline.empty() && len != s.elapsed) {
      return fail("service " + std::to_string(s.id) +
                  ": intervals do not cover the window");
    }
    if (oob != s.out_of_bid) {
      return fail("service " + std::to_string(s.id) +
                  ": out-of-bid != timeline sum");
    }
    if (launches != s.launches) {
      return fail("service " + std::to_string(s.id) +
                  ": launches != timeline sum");
    }
    if (s.cost.micros() < 0) {
      return fail("service " + std::to_string(s.id) + ": negative cost");
    }
  }
  for (const MarketAudit& m : markets) {
    if (m.units_allocated > m.units_demanded) {
      return fail("market allocated > demanded");
    }
    if (m.clearings.empty()) continue;
    std::uint64_t n = 0;
    std::int64_t alloc = 0, demand = 0;
    for (const SpotMarket::ClearingRecord& c : m.clearings) {
      ++n;
      alloc += c.allocated;
      demand += c.demand;
    }
    if (n != m.total_clearings || alloc != m.units_allocated ||
        demand != m.units_demanded) {
      return fail("market clearing records do not sum to running totals");
    }
  }
  if (!instances.empty()) {
    Money sum;
    for (const InstanceRecord& r : instances) sum += r.charge;
    if (sum != total_cost()) {
      return fail("instance charges do not sum to the fleet cost");
    }
  }
  return true;
}

void FleetReport::print_summary(std::ostream& os) const {
  std::vector<double> avail, cost;
  int violations = 0, never = 0, oob = 0;
  for (const ServiceResult& s : services) {
    avail.push_back(s.availability());
    cost.push_back(s.cost.dollars());
    violations += s.sla_violations;
    never += s.never_ran;
    oob += s.out_of_bid;
  }
  os << "fleet: " << services.size() << " services, " << markets.size()
     << " markets, " << (end - start) / kHour << " h window\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "availability: p50 %.6f  p5 %.6f  min %.6f\n",
                percentile(avail, 0.50), percentile(avail, 0.05),
                percentile(avail, 0.0));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "cost/service: p50 $%.2f  p95 $%.2f  max $%.2f  total $%.2f\n",
                percentile(cost, 0.50), percentile(cost, 0.95),
                percentile(cost, 1.0), total_cost().dollars());
  os << buf;
  os << "sla violation intervals: " << violations << ", out-of-bid kills: "
     << oob << ", rejected requests: " << never << '\n';
  std::int64_t alloc = 0, demand = 0;
  PriceTick peak;
  for (const MarketAudit& m : markets) {
    alloc += m.units_allocated;
    demand += m.units_demanded;
    peak = std::max(peak, m.peak_price);
  }
  os << "markets: " << alloc << '/' << demand
     << " unit-epochs allocated, peak price " << peak.value() << " ticks\n";
  os << "events: " << events_dispatched << '\n';
}

}  // namespace jupiter::fleet
