#include "replay/replay_engine.hpp"

#include <algorithm>
#include <string>

#include "cloud/region.hpp"
#include "core/market_state.hpp"
#include "obs/obs.hpp"

namespace jupiter {

bool ReplayResult::internally_consistent(std::string* why) const {
  return timeline_consistent(timeline,
                             {.cost = cost,
                              .downtime = downtime,
                              .elapsed = elapsed,
                              .decisions = decisions,
                              .out_of_bid = out_of_bid_events,
                              .launches = instances_launched},
                             why);
}

ReplayResult replay_strategy(const TraceBook& book, BiddingStrategy& strategy,
                             const ReplayConfig& cfg) {
  ReplayResult result;
  Rng rng(cfg.seed);
  std::vector<Holding> holdings;
  double node_sum = 0;

  const InstanceKind kind = cfg.spec.kind;
  result.elapsed = cfg.replay_end - cfg.replay_start;

  for (SimTime t = cfg.replay_start; t < cfg.replay_end;) {
    TimeDelta interval =
        cfg.interval_policy ? cfg.interval_policy(t) : cfg.interval;
    if (interval < kHour) interval = kHour;  // EC2 bills hourly (§3.2)
    SimTime t_end = std::min(t + interval, cfg.replay_end);
    ++result.decisions;
    bool first_interval = (t == cfg.replay_start);

    // Replacements are decided and launched a lead time before the
    // boundary (paper §4: "the new spot instances are launched before the
    // next bidding interval starts"), so a worst-case 700 s startup still
    // finishes by the boundary and replacement causes no quorum dip.
    SimTime decide_at = first_interval ? t : t - kMaxStartupLead;
    MarketSnapshot snapshot = snapshot_at(book, kind, cfg.zones, decide_at);
    StrategyDecision decision =
        strategy.decide(snapshot, decide_at, held_bids(holdings, decide_at));
    node_sum += decision.total_nodes();

    // Retired holdings are user-terminated at the boundary; their
    // replacements are requested at decide_at, i.e. pre-boundary.
    Reconciliation plan = reconcile(holdings, decision, decide_at);
    for (const Holding& h : retire(holdings, plan)) {
      result.cost += holding_charge(h, book, kind, t);
    }
    // The very first interval is assumed already bootstrapped (the
    // framework had been running before the measured window opens).
    auto startup = [&](int zone) -> TimeDelta {
      return cfg.account_startup && !first_interval ? draw_startup(rng, zone)
                                                    : 0;
    };
    for (const ZoneBid& b : plan.spot_launches) {
      Holding h{.zone = b.zone, .bid = b.bid, .spot = true, .launch = decide_at};
      TimeDelta lag = startup(b.zone);
      h.ready = decide_at + lag;
      if (obs::Registry* reg = obs::metrics()) {
        // Bidding-decision sim-latency: seconds from the decision to the
        // instance serving, integer-exact for deterministic shard merges.
        reg->det_histogram("replay.bid_ready_lag_s")
            .observe(static_cast<std::uint64_t>(lag));
      }
      const SpotTrace& trace = book.trace(b.zone, kind);
      if (trace.price_at(decide_at) > b.bid) {
        h.never_ran = true;
      } else {
        h.death = trace.first_exceed(decide_at, b.bid);
      }
      holdings.push_back(h);
    }
    for (int zone : plan.on_demand_launches) {
      holdings.push_back(Holding{.zone = zone,
                                 .spot = false,
                                 .launch = decide_at,
                                 .ready = decide_at + startup(zone)});
    }

    IntervalRecord rec{.start = t,
                       .length = t_end - t,
                       .nodes = decision.total_nodes(),
                       .launches = plan.launches()};
    close_interval(rec, holdings, cfg.spec);
    result.instances_launched += rec.launches;
    result.out_of_bid_events += rec.out_of_bid;
    result.downtime += rec.downtime;
    result.timeline.push_back(rec);

    if (obs::Registry* reg = obs::metrics()) {
      reg->counter("replay.intervals").inc();
      reg->counter("replay.launches").inc(static_cast<std::uint64_t>(rec.launches));
      reg->counter("replay.out_of_bid").inc(static_cast<std::uint64_t>(rec.out_of_bid));
      reg->counter("replay.downtime_seconds")
          .inc(static_cast<std::uint64_t>(rec.downtime));
      std::size_t transitions = 0;
      for (int zone : cfg.zones) {
        transitions += book.trace(zone, kind).transitions_in(t, t_end);
      }
      reg->counter("market.price_transitions")
          .inc(static_cast<std::uint64_t>(transitions));
    }
    if (obs::TraceSink* tr = obs::trace()) {
      tr->span(rec.start, rec.length, obs::TraceTrack::kReplay, "interval",
               "replay",
               {{"nodes", rec.nodes},
                {"launches", rec.launches},
                {"out_of_bid", rec.out_of_bid},
                {"downtime_s", rec.downtime}});
      // Availability sample stream, rendered as a Perfetto counter track:
      // parts-per-million of the interval the quorum was up.
      std::int64_t ppm =
          rec.length > 0
              ? ((rec.length - rec.downtime) * 1'000'000) / rec.length
              : 1'000'000;
      tr->counter(rec.start, obs::TraceTrack::kReplay, "availability_ppm",
                  {{"ppm", ppm}});
      if (rec.downtime > 0) {
        tr->instant(rec.start, obs::TraceTrack::kReplay, "quorum_loss",
                    "replay",
                    {{"seconds", std::to_string(rec.downtime)}});
      }
    }
    if (rec.downtime > 0) {
      obs::note(rec.start, "replay",
                "quorum lost for " + std::to_string(rec.downtime) +
                    "s in interval starting " + rec.start.str());
    }

    t = t_end;
  }

  // ---- final settlement at replay end (user termination) ----
  for (const Holding& h : holdings) {
    result.cost += holding_charge(h, book, kind, cfg.replay_end);
  }

  result.mean_nodes =
      result.decisions ? node_sum / result.decisions : 0.0;
  return result;
}

}  // namespace jupiter
