#include "cloud/provider.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace jupiter {

CloudProvider::CloudProvider(Simulator& sim, const TraceBook& book,
                             std::uint64_t seed, SlaFailureConfig sla)
    : sim_(sim), book_(book), rng_(seed), sla_(sla) {}

PriceTick CloudProvider::spot_price(int zone, InstanceKind kind) const {
  return book_.trace(zone, kind).price_at(sim_.now());
}

void CloudProvider::set_state(InstanceRecord& rec, InstanceState st) {
  rec.state = st;
  for (const auto& l : listeners_) l(rec.id, st);
}

CloudProvider::InstanceId CloudProvider::request_spot(int zone,
                                                      InstanceKind kind,
                                                      PriceTick bid) {
  int region = all_zones().at(static_cast<std::size_t>(zone)).region;
  if (bid.money() > spot_bid_cap(region, kind)) {
    throw std::invalid_argument("bid above the 4x on-demand cap");
  }
  const SpotTrace& trace = book_.trace(zone, kind);
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("cloud.spot_requests").inc();
  }
  if (trace.price_at(sim_.now()) > bid) {
    JLOG(kInfo) << "spot request rejected in zone " << zone << ": price "
                << trace.price_at(sim_.now()) << " > bid " << bid;
    if (obs::Registry* reg = obs::metrics()) {
      reg->counter("cloud.spot_rejected").inc();
    }
    return 0;
  }

  InstanceId id = next_id_++;
  InstanceRecord rec;
  rec.id = id;
  rec.zone = zone;
  rec.kind = kind;
  rec.spot = true;
  rec.bid = bid;
  rec.launched = sim_.now();
  rec.ready = sim_.now() + draw_startup(rng_, zone);
  rec.state = InstanceState::kPending;
  instances_.emplace(id, rec);

  sim_.schedule_at(rec.ready, [this, id] { finish_startup(id); });
  if (auto t = trace.first_exceed(sim_.now(), bid)) {
    oob_events_[id] = sim_.schedule_at(*t, [this, id] { out_of_bid(id); });
  }
  if (sla_.enabled) schedule_next_crash(id);
  record_launch(rec);
  return id;
}

CloudProvider::InstanceId CloudProvider::launch_on_demand(int zone,
                                                          InstanceKind kind) {
  InstanceId id = next_id_++;
  InstanceRecord rec;
  rec.id = id;
  rec.zone = zone;
  rec.kind = kind;
  rec.spot = false;
  rec.launched = sim_.now();
  rec.ready = sim_.now() + draw_startup(rng_, zone);
  rec.state = InstanceState::kPending;
  instances_.emplace(id, rec);
  sim_.schedule_at(rec.ready, [this, id] { finish_startup(id); });
  if (sla_.enabled) schedule_next_crash(id);
  record_launch(rec);
  return id;
}

void CloudProvider::record_launch(const InstanceRecord& rec) {
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("cloud.launches", {{"kind", rec.spot ? "spot" : "on_demand"}})
        .inc();
    reg->histogram("cloud.startup_seconds", 200.0, 700.0, 25)
        .observe(static_cast<double>(rec.ready - rec.launched));
  }
  if (obs::TraceSink* tr = obs::trace()) {
    tr->span(rec.launched, rec.ready - rec.launched, obs::TraceTrack::kCloud,
             rec.spot ? "spot_startup" : "on_demand_startup", "cloud",
             {{"zone", rec.zone}, {"id", static_cast<std::int64_t>(rec.id)}});
  }
}

void CloudProvider::finish_startup(InstanceId id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  InstanceRecord& rec = it->second;
  if (rec.state != InstanceState::kPending) return;  // died while booting
  set_state(rec, InstanceState::kRunning);
}

void CloudProvider::out_of_bid(InstanceId id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  InstanceRecord& rec = it->second;
  if (rec.state == InstanceState::kTerminated) return;
  rec.terminated = sim_.now();
  rec.reason = TerminationReason::kOutOfBid;
  posted_charges_ += charges_for(rec, sim_.now());
  if (auto se = sla_events_.find(id); se != sla_events_.end()) {
    sim_.cancel(se->second);
    sla_events_.erase(se);
  }
  oob_events_.erase(id);
  set_state(rec, InstanceState::kTerminated);
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("cloud.terminations", {{"reason", "out_of_bid"}}).inc();
  }
  obs::note(sim_.now(), "cloud",
            "instance " + std::to_string(id) + " out of bid in zone " +
                std::to_string(rec.zone));
}

void CloudProvider::terminate(InstanceId id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) throw std::out_of_range("unknown instance");
  InstanceRecord& rec = it->second;
  if (rec.state == InstanceState::kTerminated) return;
  rec.terminated = sim_.now();
  rec.reason = TerminationReason::kUser;
  posted_charges_ += charges_for(rec, sim_.now());
  if (auto oe = oob_events_.find(id); oe != oob_events_.end()) {
    sim_.cancel(oe->second);
    oob_events_.erase(oe);
  }
  if (auto se = sla_events_.find(id); se != sla_events_.end()) {
    sim_.cancel(se->second);
    sla_events_.erase(se);
  }
  set_state(rec, InstanceState::kTerminated);
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("cloud.terminations", {{"reason", "user"}}).inc();
  }
}

void CloudProvider::schedule_next_crash(InstanceId id) {
  auto delay = static_cast<TimeDelta>(
      std::max(1.0, rng_.exponential(sla_.mtbf_seconds)));
  sla_events_[id] = sim_.schedule_after(delay, [this, id] {
    auto it = instances_.find(id);
    if (it == instances_.end()) return;
    InstanceRecord& rec = it->second;
    if (rec.state == InstanceState::kTerminated) return;
    sla_events_.erase(id);
    // Crashes during startup just extend the outage; model as kDown too.
    set_state(rec, InstanceState::kDown);
    if (obs::Registry* reg = obs::metrics()) {
      reg->counter("cloud.sla_failures").inc();
    }
    obs::note(sim_.now(), "cloud",
              "instance " + std::to_string(id) + " SLA crash");
    auto repair = static_cast<TimeDelta>(
        std::max(1.0, rng_.exponential(sla_.mttr_seconds)));
    sla_events_[id] = sim_.schedule_after(repair, [this, id] {
      auto it2 = instances_.find(id);
      if (it2 == instances_.end()) return;
      InstanceRecord& rec2 = it2->second;
      if (rec2.state == InstanceState::kTerminated) return;
      sla_events_.erase(id);
      set_state(rec2, sim_.now() >= rec2.ready ? InstanceState::kRunning
                                               : InstanceState::kPending);
      schedule_next_crash(id);
    });
  });
}

const InstanceRecord& CloudProvider::record(InstanceId id) const {
  auto it = instances_.find(id);
  if (it == instances_.end()) throw std::out_of_range("unknown instance");
  return it->second;
}

bool CloudProvider::is_up(InstanceId id) const {
  auto it = instances_.find(id);
  if (it == instances_.end()) return false;
  return it->second.state == InstanceState::kRunning;
}

Money CloudProvider::charges_for(const InstanceRecord& rec,
                                 SimTime upto) const {
  if (upto <= rec.launched) return Money(0);
  if (rec.spot) {
    const SpotTrace& trace = book_.trace(rec.zone, rec.kind);
    if (rec.reason == TerminationReason::kOutOfBid) {
      // bill_spot_instance re-derives the same out-of-bid instant from the
      // trace, so billing and lifecycle agree by construction.
      return bill_spot_instance(trace, rec.launched, upto + 1, rec.bid).charge;
    }
    SpotBill bill = bill_spot_instance(trace, rec.launched, upto, rec.bid);
    return bill.charge;
  }
  return bill_on_demand(on_demand_price_zone(rec.zone, rec.kind),
                        rec.launched, upto);
}

Money CloudProvider::total_charges() const {
  Money total = posted_charges_;
  // detlint: allow(hash-iteration) — integer Money sum is commutative, order-free
  for (const auto& [id, rec] : instances_) {
    if (rec.state != InstanceState::kTerminated) {
      total += charges_for(rec, sim_.now());
    }
  }
  return total;
}

std::size_t CloudProvider::live_instance_count() const {
  std::size_t n = 0;
  // detlint: allow(hash-iteration) — counting matches is commutative, order-free
  for (const auto& [id, rec] : instances_) {
    if (rec.state != InstanceState::kTerminated) ++n;
  }
  return n;
}

}  // namespace jupiter
