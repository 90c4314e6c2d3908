// Simulator-core throughput guardrail: the calendar-queue engine vs the
// binary-heap engine it replaced.
//
// The reference engine embedded below (namespace legacy) is a faithful copy
// of the seed Simulator — std::priority_queue of fat Event records,
// std::function callbacks, and two unordered_set side tables for cancel
// tracking — minus the log-clock hookup.  Both engines replay the identical
// synthetic workload, modeled on the two-service 11-week paper replay that
// dominates the experiment scripts:
//
//   * per service, an hourly bid decision that re-arms itself, prices a
//     handful of market events into the next interval (each spawning a
//     short Paxos-like latency chain), books a billing tick, arms a
//     revocation guard two hours out that the next decision cancels, and
//     posts a one-week lease watchdog (the far-future tier);
//   * per service, a fleet of spot instances with self-re-arming hourly
//     billing ticks — the persistent queue depth — each re-arming an
//     out-of-bid revocation guard hours out and cancelling the previous
//     one, the paper's guard-churn pattern.  Cancels are where the engines
//     diverge hardest: the legacy engine buries tombstones in the heap
//     until they surface (hours of simulated time later), the calendar
//     queue reclaims them eagerly in O(1).
//
// The driver draws jitter from its own LCG, so both engines see the exact
// same schedule; dispatch counts must match or the run aborts.
//
// Guardrails (enforced by exit code; ctest runs --smoke):
//   * calendar-queue events/sec >= 10x the legacy engine, read as the median
//     ratio over nine equal slices of the steady half that the two engines
//     run in alternation (see kSlices);
//   * zero heap allocations per event at steady state (second half of the
//     replay, global operator-new count), and zero engine-internal
//     capacity growths (CoreStats::engine_allocs).
//
// Run from the build directory:
//   ./bench/bench_perf_sim_core [--smoke] [out.json]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/simulator.hpp"

// ---- global allocation counting -------------------------------------------
// Counts every plain operator-new in the process; steady-state deltas around
// a run_until window give allocations per event.  Counting, not accounting:
// the replacement stays malloc-backed and never throws differently.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace jupiter;

namespace legacy {

/// The seed engine, verbatim semantics: binary heap + lazy cancel sets.
class Simulator {
 public:
  using Callback = std::function<void()>;

  class Handle {
   public:
    Handle() = default;
    bool valid() const { return id_ != 0; }

   private:
    friend class Simulator;
    explicit Handle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
  };

  SimTime now() const { return now_; }

  Handle schedule_at(SimTime at, Callback cb) {
    std::uint64_t id = next_id_++;
    queue_.push(Event{at, next_seq_++, id, std::move(cb)});
    live_ids_.insert(id);
    return Handle(id);
  }
  Handle schedule_after(TimeDelta delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  bool cancel(Handle h) {
    if (!h.valid()) return false;
    if (live_ids_.erase(h.id_) == 0) return false;
    cancelled_.insert(h.id_);
    return true;
  }

  void run_until(SimTime until) {
    while (!queue_.empty()) {
      if (queue_.top().at > until) break;
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (cancelled_.erase(ev.id) > 0) continue;
      now_ = ev.at;
      live_ids_.erase(ev.id);
      ++dispatched_;
      Callback cb = std::move(ev.cb);
      cb();
    }
    if (until > now_) now_ = until;
  }

  std::uint64_t dispatched_events() const { return dispatched_; }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::unordered_set<std::uint64_t> live_ids_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace legacy

namespace {

constexpr int kServices = 2;          // lock service + storage service
constexpr int kFleetPerService = 10000;  // billing-ticking spot instances
constexpr int kPricesPerDecide = 6;
constexpr int kChainDepth = 3;

/// SplitMix-style generator: the jitter stream both engines share.
struct Lcg {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  std::int64_t below(std::int64_t n) {
    // Multiply-shift bound (next() is 31 bits): no idiv on the driver path,
    // so driver overhead — identical for both engines — stays small.
    return static_cast<std::int64_t>(
        (next() * static_cast<std::uint64_t>(n)) >> 31);
  }
};

/// Drives one engine through the two-service replay.  Market-facing
/// callbacks carry the context real ones do — service id, spot price, bid
/// level: 32 bytes of capture.  That fits the core engine's 48-byte inline
/// storage but overflows std::function's small-buffer optimization, so the
/// legacy engine pays the per-event callback allocation it always paid in
/// the real replay (paxos delivery closures, billing lambdas).
template <class Sim, class Handle>
struct Replay {
  Sim& sim;
  SimTime end;
  Lcg rng;
  Handle guards[kServices] = {};
  std::vector<Handle> instance_guards;  // per-instance revocation guards
  std::vector<Handle> round_timeouts;   // per-instance renewal RPC deadlines
  std::vector<Handle> session_guards;   // per-instance session-level deadlines
  std::uint64_t scheduled = 0;
  std::uint64_t cancels = 0;
  std::int64_t outstanding = 0;
  std::int64_t peak_outstanding = 0;
  double cost_sink = 0;  // keeps captured prices observable

  Replay(Sim& s, SimTime horizon) : sim(s), end(horizon) {}

  void arm(SimTime at, typename Sim::Callback cb) {
    ++scheduled;
    if (++outstanding > peak_outstanding) peak_outstanding = outstanding;
    sim.schedule_at(at, std::move(cb));
  }

  void start() {
    instance_guards.resize(
        static_cast<std::size_t>(kServices) * kFleetPerService);
    round_timeouts.resize(instance_guards.size());
    session_guards.resize(instance_guards.size());
    for (int s = 0; s < kServices; ++s) {
      arm(sim.now() + 1 + s, typename Sim::Callback([this, s] { decide(s); }));
      for (int i = 0; i < kFleetPerService; ++i) {
        double rate = 0.01 + 0.0001 * static_cast<double>(i % 64);
        int inst = s * kFleetPerService + i;
        arm(sim.now() + 1 + rng.below(3600),
            typename Sim::Callback([this, inst, rate, acc = 0.0] {
              billing_tick(inst, rate, acc);
            }));
      }
    }
  }

  void decide(int s) {
    --outstanding;
    if (guards[s].valid() && sim.cancel(guards[s])) {
      ++cancels;
      --outstanding;
    }
    guards[s] = Handle{};
    for (int i = 0; i < kPricesPerDecide; ++i) {
      double price =
          0.007 + 0.001 * static_cast<double>(rng.below(40));
      double bid = price * 1.5;
      arm(sim.now() + 1 + rng.below(3600),
          typename Sim::Callback([this, s, price, bid] {
            price_event(s, kChainDepth, price, bid);
          }));
    }
    if (sim.now() + 7200 <= end) {
      ++scheduled;
      if (++outstanding > peak_outstanding) peak_outstanding = outstanding;
      guards[s] = sim.schedule_at(
          sim.now() + 7200, typename Sim::Callback([this, s] { revoke(s); }));
    }
    arm(sim.now() + 7 * 24 * 3600,
        typename Sim::Callback([this] { watchdog(); }));
    if (sim.now() + 3600 <= end) {
      arm(sim.now() + 3600, typename Sim::Callback([this, s] { decide(s); }));
    }
  }

  void price_event(int s, int depth, double price, double bid) {
    --outstanding;
    cost_sink += price;
    if (depth > 0 && bid > price) {
      arm(sim.now() + 1,
          typename Sim::Callback([this, s, depth, price, bid] {
            price_event(s, depth - 1, price, bid);
          }));
    }
  }

  void billing_tick(int inst, double rate, double acc) {
    --outstanding;
    acc += rate;
    // Re-arm the instance's out-of-bid revocation guard three days out and
    // cancel the previous one (the bid survived this interval — the paper's
    // bids hold for days at a time).  The legacy engine carries every
    // cancelled guard as a heap tombstone until its timestamp surfaces 72
    // simulated hours later — ~72 resident tombstones per instance at
    // steady state; the calendar queue frees the record on the spot.
    Handle& guard = instance_guards[static_cast<std::size_t>(inst)];
    if (guard.valid() && sim.cancel(guard)) {
      ++cancels;
      --outstanding;
    }
    ++scheduled;
    if (++outstanding > peak_outstanding) peak_outstanding = outstanding;
    guard = sim.schedule_at(
        sim.now() + 72 * 3600,
        typename Sim::Callback([this, inst] { out_of_bid(inst); }));
    // Each tick also runs a short consensus round (lease renewal through the
    // lock service): two message hops a second apart, with a round timeout
    // armed here and cancelled when the ack lands — the cancel/re-arm churn
    // every consensus implementation carries.  Near-term events are where
    // the engines differ most — the legacy heap sifts each one up through
    // every resident far-future tombstone and back down on pop; the
    // calendar queue adds it to the already-expanded current bucket.
    // The renewal round carries two layered deadlines, Chubby keepalive
    // style: the RPC deadline on the round and the session-level renewal
    // deadline above it.  Both are retired by the ack — every round is
    // timer churn, not just timer dispatch.
    Handle& round = round_timeouts[static_cast<std::size_t>(inst)];
    ++scheduled;
    if (++outstanding > peak_outstanding) peak_outstanding = outstanding;
    round = sim.schedule_at(
        sim.now() + 30,
        typename Sim::Callback([this, inst] { round_timeout(inst); }));
    ++scheduled;
    if (++outstanding > peak_outstanding) peak_outstanding = outstanding;
    session_guards[static_cast<std::size_t>(inst)] = sim.schedule_at(
        sim.now() + 45,
        typename Sim::Callback([this, inst] { session_expire(inst); }));
    arm(sim.now() + 1, typename Sim::Callback([this, inst, rate, acc] {
          renew_msg(inst, rate, acc);
        }));
    if (sim.now() + 3600 <= end) {
      arm(sim.now() + 3600 + rng.below(7) - 3,
          typename Sim::Callback(
              [this, inst, rate, acc] { billing_tick(inst, rate, acc); }));
    } else {
      cost_sink += acc;
    }
  }

  void renew_msg(int inst, double rate, double acc) {
    --outstanding;
    // Per-hop retransmit timeout, cancelled by the ack: the handle rides in
    // the ack's capture the way a real RPC layer pins its timer to the
    // in-flight call.
    ++scheduled;
    if (++outstanding > peak_outstanding) peak_outstanding = outstanding;
    Handle retx = sim.schedule_at(
        sim.now() + 30,
        typename Sim::Callback([this, inst] { retransmit(inst); }));
    arm(sim.now() + 1,
        typename Sim::Callback([this, inst, racc = rate + acc, retx] {
          renew_ack(inst, racc, retx);
        }));
  }

  void renew_ack(int inst, double racc, Handle retx) {
    --outstanding;
    if (sim.cancel(retx)) {
      ++cancels;
      --outstanding;
    }
    Handle& round = round_timeouts[static_cast<std::size_t>(inst)];
    if (round.valid() && sim.cancel(round)) {
      ++cancels;
      --outstanding;
    }
    round = Handle{};
    Handle& session = session_guards[static_cast<std::size_t>(inst)];
    if (session.valid() && sim.cancel(session)) {
      ++cancels;
      --outstanding;
    }
    session = Handle{};
    cost_sink += racc;
  }

  void session_expire(int inst) {
    --outstanding;
    session_guards[static_cast<std::size_t>(inst)] = Handle{};
  }

  void round_timeout(int inst) {
    --outstanding;
    round_timeouts[static_cast<std::size_t>(inst)] = Handle{};
  }

  void retransmit(int) { --outstanding; }

  void out_of_bid(int inst) {
    --outstanding;
    instance_guards[static_cast<std::size_t>(inst)] = Handle{};
  }

  void revoke(int) { --outstanding; }
  void watchdog() { --outstanding; }
};

// detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
double seconds_between(std::chrono::steady_clock::time_point a,
                       // detlint: allow(banned-time) — wall-clock benchmark timing
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The steady half is cut into kSlices equal slices that the two engines
// take in turn.  Each slice's ratio compares the engines over the same
// simulated stretch at nearly the same wall-clock moment, so a burst of host
// noise spoils one slice's ratio rather than one engine's whole timing; the
// gate reads the median slice.  An engine that runs right after the other
// inherits its caches and reads slow, so which engine goes first alternates
// by slice, and the first 1/kLeadIn of every slice runs untimed to re-warm
// them.  Allocations are still counted over every steady-state event.
constexpr int kSlices = 9;
constexpr int kLeadIn = 4;

struct RunResult {
  std::uint64_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_engine_allocs = 0;
  std::uint64_t steady_events = 0;
  std::uint64_t timed_events = 0;  // steady events inside the timed parts
  std::int64_t peak_outstanding = 0;
  std::array<double, kSlices> slice_events_per_sec{};
};

template <class Sim>
std::uint64_t engine_allocs(Sim& sim) {
  if constexpr (requires { sim.core_stats(); }) {
    return sim.core_stats().engine_allocs;
  } else {
    return 0;
  }
}

/// One engine and its replay driver, advanced slice by slice.
template <class Sim, class Handle>
struct Leg {
  Sim& sim;
  Replay<Sim, Handle> replay;
  RunResult r;

  Leg(Sim& s, SimTime horizon) : sim(s), replay(s, horizon) { replay.start(); }

  // Allocations count over the whole slice, throughput over its timed part
  // only; the other engine's slices never reach this engine's tally.
  void slice(int k, SimTime to) {
    std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    std::uint64_t events0 = sim.dispatched_events();
    std::uint64_t engine0 = engine_allocs(sim);
    const std::int64_t from = sim.now().seconds();
    sim.run_until(SimTime(from + (to.seconds() - from) / kLeadIn));
    std::uint64_t timed0 = sim.dispatched_events();
    // detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
    auto t0 = std::chrono::steady_clock::now();
    sim.run_until(to);
    // detlint: allow(banned-time) — wall-clock benchmark timing, not simulation time
    auto t1 = std::chrono::steady_clock::now();
    double secs = seconds_between(t0, t1);
    std::uint64_t timed = sim.dispatched_events() - timed0;
    r.steady_allocs += g_allocs.load(std::memory_order_relaxed) - allocs0;
    r.steady_engine_allocs += engine_allocs(sim) - engine0;
    r.steady_events += sim.dispatched_events() - events0;
    r.timed_events += timed;
    r.seconds += secs;
    r.slice_events_per_sec[static_cast<std::size_t>(k)] =
        secs > 0 ? static_cast<double>(timed) / secs : 0;
  }

  void finish() {
    r.events = sim.dispatched_events();
    r.events_per_sec =
        r.seconds > 0 ? static_cast<double>(r.timed_events) / r.seconds : 0;
    r.peak_outstanding = replay.peak_outstanding;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sim_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int weeks = smoke ? 1 : 11;
  const SimTime horizon(static_cast<std::int64_t>(weeks) * 7 * 24 * 3600);

  std::printf("sim-core replay: %d services, %d instances each, %d weeks%s\n",
              kServices, kFleetPerService, weeks, smoke ? " (smoke)" : "");

  legacy::Simulator legacy_sim;
  Simulator core_sim;
  // Fleet size is known up front, as it would be in a real replay: pre-size
  // the arena and tiers so no event ever pays for capacity growth.
  core_sim.reserve_pending(static_cast<std::size_t>(kServices) *
                           kFleetPerService * 3);
  Leg<legacy::Simulator, legacy::Simulator::Handle> old_leg(legacy_sim,
                                                            horizon);
  Leg<Simulator, EventHandle> new_leg(core_sim, horizon);
  // First half is warmup: queues and side tables grow to their steady-state
  // depth (the legacy engine's tombstone population takes ~3 simulated days
  // to fill in).  Throughput and allocations are both measured over the
  // second, steady-state half only.
  const std::int64_t half = horizon.seconds() / 2;
  legacy_sim.run_until(SimTime(half));
  core_sim.run_until(SimTime(half));
  std::array<double, kSlices> ratios{};
  for (int k = 0; k < kSlices; ++k) {
    SimTime to(half + (horizon.seconds() - half) * (k + 1) / kSlices);
    if (k % 2 == 0) {
      old_leg.slice(k, to);
      new_leg.slice(k, to);
    } else {
      new_leg.slice(k, to);
      old_leg.slice(k, to);
    }
    const auto i = static_cast<std::size_t>(k);
    double old_rate = old_leg.r.slice_events_per_sec[i];
    ratios[i] = old_rate > 0 ? new_leg.r.slice_events_per_sec[i] / old_rate : 0;
  }
  old_leg.finish();
  new_leg.finish();
  const RunResult& old = old_leg.r;
  const RunResult& neu = new_leg.r;
  Simulator::CoreStats st = core_sim.core_stats();
  auto report = [](const char* name, const RunResult& r) {
    std::printf(
        "  %-7s %10llu events; %llu of the steady half's %llu timed in "
        "%6.3f s  (%.2fM events/s)\n",
        name, static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.timed_events),
        static_cast<unsigned long long>(r.steady_events), r.seconds,
        r.events_per_sec / 1e6);
  };
  report("legacy", old);
  report("core", neu);

  if (old.events != neu.events) {
    std::fprintf(stderr, "event count mismatch: legacy %llu vs core %llu\n",
                 static_cast<unsigned long long>(old.events),
                 static_cast<unsigned long long>(neu.events));
    return 2;
  }

  std::array<double, kSlices> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double speedup = sorted[kSlices / 2];
  std::string slice_list;
  for (int k = 0; k < kSlices; ++k) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", k ? ", " : "",
                  ratios[static_cast<std::size_t>(k)]);
    slice_list += buf;
  }
  double steady_allocs_per_event =
      neu.steady_events > 0 ? static_cast<double>(neu.steady_allocs) /
                                  static_cast<double>(neu.steady_events)
                            : 0;
  bool speed_ok = speedup >= 10.0;
  bool alloc_ok =
      neu.steady_allocs == 0 && neu.steady_engine_allocs == 0;
  std::printf("  slice speedups [%s]\n", slice_list.c_str());
  std::printf(
      "  speedup %.2fx median of %d slices (floor 10x) — %s; steady-state "
      "allocs/event %.6f (%llu allocs / %llu events, engine growths %llu) — "
      "%s\n",
      speedup, kSlices, speed_ok ? "PASS" : "FAIL", steady_allocs_per_event,
      static_cast<unsigned long long>(neu.steady_allocs),
      static_cast<unsigned long long>(neu.steady_events),
      static_cast<unsigned long long>(neu.steady_engine_allocs),
      alloc_ok ? "PASS" : "FAIL");
  std::printf("  peak pending %llu (driver saw %lld), arena %llu slots\n",
              static_cast<unsigned long long>(st.peak_pending),
              static_cast<long long>(neu.peak_outstanding),
              static_cast<unsigned long long>(st.arena_slots));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"workload\": {\"services\": %d, \"fleet_per_service\": %d, "
      "\"weeks\": %d, \"events\": %llu, \"smoke\": %s},\n"
      "  \"legacy\": {\"steady_seconds\": %.4f, \"events_per_sec\": %.0f},\n"
      "  \"core\": {\"steady_seconds\": %.4f, \"events_per_sec\": %.0f,\n"
      "           \"steady_allocs\": %llu, \"steady_events\": %llu,\n"
      "           \"allocs_per_event\": %.6f, \"steady_engine_growths\": "
      "%llu,\n"
      "           \"peak_queue_depth\": %llu, \"arena_slots\": %llu},\n"
      "  \"speedup\": %.3f, \"slice_speedups\": [%s],\n"
      "  \"guardrails\": {\"min_speedup\": 10.0, \"max_allocs_per_event\": "
      "0, \"pass\": %s}\n"
      "}\n",
      kServices, kFleetPerService, weeks,
      static_cast<unsigned long long>(neu.events), smoke ? "true" : "false",
      old.seconds, old.events_per_sec, neu.seconds, neu.events_per_sec,
      static_cast<unsigned long long>(neu.steady_allocs),
      static_cast<unsigned long long>(neu.steady_events),
      steady_allocs_per_event,
      static_cast<unsigned long long>(neu.steady_engine_allocs),
      static_cast<unsigned long long>(st.peak_pending),
      static_cast<unsigned long long>(st.arena_slots),
      speedup, slice_list.c_str(), (speed_ok && alloc_ok) ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return (speed_ok && alloc_ok) ? 0 : 1;
}
