// Deterministic discrete-event simulator.
//
// All dynamic behaviour in the library — spot price changes, instance
// startup, billing ticks, Paxos message delivery, bidding-interval timers —
// runs as events on this single-threaded engine.  Ties on the timestamp are
// broken by insertion order (a monotone sequence number), which makes every
// run bit-reproducible given the same seeds.
//
// Engine layout (the PR-7 hardware-fast core; docs/perf.md has diagrams):
//
//   * Calendar queue.  Pending events live in a bucketed timing wheel:
//     `buckets` ring cells of `bucket_width` simulated seconds each, covering
//     a sliding window of absolute bucket numbers [win_lo, win_lo+buckets).
//     Events beyond the window sit in an unsorted overflow tier and migrate
//     into the wheel when it reseeds.  The bucket currently being drained is
//     expanded into a small (at, seq) 4-ary min-heap (`ready`), which is the
//     only place events are ever ordered — so dispatch order is exactly the
//     old binary-heap engine's (at, seq) order, bit for bit, while schedule
//     and pop are O(1) amortized instead of O(log n).
//   * Slab arena.  Event records are pooled in a free-list slab; steady-state
//     schedule/fire cycles perform zero heap allocations (the slab, ring
//     cells, overflow and ready vectors keep their high-water capacity).
//   * Inline callbacks.  Callbacks are InlineFunction<void()> — 48 bytes of
//     in-place capture storage, larger captures rejected at compile time
//     (see sim/inline_function.hpp) — so no per-event std::function heap
//     cell, ever.
//   * O(1) cancel.  A handle names its slot directly; cancelling an event in
//     the wheel or overflow reclaims the record eagerly (swap-remove), and
//     an event already expanded into the ready heap becomes a tombstone that
//     is freed when it surfaces (bounded by one bucket's population).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_function.hpp"
#include "util/log.hpp"
#include "util/time.hpp"

namespace jupiter {

/// Handle for cancelling a scheduled event.  Handles are never reused: the
/// arm id is a process-monotone 64-bit counter, so a stale handle can never
/// cancel a later event that happens to recycle the same arena slot.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot_plus1, std::uint64_t id)
      : slot_(slot_plus1), id_(id) {}
  std::uint32_t slot_ = 0;  // arena slot index + 1; 0 = invalid
  std::uint64_t id_ = 0;    // arm id at schedule time; 0 = invalid
};

class Simulator : private LogClock {
 public:
  using Callback = InlineFunction<void()>;

  struct Options {
    /// Simulated seconds per wheel bucket.  8 s keeps sub-second Paxos
    /// latencies a handful per bucket while hourly billing/bidding timers
    /// (3600 s = 450 buckets ahead) still land inside the wheel window.
    TimeDelta bucket_width = 8;
    /// Ring size; window covers bucket_width * buckets = ~4.5 simulated
    /// hours at the defaults.  Must be a power of two.
    std::uint32_t buckets = 2048;
  };

  /// Aggregate engine statistics for benches and the obs registry.
  struct CoreStats {
    std::uint64_t dispatched = 0;     // events fired
    std::uint64_t cancelled = 0;      // events reclaimed by cancel()
    std::uint64_t engine_allocs = 0;  // slab/ring/overflow/ready growths
    std::size_t pending = 0;          // live (scheduled, not yet fired)
    std::size_t peak_pending = 0;     // high-water pending depth
    std::size_t arena_slots = 0;      // slab size (free + live)
  };

  /// Registers this simulator as its thread's resting log clock, so every
  /// JLOG line carries the simulated instant.  The first simulator on a
  /// thread wins; a second one stamps lines only while it runs.
  Simulator();
  explicit Simulator(Options opts);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `at`.  Contract: `at` must be >= now()
  /// — scheduling in the past throws std::invalid_argument and leaves the
  /// queue untouched; `at == now()` is allowed and fires within the current
  /// run (after every event already pending at now(), FIFO order).
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` seconds.
  EventHandle schedule_after(TimeDelta delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event; returns true if it had not yet fired.
  /// Contract: cancelling an already-fired, already-cancelled or
  /// default-constructed handle is a safe no-op returning false — handles
  /// are never reused, so a stale handle can never cancel someone else's
  /// event.  O(1): the record and its queue entry are reclaimed eagerly
  /// (no tombstone accumulation for far-future cancels).
  bool cancel(EventHandle h);

  /// Runs events until the queue is empty or the clock would pass `until`.
  /// While it runs, this simulator stamps the thread's log lines (and those
  /// of pool helpers running its events' parallel_for batches).
  /// Events exactly at `until` are executed.  Contract: on return the clock
  /// reads exactly `until` even when the queue drains early (the clock is
  /// clamped forward), and never past it; a second run_until with the same
  /// horizon is a no-op.
  void run_until(SimTime until);

  /// Runs a single event if one is pending; returns false if queue is empty.
  bool step();

  std::size_t pending_events() const { return live_; }
  std::uint64_t dispatched_events() const { return dispatched_; }

  /// Pre-sizes the arena, queue tiers and ring cells for an expected
  /// steady-state pending population.  Purely a capacity hint: semantics and
  /// dispatch order are unaffected; reservations are not charged to
  /// CoreStats::engine_allocs (which counts *unplanned* growths).  Callers
  /// that know their fleet size (benches, long replays) use this to reach
  /// zero allocations per event from the first event onward.
  void reserve_pending(std::size_t events);

  CoreStats core_stats() const;
  /// Writes the engine gauges (sim.core.allocs_per_event and friends) into
  /// the current obs metrics registry, if one is installed.  Explicit — the
  /// chaos corpus's metric snapshots must not grow rows behind its back.
  void publish_obs_stats() const;

 private:
  std::string log_time() const override { return now_.str(); }

  // `where` field: ring cell index, or one of these sentinels (all above
  // any legal cell index — Options::buckets is bounded well below them).
  static constexpr std::uint32_t kWhereFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kWhereReady = 0xFFFFFFFEu;
  static constexpr std::uint32_t kWhereZombie = 0xFFFFFFFDu;  // cancelled, in ready heap
  static constexpr std::uint32_t kWhereOverflow = 0xFFFFFFFCu;
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;

  struct EventSlot {
    SimTime at;
    std::uint64_t seq = 0;  // FIFO tie-break
    std::uint64_t id = 0;   // arm id (0 when free/zombie)
    std::uint32_t where = kWhereFree;
    std::uint32_t pos = 0;  // index in ring cell / overflow; free-list next
    Callback cb;
  };

  /// Ready-heap entry: the (at, seq) sort key is copied next to the slot
  /// index so heap comparisons stay inside the contiguous heap array instead
  /// of chasing slot pointers across the (large) arena.
  struct ReadyEnt {
    SimTime at;
    std::uint64_t seq = 0;
    std::uint32_t idx = 0;
  };

  std::int64_t bucket_of(SimTime at) const;
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void place(std::uint32_t idx, SimTime at);
  void swap_remove(std::vector<std::uint32_t>& vec, std::uint32_t pos);
  static bool ent_before(const ReadyEnt& a, const ReadyEnt& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  void ready_push(std::uint32_t idx);
  std::uint32_t ready_pop();
  bool advance_ready();
  void reseed_from_overflow();
  void dispatch(std::uint32_t idx);
  template <typename Vec, typename V>
  void push_counted(Vec& vec, V v) {
    if (vec.size() == vec.capacity()) ++engine_allocs_;
    vec.push_back(v);
  }

  std::vector<EventSlot> slots_;             // slab arena
  std::uint32_t free_head_ = kNoFree;        // slab free list
  std::vector<std::vector<std::uint32_t>> ring_;
  std::vector<std::uint32_t> overflow_;      // beyond the wheel window
  std::vector<ReadyEnt> ready_;              // (at, seq) min-heap
  std::int64_t win_lo_ = 0;      // window start, absolute bucket number
  std::int64_t cur_bucket_ = 0;  // bucket expanded into ready_
  std::size_t wheel_count_ = 0;  // events currently in ring cells
  TimeDelta width_;
  int width_shift_ = -1;         // log2(width_) when width_ is a power of two
  std::uint32_t nbuckets_;       // power of two
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatched_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t engine_allocs_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace jupiter
