#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/log.hpp"

namespace jupiter {

namespace {
constexpr bool is_pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Simulator::Simulator() : Simulator(Options{}) {}

Simulator::Simulator(Options opts)
    : width_(opts.bucket_width), nbuckets_(opts.buckets) {
  if (width_ < 1) throw std::invalid_argument("bucket_width must be >= 1");
  if (!is_pow2(nbuckets_) || nbuckets_ > (1u << 20)) {
    throw std::invalid_argument("buckets must be a power of two <= 2^20");
  }
  ring_.resize(nbuckets_);
  if (width_ <= (std::int64_t{1} << 30) &&
      is_pow2(static_cast<std::uint32_t>(width_))) {
    width_shift_ = 0;
    while ((std::int64_t{1} << width_shift_) < width_) ++width_shift_;
  }
  set_log_clock(this);
}

Simulator::~Simulator() { clear_log_clock(this); }

std::int64_t Simulator::bucket_of(SimTime at) const {
  // Times are non-negative (schedule_at rejects the past and now_ starts at
  // zero), so the shift is exact division for power-of-two widths — it only
  // skips the idiv on the schedule/cancel hot path.
  std::int64_t b = width_shift_ >= 0 ? (at.seconds() >> width_shift_)
                                     : at.seconds() / width_;
  // Clamp so window arithmetic (win_lo_ + nbuckets_) can never overflow for
  // events parked at/near SimTime::infinity().  Times past the clamp share
  // the terminal bucket; the ready heap's (at, seq) order still rules there.
  std::int64_t max_b = INT64_MAX - 2 * static_cast<std::int64_t>(nbuckets_);
  return b < max_b ? b : max_b;
}

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNoFree) {
    std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].pos;
    return idx;
  }
  if (slots_.size() == slots_.capacity()) ++engine_allocs_;
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::free_slot(std::uint32_t idx) {
  EventSlot& s = slots_[idx];
  s.cb.reset();
  s.id = 0;
  s.where = kWhereFree;
  s.pos = free_head_;
  free_head_ = idx;
}

void Simulator::swap_remove(std::vector<std::uint32_t>& vec,
                            std::uint32_t pos) {
  std::uint32_t last = static_cast<std::uint32_t>(vec.size() - 1);
  if (pos != last) {
    vec[pos] = vec[last];
    slots_[vec[pos]].pos = pos;
  }
  vec.pop_back();
}

// The ready heap is 4-ary: half the sift depth of a binary heap, and the
// four children share a pair of cache lines.  Heap shape cannot affect
// dispatch order — (at, seq) is a total order (seq is unique), and pop
// always removes the global minimum.
void Simulator::ready_push(std::uint32_t idx) {
  const EventSlot& s = slots_[idx];
  push_counted(ready_, ReadyEnt{s.at, s.seq, idx});
  std::size_t i = ready_.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!ent_before(ready_[i], ready_[parent])) break;
    std::swap(ready_[i], ready_[parent]);
    i = parent;
  }
}

std::uint32_t Simulator::ready_pop() {
  std::uint32_t top = ready_.front().idx;
  ReadyEnt tail = ready_.back();
  ready_.pop_back();
  std::size_t n = ready_.size();
  if (n != 0) {
    std::size_t i = 0;
    for (;;) {
      std::size_t c0 = 4 * i + 1;
      if (c0 >= n) break;
      std::size_t end = c0 + 4 < n ? c0 + 4 : n;
      std::size_t m = c0;
      for (std::size_t c = c0 + 1; c < end; ++c) {
        if (ent_before(ready_[c], ready_[m])) m = c;
      }
      if (!ent_before(ready_[m], tail)) break;
      ready_[i] = ready_[m];
      i = m;
    }
    ready_[i] = tail;
  }
  return top;
}

void Simulator::place(std::uint32_t idx, SimTime at) {
  std::int64_t b = bucket_of(at);
  if (b <= cur_bucket_) {
    // The event's bucket is the one currently expanded into the ready heap
    // (or earlier, which can only mean "this instant"): order by (at, seq)
    // directly.
    slots_[idx].where = kWhereReady;
    ready_push(idx);
  } else if (b - win_lo_ < static_cast<std::int64_t>(nbuckets_)) {
    std::uint32_t cell = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(b) & (nbuckets_ - 1));
    slots_[idx].where = cell;
    slots_[idx].pos = static_cast<std::uint32_t>(ring_[cell].size());
    push_counted(ring_[cell], idx);
    ++wheel_count_;
  } else {
    slots_[idx].where = kWhereOverflow;
    slots_[idx].pos = static_cast<std::uint32_t>(overflow_.size());
    push_counted(overflow_, idx);
  }
}

EventHandle Simulator::schedule_at(SimTime at, Callback cb) {
  if (at < now_) throw std::invalid_argument("schedule_at in the past");
  std::uint32_t idx = alloc_slot();
  EventSlot& s = slots_[idx];
  s.at = at;
  s.seq = next_seq_++;
  s.id = next_id_++;
  s.cb = std::move(cb);
  place(idx, at);
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return EventHandle(idx + 1, s.id);
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid()) return false;
  std::uint32_t idx = h.slot_ - 1;
  if (idx >= slots_.size()) return false;
  EventSlot& s = slots_[idx];
  // An event is cancellable iff it is still armed under the same arm id; the
  // id is retired the moment the event fires or is cancelled.
  if (s.id != h.id_) return false;
  if (s.where == kWhereReady) {
    // Already expanded into the ready heap: tombstone in place (the heap
    // entry surfaces within the current bucket and is freed then).
    s.cb.reset();
    s.id = 0;
    s.where = kWhereZombie;
  } else if (s.where == kWhereOverflow) {
    swap_remove(overflow_, s.pos);
    free_slot(idx);
  } else {
    swap_remove(ring_[s.where], s.pos);
    --wheel_count_;
    free_slot(idx);
  }
  --live_;
  ++cancelled_count_;
  return true;
}

void Simulator::reseed_from_overflow() {
  // The wheel is empty: jump the window to the earliest overflow bucket and
  // migrate everything that now falls inside it.  Each overflow event is
  // touched O(1) times per window the cursor actually visits.
  std::int64_t min_b = INT64_MAX;
  for (std::uint32_t idx : overflow_) {
    std::int64_t b = bucket_of(slots_[idx].at);
    if (b < min_b) min_b = b;
  }
  win_lo_ = min_b;
  cur_bucket_ = min_b;
  for (std::size_t i = 0; i < overflow_.size();) {
    std::uint32_t idx = overflow_[i];
    std::int64_t b = bucket_of(slots_[idx].at);
    if (b - win_lo_ >= static_cast<std::int64_t>(nbuckets_)) {
      ++i;
      continue;
    }
    swap_remove(overflow_, static_cast<std::uint32_t>(i));
    if (b <= cur_bucket_) {
      // Earliest bucket goes straight to the ready heap, preserving the
      // invariant that cur_bucket_'s ring cell is always already expanded.
      slots_[idx].where = kWhereReady;
      ready_push(idx);
    } else {
      std::uint32_t cell = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(b) & (nbuckets_ - 1));
      slots_[idx].where = cell;
      slots_[idx].pos = static_cast<std::uint32_t>(ring_[cell].size());
      push_counted(ring_[cell], idx);
      ++wheel_count_;
    }
  }
}

bool Simulator::advance_ready() {
  while (ready_.empty()) {
    if (wheel_count_ > 0) {
      std::int64_t end_rel = static_cast<std::int64_t>(nbuckets_);
      std::int64_t b = cur_bucket_ + 1;
      while (b - win_lo_ < end_rel &&
             ring_[static_cast<std::uint64_t>(b) & (nbuckets_ - 1)].empty()) {
        ++b;
      }
      // wheel_count_ > 0 guarantees a nonempty cell inside the window.
      cur_bucket_ = b;
      std::vector<std::uint32_t>& cell =
          ring_[static_cast<std::uint64_t>(b) & (nbuckets_ - 1)];
      wheel_count_ -= cell.size();
      for (std::size_t k = 0; k < cell.size(); ++k) {
#if defined(__GNUC__) || defined(__clang__)
        // Expansion touches every event's slot once, in ring-cell (i.e.
        // allocation) order — scattered across the arena.  Fetch a few
        // ahead so the (at, seq) reads below don't stall per slot.
        if (k + 4 < cell.size()) {
          __builtin_prefetch(&slots_[cell[k + 4]], 1, 1);
        }
#endif
        std::uint32_t idx = cell[k];
        slots_[idx].where = kWhereReady;
        ready_push(idx);
      }
      cell.clear();
    } else if (!overflow_.empty()) {
      reseed_from_overflow();
    } else {
      return false;
    }
  }
  return true;
}

void Simulator::dispatch(std::uint32_t idx) {
  EventSlot& s = slots_[idx];
  now_ = s.at;
  Callback cb = std::move(s.cb);
  free_slot(idx);  // reusable by events the callback schedules
  --live_;
  ++dispatched_;
  cb();
}

bool Simulator::step() {
  LogClockScope log_clock(this);
  while (advance_ready()) {
    std::uint32_t idx = ready_pop();
    if (slots_[idx].where == kWhereZombie) {
      free_slot(idx);
      continue;
    }
    dispatch(idx);
    return true;
  }
  return false;
}

void Simulator::run_until(SimTime until) {
  LogClockScope log_clock(this);
  while (advance_ready()) {
    // ready_.front() is the global minimum: ring cells hold strictly later
    // buckets and the overflow tier sits beyond the wheel window.
    if (ready_.front().at > until) break;
    std::uint32_t idx = ready_pop();
#if defined(__GNUC__) || defined(__clang__)
    // Pull the next event's slot toward the cache while this callback runs;
    // slot indices are scattered across the arena, so the load would
    // otherwise stall the top of the next iteration.
    if (!ready_.empty()) __builtin_prefetch(&slots_[ready_.front().idx], 1, 1);
#endif
    if (slots_[idx].where == kWhereZombie) {
      free_slot(idx);
      continue;
    }
    dispatch(idx);
  }
  if (until > now_) now_ = until;
}

void Simulator::reserve_pending(std::size_t events) {
  slots_.reserve(slots_.size() + events);
  ready_.reserve(events);
  overflow_.reserve(events);
  // Ring cells see one bucket's worth of the population each; clustered
  // timers (hourly billing boundaries) can pile several mean-loads into one
  // cell, so reserve with generous headroom — it is cheap (u32 entries) and
  // eliminates late capacity-record growths.
  std::size_t per_cell = events / 32;
  if (per_cell < 16) per_cell = 16;
  for (auto& cell : ring_) cell.reserve(per_cell);
}

Simulator::CoreStats Simulator::core_stats() const {
  CoreStats st;
  st.dispatched = dispatched_;
  st.cancelled = cancelled_count_;
  st.engine_allocs = engine_allocs_;
  st.pending = live_;
  st.peak_pending = peak_live_;
  st.arena_slots = slots_.size();
  return st;
}

void Simulator::publish_obs_stats() const {
  obs::Registry* reg = obs::metrics();
  if (!reg) return;
  CoreStats st = core_stats();
  reg->gauge("sim.core.dispatched").set(static_cast<double>(st.dispatched));
  reg->gauge("sim.core.cancelled").set(static_cast<double>(st.cancelled));
  reg->gauge("sim.core.peak_pending")
      .set(static_cast<double>(st.peak_pending));
  reg->gauge("sim.core.arena_slots").set(static_cast<double>(st.arena_slots));
  reg->gauge("sim.core.allocs_per_event")
      .set(st.dispatched == 0 ? 0.0
                              : static_cast<double>(st.engine_allocs) /
                                    static_cast<double>(st.dispatched));
}

}  // namespace jupiter
