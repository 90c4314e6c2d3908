// Discrete semi-Markov chain over spot prices (paper §3.1, §4.2).
//
// States are spot prices on the $0.0001 tick grid; the sojourn clock runs in
// minutes (the paper's time unit, Eq. 12).  The stochastic kernel
//     Q(i, j, k) = Pr(next price = s_j, sojourn = k | current price = s_i)
// is either constructed explicitly (ground-truth synthetic processes) or
// estimated from a trace by the empirical MLE of Eq. 13:
//     q^(i,j,k) = N^k_{i,j} / N_i.
//
// One class serves three roles:
//   * generator   — sample_jump()/generate() draw trajectories, which is how
//                   synthetic zone traces are produced;
//   * estimator   — estimate() reconstructs a kernel from an observed trace;
//   * analyzer    — average_occupancy()/exceed_probability() run the
//                   transient (forward) analysis that the failure model
//                   needs: "given the current price and how long it has held,
//                   what fraction of the next H minutes will the price spend
//                   above bid b?"
//
// States with no observed outgoing transition are treated as absorbing
// (kernel row of zeros), matching the paper's q^ = 0 convention.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "market/spot_trace.hpp"
#include "util/money.hpp"
#include "util/rng.hpp"

namespace jupiter {

/// Sojourn times are clamped to [1, kMaxSojournMinutes].  Sub-minute
/// sojourns round up to one minute (Eq. 12 floors, but a zero sojourn would
/// let the transient analysis cascade within a single time unit); sojourns
/// beyond the cap are clamped, which only fattens the longest-hold bucket.
inline constexpr int kMaxSojournMinutes = 24 * 60;

class SemiMarkovChain {
 public:
  struct Transition {
    int next;       // destination state index
    int sojourn;    // minutes spent in the *current* state before jumping
    double prob;    // kernel mass q(i, next, sojourn)
    double count = 0;  // raw observation weight behind `prob` (Eq. 13 N^k_{i,j})
  };

  SemiMarkovChain() = default;

  /// Constructs with an explicit, sorted-unique price state space.
  explicit SemiMarkovChain(std::vector<PriceTick> prices);

  /// Estimates the kernel from a trace via Eq. 13.  Every distinct price in
  /// the trace becomes a state.  The final (still-open) segment contributes
  /// a state but no transition.
  static SemiMarkovChain estimate(const SpotTrace& trace);

  /// Append-only incremental training: folds the change points of `trace`
  /// with time in [from, to) into the estimated kernel, renormalizing only
  /// the rows that gained observations (and growing the state space when a
  /// new price appears).  Produces a chain identical to a full re-estimate
  /// over the concatenated history — the online bidder keeps per-zone
  /// models warm between decisions instead of retraining from scratch.
  /// Only valid on chains built by estimate() (throws otherwise).  Returns
  /// the number of change points folded (0 means the chain is unchanged).
  int extend(const SpotTrace& trace, SimTime from, SimTime to);

  /// The last change point folded by estimate()/extend(), if this chain was
  /// trained from a trace.  Its outgoing transition is still open.
  [[nodiscard]] std::optional<PricePoint> trained_tail() const { return tail_; }

  // ---- state space ----
  int state_count() const { return static_cast<int>(prices_.size()); }
  PriceTick state_price(int i) const { return prices_.at(static_cast<std::size_t>(i)); }
  const std::vector<PriceTick>& prices() const { return prices_; }

  /// Index of the state with this exact price, or -1.
  int find_state(PriceTick p) const;
  /// Index of the state with the closest price (ties resolve downward).
  /// Used when the live price was never seen in training.
  int nearest_state(PriceTick p) const;

  // ---- kernel construction (ground-truth processes) ----
  /// Adds kernel mass; call normalize_rows() once done.
  void add_transition(int from, int to, int sojourn_minutes, double weight);
  /// Scales each row to total probability 1 (rows with zero mass stay
  /// absorbing).
  void normalize_rows();

  std::span<const Transition> row(int state) const;
  bool is_absorbing(int state) const { return kernel_.at(static_cast<std::size_t>(state)).empty(); }

  /// Total kernel mass of a row (1 after normalize/estimate, 0 if absorbing).
  double row_mass(int state) const;

  // ---- sojourn law ----
  /// Survival S_i(d) = Pr(sojourn > d | state i); S_i(0) == 1.  Absorbing
  /// states survive forever.
  double survival(int state, int d) const;
  /// Sum_{t=0..d} S_i(t): expected minutes (out of the next d+1) still spent
  /// in state i before the first jump, given a fresh arrival.
  double survival_cumsum(int state, int d) const;
  /// Mean sojourn in minutes (absorbing states report +inf).
  double mean_sojourn(int state) const;

  /// The age the transient analyses actually condition on: `age` clamped
  /// down to the longest elapsed sojourn with positive survival.  Exposed so
  /// callers can canonicalize cache keys — hit_one()/average_occupancy()
  /// return identical results for any age with the same clamped value.
  int clamped_age(int state, int age) const;

  // ---- generation ----
  struct Jump {
    int next;
    int sojourn;  // minutes
  };
  /// Samples the next (destination, sojourn); nullopt for absorbing states.
  [[nodiscard]] std::optional<Jump> sample_jump(int state, Rng& rng) const;

  /// Generates a price trace on [from, to): starts in `initial_state` at
  /// `from` and follows sampled jumps (sojourns converted to seconds).
  SpotTrace generate(SimTime from, SimTime to, int initial_state,
                     Rng& rng) const;

  // ---- transient analysis ----
  /// Average state occupancy over the next `horizon` minutes, conditioned on
  /// currently being in `state` with `age` minutes of elapsed sojourn.
  /// Result[s] = (1/H) * Sum_{t=1..H} Pr(in state s at minute t); entries
  /// sum to 1.  If `age` exceeds every observed sojourn it is clamped down
  /// to the longest age with positive survival.
  std::vector<double> average_occupancy(int state, int age,
                                        int horizon) const;

  /// Mean over the next `horizon` minutes of Pr(price > bid) — the
  /// out-of-bid component of Eq. 14 integrated over the bidding interval
  /// (discretized Eq. 5).
  double exceed_probability(int state, int age, int horizon,
                            PriceTick bid) const;

  /// Time-average exceedance for *every* bid threshold at once: returns a
  /// vector aligned with prices() where entry s is the mean probability of
  /// the price being strictly greater than prices()[s].  One transient
  /// analysis serves the whole bid search of the bidding algorithm.
  std::vector<double> exceed_curve(int state, int age, int horizon) const;

  /// Threshold cap meaning "every state": hit_curve() computes all of them.
  static constexpr int kAllThresholds = std::numeric_limits<int>::max();

  /// First-passage curve: entry s is the probability that the price
  /// *strictly exceeds* prices()[s] at least once within the next `horizon`
  /// minutes (conditioned on current state and elapsed sojourn `age`).
  /// This is the probability an instance bid at prices()[s] suffers an
  /// out-of-bid termination during the bidding interval — the semantics the
  /// bidding framework needs, since a terminated instance stays gone until
  /// the next interval.  Nonincreasing in s; entry for the top state is 0.
  ///
  /// `top` caps the thresholds: the curve has min(top, n - 1) + 1 entries,
  /// equal bit for bit to the first entries of the uncapped curve.  A
  /// threshold's DP only visits states at or below it, so the states and
  /// jumps above the cap are never touched (the failure model caps at the
  /// last price below on-demand, which no bid reaches past).
  ///
  /// Batched: one flat entry-propagation table runs every threshold's
  /// restricted DP in lockstep, replicating hit_one()'s arithmetic (and
  /// accumulation order) per threshold exactly — the returned values are
  /// bit-identical to calling hit_one() per index.  Each minute's slice is
  /// state-major (row j holds thresholds [j, top] contiguously); each
  /// (minute, state) row is masked once at kMassEps and walked once per
  /// transition of a packed hop table (the kernel rows in order, without
  /// the jumps past the horizon or above the cap), and a row's walk stops at
  /// its first jump past the horizon, which needs kernel rows sorted by
  /// (sojourn, next).  Falls back to per-threshold hit_one() calls when the
  /// (horizon x state-pair) table would be too large.
  std::vector<double> hit_curve(int state, int age, int horizon,
                                int top = kAllThresholds) const;

  /// First-passage curves for several horizons from one DP: result[i] is
  /// hit_curve(state, age, horizons[i], top), bit for bit.  The entry
  /// propagation runs once, to the largest horizon; each horizon keeps its
  /// own no-escape accumulator over the minutes up to it.  Horizons may
  /// repeat and come in any order; each must be positive.  Those whose
  /// table is too large for the batched kernel fall back to per-threshold
  /// hit_one() calls.
  std::vector<std::vector<double>> hit_curve(
      int state, int age, std::span<const int> horizons,
      int top = kAllThresholds) const;

  /// Single-threshold first passage: Pr(price leaves the set
  /// {states <= threshold_index} within `horizon` minutes.  The building
  /// block of hit_curve(); exposed so callers can evaluate lazily (the
  /// bidding algorithm usually needs only a few thresholds per zone).
  double hit_one(int state, int age, int horizon, int threshold_index) const;

  /// Single-threshold first passage: Pr(price exceeds `bid` within horizon).
  double hit_probability(int state, int age, int horizon, PriceTick bid) const;

  /// Collapses the sojourn law of every state to a geometric distribution
  /// with the same mean (memoryless / embedded-Markov approximation); the
  /// next-state marginal is preserved.  Used by the model-ablation bench.
  SemiMarkovChain to_memoryless() const;

  /// Stationary occupancy distribution (time-weighted), computed by power
  /// iteration on the embedded chain weighted by mean sojourns.  Returns an
  /// empty vector if the chain has absorbing states reachable with
  /// probability one (not meaningful then).
  std::vector<double> stationary_occupancy() const;

 private:
  /// The batched kernel behind hit_curve(): appends one curve of the
  /// thresholds [0, nt) per horizon of `hs` (sorted, unique, positive,
  /// table within bounds at hs.back()) to `curves`.
  void hit_curves_batched(int state, int age, std::span<const int> hs, int nt,
                          std::vector<std::vector<double>>& curves) const;
  void rebuild_survival();
  void rebuild_survival_row(int state);
  int clamp_age(int state, int age) const;
  /// Index of the state for `p`, inserting a fresh (absorbing) state and
  /// remapping existing transition indices if the price is new.
  int ensure_state(PriceTick p);
  /// Recomputes a row's probabilities from its raw counts (prob = count /
  /// row total) and rebuilds that row's survival function.
  void renormalize_row_from_counts(int state);

  std::vector<PriceTick> prices_;               // sorted ascending, unique
  std::vector<std::vector<Transition>> kernel_; // per-state rows
  // survival_[i][d] = Pr(sojourn > d), d in [0, max_sojourn_i]; empty for
  // absorbing states (implicitly 1 forever).
  std::vector<std::vector<double>> survival_;
  bool survival_dirty_ = true;
  // Last change point folded by estimate()/extend(); its outgoing
  // transition is observed only when the next change point arrives.
  std::optional<PricePoint> tail_;
};

}  // namespace jupiter
