// Warm failure models for one market family (paper §3.1, §4.2, Eq. 13-14).
//
// A failure model belongs to a market — a (zone, instance type) pair whose
// chain is re-estimated as its prices arrive — not to the service bidding
// in it.  WarmFailureModels owns the models of every zone of one instance
// type, trained on one TraceBook from one history start with one
// out-of-bid estimator, and keeps them warm: the first advance_to() trains
// from scratch over [history_start, now), every later one folds only the
// change points since the previous call (FailureModelBook::extend).
//
// JupiterStrategy always reads its models through an owner.  A replay
// strategy gets a private one; the fleet hands one owner per (kind,
// history start, estimator) to every Jupiter service of a cluster, so the
// cluster trains each chain — and runs each transient analysis — once
// instead of once per service.  Sharing cannot change a decision:
// extend() is exact, so the chains at time t are the same however often
// they were extended on the way, and every cached transient value depends
// only on (chain, state, clamped age, horizon).  FP' (Eq. 4) is not part
// of the models; callers pass their service's FP' to bid_curve().
#pragma once

#include <mutex>
#include <vector>

#include "cloud/trace_book.hpp"
#include "core/failure_model.hpp"
#include "util/shared_state_audit.hpp"

namespace jupiter {

class WarmFailureModels {
 public:
  /// `book` must outlive the owner.
  WarmFailureModels(const TraceBook& book, InstanceKind kind,
                    SimTime history_start,
                    OobEstimator estimator = OobEstimator::kFirstPassage);

  WarmFailureModels(const WarmFailureModels&) = delete;
  WarmFailureModels& operator=(const WarmFailureModels&) = delete;

  /// Brings every zone in `zones` up to `now` and returns the models: the
  /// first call trains over [history_start, now), later calls extend with
  /// the change points in [previous now, now); a zone seen for the first
  /// time is trained from scratch.  Calling again at the same `now` with
  /// known zones writes nothing.  Throws std::logic_error when `now` is
  /// earlier than the trained tail: a shared chain cannot be un-extended.
  ///
  /// Calls are serialized, but the returned models are read without the
  /// lock.  Sharers that decide concurrently must therefore share one
  /// `now` and one zone set: the first to arrive trains and the rest find
  /// the models already there.  The fleet goes further and advances its
  /// owners on the cluster thread before each decide batch.
  const FailureModelBook& advance_to(const std::vector<int>& zones,
                                     SimTime now);

  InstanceKind kind() const { return kind_; }

  /// Benchmarks only, private owners only: disables warm models, forcing
  /// a full retrain (and cold transient caches) on every advance_to().
  /// Decisions are identical either way — incremental training is exact —
  /// so this isolates the cost of the naive path.
  void set_incremental(bool on);

  /// Transient-cache counters summed over the zone models.  With a shared
  /// owner they depend on how decisions interleave across threads, so they
  /// stay out of deterministic telemetry.
  TransientCache::Stats cache_stats() const;

 private:
  const TraceBook& book_;
  InstanceKind kind_;
  SimTime history_start_;
  OobEstimator estimator_;

  mutable std::mutex mu_;
  FailureModelBook models_;
  bool trained_ = false;
  bool incremental_ = true;
  SimTime trained_to_{0};
  // Training writes happen under mu_; the auditor proves the serialization.
  AuditToken audit_{"WarmFailureModels", AuditMode::kSerialized};
};

}  // namespace jupiter
