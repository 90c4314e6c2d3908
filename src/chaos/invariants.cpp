#include "chaos/invariants.hpp"

#include <algorithm>

#include "market/billing.hpp"
#include "obs/obs.hpp"

namespace jupiter::chaos {

void InvariantRegistry::add(std::string name, Checker checker) {
  checkers_.emplace_back(std::move(name), std::move(checker));
}

void InvariantRegistry::check_all(SimTime now) {
  for (const auto& [name, checker] : checkers_) {
    ++checks_run_;
    if (auto detail = checker()) report(name, now, std::move(*detail));
  }
}

void InvariantRegistry::report(const std::string& invariant, SimTime at,
                               std::string detail) {
  if (!seen_.insert({invariant, detail}).second) return;
  obs::note(at, "invariant", invariant + " VIOLATED: " + detail);
  if (obs::Registry* reg = obs::metrics()) {
    reg->counter("chaos.violations", {{"invariant", invariant}}).inc();
  }
  if (obs::TraceSink* tr = obs::trace()) {
    tr->instant(at, obs::TraceTrack::kChaos, "invariant_violation", "chaos",
                {{"invariant", invariant}, {"detail", detail}});
  }
  violations_.push_back(Violation{invariant, at, std::move(detail)});
}

std::vector<std::string> InvariantRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(checkers_.size());
  for (const auto& [name, checker] : checkers_) out.push_back(name);
  return out;
}

// ------------------------------------------------------- paxos checkers

namespace {

/// Two chosen values agree iff they are the same proposal.  Coded (RS-Paxos)
/// replicas hold different chunks of one proposal, so comparison falls back
/// to the proposal identity when either side is a chunk.
bool values_agree(const paxos::Value& x, const paxos::Value& y) {
  if (x.kind != y.kind) return false;
  if (x.coded || y.coded) return x.value_id == y.value_id;
  return x.payload == y.payload;
}

}  // namespace

InvariantRegistry::Checker make_agreement_checker(paxos::Group& group) {
  return [&group]() -> std::optional<std::string> {
    const std::vector<paxos::NodeId> ids = group.node_ids();
    paxos::Slot max_slot = 0;
    for (paxos::NodeId id : ids) {
      max_slot = std::max(max_slot, group.replica(id).commit_index());
    }
    for (paxos::Slot s = 0; s < max_slot; ++s) {
      const paxos::Value* first = nullptr;
      paxos::NodeId first_node = -1;
      for (paxos::NodeId id : ids) {
        const paxos::Value* v = group.replica(id).chosen_value(s);
        if (!v) continue;
        if (!first) {
          first = v;
          first_node = id;
        } else if (!values_agree(*first, *v)) {
          return "slot " + std::to_string(s) + ": node " +
                 std::to_string(first_node) + " and node " +
                 std::to_string(id) + " learned different values";
        }
      }
    }
    return std::nullopt;
  };
}

InvariantRegistry::Checker make_validity_checker(
    paxos::Group& group,
    const std::set<std::vector<std::uint8_t>>* submitted) {
  return [&group, submitted]() -> std::optional<std::string> {
    for (paxos::NodeId id : group.node_ids()) {
      const paxos::Replica& r = group.replica(id);
      for (paxos::Slot s = 0; s < r.commit_index(); ++s) {
        const paxos::Value* v = r.chosen_value(s);
        if (!v || v->kind != paxos::ValueKind::kCommand || v->coded) continue;
        if (!submitted->contains(std::vector<std::uint8_t>(v->payload))) {
          return "node " + std::to_string(id) + " slot " + std::to_string(s) +
                 ": chosen command was never submitted";
        }
      }
    }
    return std::nullopt;
  };
}

InvariantRegistry::Checker make_log_prefix_checker(
    const std::map<paxos::NodeId, const RecordingSm*>* sms) {
  return [sms]() -> std::optional<std::string> {
    // Compare every log against the longest one: prefix consistency is
    // transitive through a common extension.
    const RecordingSm* longest = nullptr;
    paxos::NodeId longest_node = -1;
    for (const auto& [id, sm] : *sms) {
      if (!longest || sm->applied().size() > longest->applied().size()) {
        longest = sm;
        longest_node = id;
      }
    }
    if (!longest) return std::nullopt;
    const auto& ref = longest->applied();
    for (const auto& [id, sm] : *sms) {
      const auto& log = sm->applied();
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i] != ref[i]) {
          return "node " + std::to_string(id) + " diverges from node " +
                 std::to_string(longest_node) + " at applied index " +
                 std::to_string(i);
        }
      }
    }
    return std::nullopt;
  };
}

InvariantRegistry::Checker make_apply_once_checker(
    paxos::Group& group,
    const std::map<paxos::NodeId, const RecordingSm*>* sms) {
  return [&group, sms]() -> std::optional<std::string> {
    // Accounting identity, not byte-level dedup: two logically distinct
    // submissions can legitimately serialize to identical bytes (two
    // releases of one path stamped at the same sim second), so duplicates
    // in the applied log prove nothing.  What a batch replayed across a
    // failover CANNOT fake is the count: every replica's applied-command
    // total must equal the number of ops carried by the chosen values in
    // its committed prefix — re-applying a batch overshoots it, silently
    // dropping one undershoots it.
    for (const auto& [id, sm] : *sms) {
      const paxos::Replica& r = group.replica(id);
      std::size_t expected = 0;
      bool exact = true;
      for (paxos::Slot s = 0; s < r.commit_index(); ++s) {
        const paxos::Value* v = r.chosen_value(s);
        if (!v) { exact = false; break; }
        if (v->coded) { exact = false; break; }  // RS chunks: count unknown
        if (v->kind == paxos::ValueKind::kCommand) {
          ++expected;
        } else if (v->kind == paxos::ValueKind::kBatch) {
          expected += paxos::batch_ops(v->payload.span()).size();
        }
      }
      if (!exact) continue;
      if (sm->applied().size() != expected) {
        return "node " + std::to_string(id) + " applied " +
               std::to_string(sm->applied().size()) +
               " commands but its chosen prefix (commit index " +
               std::to_string(r.commit_index()) + ") carries " +
               std::to_string(expected) +
               (sm->applied().size() > expected
                    ? " — a batch was re-applied after failover"
                    : " — committed ops were lost");
      }
    }
    return std::nullopt;
  };
}

InvariantRegistry::Checker make_lease_exclusion_checker(paxos::Group& group,
                                                        Simulator& sim) {
  return [&group, &sim]() -> std::optional<std::string> {
    const std::vector<paxos::NodeId> ids = group.node_ids();
    SimTime now = sim.now();
    paxos::NodeId holder = -1;
    for (paxos::NodeId id : ids) {
      const paxos::Replica& r = group.replica(id);
      if (!r.holds_lease()) continue;
      if (holder >= 0) {
        return "nodes " + std::to_string(holder) + " and " +
               std::to_string(id) + " both hold a valid lease at t=" +
               std::to_string(now.seconds()) + "s";
      }
      holder = id;
      // Independent backing check: the claimed validity window must sit
      // inside >= quorum unexpired grants naming this node.  Grants are
      // stable storage, so crashed replicas' fences count too.
      int backing = 0;
      for (paxos::NodeId g : ids) {
        const paxos::Replica& f = group.replica(g);
        if (f.lease_granted_to() == id &&
            f.lease_granted_until() >= r.lease_valid_until()) {
          ++backing;
        }
      }
      int need = r.config().empty()
                     ? 0
                     : static_cast<int>(r.config().size()) / 2 + 1;
      if (backing < need) {
        return "node " + std::to_string(id) + " claims a lease until t=" +
               std::to_string(r.lease_valid_until().seconds()) + "s backed by only " +
               std::to_string(backing) + "/" + std::to_string(need) +
               " unexpired grants";
      }
    }
    return std::nullopt;
  };
}

// ---------------------------------------------- market / replay checkers

std::optional<std::string> check_billing_conservation(const SpotTrace& trace,
                                                      SimTime start,
                                                      SimTime requested_end,
                                                      PriceTick bid) {
  SpotBill bill = bill_spot_instance(trace, start, requested_end, bid);

  // Independent model: plain linear scans over the change points, no
  // segment_at / first_exceed / last_price_in.
  auto price_before = [&trace](SimTime t) {
    // Price in force just before t (t > trace.start()).
    PriceTick p = trace.points().front().price;
    for (const auto& pt : trace.points()) {
      if (pt.at >= t) break;
      p = pt.price;
    }
    return p;
  };

  if (price_before(start + 1) > bid) {
    if (bill.reason != SpotEnd::kNeverRan || bill.charge != Money(0) ||
        bill.end != start || bill.hours_charged != 0) {
      return "instance billed despite price above bid at launch";
    }
    return std::nullopt;
  }

  bool oob = false;
  SimTime end = requested_end;
  for (const auto& pt : trace.points()) {
    if (pt.at <= start) continue;
    if (pt.at >= requested_end) break;
    if (pt.price > bid) {
      oob = true;
      end = pt.at;
      break;
    }
  }
  if (oob != (bill.reason == SpotEnd::kOutOfBid) || bill.end != end) {
    return "termination reason/instant disagrees with linear-scan model "
           "(model end " + std::to_string(end.seconds()) + "s, billed end " +
           std::to_string(bill.end.seconds()) + "s)";
  }

  Money expected;
  int hours = 0;
  for (SimTime hs = start; hs < end; hs += kHour) {
    SimTime he = hs + kHour;
    if (he <= end) {
      expected += price_before(he).money();  // completed hour: last price in it
      ++hours;
    } else if (!oob) {
      expected += price_before(end).money();  // user-cut partial hour
      ++hours;
    }
    // Provider-terminated partial hour: free — nothing added.
  }
  if (bill.charge != expected || bill.hours_charged != hours) {
    return "charge conservation broken: billed " +
           std::to_string(bill.charge.micros()) + " micros over " +
           std::to_string(bill.hours_charged) + " h, independent model says " +
           std::to_string(expected.micros()) + " micros over " +
           std::to_string(hours) + " h";
  }
  return std::nullopt;
}

std::optional<std::string> check_replay_accounting(
    const ReplayResult& result) {
  std::string why;
  if (!result.internally_consistent(&why)) return why;
  return std::nullopt;
}

// --------------------------------------------------- mutual exclusion

void MutualExclusionOracle::on_acquire_ok(SimTime at,
                                          const std::string& session,
                                          const std::string& path) {
  ++grants_;
  auto it = holds_.find(path);
  if (it != holds_.end()) {
    const Hold& h = it->second;
    if (!h.released && h.session != session && !h.release_asked) {
      registry_.report(
          name_, at,
          "lock " + path + " granted to " + session + " at t=" +
              std::to_string(at.seconds()) + "s while " + h.session +
              " has held it since t=" + std::to_string(h.since.seconds()) +
              "s without releasing");
      // Keep the newer grant as the tracked hold so one split-brain does
      // not cascade into a report per subsequent grant.
    }
  }
  holds_[path] = Hold{session, at, std::nullopt, false};
}

void MutualExclusionOracle::on_release_sent(SimTime at,
                                            const std::string& session,
                                            const std::string& path) {
  auto it = holds_.find(path);
  if (it != holds_.end() && it->second.session == session &&
      !it->second.release_asked) {
    it->second.release_asked = at;
  }
}

void MutualExclusionOracle::on_release_done(const std::string& session,
                                            const std::string& path) {
  auto it = holds_.find(path);
  if (it != holds_.end() && it->second.session == session) {
    it->second.released = true;
  }
}

}  // namespace jupiter::chaos
