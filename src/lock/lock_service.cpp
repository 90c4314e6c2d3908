#include "lock/lock_service.hpp"

#include <algorithm>
#include <functional>

#include "obs/obs.hpp"
#include "util/time.hpp"

namespace jupiter::lock {

std::vector<std::uint8_t> LockCommand::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.str(session);
  w.str(path);
  w.i64(now);
  w.i64(lease);
  return w.take();
}

LockCommand LockCommand::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  LockCommand c;
  c.op = static_cast<LockOp>(r.u8());
  c.session = r.str();
  c.path = r.str();
  c.now = r.i64();
  c.lease = r.i64();
  return c;
}

std::vector<std::uint8_t> LockResponse::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.str(owner);
  return w.take();
}

LockResponse LockResponse::decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  LockResponse resp;
  resp.status = static_cast<LockStatus>(r.u8());
  resp.owner = r.str();
  return resp;
}

namespace {

// Commands are decoded from the wire, so `now + lease` may overflow; SimTime
// arithmetic saturates, keeping the sum defined and the expiry order sane.
std::int64_t lease_end(std::int64_t now, std::int64_t lease) {
  return (SimTime(now) + lease).seconds();
}

}  // namespace

Interner::Id LockServiceState::intern(const std::string& name) {
  Interner::Id id = names_.intern(name);
  if (id >= sessions_.size()) {
    sessions_.resize(names_.size());
    owner_.resize(names_.size(), Interner::kNone);
  }
  return id;
}

bool LockServiceState::is_open(Interner::Id session) const {
  return session != Interner::kNone && sessions_[session].open;
}

Interner::Id LockServiceState::owner_id(Interner::Id path) const {
  return path == Interner::kNone ? Interner::kNone : owner_[path];
}

void LockServiceState::set_expiry(Interner::Id id, std::int64_t expires) {
  Session& s = sessions_[id];
  if (s.open && s.expires == expires) return;  // its entry is still current
  if (!s.open) {
    s.open = true;
    ++open_;
  }
  s.expires = expires;
  expiry_.push_back({expires, id});
  std::push_heap(expiry_.begin(), expiry_.end(), std::greater<>{});
}

void LockServiceState::end_session(Interner::Id id) {
  Session& s = sessions_[id];
  for (Interner::Id path : s.held) {
    if (owner_[path] == id) {
      owner_[path] = Interner::kNone;
      --held_;
    }
  }
  s.held.clear();
  s.open = false;
  --open_;
}

void LockServiceState::expire_sessions(std::int64_t now) {
  // Pops exactly the entries due at `now`, so a command stamped earlier than
  // one already applied expires nothing new.  Sessions end in (expires, id)
  // order; each lock has one owner, so the order cannot change the table.
  while (!expiry_.empty() && expiry_.front().expires <= now) {
    Deadline d = expiry_.front();
    std::pop_heap(expiry_.begin(), expiry_.end(), std::greater<>{});
    expiry_.pop_back();
    const Session& s = sessions_[d.session];
    if (s.open && s.expires == d.expires) end_session(d.session);
  }
}

void LockServiceState::compact_expiry_queue() {
  std::erase_if(expiry_, [this](const Deadline& d) {
    const Session& s = sessions_[d.session];
    return !s.open || s.expires != d.expires;
  });
  // A session can hold two equal current entries (closed and re-opened, or
  // moved back to an old deadline); keep one.  Ascending order is already
  // a valid min-heap.
  std::sort(expiry_.begin(), expiry_.end());
  expiry_.erase(std::unique(expiry_.begin(), expiry_.end()), expiry_.end());
}

LockResponse LockServiceState::handle(const LockCommand& cmd) {
  expire_sessions(cmd.now);
  // Interning is the only string work per command; everything below is
  // id-indexed.  Only kOpenSession and kAcquire may mint ids; the other
  // commands use lookup(), so unknown names stay unknown.
  LockResponse resp;
  switch (cmd.op) {
    case LockOp::kOpenSession:
      set_expiry(intern(cmd.session), lease_end(cmd.now, cmd.lease));
      break;
    case LockOp::kKeepAlive: {
      Interner::Id session = names_.lookup(cmd.session);
      if (!is_open(session)) {
        resp.status = LockStatus::kNoSession;
      } else {
        set_expiry(session,
                   lease_end(cmd.now, std::max<std::int64_t>(cmd.lease, 1)));
      }
      break;
    }
    case LockOp::kCloseSession: {
      Interner::Id session = names_.lookup(cmd.session);
      if (is_open(session)) end_session(session);
      break;
    }
    case LockOp::kAcquire:
    case LockOp::kTryAcquire: {
      Interner::Id session = names_.lookup(cmd.session);
      if (!is_open(session)) {
        resp.status = LockStatus::kNoSession;
        break;
      }
      Interner::Id path = intern(cmd.path);  // may grow the tables
      // Re-acquire by the owner is a no-op success (advisory lock).
      Interner::Id& owner = owner_[path];
      if (owner == Interner::kNone) {
        owner = session;
        ++held_;
        sessions_[session].held.push_back(path);
      } else if (owner != session) {
        resp.status = LockStatus::kHeldByOther;
        resp.owner = names_.str(owner);
      }
      break;
    }
    case LockOp::kRelease: {
      Interner::Id path = names_.lookup(cmd.path);
      Interner::Id session = names_.lookup(cmd.session);
      if (session == Interner::kNone || owner_id(path) != session) {
        resp.status = LockStatus::kNotHeld;
        break;
      }
      owner_[path] = Interner::kNone;
      --held_;
      auto& held = sessions_[session].held;
      held.erase(std::remove(held.begin(), held.end(), path), held.end());
      break;
    }
    case LockOp::kGetOwner: {
      Interner::Id owner = owner_id(names_.lookup(cmd.path));
      if (owner == Interner::kNone) {
        resp.status = LockStatus::kNotHeld;
      } else {
        resp.owner = names_.str(owner);
      }
      break;
    }
  }
  if (expiry_.size() > 2 * open_ + kQueueSlack) compact_expiry_queue();
  return resp;
}

// The lock table reads a command in place and keeps none of its bytes, so
// neither entry copies it.
std::vector<std::uint8_t> LockServiceState::apply(const SharedBytes& command) {
  return handle(LockCommand::decode(command.span())).encode();
}

std::vector<std::uint8_t> LockServiceState::apply(
    const std::vector<std::uint8_t>& command) {
  return handle(LockCommand::decode(command)).encode();
}

std::optional<std::vector<std::uint8_t>> LockServiceState::read(
    const std::vector<std::uint8_t>& query) {
  LockCommand cmd = LockCommand::decode(query);
  if (cmd.op != LockOp::kGetOwner) return std::nullopt;
  LockResponse resp;
  Interner::Id owner = owner_id(names_.lookup(cmd.path));
  if (owner == Interner::kNone || sessions_[owner].expires <= cmd.now) {
    // A lapsed owner's session is still in the table until a command
    // expires it; answer what apply() would: the lock is free.
    resp.status = LockStatus::kNotHeld;
  } else {
    resp.owner = names_.str(owner);
  }
  return resp.encode();
}

std::optional<std::string> LockServiceState::owner_of(
    const std::string& path) const {
  Interner::Id owner = owner_id(names_.lookup(path));
  if (owner == Interner::kNone) return std::nullopt;
  return names_.str(owner);
}

std::size_t LockServiceState::held_locks() const { return held_; }
std::size_t LockServiceState::open_sessions() const { return open_; }

std::uint64_t LockServiceState::state_digest() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  auto mix_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ULL;
  };
  auto mix_str = [&](const std::string& s) {
    for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
    mix_byte(0);  // terminator keeps ("ab","c") distinct from ("a","bc")
  };
  auto mix_i64 = [&](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)));
    }
  };
  // The historical digest walked string-keyed std::maps, so the live
  // entries are sorted by string to keep the byte stream — and every
  // recorded fingerprint — unchanged.
  std::vector<Interner::Id> sessions, locks;
  for (Interner::Id id = 0; id < sessions_.size(); ++id) {
    if (sessions_[id].open) sessions.push_back(id);
    if (owner_[id] != Interner::kNone) locks.push_back(id);
  }
  auto by_string = [this](Interner::Id a, Interner::Id b) {
    return names_.str(a) < names_.str(b);
  };
  std::sort(sessions.begin(), sessions.end(), by_string);
  std::sort(locks.begin(), locks.end(), by_string);
  for (Interner::Id id : sessions) {
    mix_str(names_.str(id));
    mix_i64(sessions_[id].expires);
    for (Interner::Id path : sessions_[id].held) mix_str(names_.str(path));
  }
  mix_byte(0xFF);
  for (Interner::Id path : locks) {
    mix_str(names_.str(path));
    mix_str(names_.str(owner_[path]));
  }
  return h;
}

LockClient::LockClient(paxos::Group& group, Simulator& sim,
                       std::string session, std::int64_t lease_seconds)
    : group_(group), sim_(sim), session_(std::move(session)),
      lease_(lease_seconds) {}

void LockClient::send(LockCommand cmd, Callback cb) {
  cmd.session = session_;
  cmd.now = sim_.now().seconds();
  group_.submit(cmd.encode(),
                [cb](bool ok, const std::vector<std::uint8_t>& bytes) {
                  if (!cb) return;
                  if (!ok) {
                    LockResponse r;
                    r.status = LockStatus::kExpired;
                    cb(r);
                    return;
                  }
                  cb(LockResponse::decode(bytes));
                });
}

void LockClient::open_session(Callback cb) {
  LockCommand c;
  c.op = LockOp::kOpenSession;
  c.lease = lease_;
  send(std::move(c), std::move(cb));
}

void LockClient::keep_alive(Callback cb) {
  LockCommand c;
  c.op = LockOp::kKeepAlive;
  c.lease = lease_;
  send(std::move(c), std::move(cb));
}

void LockClient::acquire(const std::string& path, Callback cb) {
  LockCommand c;
  c.op = LockOp::kAcquire;
  c.path = path;
  send(std::move(c), std::move(cb));
}

void LockClient::release(const std::string& path, Callback cb) {
  LockCommand c;
  c.op = LockOp::kRelease;
  c.path = path;
  send(std::move(c), std::move(cb));
}

void LockClient::get_owner(const std::string& path, Callback cb) {
  LockCommand c;
  c.op = LockOp::kGetOwner;
  c.path = path;
  c.session = session_;
  c.now = sim_.now().seconds();
  // Lease fast path: a leaseholding leader answers from its materialized
  // lock table with no log entry; otherwise go through consensus.
  if (auto bytes = group_.local_read(c.encode())) {
    if (cb) cb(LockResponse::decode(*bytes));
    return;
  }
  send(std::move(c), std::move(cb));
}

void LockClient::acquire_blocking(const std::string& path, Callback cb,
                                  TimeDelta deadline) {
  SimTime t0 = sim_.now();
  SimTime give_up = t0 + deadline;
  auto attempt = std::make_shared<std::function<void()>>();
  // Weak self-reference: the in-flight acquire callback and retry events
  // carry the strong refs, so the chain frees itself when it settles (a
  // strong self-capture is a shared_ptr cycle and leaks every call).
  std::weak_ptr<std::function<void()>> self = attempt;
  *attempt = [this, path, cb, give_up, t0, self] {
    auto live = self.lock();  // the invoking continuation keeps us alive
    if (!live) return;
    acquire(path, [this, path, cb, give_up, t0, live](LockResponse r) {
      if (r.status == LockStatus::kOk || sim_.now() >= give_up) {
        if (obs::Registry* reg = obs::metrics()) {
          // Sim-seconds from the blocking call to settlement (grant or
          // give-up) — integer-exact, so fleet shard merges stay byte-stable.
          std::uint64_t waited = static_cast<std::uint64_t>(
              std::max<TimeDelta>(0, sim_.now() - t0));
          reg->det_histogram("lock.acquire_wait_s",
                             {{"outcome", r.status == LockStatus::kOk
                                              ? "ok"
                                              : "timeout"}})
              .observe(waited);
        }
        if (cb) cb(r);
        return;
      }
      sim_.schedule_after(5, [live] { (*live)(); });
    });
  };
  (*attempt)();
}

}  // namespace jupiter::lock
