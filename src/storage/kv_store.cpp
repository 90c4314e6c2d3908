#include "storage/kv_store.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

namespace jupiter::storage {

namespace {

/// A command read in place: the key copied out, the value a view into the
/// command's bytes.
struct CommandView {
  KvOp op = KvOp::kGet;
  std::string key;
  std::span<const std::uint8_t> value;
};

CommandView parse(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  CommandView c;
  c.op = static_cast<KvOp>(r.u8());
  c.key = r.str();
  c.value = r.bytes_view();
  return c;
}

std::vector<std::uint8_t> encode_response(KvStatus status,
                                          std::span<const std::uint8_t> value) {
  ByteWriter w;
  w.reserve(1 + 4 + value.size());
  w.u8(static_cast<std::uint8_t>(status));
  w.bytes(value);
  return w.take();
}

/// A get's response, built with one copy of the stored value.
std::vector<std::uint8_t> get_response(
    const std::map<std::string, SharedBytes>& map, const std::string& key) {
  auto it = map.find(key);
  if (it == map.end()) return encode_response(KvStatus::kNotFound, {});
  return encode_response(KvStatus::kOk, it->second.span());
}

/// Every value id in the followers' chunk logs, in commit order.  A
/// follower applies its slots in order, so its chunk log read by position
/// is a subsequence of the commit order: it lacks the slots it applied in
/// full or has not learned.  Merging the subsequences restores the order.
/// Value ids order only one proposer's stream, so they just break ties
/// between values that no log orders.
std::vector<std::uint64_t> commit_order(
    const std::vector<const KvStoreState*>& followers) {
  std::map<std::uint64_t, int> preds;  // id -> predecessors not yet merged
  std::map<std::uint64_t, std::vector<std::uint64_t>> succs;
  for (const auto* f : followers) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> log;  // position, id
    for (const auto& [id, c] : f->chunks()) log.emplace_back(c.position, id);
    std::sort(log.begin(), log.end());
    for (std::size_t i = 0; i < log.size(); ++i) {
      preds.try_emplace(log[i].second, 0);
      if (i == 0) continue;
      succs[log[i - 1].second].push_back(log[i].second);
      ++preds[log[i].second];
    }
  }
  std::set<std::uint64_t> ready;
  for (const auto& [id, n] : preds) {
    if (n == 0) ready.insert(id);
  }
  std::vector<std::uint64_t> order;
  while (!ready.empty()) {
    const std::uint64_t id = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(id);
    for (std::uint64_t next : succs[id]) {
      if (--preds[next] == 0) ready.insert(next);
    }
  }
  if (order.size() != preds.size()) {
    throw std::invalid_argument("chunk logs disagree on commit order");
  }
  return order;
}

}  // namespace

std::vector<std::uint8_t> KvCommand::encode() const {
  ByteWriter w;
  w.reserve(1 + 4 + key.size() + 4 + value.size());
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  w.bytes(value);
  return w.take();
}

KvCommand KvCommand::decode(const std::vector<std::uint8_t>& bytes) {
  CommandView v = parse(bytes);
  KvCommand c;
  c.op = v.op;
  c.key = std::move(v.key);
  c.value.assign(v.value.begin(), v.value.end());
  return c;
}

std::vector<std::uint8_t> KvResponse::encode() const {
  return encode_response(status, value.span());
}

KvResponse KvResponse::decode(SharedBytes bytes) {
  ByteReader r(bytes.span());
  KvResponse resp;
  resp.status = static_cast<KvStatus>(r.u8());
  resp.value = bytes.view(r.bytes_view());
  return resp;
}

std::vector<std::uint8_t> KvStoreState::apply(const SharedBytes& command) {
  CommandView cmd = parse(command.span());
  switch (cmd.op) {
    case KvOp::kPut:
      map_.insert_or_assign(std::move(cmd.key), command.view(cmd.value));
      break;
    case KvOp::kGet:
      return get_response(map_, cmd.key);
    case KvOp::kDelete:
      if (map_.erase(cmd.key) == 0) {
        return encode_response(KvStatus::kNotFound, {});
      }
      break;
  }
  return encode_response(KvStatus::kOk, {});
}

std::vector<std::uint8_t> KvStoreState::apply(
    const std::vector<std::uint8_t>& command) {
  return apply(SharedBytes(command));
}

std::optional<std::vector<std::uint8_t>> KvStoreState::read(
    const std::vector<std::uint8_t>& query) {
  CommandView cmd = parse(query);
  if (cmd.op != KvOp::kGet) return std::nullopt;
  return get_response(map_, cmd.key);
}

void KvStoreState::apply_chunk(const paxos::Value& value) {
  StoredChunk c;
  c.kind = value.kind;
  c.chunk_index = value.chunk_index;
  c.rs_n = value.rs_n;
  c.full_size = value.full_size;
  c.position = chunks_applied_++;
  c.bytes = value.payload;
  chunk_bytes_ += c.bytes.size();
  chunks_[value.value_id] = std::move(c);
}

std::optional<std::vector<std::uint8_t>> KvStoreState::get(
    const std::string& key) const {
  const SharedBytes* v = find(key);
  if (v == nullptr) return std::nullopt;
  return std::vector<std::uint8_t>(*v);
}

const SharedBytes* KvStoreState::find(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::size_t KvStoreState::reconstruct_into(
    const std::vector<const KvStoreState*>& followers, int rs_m,
    KvStoreState& out) {
  if (static_cast<int>(followers.size()) < rs_m) {
    throw std::invalid_argument("need at least m chunk logs");
  }
  std::size_t recovered = 0;
  for (std::uint64_t id : commit_order(followers)) {
    std::vector<ChunkView> have;
    paxos::ValueKind kind = paxos::ValueKind::kCommand;
    int rs_n = 0;
    std::uint32_t full_size = 0;
    for (const auto* f : followers) {
      auto it = f->chunks().find(id);
      if (it == f->chunks().end()) continue;
      have.emplace_back(it->second.chunk_index, it->second.bytes.span());
      kind = it->second.kind;
      rs_n = it->second.rs_n;
      full_size = it->second.full_size;
    }
    if (static_cast<int>(have.size()) < rs_m || rs_n < rs_m) continue;
    // Shared instance: recovery decodes thousands of commands with the same
    // theta and the same surviving set — reuse the memoized decode matrix.
    const ReedSolomon& rs = ReedSolomon::shared(rs_m, rs_n);
    auto data = rs.decode(have, full_size);
    if (!data) continue;
    const SharedBytes full(std::move(*data));
    if (kind == paxos::ValueKind::kBatch) {
      for (auto op : paxos::batch_ops(full.span())) {
        out.apply(full.view(op));
        ++recovered;
      }
    } else {
      out.apply(full);
      ++recovered;
    }
  }
  return recovered;
}

void KvClient::send(const KvCommand& cmd, Callback cb) {
  group_.submit(cmd.encode(),
                [cb](bool ok, const std::vector<std::uint8_t>& bytes) {
                  if (!cb) return;
                  if (!ok) {
                    KvResponse r;
                    r.status = KvStatus::kError;
                    cb(r);
                    return;
                  }
                  cb(KvResponse::decode(bytes));
                });
}

void KvClient::put(const std::string& key, std::vector<std::uint8_t> value,
                   Callback cb) {
  KvCommand c;
  c.op = KvOp::kPut;
  c.key = key;
  c.value = std::move(value);
  send(c, std::move(cb));
}

void KvClient::get(const std::string& key, Callback cb) {
  KvCommand c;
  c.op = KvOp::kGet;
  c.key = key;
  // Lease fast path first: when the leader holds a quorum lease the read
  // is served from its materialized map with no log entry and no network
  // round — the whole point of leader leases.  Falls back to the log.  The
  // response keeps the one copy of the value the store made.
  if (auto bytes = group_.local_read(c.encode())) {
    if (cb) cb(KvResponse::decode(std::move(*bytes)));
    return;
  }
  send(c, std::move(cb));
}

void KvClient::erase(const std::string& key, Callback cb) {
  KvCommand c;
  c.op = KvOp::kDelete;
  c.key = key;
  send(c, std::move(cb));
}

}  // namespace jupiter::storage
