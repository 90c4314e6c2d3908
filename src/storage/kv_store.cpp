#include "storage/kv_store.hpp"

#include <set>
#include <stdexcept>

namespace jupiter::storage {

std::vector<std::uint8_t> KvCommand::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  w.bytes(value);
  return w.take();
}

KvCommand KvCommand::decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  KvCommand c;
  c.op = static_cast<KvOp>(r.u8());
  c.key = r.str();
  c.value = r.bytes();
  return c;
}

std::vector<std::uint8_t> KvResponse::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.bytes(value);
  return w.take();
}

KvResponse KvResponse::decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  KvResponse resp;
  resp.status = static_cast<KvStatus>(r.u8());
  resp.value = r.bytes();
  return resp;
}

KvResponse KvStoreState::handle(const KvCommand& cmd) {
  KvResponse resp;
  switch (cmd.op) {
    case KvOp::kPut:
      map_[cmd.key] = cmd.value;
      break;
    case KvOp::kGet: {
      auto it = map_.find(cmd.key);
      if (it == map_.end()) {
        resp.status = KvStatus::kNotFound;
      } else {
        resp.value = it->second;
      }
      break;
    }
    case KvOp::kDelete:
      if (map_.erase(cmd.key) == 0) resp.status = KvStatus::kNotFound;
      break;
  }
  return resp;
}

std::vector<std::uint8_t> KvStoreState::apply(
    const std::vector<std::uint8_t>& command) {
  return handle(KvCommand::decode(command)).encode();
}

std::optional<std::vector<std::uint8_t>> KvStoreState::read(
    const std::vector<std::uint8_t>& query) {
  KvCommand cmd = KvCommand::decode(query);
  if (cmd.op != KvOp::kGet) return std::nullopt;
  return handle(cmd).encode();
}

void KvStoreState::apply_chunk(const paxos::Value& value) {
  StoredChunk c;
  c.kind = value.kind;
  c.chunk_index = value.chunk_index;
  c.rs_n = value.rs_n;
  c.full_size = value.full_size;
  c.bytes = value.payload;
  chunk_bytes_ += c.bytes.size();
  chunks_[value.value_id] = std::move(c);
}

std::optional<std::vector<std::uint8_t>> KvStoreState::get(
    const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::size_t KvStoreState::reconstruct_into(
    const std::vector<const KvStoreState*>& followers, int rs_m,
    KvStoreState& out) {
  if (static_cast<int>(followers.size()) < rs_m) {
    throw std::invalid_argument("need at least m chunk logs");
  }
  // Union of value ids seen anywhere, applied in id order (value ids are
  // assigned monotonically per proposer; for a single-leader stream this
  // reproduces commit order — tests exercise exactly that scenario).
  std::set<std::uint64_t> ids;
  for (const auto* f : followers) {
    for (const auto& [id, _] : f->chunks()) ids.insert(id);
  }
  std::size_t recovered = 0;
  for (std::uint64_t id : ids) {
    std::vector<std::pair<int, Chunk>> have;
    paxos::ValueKind kind = paxos::ValueKind::kCommand;
    int rs_n = 0;
    std::uint32_t full_size = 0;
    for (const auto* f : followers) {
      auto it = f->chunks().find(id);
      if (it == f->chunks().end()) continue;
      have.emplace_back(it->second.chunk_index, it->second.bytes);
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
    if (kind == paxos::ValueKind::kBatch) {
      for (const auto& op : paxos::decode_batch(*data)) {
        out.handle(KvCommand::decode(op));
        ++recovered;
      }
    } else {
      out.handle(KvCommand::decode(*data));
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
  // round — the whole point of leader leases.  Falls back to the log.
  if (auto bytes = group_.local_read(c.encode())) {
    if (cb) cb(KvResponse::decode(*bytes));
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
