// Erasure-code based distributed storage service (paper §5.1.2).
//
// A key-value store replicated with RS-Paxos: the *commands* in the log are
// Reed-Solomon coded, so each follower persists only its chunk of every
// write — the network/disk saving that motivates RS-Paxos.  The leader
// (which proposes with the full command) materializes the full key-value
// map and serves reads; followers accumulate a chunk log from which any m
// of them can reconstruct every command (and therefore the whole store),
// which is exactly the recovery path the protocol's quorum-intersection
// guarantee protects.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ec/reed_solomon.hpp"
#include "paxos/group.hpp"
#include "paxos/replica.hpp"
#include "util/bytes.hpp"

namespace jupiter::storage {

enum class KvOp : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kDelete = 3,
};

struct KvCommand {
  KvOp op = KvOp::kGet;
  std::string key;
  std::vector<std::uint8_t> value;  // kPut only

  std::vector<std::uint8_t> encode() const;
  static KvCommand decode(const std::vector<std::uint8_t>& bytes);
};

enum class KvStatus : std::uint8_t { kOk = 0, kNotFound = 1, kError = 2 };

struct KvResponse {
  KvStatus status = KvStatus::kOk;
  /// A decoded response's value is a view of the response bytes.
  SharedBytes value;

  std::vector<std::uint8_t> encode() const;
  /// Reads `bytes` in place: the value views them, with no copy.
  static KvResponse decode(SharedBytes bytes);
};

/// One command chunk held by a follower.
struct StoredChunk {
  /// kCommand (one KvCommand) or kBatch (encode_batch framing of several).
  paxos::ValueKind kind = paxos::ValueKind::kCommand;
  int chunk_index = -1;
  int rs_n = 0;
  std::uint32_t full_size = 0;
  /// Where the chunk falls in its store's apply order (0, 1, 2, ...).  A
  /// replica applies its slots in order, so positions are slot order.
  std::uint64_t position = 0;
  /// The chosen value's payload itself, shared with the replica's log: the
  /// chunk log adds no bytes of its own.
  SharedBytes bytes;
};

class KvStoreState : public paxos::StateMachine {
 public:
  /// Applies one command.  A put stores its value as a view of `command`,
  /// so the store shares the chosen log payload instead of copying it.
  std::vector<std::uint8_t> apply(const SharedBytes& command) override;
  /// Copies `command` into a buffer of its own and applies that.
  std::vector<std::uint8_t> apply(
      const std::vector<std::uint8_t>& command) override;
  void apply_chunk(const paxos::Value& value) override;
  /// Lease fast path: answers kGet queries from the materialized map
  /// without a log entry.  Mutating ops are rejected (nullopt).
  std::optional<std::vector<std::uint8_t>> read(
      const std::vector<std::uint8_t>& query) override;

  // Leader-side reads.
  /// An owned copy of the value stored at `key`.
  std::optional<std::vector<std::uint8_t>> get(const std::string& key) const;
  /// The stored value itself, a view of the log payload that carried its
  /// put; nullptr when `key` is absent.
  const SharedBytes* find(const std::string& key) const;
  std::size_t keys() const { return map_.size(); }

  // Follower-side chunk log.
  std::size_t chunk_count() const { return chunks_.size(); }
  std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  const std::map<std::uint64_t, StoredChunk>& chunks() const { return chunks_; }

  /// Reconstructs the full command stream from >= m chunk logs (one per
  /// follower) and folds it into a fresh state, in commit order — the
  /// disaster-recovery path that proves any-m-of-n suffices.  Chunk logs
  /// must come from distinct replicas.  Batched slots (kBatch) unpack into
  /// their commands.  Returns the number of commands recovered; throws
  /// std::invalid_argument when the logs disagree on the order.
  static std::size_t reconstruct_into(
      const std::vector<const KvStoreState*>& followers, int rs_m,
      KvStoreState& out);

 private:
  // Values pin the log payloads they view (a batched put pins its whole
  // batch) until the key is overwritten or erased.
  std::map<std::string, SharedBytes> map_;
  std::map<std::uint64_t, StoredChunk> chunks_;  // value_id -> chunk
  std::uint64_t chunk_bytes_ = 0;
  std::uint64_t chunks_applied_ = 0;
};

/// Asynchronous client over the Paxos group.
class KvClient {
 public:
  using Callback = std::function<void(KvResponse)>;

  explicit KvClient(paxos::Group& group) : group_(group) {}

  void put(const std::string& key, std::vector<std::uint8_t> value,
           Callback cb);
  void get(const std::string& key, Callback cb);
  void erase(const std::string& key, Callback cb);

 private:
  void send(const KvCommand& cmd, Callback cb);
  paxos::Group& group_;
};

}  // namespace jupiter::storage
