#include "storage/kv_store.hpp"

#include <gtest/gtest.h>

namespace jupiter::storage {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

KvResponse run(KvStoreState& sm, const KvCommand& c) {
  return KvResponse::decode(sm.apply(c.encode()));
}

TEST(KvCommand, EncodeDecodeRoundTrip) {
  KvCommand c;
  c.op = KvOp::kPut;
  c.key = "object/42";
  c.value = bytes("payload \x01\x02");
  KvCommand d = KvCommand::decode(c.encode());
  EXPECT_EQ(d.op, c.op);
  EXPECT_EQ(d.key, c.key);
  EXPECT_EQ(d.value, c.value);
}

TEST(KvResponse, EncodeDecodeRoundTrip) {
  KvResponse r;
  r.status = KvStatus::kNotFound;
  r.value = bytes("v");
  KvResponse d = KvResponse::decode(r.encode());
  EXPECT_EQ(d.status, r.status);
  EXPECT_EQ(d.value, r.value);
}

TEST(KvStoreState, PutGetDelete) {
  KvStoreState sm;
  KvCommand put;
  put.op = KvOp::kPut;
  put.key = "k";
  put.value = bytes("v1");
  EXPECT_EQ(run(sm, put).status, KvStatus::kOk);
  EXPECT_EQ(sm.keys(), 1u);

  KvCommand get;
  get.op = KvOp::kGet;
  get.key = "k";
  KvResponse r = run(sm, get);
  EXPECT_EQ(r.status, KvStatus::kOk);
  EXPECT_EQ(r.value, bytes("v1"));

  put.value = bytes("v2");  // overwrite
  run(sm, put);
  EXPECT_EQ(run(sm, get).value, bytes("v2"));

  KvCommand del;
  del.op = KvOp::kDelete;
  del.key = "k";
  EXPECT_EQ(run(sm, del).status, KvStatus::kOk);
  EXPECT_EQ(run(sm, get).status, KvStatus::kNotFound);
  EXPECT_EQ(run(sm, del).status, KvStatus::kNotFound);
}

TEST(KvStoreState, GetMissingKey) {
  KvStoreState sm;
  KvCommand get;
  get.op = KvOp::kGet;
  get.key = "nope";
  EXPECT_EQ(run(sm, get).status, KvStatus::kNotFound);
  EXPECT_EQ(sm.get("nope"), std::nullopt);
}

TEST(KvStoreState, ChunkLogAccumulates) {
  KvStoreState sm;
  paxos::Value v;
  v.kind = paxos::ValueKind::kCommand;
  v.value_id = 99;
  v.coded = true;
  v.chunk_index = 2;
  v.rs_n = 5;
  v.full_size = 30;
  v.payload = bytes("0123456789");
  sm.apply_chunk(v);
  EXPECT_EQ(sm.chunk_count(), 1u);
  EXPECT_EQ(sm.chunk_bytes(), 10u);
  const StoredChunk& c = sm.chunks().at(99);
  EXPECT_EQ(c.chunk_index, 2);
  EXPECT_EQ(c.rs_n, 5);
  EXPECT_EQ(c.full_size, 30u);
  // The log keeps a reference to the value's buffer, not a copy.
  EXPECT_EQ(c.bytes.data(), v.payload.data());
}

TEST(KvStoreState, ReconstructFromChunkLogs) {
  // Encode two commands into chunks by hand and distribute them across
  // three follower stores; reconstruct_into must rebuild the KV state.
  ReedSolomon rs(3, 5);
  std::vector<KvStoreState> followers(5);
  std::uint64_t next_id = 1;
  auto replicate = [&](const KvCommand& cmd) {
    auto encoded = cmd.encode();
    auto chunks = rs.encode(encoded);
    for (int i = 0; i < 5; ++i) {
      paxos::Value v;
      v.kind = paxos::ValueKind::kCommand;
      v.value_id = next_id;
      v.coded = true;
      v.chunk_index = i;
      v.rs_n = 5;
      v.full_size = static_cast<std::uint32_t>(encoded.size());
      v.payload = chunks[static_cast<std::size_t>(i)];
      followers[static_cast<std::size_t>(i)].apply_chunk(v);
    }
    ++next_id;
  };
  KvCommand p1;
  p1.op = KvOp::kPut;
  p1.key = "a";
  p1.value = bytes("alpha");
  replicate(p1);
  KvCommand p2;
  p2.op = KvOp::kPut;
  p2.key = "b";
  p2.value = bytes("bravo");
  replicate(p2);

  KvStoreState out;
  std::size_t n = KvStoreState::reconstruct_into(
      {&followers[1], &followers[3], &followers[4]}, 3, out);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(out.get("a"), bytes("alpha"));
  EXPECT_EQ(out.get("b"), bytes("bravo"));
}

/// Codes `cmd` as value `value_id` and applies chunk i to follower i, but
/// for follower `skip` (a follower that applied the slot in full keeps no
/// chunk of it).
void replicate_as(std::vector<KvStoreState>& followers, std::uint64_t value_id,
                  const KvCommand& cmd, int skip = -1) {
  const int n = static_cast<int>(followers.size());
  auto encoded = cmd.encode();
  auto chunks = ReedSolomon::shared(3, n).encode(encoded);
  for (int i = 0; i < n; ++i) {
    if (i == skip) continue;
    paxos::Value v;
    v.kind = paxos::ValueKind::kCommand;
    v.value_id = value_id;
    v.coded = true;
    v.chunk_index = i;
    v.rs_n = n;
    v.full_size = static_cast<std::uint32_t>(encoded.size());
    v.payload = chunks[static_cast<std::size_t>(i)];
    followers[static_cast<std::size_t>(i)].apply_chunk(v);
  }
}

KvCommand put(const std::string& key, const std::string& value) {
  KvCommand c;
  c.op = KvOp::kPut;
  c.key = key;
  c.value = bytes(value);
  return c;
}

/// The value id node `node` draws for its `n`-th proposal
/// (Replica::fresh_value_id): the proposer sits in the top bits.
std::uint64_t value_id(int node, std::uint64_t n) {
  return (static_cast<std::uint64_t>(node + 1) << 40) | n;
}

TEST(KvStoreState, ReconstructAppliesInCommitOrderAcrossLeaders) {
  // A put by node 4, then one by node 3 after a failover: in id order the
  // first outranks the second, but the rebuilt store must hold the second.
  std::vector<KvStoreState> followers(5);
  replicate_as(followers, value_id(4, 1), put("k", "first"));
  replicate_as(followers, value_id(3, 1), put("k", "second"));
  KvStoreState out;
  EXPECT_EQ(KvStoreState::reconstruct_into(
                {&followers[0], &followers[1], &followers[2]}, 3, out),
            2u);
  EXPECT_EQ(out.get("k"), bytes("second"));
}

TEST(KvStoreState, ReconstructMergesChunkLogsWithGaps) {
  // Four puts of one key, each by a lower node than the last, and four
  // logs that each lack a different one: no log holds the whole order, but
  // every put still has three chunks and the logs together fix the order.
  std::vector<KvStoreState> followers(5);
  for (int i = 0; i < 4; ++i) {
    replicate_as(followers, value_id(4 - i, 1),
                 put("k", "v" + std::to_string(i)), /*skip=*/i);
  }
  KvStoreState out;
  EXPECT_EQ(KvStoreState::reconstruct_into(
                {&followers[0], &followers[1], &followers[2], &followers[3]},
                3, out),
            4u);
  EXPECT_EQ(out.get("k"), bytes("v3"));
}

TEST(KvStoreState, ReconstructRejectsLogsThatDisagreeOnOrder) {
  std::vector<KvStoreState> one(5), other(5);
  replicate_as(one, 1, put("x", "1"));
  replicate_as(one, 2, put("x", "2"));
  replicate_as(other, 2, put("x", "2"));
  replicate_as(other, 1, put("x", "1"));
  KvStoreState out;
  EXPECT_THROW(
      KvStoreState::reconstruct_into({&one[0], &one[1], &other[2]}, 3, out),
      std::invalid_argument);
}

TEST(KvStoreState, ReconstructNeedsMChunkLogs) {
  KvStoreState a, b, out;
  EXPECT_THROW(KvStoreState::reconstruct_into({&a, &b}, 3, out),
               std::invalid_argument);
}

TEST(KvStoreState, ReconstructSkipsIncompleteValues) {
  ReedSolomon rs(3, 5);
  std::vector<KvStoreState> followers(3);
  KvCommand p;
  p.op = KvOp::kPut;
  p.key = "x";
  p.value = bytes("full");
  auto encoded = p.encode();
  auto chunks = rs.encode(encoded);
  // Only two followers hold chunks of value 7: not reconstructible.
  for (int i = 0; i < 2; ++i) {
    paxos::Value v;
    v.kind = paxos::ValueKind::kCommand;
    v.value_id = 7;
    v.coded = true;
    v.chunk_index = i;
    v.rs_n = 5;
    v.full_size = static_cast<std::uint32_t>(encoded.size());
    v.payload = chunks[static_cast<std::size_t>(i)];
    followers[static_cast<std::size_t>(i)].apply_chunk(v);
  }
  KvStoreState out;
  std::size_t n = KvStoreState::reconstruct_into(
      {&followers[0], &followers[1], &followers[2]}, 3, out);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(out.keys(), 0u);
}

}  // namespace
}  // namespace jupiter::storage
