// The apply seam between the Paxos log and the services: SharedBytes views,
// the one batch-framing parser, and the state machines' view entry.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lock/lock_service.hpp"
#include "paxos/group.hpp"
#include "paxos/harness.hpp"
#include "paxos/types.hpp"
#include "storage/kv_store.hpp"
#include "util/bytes.hpp"

namespace jupiter {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---- SharedBytes views ------------------------------------------------------

TEST(SharedBytes, ViewsTheWholeBufferOrAPartOfIt) {
  const SharedBytes buf(bytes_of("0123456789"));
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.buffer().data(), buf.data());
  const SharedBytes part = buf.view(buf.span().subspan(3, 4));
  EXPECT_EQ(part.data(), buf.data() + 3);
  EXPECT_EQ(part.size(), 4u);
  EXPECT_EQ(std::string(part.span().begin(), part.span().end()), "3456");
  EXPECT_EQ(part.buffer().data(), buf.data());
  EXPECT_EQ(part.buffer().size(), 10u);
  // A view of a view still lies in the first allocation.
  const SharedBytes inner = part.view(part.span().subspan(1, 2));
  EXPECT_EQ(inner.data(), buf.data() + 4);
  EXPECT_EQ(inner.buffer().data(), buf.data());
}

TEST(SharedBytes, EqualityComparesContent) {
  const SharedBytes a(bytes_of("xxabcxx"));
  const SharedBytes b(bytes_of("abc"));
  const SharedBytes in_a = a.view(a.span().subspan(2, 3));
  EXPECT_EQ(in_a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(SharedBytes(), SharedBytes(std::vector<std::uint8_t>{}));
  EXPECT_EQ(a.view({}), SharedBytes());
}

TEST(SharedBytes, KeepsItsBufferAlive) {
  SharedBytes kept;
  {
    const SharedBytes buf(bytes_of("payload"));
    kept = buf.view(buf.span().subspan(3));
  }
  EXPECT_EQ(std::string(kept.span().begin(), kept.span().end()), "load");
}

TEST(SharedBytes, RejectsAPartOutsideItsBuffer) {
  const SharedBytes buf(bytes_of("0123456789"));
  const std::vector<std::uint8_t> other = bytes_of("0123456789");
  EXPECT_THROW(buf.view(other), std::out_of_range);
  const std::span<const std::uint8_t> tail(buf.data() + 8, 2);
  EXPECT_EQ(buf.view(tail).data(), buf.data() + 8);
  // A view only reaches inside itself, not the rest of its allocation.
  const SharedBytes head = buf.view(buf.span().first(4));
  EXPECT_THROW(head.view(tail), std::out_of_range);
  EXPECT_THROW(SharedBytes().view(other), std::out_of_range);
  EXPECT_EQ(buf.view(std::span<const std::uint8_t>()).size(), 0u);
}

TEST(SharedBytes, MovingLeavesTheSourceEmptyAndCopyingIsExplicit) {
  SharedBytes a(bytes_of("abc"));
  const std::uint8_t* at = a.data();
  SharedBytes b(std::move(a));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.data(), at);
  SharedBytes c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.data(), at);
  const std::vector<std::uint8_t> copy(c.view(c.span().subspan(1)));
  EXPECT_EQ(copy, bytes_of("bc"));
  EXPECT_NE(copy.data(), at + 1);
}

// ---- batch framing --------------------------------------------------------

TEST(BatchFraming, OpsRoundTripThroughBothParsers) {
  const std::vector<SharedBytes> ops = {SharedBytes(bytes_of("alpha")),
                                        SharedBytes(), SharedBytes(bytes_of("c"))};
  const std::vector<std::uint8_t> batch = paxos::encode_batch(ops);
  const auto views = paxos::batch_ops(batch);
  const auto copies = paxos::decode_batch(batch);
  ASSERT_EQ(views.size(), ops.size());
  ASSERT_EQ(copies.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(std::vector<std::uint8_t>(views[i].begin(), views[i].end()),
              std::vector<std::uint8_t>(ops[i]));
    EXPECT_EQ(copies[i], std::vector<std::uint8_t>(ops[i]));
    // The views point into the batch itself.
    if (!views[i].empty()) {
      EXPECT_GE(views[i].data(), batch.data());
      EXPECT_LE(views[i].data() + views[i].size(), batch.data() + batch.size());
    }
  }
}

std::string error_of(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(BatchFraming, MalformedBatchThrowsTheSameErrorFromBothParsers) {
  const std::vector<std::pair<std::vector<std::uint8_t>, std::string>> cases = {
      {{}, "short batch"},
      {{1, 0, 0}, "short batch"},
      {{1, 0, 0, 0}, "short batch"},                    // op length missing
      {{1, 0, 0, 0, 5, 0, 0, 0, 'a', 'b'}, "short batch op"},
      {{2, 0, 0, 0, 1, 0, 0, 0, 'a'}, "short batch"},   // second op missing
      {{0, 0, 0, 0, 9}, "trailing batch bytes"},
      {{1, 0, 0, 0, 1, 0, 0, 0, 'a', 'b'}, "trailing batch bytes"},
      {{0xFF, 0xFF, 0xFF, 0xFF}, "short batch"},        // absurd count
  };
  for (const auto& [batch, want] : cases) {
    EXPECT_EQ(error_of([&batch] { paxos::decode_batch(batch); }), want);
    EXPECT_EQ(error_of([&batch] { paxos::batch_ops(batch); }), want);
  }
}

// ---- state machines -------------------------------------------------------

/// Implements only the vector entry, as a timing or recording decorator
/// does: the view entry reaches it through StateMachine's copying default.
class VectorOnlyDecorator final : public paxos::StateMachine {
 public:
  explicit VectorOnlyDecorator(paxos::StateMachine& inner) : inner_(inner) {}
  std::vector<std::uint8_t> apply(
      const std::vector<std::uint8_t>& command) override {
    ++calls;
    return inner_.apply(command);
  }
  int calls = 0;

 private:
  paxos::StateMachine& inner_;
};

std::vector<std::uint8_t> kv(storage::KvOp op, const std::string& key,
                             const std::string& value = "") {
  storage::KvCommand c;
  c.op = op;
  c.key = key;
  c.value = bytes_of(value);
  return c.encode();
}

TEST(ApplySeam, VectorOnlyDecoratorBuildsTheSameKvStore) {
  using storage::KvOp;
  const std::vector<std::vector<std::uint8_t>> commands = {
      kv(KvOp::kPut, "a", "one"),  kv(KvOp::kPut, "b", "two"),
      kv(KvOp::kGet, "a"),         kv(KvOp::kPut, "a", "three"),
      kv(KvOp::kDelete, "b"),      kv(KvOp::kGet, "b"),
      kv(KvOp::kDelete, "nope"),   kv(KvOp::kPut, "c", ""),
      kv(KvOp::kGet, "c"),         kv(KvOp::kGet, "a"),
  };
  storage::KvStoreState direct;
  storage::KvStoreState inner;
  VectorOnlyDecorator decorated(inner);
  // Both receive the ops as views of one batch, as Replica::apply_full
  // hands them over.
  std::vector<SharedBytes> ops(commands.begin(), commands.end());
  const SharedBytes batch(paxos::encode_batch(ops));
  for (auto op : paxos::batch_ops(batch.span())) {
    paxos::StateMachine& d = direct;
    paxos::StateMachine& v = decorated;
    EXPECT_EQ(d.apply(batch.view(op)), v.apply(batch.view(op)));
  }
  EXPECT_EQ(decorated.calls, static_cast<int>(commands.size()));
  EXPECT_EQ(direct.keys(), inner.keys());
  for (const std::string key : {"a", "b", "c", "nope"}) {
    EXPECT_EQ(direct.get(key), inner.get(key)) << key;
  }
  EXPECT_EQ(direct.get("a"), bytes_of("three"));
  // The decorated store copied; the direct one kept views of the batch.
  EXPECT_EQ(direct.find("a")->buffer().data(), batch.data());
  EXPECT_NE(inner.find("a")->buffer().data(), batch.data());
}

TEST(ApplySeam, VectorOnlyDecoratorBuildsTheSameLockTable) {
  auto lock = [](lock::LockOp op, const std::string& session,
                 const std::string& path, std::int64_t now) {
    lock::LockCommand c;
    c.op = op;
    c.session = session;
    c.path = path;
    c.now = now;
    c.lease = 30;
    return SharedBytes(c.encode());
  };
  const std::vector<SharedBytes> commands = {
      lock(lock::LockOp::kOpenSession, "s1", "", 0),
      lock(lock::LockOp::kOpenSession, "s2", "", 1),
      lock(lock::LockOp::kAcquire, "s1", "/ls/a", 2),
      lock(lock::LockOp::kAcquire, "s2", "/ls/a", 3),
      lock(lock::LockOp::kKeepAlive, "s2", "", 20),
      lock(lock::LockOp::kAcquire, "s2", "/ls/b", 40),  // s1 has expired
      lock(lock::LockOp::kGetOwner, "s2", "/ls/a", 41),
      lock(lock::LockOp::kRelease, "s2", "/ls/b", 42),
  };
  lock::LockServiceState direct;
  lock::LockServiceState inner;
  VectorOnlyDecorator decorated(inner);
  for (const SharedBytes& c : commands) {
    paxos::StateMachine& d = direct;
    paxos::StateMachine& v = decorated;
    EXPECT_EQ(d.apply(c), v.apply(c));
  }
  EXPECT_EQ(direct.state_digest(), inner.state_digest());
  EXPECT_EQ(direct.open_sessions(), 1u);
}

TEST(ApplySeam, PutStoresAViewOfItsCommand) {
  storage::KvStoreState sm;
  const SharedBytes put(kv(storage::KvOp::kPut, "key", std::string(4096, 'v')));
  sm.apply(put);
  const SharedBytes* stored = sm.find("key");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->buffer().data(), put.data());
  EXPECT_EQ(stored->data() + stored->size(), put.data() + put.size());
  EXPECT_EQ(stored->size(), 4096u);
  // get() hands out an owned copy.
  auto copy = sm.get("key");
  ASSERT_TRUE(copy.has_value());
  EXPECT_NE(copy->data(), stored->data());
  EXPECT_EQ(*copy, std::vector<std::uint8_t>(4096, 'v'));
}

// Every replica of a classic-Paxos KV store keeps each value as a view of
// the payload chosen in its log — one op per slot with the data plane off,
// coalesced kBatch slots with it on.
TEST(ApplySeam, StoredValuesLieInsideTheChosenPayload) {
  for (bool preset : {false, true}) {
    paxos::Replica::Options opts;
    if (preset) opts.plane = paxos::ClusterHarness::data_plane_preset();
    Simulator sim;
    paxos::SimNetwork net(sim, 5);
    std::map<paxos::NodeId, storage::KvStoreState*> sms;
    paxos::Group group(
        sim, net, opts,
        [&sms](paxos::NodeId id) {
          auto sm = std::make_unique<storage::KvStoreState>();
          sms[id] = sm.get();
          return sm;
        },
        6);
    group.bootstrap(5);
    sim.run_until(sim.now() + 120);
    ASSERT_GE(group.leader_id(), 0);
    storage::KvClient client(group);
    constexpr int kPuts = 10;
    int acked = 0;
    for (int i = 0; i < kPuts; ++i) {
      client.put("k" + std::to_string(i), std::vector<std::uint8_t>(100, 'a' + i),
                 [&acked](storage::KvResponse r) {
                   if (r.status == storage::KvStatus::kOk) ++acked;
                 });
    }
    sim.run_until(sim.now() + 300);
    ASSERT_EQ(acked, kPuts);
    for (paxos::NodeId id : group.node_ids()) {
      const paxos::Replica& r = group.replica(id);
      std::vector<const SharedBytes*> payloads;
      for (paxos::Slot s = 0; s < r.commit_index(); ++s) {
        if (const paxos::Value* v = r.chosen_value(s)) {
          payloads.push_back(&v->payload);
        }
      }
      for (int i = 0; i < kPuts; ++i) {
        const SharedBytes* stored = sms[id]->find("k" + std::to_string(i));
        ASSERT_NE(stored, nullptr) << "preset " << preset << " node " << id;
        EXPECT_EQ(*stored, SharedBytes(std::vector<std::uint8_t>(100, 'a' + i)));
        bool inside = false;
        for (const SharedBytes* p : payloads) {
          inside |= stored->buffer().data() == p->data() &&
                    stored->data() >= p->data() &&
                    stored->data() + stored->size() <= p->data() + p->size();
        }
        EXPECT_TRUE(inside) << "preset " << preset << " node " << id
                            << " key k" << i;
      }
    }
  }
}

}  // namespace
}  // namespace jupiter
