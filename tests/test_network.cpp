#include "paxos/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace jupiter::paxos {
namespace {

Message ping(NodeId from) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.from = from;
  return m;
}

TEST(SimNetwork, DeliversWithinLatencyBounds) {
  Simulator sim;
  SimNetwork::Options opts;
  opts.min_latency = 2;
  opts.max_latency = 5;
  SimNetwork net(sim, 1, opts);
  std::vector<std::int64_t> arrivals;
  net.attach(1, [&](const Message&) { arrivals.push_back(sim.now().seconds()); });
  for (int i = 0; i < 50; ++i) net.send(1, ping(0));
  sim.run_until(SimTime(100));
  ASSERT_EQ(arrivals.size(), 50u);
  for (auto t : arrivals) {
    EXPECT_GE(t, 2);
    EXPECT_LE(t, 5);
  }
}

TEST(SimNetwork, DownReceiverDropsInFlight) {
  Simulator sim;
  SimNetwork::Options opts;
  opts.min_latency = 5;
  opts.max_latency = 5;
  SimNetwork net(sim, 2, opts);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.send(1, ping(0));
  // Receiver crashes while the message is in flight.
  sim.schedule_at(SimTime(2), [&] { net.set_up(1, false); });
  sim.run_until(SimTime(100));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.messages_delivered(), 0u);
}

TEST(SimNetwork, DownSenderCannotSend) {
  Simulator sim;
  SimNetwork net(sim, 3);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.set_up(0, false);
  net.send(1, ping(0));
  sim.run_until(SimTime(100));
  EXPECT_EQ(received, 0);
}

TEST(SimNetwork, DropRateLosesRoughlyThatFraction) {
  Simulator sim;
  SimNetwork::Options opts;
  opts.drop_rate = 0.3;
  SimNetwork net(sim, 4, opts);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) net.send(1, ping(0));
  sim.run_until(SimTime(100));
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.03);
}

TEST(SimNetwork, ValueBytesAccounting) {
  Simulator sim;
  SimNetwork net(sim, 5);
  net.attach(1, [](const Message&) {});
  Message m = ping(0);
  m.value.payload = std::vector<std::uint8_t>(100, 0xFF);
  PromiseInfo p;
  p.value.payload = std::vector<std::uint8_t>(23, 0x01);
  m.promises.push_back(p);
  net.send(1, m);
  EXPECT_EQ(net.value_bytes_sent(), 123u);
}

TEST(SimNetwork, DetachStopsDelivery) {
  Simulator sim;
  SimNetwork net(sim, 6);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.send(1, ping(0));
  sim.run_until(SimTime(10));
  EXPECT_EQ(received, 1);
  net.detach(1);
  net.send(1, ping(0));
  sim.run_until(SimTime(20));
  EXPECT_EQ(received, 1);
}

TEST(SimNetwork, NodesDefaultUp) {
  Simulator sim;
  SimNetwork net(sim, 7);
  EXPECT_TRUE(net.is_up(42));
  net.set_up(42, false);
  EXPECT_FALSE(net.is_up(42));
  net.set_up(42, true);
  EXPECT_TRUE(net.is_up(42));
}

// ------------------------------------------------------ partition semantics

TEST(SimNetwork, AsymmetricCutDeliversOneDirectionOnly) {
  Simulator sim;
  SimNetwork net(sim, 8);
  int to_zero = 0, to_one = 0;
  net.attach(0, [&](const Message&) { ++to_zero; });
  net.attach(1, [&](const Message&) { ++to_one; });
  net.cut_link(0, 1);  // 0 -> 1 severed; 1 -> 0 still up
  net.send(1, ping(0));
  net.send(0, ping(1));
  sim.run_until(SimTime(50));
  EXPECT_EQ(to_one, 0);
  EXPECT_EQ(to_zero, 1);
  EXPECT_TRUE(net.link_cut(0, 1));
  EXPECT_FALSE(net.link_cut(1, 0));
}

TEST(SimNetwork, HealingRestoresDelivery) {
  Simulator sim;
  SimNetwork net(sim, 9);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.cut_pair(0, 1);
  net.send(1, ping(0));
  sim.run_until(SimTime(50));
  EXPECT_EQ(received, 0);
  net.heal_pair(0, 1);
  net.send(1, ping(0));
  sim.run_until(SimTime(100));
  EXPECT_EQ(received, 1);
}

TEST(SimNetwork, PairCutBlocksBothDirections) {
  Simulator sim;
  SimNetwork net(sim, 10);
  int delivered = 0;
  net.attach(0, [&](const Message&) { ++delivered; });
  net.attach(1, [&](const Message&) { ++delivered; });
  net.cut_pair(0, 1);
  net.send(1, ping(0));
  net.send(0, ping(1));
  sim.run_until(SimTime(50));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_dropped(), 2u);
}

TEST(SimNetwork, CutLinkDropsMessagesAlreadyInFlight) {
  Simulator sim;
  SimNetwork::Options opts;
  opts.min_latency = 5;
  opts.max_latency = 5;
  SimNetwork net(sim, 11, opts);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.send(1, ping(0));
  // The link is severed while the message is on the wire.
  sim.schedule_at(SimTime(2), [&] { net.cut_link(0, 1); });
  sim.run_until(SimTime(50));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(SimNetwork, DownNodeNeitherSendsNorReceives) {
  Simulator sim;
  SimNetwork net(sim, 12);
  int received = 0;
  net.attach(0, [&](const Message&) { ++received; });
  net.attach(1, [&](const Message&) { ++received; });
  net.set_up(1, false);
  net.send(0, ping(1));  // down sender
  net.send(1, ping(0));  // down receiver
  sim.run_until(SimTime(50));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.messages_dropped(), 2u);
  EXPECT_EQ(net.messages_delivered(), 0u);
}

// ------------------------------------------------------- drop accounting

TEST(SimNetwork, DroppedPlusDeliveredAccountsForEverySend) {
  Simulator sim;
  SimNetwork::Options opts;
  opts.drop_rate = 0.4;
  SimNetwork net(sim, 13, opts);
  net.attach(1, [](const Message&) {});
  const int n = 2000;
  for (int i = 0; i < n; ++i) net.send(1, ping(0));
  sim.run_until(SimTime(100));
  EXPECT_EQ(net.messages_sent(), static_cast<std::uint64_t>(n));
  // Without duplication every send either arrives or is dropped.
  EXPECT_EQ(net.messages_delivered() + net.messages_dropped(),
            static_cast<std::uint64_t>(n));
  EXPECT_GT(net.messages_dropped(), 0u);
}

// ------------------------------------------------------------ fault hook

TEST(SimNetwork, FaultHookCanDuplicateMessages) {
  Simulator sim;
  SimNetwork net(sim, 14);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.set_fault_hook([](NodeId, NodeId, const Message&) {
    SimNetwork::FaultAction act;
    act.duplicates = 2;
    return act;
  });
  net.send(1, ping(0));
  sim.run_until(SimTime(50));
  EXPECT_EQ(received, 3);  // original + 2 copies
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.messages_delivered(), 3u);
}

// The last delivery takes the sent message itself; every earlier duplicate
// must carry the full payload, even when a handler moves its payload out.
TEST(SimNetwork, DuplicatedMessagesEachCarryTheFullPayload) {
  Simulator sim;
  SimNetwork net(sim, 17);
  std::vector<SharedBytes> delivered;
  net.attach(1, [&](Message&& m) {
    delivered.push_back(std::move(m.value.payload));
    EXPECT_TRUE(m.value.payload.empty());
  });
  net.set_fault_hook([](NodeId, NodeId, const Message&) {
    SimNetwork::FaultAction act;
    act.duplicates = 2;
    return act;
  });
  std::vector<std::uint8_t> sent(4096);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  Message m = ping(0);
  m.value.payload = sent;
  net.send(1, std::move(m));
  sim.run_until(SimTime(50));
  ASSERT_EQ(delivered.size(), 3u);
  for (const auto& payload : delivered) {
    EXPECT_EQ(std::vector<std::uint8_t>(payload), sent);
  }
  EXPECT_EQ(net.value_bytes_sent(), 3u * 4096u);
}

TEST(SimNetwork, FaultHookExtraLatencyDelaysDelivery) {
  Simulator sim;
  SimNetwork::Options opts;
  opts.min_latency = 1;
  opts.max_latency = 1;
  SimNetwork net(sim, 15, opts);
  std::vector<std::int64_t> arrivals;
  net.attach(1, [&](const Message&) { arrivals.push_back(sim.now().seconds()); });
  net.set_fault_hook([](NodeId, NodeId, const Message&) {
    SimNetwork::FaultAction act;
    act.extra_latency = 30;
    return act;
  });
  net.send(1, ping(0));
  sim.run_until(SimTime(100));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 31);
  // Clearing the hook restores base latency.
  net.set_fault_hook(nullptr);
  net.send(1, ping(0));
  sim.run_until(SimTime(200));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], 101);
}

TEST(SimNetwork, FaultHookCanDropDeterministically) {
  Simulator sim;
  SimNetwork net(sim, 16);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.set_fault_hook([](NodeId, NodeId to, const Message&) {
    SimNetwork::FaultAction act;
    act.drop = (to == 1);
    return act;
  });
  net.send(1, ping(0));
  net.send(2, ping(0));  // unaffected destination (no handler, still counts)
  sim.run_until(SimTime(50));
  EXPECT_EQ(received, 0);
  EXPECT_GE(net.messages_dropped(), 1u);
}

}  // namespace
}  // namespace jupiter::paxos
