// SimNetwork tests: FIFO channels, global delivery order, partitions, fault
// injection, shared message bodies, statistics.
#include <gtest/gtest.h>

#include <memory>

#include "net/network.hpp"

namespace erpi::net {
namespace {

/// A body that is just its text.
class Text final : public Payload {
 public:
  explicit Text(std::string text) : text_(std::move(text)) {}
  std::string render() const override { return text_; }

 private:
  std::string text_;
};

PayloadPtr text(std::string s) { return std::make_shared<const Text>(std::move(s)); }

std::string body(const std::optional<Message>& m) { return m ? m->payload->render() : "<none>"; }

TEST(SimNetwork, FifoPerChannel) {
  SimNetwork net(2);
  net.send(0, 1, "t", text("first"));
  net.send(0, 1, "t", text("second"));
  net.send(0, 1, "t", text("third"));
  EXPECT_EQ(net.pending(0, 1), 3u);
  EXPECT_EQ(body(net.deliver_next(0, 1)), "first");
  EXPECT_EQ(body(net.deliver_next(0, 1)), "second");
  EXPECT_EQ(body(net.deliver_next(0, 1)), "third");
  EXPECT_FALSE(net.deliver_next(0, 1));
}

TEST(SimNetwork, DeliverAnyUsesGlobalSendOrder) {
  SimNetwork net(3);
  net.send(0, 2, "t", text("from0"));
  net.send(1, 2, "t", text("from1"));
  net.send(0, 2, "t", text("from0b"));
  EXPECT_EQ(body(net.deliver_any(2)), "from0");
  EXPECT_EQ(body(net.deliver_any(2)), "from1");
  EXPECT_EQ(body(net.deliver_any(2)), "from0b");
}

TEST(SimNetwork, DeliverAllDrainsEverything) {
  SimNetwork net(3);
  net.send(0, 1, "t", text("a"));
  net.send(1, 2, "t", text("b"));
  net.send(2, 0, "t", text("c"));
  EXPECT_EQ(net.deliver_all(), 3u);
  EXPECT_EQ(net.total_pending(), 0u);
  EXPECT_EQ(net.stats().delivered, 3u);
}

TEST(SimNetwork, PartitionDropsAndHealRestores) {
  SimNetwork net(2);
  net.partition(0, 1);
  EXPECT_TRUE(net.partitioned(1, 0));  // symmetric
  EXPECT_FALSE(net.send(0, 1, "t", text("lost")));
  EXPECT_FALSE(net.send(1, 0, "t", text("lost")));
  net.heal(0, 1);
  EXPECT_TRUE(net.send(0, 1, "t", text("delivered")));
  EXPECT_EQ(net.stats().dropped, 2u);
  EXPECT_EQ(net.stats().sent, 3u);
}

TEST(SimNetwork, HealAllClearsEveryPartition) {
  SimNetwork net(3);
  net.partition(0, 1);
  net.partition(1, 2);
  net.heal_all();
  EXPECT_FALSE(net.partitioned(0, 1));
  EXPECT_FALSE(net.partitioned(1, 2));
}

TEST(SimNetwork, DropFaultLosesRoughlyTheConfiguredFraction) {
  SimNetwork net(2, /*seed=*/7);
  net.set_faults({.drop_probability = 0.5, .duplicate_probability = 0.0});
  int delivered = 0;
  for (int i = 0; i < 400; ++i) {
    if (net.send(0, 1, "t", text("x"))) ++delivered;
  }
  EXPECT_GT(delivered, 120);
  EXPECT_LT(delivered, 280);
  EXPECT_EQ(net.stats().dropped + static_cast<uint64_t>(delivered), 400u);
}

TEST(SimNetwork, DuplicateFaultQueuesTwice) {
  SimNetwork net(2, /*seed=*/7);
  net.set_faults({.drop_probability = 0.0, .duplicate_probability = 1.0});
  net.send(0, 1, "t", text("x"));
  EXPECT_EQ(net.pending(0, 1), 2u);
  EXPECT_EQ(net.stats().duplicated, 1u);
}

// A duplicated message shares its immutable body with the original.
TEST(SimNetwork, DuplicateSharesTheBody) {
  SimNetwork net(2, /*seed=*/7);
  net.set_faults({.drop_probability = 0.0, .duplicate_probability = 1.0});
  const PayloadPtr sent = text("x");
  net.send(0, 1, "t", sent);
  const auto first = net.deliver_next(0, 1);
  const auto second = net.deliver_next(0, 1);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->payload, sent);
  EXPECT_EQ(second->payload, sent);
  EXPECT_LT(first->seq, second->seq);
}

TEST(SimNetwork, ResetClearsChannelsAndStats) {
  SimNetwork net(2);
  net.send(0, 1, "t", text("x"));
  net.reset();
  EXPECT_EQ(net.total_pending(), 0u);
  EXPECT_EQ(net.stats().sent, 0u);
  EXPECT_FALSE(net.deliver_next(0, 1));
}

TEST(SimNetwork, ValidatesReplicaIds) {
  SimNetwork net(2);
  EXPECT_THROW(net.send(0, 5, "t", text("x")), std::out_of_range);
  EXPECT_THROW(net.deliver_next(-1, 0), std::out_of_range);
  EXPECT_THROW(SimNetwork(0), std::invalid_argument);
}

TEST(SimNetwork, SequenceNumbersAreUniqueAndIncreasing) {
  SimNetwork net(2);
  const auto s1 = net.send(0, 1, "t", text("a"));
  const auto s2 = net.send(1, 0, "t", text("b"));
  ASSERT_TRUE(s1 && s2);
  EXPECT_LT(*s1, *s2);
}

// Regression: a send that is lost for two reasons at once (severed link AND a
// probability/scripted drop) is one loss, counted once — and a duplicate
// fault never conjures a copy across a severed link.
TEST(SimNetwork, CoincidingDropCausesCountOnce) {
  SimNetwork net(2, /*seed=*/7);
  net.set_faults({.drop_probability = 1.0, .duplicate_probability = 0.0});
  net.partition(0, 1);
  EXPECT_FALSE(net.send(0, 1, "t", text("doomed twice over")));
  EXPECT_EQ(net.stats().sent, 1u);
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().duplicated, 0u);
}

TEST(SimNetwork, DuplicateFaultNeverCrossesSeveredLink) {
  SimNetwork net(2, /*seed=*/7);
  net.set_faults({.drop_probability = 0.0, .duplicate_probability = 1.0});
  net.partition(0, 1);
  EXPECT_FALSE(net.send(0, 1, "t", text("x")));
  EXPECT_EQ(net.total_pending(), 0u);
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().duplicated, 0u);
  // Healing restores both delivery and the duplicate fault.
  net.heal(0, 1);
  EXPECT_TRUE(net.send(0, 1, "t", text("y")));
  EXPECT_EQ(net.pending(0, 1), 2u);
  EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST(SimNetwork, ScriptedDropAndDuplicateTargetSendOrdinals) {
  SimNetwork net(2);
  net.set_script({.drop = {2}, .duplicate = {3}});
  EXPECT_TRUE(net.send(0, 1, "t", text("first")));
  EXPECT_FALSE(net.send(0, 1, "t", text("second")));  // scripted drop of send #2
  EXPECT_TRUE(net.send(0, 1, "t", text("third")));    // scripted duplicate of send #3
  EXPECT_EQ(net.pending(0, 1), 3u);
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().duplicated, 1u);
  // reset() rewinds the ordinal counter but keeps the script installed, so
  // every interleaving of a fault-schedule replay sees the same faults.
  net.reset();
  EXPECT_TRUE(net.send(0, 1, "t", text("first again")));
  EXPECT_FALSE(net.send(0, 1, "t", text("second again")));
  EXPECT_EQ(net.script(), (SimNetwork::Script{.drop = {2}, .duplicate = {3}}));
}

// Snapshot/restore must round-trip every piece of fault state: live
// partitions, the fault RNG mid-stream, queued duplicates, and the scripted
// fault cursor. After restoring, the network must behave byte-for-byte like
// the original from the snapshot point.
TEST(SimNetwork, StateRoundTripPreservesFaultMachinery) {
  SimNetwork net(3, /*seed=*/42);
  net.set_faults({.drop_probability = 0.3, .duplicate_probability = 0.3});
  net.set_script({.drop = {9}, .duplicate = {10}});
  net.partition(1, 2);
  // Burn some RNG stream and queue traffic (including possible duplicates).
  for (int i = 0; i < 8; ++i) net.send(0, 1, "t", text("warm" + std::to_string(i)));

  const SimNetwork::State snapshot = net.save_state();

  // Drive the original forward and record everything observable.
  std::vector<std::pair<uint64_t, std::string>> first_run;
  for (int i = 0; i < 12; ++i) net.send(i % 2, (i % 2) ^ 1, "t", text("m" + std::to_string(i)));
  while (auto m = net.deliver_any(1)) first_run.push_back({m->seq, m->payload->render()});
  const NetworkStats first_stats = net.stats();
  const bool first_partitioned = net.partitioned(1, 2);

  // Rewind and repeat: identical sends must produce identical deliveries.
  net.restore_state(snapshot);
  EXPECT_TRUE(net.partitioned(1, 2));
  std::vector<std::pair<uint64_t, std::string>> second_run;
  for (int i = 0; i < 12; ++i) net.send(i % 2, (i % 2) ^ 1, "t", text("m" + std::to_string(i)));
  while (auto m = net.deliver_any(1)) second_run.push_back({m->seq, m->payload->render()});

  EXPECT_EQ(first_run, second_run);
  EXPECT_EQ(net.stats().sent, first_stats.sent);
  EXPECT_EQ(net.stats().dropped, first_stats.dropped);
  EXPECT_EQ(net.stats().duplicated, first_stats.duplicated);
  EXPECT_EQ(net.stats().delivered, first_stats.delivered);
  EXPECT_EQ(net.partitioned(1, 2), first_partitioned);
  EXPECT_EQ(net.script(), (SimNetwork::Script{.drop = {9}, .duplicate = {10}}));
}

TEST(SimNetwork, DropInboundDiscardsOnlyThatReplicasQueues) {
  SimNetwork net(3);
  net.send(0, 1, "t", text("a"));
  net.send(2, 1, "t", text("b"));
  net.send(0, 2, "t", text("c"));
  EXPECT_EQ(net.drop_inbound(1), 2u);
  EXPECT_EQ(net.pending(0, 1), 0u);
  EXPECT_EQ(net.pending(2, 1), 0u);
  EXPECT_EQ(net.pending(0, 2), 1u);
  EXPECT_EQ(net.stats().dropped, 2u);
}

}  // namespace
}  // namespace erpi::net
