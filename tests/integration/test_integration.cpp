// Cross-module integration tests: mode equivalence on exhaustively
// explorable systems, fault-injected subjects, and end-to-end workflows that
// tie the proxy, session, pruners, datalog store, kv lock and subjects
// together.
#include <gtest/gtest.h>

#include "bugs/registry.hpp"
#include "core/session.hpp"
#include "subjects/crdt_collection.hpp"
#include "subjects/town.hpp"

namespace erpi {
namespace {

util::Json jobj(std::initializer_list<std::pair<const char*, util::Json>> kv) {
  util::Json out = util::Json::object();
  for (const auto& [k, v] : kv) out[k] = v;
  return out;
}

void small_workload(proxy::RdlProxy& proxy) {
  proxy.update(0, "set_add", jobj({{"element", "x"}}));
  proxy.sync_req(0, 1);
  proxy.exec_sync(0, 1);
  proxy.update(1, "set_remove", jobj({{"element", "x"}}));
  proxy.sync_req(1, 0);
  proxy.exec_sync(1, 0);
}

// Property: on a system small enough for exhaustive exploration, the set of
// violating CANONICAL outcomes agrees between the raw-space baselines — and
// ER-pi's pruned space preserves reproduction.
TEST(ModeEquivalence, AllModesAgreeOnViolationExistence) {
  std::map<std::string, bool> reproduced;
  for (const auto mode : {core::ExplorationMode::ErPi, core::ExplorationMode::Dfs,
                          core::ExplorationMode::Rand}) {
    subjects::CrdtCollection app(2);
    proxy::RdlProxy proxy(app);
    core::Session::Config config;
    config.mode = mode;
    config.replay.max_interleavings = 100'000;
    config.replay.stop_on_violation = false;
    core::Session session(proxy, config);
    session.start();
    small_workload(proxy);
    const auto report = session.end(
        {core::converge_if_same_witness({0, 1}, {"seen"}, {"set"})});
    reproduced[core::exploration_mode_name(mode)] = report.reproduced;
    EXPECT_TRUE(report.exhausted) << core::exploration_mode_name(mode);
  }
  EXPECT_EQ(reproduced["er-pi"], reproduced["dfs"]);
  EXPECT_EQ(reproduced["dfs"], reproduced["rand"]);
}

TEST(ModeEquivalence, PrunedSpaceIsSubsetOfRawSpace) {
  subjects::CrdtCollection app(2);
  proxy::RdlProxy proxy(app);
  core::Session::Config config;
  config.replay.max_interleavings = 100'000;
  config.replay.stop_on_violation = false;
  core::ReplicaSpecificPruner::Options rs;
  rs.replica = 0;
  config.replica_specific = rs;
  core::Session session(proxy, config);
  session.start();
  small_workload(proxy);
  const auto report = session.end({});
  const auto pruning = session.pruning_report();
  EXPECT_TRUE(report.exhausted);
  EXPECT_LT(report.explored, pruning.unit_universe);
  EXPECT_EQ(pruning.pipeline.admitted, report.explored);
}

TEST(FaultInjection, DroppedSyncsSurfaceAsFailedOpsNotCrashes) {
  subjects::TownApp town(2);
  town.network().set_faults({.drop_probability = 1.0, .duplicate_probability = 0.0});
  proxy::RdlProxy proxy(town);
  const auto sent = proxy.sync_req(0, 1);
  ASSERT_FALSE(sent);
  EXPECT_NE(sent.error().message.find("dropped"), std::string::npos);
  const auto exec = proxy.exec_sync(0, 1);
  EXPECT_FALSE(exec);
}

TEST(FaultInjection, PartitionedReplicasDivergeUntilHealed) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  town.network().partition(0, 1);
  proxy.update(0, "report", jobj({{"problem", "x"}}));
  EXPECT_FALSE(proxy.sync_req(0, 1));
  town.network().heal_all();
  EXPECT_TRUE(proxy.sync(0, 1));
  EXPECT_EQ(town.replica_state(1)["problems"].size(), 1u);
}

TEST(FaultInjection, DuplicatedSyncDeliveriesAreIdempotent) {
  subjects::TownApp town(2);
  town.network().set_faults({.drop_probability = 0.0, .duplicate_probability = 1.0});
  proxy::RdlProxy proxy(town);
  proxy.update(0, "report", jobj({{"problem", "x"}}));
  proxy.sync_req(0, 1);
  proxy.exec_sync(0, 1);  // delivers the original
  proxy.exec_sync(0, 1);  // delivers the network-duplicated copy
  EXPECT_EQ(town.replica_state(1)["problems"].size(), 1u);
}

// End-to-end: a full bug hunt through the public Session API with the
// threaded replay engine — proxy, grouping, pruning, kv lock, assertions.
TEST(EndToEnd, ThreadedBugHuntReproducesYorkie1) {
  const auto& bug = bugs::find_bug("Yorkie-1");
  auto subject = bug.make_subject();
  proxy::RdlProxy proxy(*subject);
  core::Session::Config config;
  config.replay.max_interleavings = 300;
  config.replay.threaded = true;
  if (bug.configure) bug.configure(config);
  core::Session session(proxy, config);
  session.start();
  bug.workload(proxy);
  const auto report = session.end(bug.assertions());
  EXPECT_TRUE(report.reproduced);
}

TEST(EndToEnd, PruningReportAccountsForTheWholeUniverse) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  core::Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  core::ReplicaSpecificPruner::Options rs;
  rs.replica = 0;
  config.replica_specific = rs;
  core::Session session(proxy, config);
  session.start();
  proxy.update(0, "report", jobj({{"problem", "a"}}));
  proxy.update(1, "report", jobj({{"problem", "b"}}));
  proxy.sync(1, 0);
  const auto report = session.end({});
  const auto pruning = session.pruning_report();
  EXPECT_EQ(pruning.pipeline.admitted + pruning.pipeline.pruned, pruning.unit_universe);
  EXPECT_EQ(pruning.pipeline.admitted, report.explored);
}


TEST(EndToEnd, ThreeReplicaRingUnderThreadedReplay) {
  // Roshi-3's three-replica ring through the threaded engine: three worker
  // threads sequenced by the distributed lock must agree with fast mode.
  const auto& bug = bugs::find_bug("Roshi-3");
  auto subject = bug.make_subject();
  proxy::RdlProxy proxy(*subject);
  core::Session::Config config;
  config.replay.max_interleavings = 40;
  config.replay.stop_on_violation = false;
  config.replay.threaded = true;
  if (bug.configure) bug.configure(config);
  core::Session session(proxy, config);
  session.start();
  bug.workload(proxy);
  const auto threaded = session.end(bug.assertions());

  auto fast = bugs::run_bug(bug, core::ExplorationMode::ErPi, 40);
  // (run_bug uses stop_on_violation=true; compare on explored counts only
  // when neither run reproduced, otherwise on the violation index)
  if (threaded.reproduced) {
    EXPECT_TRUE(fast.report.reproduced);
  }
  EXPECT_EQ(threaded.explored, 40u);
}

TEST(FaultInjection, ReplayToleratesLossyNetwork) {
  // With a lossy network every sync can fail, but the engine must keep
  // exploring and report failures as failed ops, never crash.
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  core::Session::Config config;
  config.replay.max_interleavings = 60;
  config.replay.stop_on_violation = false;
  core::Session session(proxy, config);
  session.start();
  proxy.update(0, "report", jobj({{"problem", "x"}}));
  proxy.sync_req(0, 1);
  proxy.exec_sync(0, 1);
  proxy.update(1, "report", jobj({{"problem", "y"}}));
  // inject faults for the replay phase (capture ran clean)
  town.network().set_faults({.drop_probability = 0.5, .duplicate_probability = 0.2});
  const auto report = session.end({});
  EXPECT_TRUE(report.exhausted);  // 3 units -> 3! = 6 interleavings, all run
  EXPECT_EQ(report.explored, 6u);
  EXPECT_FALSE(report.crashed);
}

TEST(EndToEnd, SessionsAreReusableAcrossRuns) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  core::Session::Config config;
  config.replay.max_interleavings = 50;
  config.replay.stop_on_violation = false;

  for (int round = 0; round < 2; ++round) {
    core::Session session(proxy, config);
    session.start();
    proxy.update(0, "report", jobj({{"problem", "p" + std::to_string(round)}}));
    proxy.sync(0, 1);
    const auto report = session.end({core::replicas_converge({0, 1})});
    EXPECT_TRUE(report.exhausted);
    EXPECT_EQ(session.events().size(), 3u) << "capture leaked across sessions";
  }
}

}  // namespace
}  // namespace erpi
