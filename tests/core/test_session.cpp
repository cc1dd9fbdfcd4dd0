// Session (Start/End) workflow tests: end-to-end capture -> generate ->
// prune -> replay -> assert, Datalog persistence, runtime constraints intake,
// the motivating example's exact §3.1 arithmetic, and the constraints parser.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "core/constraints.hpp"
#include "core/session.hpp"
#include "subjects/town.hpp"

namespace erpi::core {
namespace {

namespace fs = std::filesystem;

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

void town_workload(proxy::RdlProxy& proxy) {
  proxy.update(0, "report", problem("otb"));  // e0  ev_I
  proxy.sync_req(0, 1);                       // e1
  proxy.exec_sync(0, 1);                      // e2
  proxy.update(1, "report", problem("ph"));   // e3  ev_II
  proxy.sync_req(1, 0);                       // e4
  proxy.exec_sync(1, 0);                      // e5
  proxy.update(1, "resolve", problem("otb")); // e6  ev_III
  proxy.sync_req(1, 0);                       // e7
  proxy.exec_sync(1, 0);                      // e8
  proxy.query(0, "transmit");                 // e9  ev_IV
}

Session::Config motivating_config(bool conservative) {
  Session::Config config;
  config.generation_order = GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  ReplicaSpecificPruner::Options rs;
  rs.replica = 0;
  rs.observation_event = 9;
  rs.conservative = conservative;
  config.replica_specific = rs;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  return config;
}

// ---------------------------------------------------------------------------
// The motivating example (§2.3 / §3.1): 5040 -> 24 -> 19 exactly.
// ---------------------------------------------------------------------------

TEST(MotivatingExample, PaperArithmeticReproducedExactly) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, motivating_config(/*conservative=*/true));
  session.start();
  town_workload(proxy);
  util::Json expected = util::Json::array();
  expected.push_back("ph");
  const auto report = session.end({query_result_equals(9, expected)});
  const auto pruning = session.pruning_report();

  EXPECT_EQ(pruning.event_count, 10u);      // 7 paper-level events
  EXPECT_EQ(pruning.unit_count, 4u);        // (ev_I,sync) (ev_II,sync) (ev_III,sync) ev_IV
  EXPECT_EQ(pruning.unit_universe, 24u);    // 4!
  EXPECT_EQ(report.explored, 19u);          // the paper's 19
  EXPECT_TRUE(report.reproduced);           // interleaving_2 of the paper exists
  EXPECT_GT(report.violations, 0u);
}

TEST(MotivatingExample, DependencyClosureModePrunesHarder) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, motivating_config(/*conservative=*/false));
  session.start();
  town_workload(proxy);
  util::Json expected = util::Json::array();
  expected.push_back("ph");
  const auto report = session.end({query_result_equals(9, expected)});
  EXPECT_LT(report.explored, 19u);
  EXPECT_GE(report.explored, 10u);
  EXPECT_TRUE(report.reproduced);
}

TEST(MotivatingExample, IdentityInterleavingSatisfiesTheInvariant) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  auto config = motivating_config(true);
  config.replay.max_interleavings = 1;  // identity only
  Session session(proxy, config);
  session.start();
  town_workload(proxy);
  util::Json expected = util::Json::array();
  expected.push_back("ph");
  const auto report = session.end({query_result_equals(9, expected)});
  EXPECT_FALSE(report.reproduced);
}

// ---------------------------------------------------------------------------
// Exploration modes through the Session
// ---------------------------------------------------------------------------

TEST(Session, AllThreeModesFindTheViolation) {
  for (const auto mode : {ExplorationMode::ErPi, ExplorationMode::Dfs,
                          ExplorationMode::Rand}) {
    subjects::TownApp town(2);
    proxy::RdlProxy proxy(town);
    Session::Config config;
    config.mode = mode;
    config.replay.max_interleavings = 10'000;
    Session session(proxy, config);
    session.start();
    town_workload(proxy);
    util::Json expected = util::Json::array();
    expected.push_back("ph");
    const auto report = session.end({query_result_equals(9, expected)});
    EXPECT_TRUE(report.reproduced) << exploration_mode_name(mode);
  }
}

// ---------------------------------------------------------------------------
// Datalog persistence via the Session
// ---------------------------------------------------------------------------

TEST(Session, PersistsEventsUnitsAndReplayedInterleavings) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  auto config = motivating_config(true);
  config.persist = true;
  Session session(proxy, config);
  session.start();
  town_workload(proxy);
  (void)session.end({});

  auto& store = session.store();
  EXPECT_EQ(store.interleaving_count(), 19u);
  EXPECT_EQ(store.database().find("event")->size(), 10u);
  EXPECT_EQ(store.database().find("group")->size(), 6u);  // 3 chains of 3
  // load an interleaving back and check it is a permutation of 0..9
  auto il = store.load(0);
  std::sort(il.order.begin(), il.order.end());
  EXPECT_EQ(il.order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// ---------------------------------------------------------------------------
// Constraints: parser + watcher + runtime intake
// ---------------------------------------------------------------------------

TEST(Constraints, ParserAcceptsFullSchema) {
  const auto doc = util::Json::parse(R"({
    "groups": [[2, 3]],
    "independent_events": [4, 5, 6],
    "neutral_events": [1],
    "failed_ops": {"predecessors": [0], "successors": [7, 8]}
  })").take();
  const auto parsed = parse_constraints(doc);
  ASSERT_TRUE(parsed) << parsed.error().message;
  EXPECT_EQ(parsed.value().groups.size(), 1u);
  ASSERT_EQ(parsed.value().independence.size(), 1u);
  EXPECT_EQ(parsed.value().independence[0].independent_events.size(), 3u);
  EXPECT_EQ(parsed.value().independence[0].neutral_events.count(1), 1u);
  ASSERT_EQ(parsed.value().failed_ops.size(), 1u);
  EXPECT_FALSE(parsed.value().empty());
}

TEST(Constraints, ParserRejectsMalformedDocuments) {
  for (const char* bad :
       {R"([1,2])", R"({"groups": [[1]]})", R"({"groups": "nope"})",
        R"({"independent_events": ["x"]})"}) {
    EXPECT_FALSE(parse_constraints(util::Json::parse(bad).take())) << bad;
  }
}

TEST(Constraints, ParserIgnoresDegenerateSpecs) {
  // a single independent event or missing successors are not usable specs
  const auto doc = util::Json::parse(
      R"({"independent_events": [3], "failed_ops": {"predecessors": [1], "successors": [2]}})")
      .take();
  const auto parsed = parse_constraints(doc).take();
  EXPECT_TRUE(parsed.independence.empty());
  EXPECT_TRUE(parsed.failed_ops.empty());
}

TEST(ConstraintWatcher, ConsumesEachFileOnce) {
  const auto dir = fs::temp_directory_path() / "erpi-watcher-test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ConstraintWatcher watcher(dir.string());
  EXPECT_TRUE(watcher.poll().empty());

  std::ofstream(dir / "c1.json") << R"({"independent_events": [1, 2]})";
  auto first = watcher.poll();
  ASSERT_EQ(first.independence.size(), 1u);
  EXPECT_TRUE(watcher.poll().empty());  // already consumed

  std::ofstream(dir / "ignored.txt") << "not json";
  std::ofstream(dir / "broken.json") << "{nope";
  EXPECT_TRUE(watcher.poll().empty());  // non-json + malformed skipped

  std::ofstream(dir / "c2.json") << R"({"groups": [[0, 1]]})";
  auto second = watcher.poll();
  EXPECT_EQ(second.groups.size(), 1u);
  fs::remove_all(dir);
}

TEST(ConstraintWatcher, MissingDirectoryIsHarmless) {
  ConstraintWatcher watcher("/nonexistent/erpi-nowhere");
  EXPECT_TRUE(watcher.poll().empty());
  ConstraintWatcher disabled("");
  EXPECT_TRUE(disabled.poll().empty());
}

TEST(ConstraintWatcher, SameSizeInPlaceEditIsReconsumed) {
  const auto dir = fs::temp_directory_path() / "erpi-watcher-mtime-test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ConstraintWatcher watcher(dir.string());

  const auto path = dir / "c.json";
  std::ofstream(path) << R"({"independent_events": [1, 2]})";
  ASSERT_EQ(watcher.poll().independence.size(), 1u);

  // Same byte count, different content: the old path:size key would treat
  // this as already consumed and silently drop the edit. Bump the mtime
  // explicitly so the test doesn't depend on filesystem timestamp
  // granularity.
  std::ofstream(path) << R"({"independent_events": [1, 3]})";
  fs::last_write_time(path, fs::last_write_time(path) + std::chrono::seconds(2));
  const auto reread = watcher.poll();
  ASSERT_EQ(reread.independence.size(), 1u);
  EXPECT_EQ(reread.independence[0].independent_events, (std::vector<int>{1, 3}));
  EXPECT_TRUE(watcher.poll().empty());  // unchanged file stays consumed
  fs::remove_all(dir);
}

TEST(ConstraintWatcher, LastErrorsReportsSkippedFilesStructured) {
  const auto dir = fs::temp_directory_path() / "erpi-watcher-errors-test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ConstraintWatcher watcher(dir.string());
  EXPECT_TRUE(watcher.last_errors().empty());

  std::ofstream(dir / "broken.json") << "{nope";
  std::ofstream(dir / "invalid.json") << R"({"groups": [[1]]})";
  std::ofstream(dir / "good.json") << R"({"groups": [[0, 1]]})";
  const auto merged = watcher.poll();
  EXPECT_EQ(merged.groups.size(), 1u);  // the good file still lands

  ASSERT_EQ(watcher.last_errors().size(), 2u);
  for (const auto& error : watcher.last_errors()) {
    EXPECT_FALSE(error.error.message.empty());
    if (error.path == (dir / "broken.json").string()) {
      EXPECT_NE(error.error.message.find("malformed JSON"), std::string::npos);
    } else {
      EXPECT_EQ(error.path, (dir / "invalid.json").string());
      EXPECT_EQ(error.error.message, "a group needs at least two events");
    }
  }

  // Errors describe the most recent poll only; a clean scan resets them.
  EXPECT_TRUE(watcher.poll().empty());
  EXPECT_TRUE(watcher.last_errors().empty());
  fs::remove_all(dir);
}

/// Interleavings the town workload explores at one worker when a constraint
/// declaring `independent` events lands after the 5th interleaving, in
/// process or sandboxed.
uint64_t explored_with_runtime_constraint(Isolation isolation, const std::string& independent) {
  const auto dir = fs::temp_directory_path() / "erpi-session-constraints";
  fs::remove_all(dir);
  fs::create_directories(dir);

  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session::Config config;
  config.generation_order = GroupedEnumerator::Order::Lexicographic;
  config.constraints_dir = dir.string();
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.isolation = isolation;
  if (isolation == Isolation::Process) {
    config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  }
  // drop a constraint file after the 5th interleaving
  config.replay.on_outcome = [&](uint64_t index, const Interleaving&, const InterleavingOutcome&) {
    if (index == 5) {
      std::ofstream(dir / "indep.json") << R"({"independent_events": )" << independent << "}";
    }
  };
  Session session(proxy, config);
  session.start();
  town_workload(proxy);
  const uint64_t explored = isolation == Isolation::Process
                                ? session.end(AssertionFactory{}).explored
                                : session.end(AssertionList{}).explored;
  fs::remove_all(dir);
  return explored;
}

TEST(Session, RuntimeConstraintsExtendThePipeline) {
  const auto without = [] {
    subjects::TownApp t(2);
    proxy::RdlProxy p(t);
    Session::Config c;
    c.generation_order = GroupedEnumerator::Order::Lexicographic;
    c.replay.stop_on_violation = false;
    c.replay.max_interleavings = 100'000;
    Session s(p, c);
    s.start();
    town_workload(p);
    return s.end({}).explored;
  }();
  // events 0 and 3 are the two reports — declaring them independent is a
  // developer-provided §3.4 constraint
  const uint64_t with = explored_with_runtime_constraint(Isolation::None, "[0, 3]");
  EXPECT_LT(with, without);  // the runtime constraint pruned something
  // A sandboxed one-worker run that polls constraints keeps one item in
  // flight, so the constraint applies to the same pull as in process. The
  // resolve and the query (events 6 and 9) swap within the first 32 pulls,
  // so a constraint on them would miss pulls made a window ahead.
  for (const std::string independent : {"[0, 3]", "[6, 9]"}) {
    EXPECT_EQ(explored_with_runtime_constraint(Isolation::Process, independent),
              explored_with_runtime_constraint(Isolation::None, independent))
        << independent;
  }
}

}  // namespace
}  // namespace erpi::core
