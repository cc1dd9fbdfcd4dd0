// Replay-engine tests: reset-per-interleaving, violation reporting, caps,
// resource budget, fast-vs-threaded equivalence under the distributed lock.
// Each run replays inline on the fixture's own proxy through the explorer's
// borrowed-fixture overload.
#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "core/session.hpp"
#include "sched/explorer.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::core {
namespace {

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

struct Fixture {
  Fixture() : town(2), proxy(town) {
    proxy.start_capture();
    proxy.update(0, "report", problem("otb"));
    proxy.sync_req(0, 1);
    proxy.exec_sync(0, 1);
    proxy.update(1, "resolve", problem("otb"));
    proxy.sync_req(1, 0);
    proxy.exec_sync(1, 0);
    proxy.query(0, "transmit");
    events = proxy.end_capture();
    units = build_units(events);
  }

  std::unique_ptr<Enumerator> enumerator() {
    return std::make_unique<GroupedEnumerator>(units);
  }

  /// One inline run over this fixture's own proxy.
  ReplayReport explore(ReplayOptions options, const AssertionList& assertions) {
    sched::ExplorerOptions explorer;
    explorer.parallelism = 1;
    explorer.replay = std::move(options);
    auto stream = enumerator();
    return sched::ParallelExplorer(std::move(explorer)).run(*stream, events, proxy, assertions);
  }

  subjects::TownApp town;
  proxy::RdlProxy proxy;
  proxy::EventSet events;
  std::vector<EventUnit> units;
};

TEST(ReplayEngine, ExploresWholeUniverseWithoutStopOnViolation) {
  Fixture fx;
  ReplayOptions options;
  options.stop_on_violation = false;
  options.max_interleavings = 1000;
  util::Json expected = util::Json::array();  // empty transmission
  const auto report = fx.explore(options, {query_result_equals(6, expected)});
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.explored, 120u);  // 5 units
  EXPECT_GT(report.violations, 0u);  // the synced interleavings transmit {otb}
  EXPECT_LT(report.violations, report.explored);
}

TEST(ReplayEngine, StopsAtFirstViolation) {
  Fixture fx;
  ReplayOptions options;
  // identity order transmits {} (otb resolved); expecting {otb} violates later
  util::Json expected = util::Json::array();
  expected.push_back("otb");
  const auto report = fx.explore(options, {query_result_equals(6, expected)});
  ASSERT_TRUE(report.reproduced);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_EQ(report.first_violation_index, 1u);  // identity itself violates here
  ASSERT_TRUE(report.first_violation);
  EXPECT_FALSE(report.messages.empty());
  EXPECT_EQ(report.first_violation_assertion, "query_result_equals");
}

TEST(ReplayEngine, EachInterleavingStartsFromInitialState) {
  Fixture fx;
  ReplayOptions options;
  options.stop_on_violation = false;
  options.max_interleavings = 10;
  bool state_leak = false;
  options.on_outcome = [&](uint64_t, const Interleaving&, const InterleavingOutcome&) {
    // after each interleaving, replica 0 holds at most one problem; if state
    // leaked across interleavings the set would accumulate
    const auto state = fx.town.replica_state(0);
    if (state["problems"].size() > 1) state_leak = true;
  };
  fx.explore(options, {});
  EXPECT_FALSE(state_leak);
}

TEST(ReplayEngine, HonorsInterleavingCap) {
  Fixture fx;
  ReplayOptions options;
  options.max_interleavings = 7;
  options.stop_on_violation = false;
  const auto report = fx.explore(options, {});
  EXPECT_EQ(report.explored, 7u);
  EXPECT_TRUE(report.hit_cap);
  EXPECT_FALSE(report.exhausted);
}

TEST(ReplayEngine, CrashesWhenResourceBudgetExceeded) {
  Fixture fx;
  ReplayOptions options;
  options.stop_on_violation = false;
  options.resource_budget_bytes = 600;  // a handful of explored-log entries
  const auto report = fx.explore(options, {});
  EXPECT_TRUE(report.crashed);
  EXPECT_LT(report.explored, 120u);
}

TEST(ReplayEngine, ThreadedModeMatchesFastMode) {
  Fixture fast_fx;
  ReplayOptions fast_options;
  fast_options.stop_on_violation = false;
  fast_options.max_interleavings = 24;
  util::Json expected = util::Json::array();
  const auto fast_report = fast_fx.explore(fast_options, {query_result_equals(6, expected)});

  Fixture threaded_fx;
  ReplayOptions threaded_options;
  threaded_options.stop_on_violation = false;
  threaded_options.max_interleavings = 24;
  threaded_options.threaded = true;
  const auto threaded_report =
      threaded_fx.explore(threaded_options, {query_result_equals(6, expected)});

  EXPECT_EQ(fast_report.verdict(), threaded_report.verdict());
}

TEST(ReplayReport, JsonSerialization) {
  Fixture fx;
  ReplayOptions options;
  util::Json expected = util::Json::array();
  expected.push_back("otb");
  const auto report = fx.explore(options, {query_result_equals(6, expected)});
  const auto j = report.to_json();
  EXPECT_EQ(j["reproduced"].as_bool(), report.reproduced);
  EXPECT_EQ(j["explored"].as_int(), static_cast<int64_t>(report.explored));
  EXPECT_EQ(j["first_violation"].as_string(), report.first_violation->key());
  EXPECT_FALSE(j["messages"].as_array().empty());
  // round-trips through the JSON layer
  EXPECT_TRUE(util::Json::parse(j.dump()).take() == j);
  // The verdict's JSON is the report's minus the telemetry.
  util::Json verdict = j;
  for (const char* key : {"elapsed_seconds", "pairs_skipped_from_journal", "explorer"}) {
    EXPECT_TRUE(verdict.contains(key)) << key;
    verdict.as_object().erase(key);
  }
  EXPECT_TRUE(verdict == report.verdict().to_json());
}

}  // namespace
}  // namespace erpi::core
