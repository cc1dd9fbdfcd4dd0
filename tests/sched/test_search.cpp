// Guided exploration tests (DESIGN.md §12): the split_tree_order subtree
// partition, the searcher strategies, and the report-determinism guarantees
// of ranked exploration — same (stream, SearchOptions) ⇒ same ReplayReport at
// parallelism ∈ {1, 4, 8}, with and without fault plans — plus the
// ViolationFirst prior-guided speedup gate and the corpus prior loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "corpus/store.hpp"
#include "faults/explorer.hpp"
#include "sched/searcher.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::sched {
namespace {

using core::Interleaving;
using core::ReplayReport;
using core::SearchOptions;
using core::SearchStrategy;
using core::Session;
using core::SubtreeSpan;

// ---------------------------------------------------------------------------
// split_tree_order
// ---------------------------------------------------------------------------

std::vector<Interleaving> lex_permutations_of_three() {
  return {{{0, 1, 2}}, {{0, 2, 1}}, {{1, 0, 2}}, {{1, 2, 0}}, {{2, 0, 1}}, {{2, 1, 0}}};
}

void expect_tiles(const std::vector<SubtreeSpan>& spans, size_t total) {
  size_t next = 0;
  for (const auto& span : spans) {
    EXPECT_EQ(span.begin, next);
    EXPECT_GT(span.end, span.begin);
    next = span.end;
  }
  EXPECT_EQ(next, total);
}

TEST(SplitTreeOrder, PartitionsLexStreamByFirstEvent) {
  const auto items = lex_permutations_of_three();
  const auto spans = core::split_tree_order(items, 2);
  expect_tiles(spans, items.size());
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& span : spans) {
    EXPECT_EQ(span.size(), 2u);
    EXPECT_EQ(span.prefix_len, 1u);  // split one level below the root
    EXPECT_EQ(items[span.begin].order[0], items[span.end - 1].order[0]);
  }
}

TEST(SplitTreeOrder, WholeStreamFitsInOneSpan) {
  const auto items = lex_permutations_of_three();
  const auto spans = core::split_tree_order(items, 100);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (SubtreeSpan{0, items.size(), 0}));
}

TEST(SplitTreeOrder, ChunksStructurelessStreams) {
  // Adjacent items never agree on order[0]: a run per item. The splitter must
  // fall back to fixed-size chunks instead of shattering into singletons.
  std::vector<Interleaving> items;
  for (int i = 0; i < 24; ++i) items.push_back({{i % 2 == 0 ? 100 + i : -i, i}});
  const auto spans = core::split_tree_order(items, 8);
  expect_tiles(spans, items.size());
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& span : spans) EXPECT_EQ(span.size(), 8u);
}

TEST(SplitTreeOrder, EmptyAndZeroMaxAreSafe) {
  EXPECT_TRUE(core::split_tree_order({}, 4).empty());
  // max_items 0 is clamped to 1; every span is a singleton tile.
  const auto spans = core::split_tree_order(lex_permutations_of_three(), 0);
  expect_tiles(spans, 6);
  for (const auto& span : spans) EXPECT_EQ(span.size(), 1u);
}

// ---------------------------------------------------------------------------
// Searchers (unit level)
// ---------------------------------------------------------------------------

bool is_permutation_of_all(const std::vector<size_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::set<size_t> seen(order.begin(), order.end());
  return seen.size() == n && (n == 0 || *seen.rbegin() == n - 1);
}

TEST(Searchers, RandomPathIsSeedDeterministic) {
  const auto items = lex_permutations_of_three();
  const auto spans = core::split_tree_order(items, 2);

  SearchOptions options;
  options.strategy = SearchStrategy::RandomPath;
  options.seed = 7;
  auto a = make_searcher(options, {})->select(items, spans);
  auto b = make_searcher(options, {})->select(items, spans);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(is_permutation_of_all(a, spans.size()));

  options.seed = 8;
  auto c = make_searcher(options, {})->select(items, spans);
  EXPECT_TRUE(is_permutation_of_all(c, spans.size()));
  // Distinct seeds hash every subtree differently; identical rankings would
  // defeat the strategy's point. (Deterministic inputs, so no flake risk.)
  EXPECT_NE(a, c);
}

TEST(Searchers, ViolationFirstRanksPriorSubtreeFirstAndDegeneratesWithout) {
  const auto items = lex_permutations_of_three();
  const auto spans = core::split_tree_order(items, 2);
  SearchOptions options;
  options.strategy = SearchStrategy::ViolationFirst;

  SearcherDeps no_priors;
  EXPECT_EQ(make_searcher(options, no_priors)->select(items, spans),
            (std::vector<size_t>{0, 1, 2}));

  SearcherDeps deps;
  deps.violation_priors = std::make_shared<const std::vector<Interleaving>>(
      std::vector<Interleaving>{{{2, 1, 0}}});
  const auto order = make_searcher(options, deps)->select(items, spans);
  ASSERT_TRUE(is_permutation_of_all(order, spans.size()));
  // The prior lives in the third span ([4,6): first event 2); it must lead.
  EXPECT_EQ(order[0], 2u);
}

TEST(Searchers, CoverageWeightedSharedStateFallsBackToStreamOrderWhenSaturated) {
  const auto items = lex_permutations_of_three();
  const auto spans = core::split_tree_order(items, 2);
  SearchOptions options;
  options.strategy = SearchStrategy::CoverageWeighted;

  SearcherDeps deps;
  deps.coverage = std::make_shared<CoverageState>();
  auto searcher = make_searcher(options, deps);
  const auto first = searcher->select(items, spans);
  EXPECT_TRUE(is_permutation_of_all(first, spans.size()));
  EXPECT_GT(deps.coverage->size(), 0u);

  // Every feature is now covered: the greedy pass sees zero freshness
  // everywhere and ties break in stream order.
  const auto second = searcher->select(items, spans);
  EXPECT_EQ(second, (std::vector<size_t>{0, 1, 2}));
}

TEST(Searchers, InterleavedRotationIsDeterministicAndComplete) {
  const auto items = lex_permutations_of_three();
  const auto spans = core::split_tree_order(items, 1);  // 6 singleton spans
  SearchOptions options;
  options.strategy = SearchStrategy::Interleaved;
  options.seed = 11;

  SearcherDeps deps;
  deps.violation_priors = std::make_shared<const std::vector<Interleaving>>(
      std::vector<Interleaving>{{{1, 2, 0}}});
  auto a = make_searcher(options, deps)->select(items, spans);
  auto b = make_searcher(options, deps)->select(items, spans);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(is_permutation_of_all(a, spans.size()));
  // The default trio leads with ViolationFirst: the prior's span first.
  EXPECT_EQ(a[0], 3u);
}

// ---------------------------------------------------------------------------
// Guided engine: report determinism across parallelism
// ---------------------------------------------------------------------------

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

// The test_parallel stress workload: 11 events, two spec groups plus the
// auto-paired (e7,e8) sync -> 6 units -> a 720-interleaving universe whose
// lex-last block (first event = e10, the last unit's leader) is 120 items.
void stress_workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(0, "report", problem("otb"));   // e0
  (void)proxy.sync_req(0, 1);                        // e1
  (void)proxy.exec_sync(0, 1);                       // e2
  (void)proxy.update(1, "report", problem("ph"));    // e3
  (void)proxy.sync_req(1, 0);                        // e4
  (void)proxy.exec_sync(1, 0);                       // e5
  (void)proxy.update(1, "resolve", problem("otb"));  // e6
  (void)proxy.sync_req(1, 0);                        // e7
  (void)proxy.exec_sync(1, 0);                       // e8
  (void)proxy.update(0, "report", problem("lamp"));  // e9
  (void)proxy.query(0, "transmit");                  // e10
}

Session::Config guided_config(int parallelism) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  return config;
}

// The planted bug: any schedule that runs the final unit (leader e10) first
// "violates". Purely order-dependent, so it is cheap, deterministic, and its
// violating set is exactly the lex-LAST 120 of the 720 interleavings — the
// worst case for lex order, the natural target for guided strategies.
core::AssertionFactory planted_assertions() {
  return [](proxy::Rdl&) -> core::AssertionList {
    return {core::custom("planted-tail-block", [](const core::TestContext& ctx) {
      if (!ctx.interleaving.order.empty() && ctx.interleaving.order.front() == 10) {
        return util::Status::fail("planted: last unit scheduled first");
      }
      return util::Status::ok();
    })};
  };
}

ReplayReport run_planted(Session::Config config) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  stress_workload(proxy);
  return session.end(planted_assertions());
}

TEST(GuidedSearch, ReportsIdenticalAcrossParallelismPerStrategy) {
  for (const SearchStrategy strategy :
       {SearchStrategy::RandomPath, SearchStrategy::ViolationFirst,
        SearchStrategy::CoverageWeighted, SearchStrategy::Interleaved}) {
    auto config_for = [&](int parallelism) {
      Session::Config config = guided_config(parallelism);
      config.search.strategy = strategy;
      config.search.seed = 99;
      config.violation_priors = {Interleaving{{10, 9, 7, 8, 6, 3, 4, 5, 0, 1, 2}}};
      return config;
    };
    const std::string name = core::search_strategy_name(strategy);
    const ReplayReport baseline = run_planted(config_for(1));
    EXPECT_EQ(baseline.explored, 720u) << name;
    EXPECT_EQ(baseline.violations, 120u) << name;
    ASSERT_TRUE(baseline.reproduced) << name;

    for (const int parallelism : {4, 8}) {
      const ReplayReport report = run_planted(config_for(parallelism));
      EXPECT_EQ(report.verdict(), baseline.verdict()) << name << " p=" << parallelism;
    }
  }
}

TEST(GuidedSearch, ViolationFirstPriorFindsPlantedBugTenTimesFaster) {
  // Lex order meets the planted tail block only after the first 600 passing
  // interleavings. A single corpus-style prior steers ViolationFirst's first
  // ranked subtree into the violating block: first commit ordinal violates.
  Session::Config lex = guided_config(1);
  lex.replay.stop_on_violation = true;
  const ReplayReport lex_report = run_planted(std::move(lex));
  ASSERT_TRUE(lex_report.reproduced);
  ASSERT_EQ(lex_report.first_violation_index, 601u);

  Session::Config vf = guided_config(4);
  vf.replay.stop_on_violation = true;
  vf.search.strategy = SearchStrategy::ViolationFirst;
  vf.search.max_subtree_items = 16;
  vf.violation_priors = {Interleaving{{10, 9, 7, 8, 6, 3, 4, 5, 0, 1, 2}}};
  const ReplayReport vf_report = run_planted(std::move(vf));
  ASSERT_TRUE(vf_report.reproduced);
  EXPECT_EQ(vf_report.first_violation_index, 1u);
  // The ISSUE's acceptance gate: >= 10x fewer interleavings than lex.
  EXPECT_LE(vf_report.first_violation_index * 10, lex_report.first_violation_index);
  ASSERT_TRUE(vf_report.first_violation.has_value());
  EXPECT_EQ(vf_report.first_violation->order.front(), 10);
}

TEST(GuidedSearch, ExplorerStatsRecordedOnEveryRun) {
  // Streaming run: the chosen batch size is recorded, and the telemetry
  // stays out of the verdict.
  const ReplayReport streamed = run_planted(guided_config(4));
  EXPECT_GT(streamed.explorer.batch_size, 0u);
  EXPECT_EQ(streamed.explorer.subtrees, 0u);
  EXPECT_TRUE(streamed.to_json().contains("explorer"));
  EXPECT_FALSE(streamed.verdict().to_json().contains("explorer"));

  // Ranked run: the subtree count is recorded.
  Session::Config guided = guided_config(4);
  guided.search.strategy = SearchStrategy::RandomPath;
  const ReplayReport ranked = run_planted(std::move(guided));
  EXPECT_GT(ranked.explorer.subtrees, 0u);
}

TEST(GuidedSearch, GuardsRejectSharedAssertionsAndJournalResume) {
  {
    subjects::TownApp town(2);
    proxy::RdlProxy proxy(town);
    Session::Config config = guided_config(1);
    config.search.strategy = SearchStrategy::RandomPath;
    Session session(proxy, std::move(config));
    session.start();
    stress_workload(proxy);
    // One worker replays a shared assertion list inline on the session's own
    // fixture, and reports exactly what the factory-built worker does.
    const ReplayReport listed = session.end(planted_assertions()(town));
    Session::Config factory_config = guided_config(1);
    factory_config.search.strategy = SearchStrategy::RandomPath;
    const ReplayReport built = run_planted(std::move(factory_config));
    EXPECT_EQ(listed.verdict(), built.verdict());
  }
  {
    subjects::TownApp town(2);
    proxy::RdlProxy proxy(town);
    Session::Config config = guided_config(4);
    config.search.strategy = SearchStrategy::RandomPath;
    Session session(proxy, std::move(config));
    session.start();
    stress_workload(proxy);
    // Shared assertion instances cannot be handed to concurrent workers.
    EXPECT_THROW(session.end(core::AssertionList{}), std::invalid_argument);
  }
  {
    subjects::TownApp town(2);
    proxy::RdlProxy proxy(town);
    Session::Config config = guided_config(4);
    config.search.strategy = SearchStrategy::RandomPath;
    config.resume_journal =
        (std::filesystem::temp_directory_path() / "erpi-guided-journal.jsonl").string();
    Session session(proxy, std::move(config));
    session.start();
    stress_workload(proxy);
    // A resumed run serves journaled record k as pull k of the stream; a
    // searcher reorders the stream, so the fault explorer rejects the pair.
    EXPECT_THROW(faults::explore_with_faults(session, planted_assertions()),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Guided engine under fault plans
// ---------------------------------------------------------------------------

void fault_workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(0, "report", problem("lamp"));  // e0
  (void)proxy.sync_req(0, 1);                        // e1
  (void)proxy.exec_sync(0, 1);                       // e2
  (void)proxy.update(1, "report", problem("ph"));    // e3
  (void)proxy.sync_req(1, 0);                        // e4
  (void)proxy.exec_sync(1, 0);                       // e5
  (void)proxy.update(0, "report", problem("otb"));   // e6
  (void)proxy.sync_req(0, 1);                        // e7
  (void)proxy.exec_sync(0, 1);                       // e8
}

ReplayReport run_fault_sweep(int parallelism, SearchStrategy strategy) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  config.search.strategy = strategy;
  config.search.seed = 5;

  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  fault_workload(proxy);
  faults::FaultExplorer explorer(session);
  return explorer.run([](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  });
}

TEST(GuidedSearch, FaultPlanSweepsIdenticalAcrossParallelism) {
  for (const SearchStrategy strategy :
       {SearchStrategy::RandomPath, SearchStrategy::ViolationFirst}) {
    const ReplayReport sequential = run_fault_sweep(1, strategy);
    ASSERT_GT(sequential.plans_explored, 1u);
    ASSERT_GT(sequential.explored, sequential.plans_explored);
    const ReplayReport parallel = run_fault_sweep(4, strategy);
    EXPECT_EQ(parallel.verdict(), sequential.verdict())
        << "faults " << core::search_strategy_name(strategy);
  }
}

// ---------------------------------------------------------------------------
// Corpus violation priors
// ---------------------------------------------------------------------------

TEST(CorpusPriors, LoadsDistinctViolationsAcrossFingerprintsAndPlans) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "erpi-priors-store").string();
  std::filesystem::remove_all(dir);
  {
    corpus::Store store = corpus::Store::open(dir);
    corpus::Record violation;
    violation.fingerprint = 1;
    violation.plan = "none";
    violation.il = "2,1,0";
    violation.outcome.violations = {{"planted", "boom"}};
    store.append(violation);

    violation.fingerprint = 2;  // same interleaving, other fingerprint: dedup
    store.append(violation);

    violation.plan = "drop:1";  // same interleaving, other plan: dedup
    store.append(violation);

    corpus::Record pass = violation;
    pass.il = "0,1,2";
    pass.outcome.violations.clear();
    store.append(pass);

    corpus::Record other = violation;
    other.il = "1,0,2";
    store.append(other);
  }

  const auto priors = corpus::violation_priors(dir);
  ASSERT_EQ(priors.size(), 2u);
  EXPECT_EQ(priors[0].key(), "2,1,0");
  EXPECT_EQ(priors[1].key(), "1,0,2");
  std::filesystem::remove_all(dir);

  EXPECT_TRUE(corpus::violation_priors("").empty());
  EXPECT_TRUE(corpus::violation_priors("/nonexistent/erpi-priors").empty());
}

TEST(CorpusPriors, InterleavingKeyRoundTrips) {
  const Interleaving il{{10, 9, 7, 8, 6, 3, 4, 5, 0, 1, 2}};
  EXPECT_EQ(Interleaving::from_key(il.key()), il);
  EXPECT_EQ(Interleaving::from_key("3,0,1,2").order, (std::vector<int>{3, 0, 1, 2}));
  EXPECT_THROW(Interleaving::from_key("3,x,1"), std::exception);
}

}  // namespace
}  // namespace erpi::sched
