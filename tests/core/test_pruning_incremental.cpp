// Generation-time subtree pruning (DESIGN.md §10) parity suite: the oracle
// chain must produce a byte-identical run — admitted sequence, Stats
// (including pruned_by multi-attribution), dedup cache bytes and the full
// ReplayReport — versus the legacy generate-then-test path, across all four
// pruners, their guarded combinations, every tree-shaped enumerator and
// parallelism. Plus a seeded fuzz loop random-walking
// pruner specs with universe accounting cross-checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/pruning.hpp"
#include "core/session.hpp"
#include "proxy/proxy.hpp"
#include "sched/explorer.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"
#include "util/rng.hpp"

namespace erpi::core {
namespace {

using EnumeratorFactory = std::function<std::unique_ptr<Enumerator>()>;
using PipelineFactory = std::function<PruningPipeline()>;

EnumeratorFactory dfs(int n, uint64_t branch_seed = 0) {
  return [n, branch_seed] {
    std::vector<int> ids(static_cast<size_t>(n));
    std::iota(ids.begin(), ids.end(), 0);
    return std::make_unique<DfsEnumerator>(std::move(ids), branch_seed);
  };
}

EnumeratorFactory grouped_lex(std::vector<EventUnit> units) {
  return [units] {
    return std::make_unique<GroupedEnumerator>(units, GroupedEnumerator::Order::Lexicographic);
  };
}

/// Everything observable about one exhaustive PrunedEnumerator run.
struct RunTrace {
  std::vector<std::string> admitted;
  PruningPipeline::Stats stats;
  uint64_t cache_bytes = 0;
  bool oracle_attached = false;
  OracleChain::Telemetry telemetry;
};

RunTrace run_exhaustive(const EnumeratorFactory& make_inner,
                        const PipelineFactory& make_pipeline, bool generation_pruning) {
  PrunedEnumerator pruned(make_inner(), make_pipeline());
  pruned.set_generation_pruning(generation_pruning);
  RunTrace trace;
  while (auto il = pruned.next()) trace.admitted.push_back(il->key());
  trace.stats = pruned.pipeline().stats();
  trace.cache_bytes = pruned.pipeline().cache_bytes();
  if (const auto* chain = pruned.oracle_chain()) {
    trace.oracle_attached = true;
    trace.telemetry = chain->telemetry();
  }
  return trace;
}

/// The parity property: oracles on vs. off must be indistinguishable in every
/// observable output. `expect_cuts` additionally demands the oracle chain
/// actually attached and skipped generation work (so these tests cannot pass
/// vacuously through a refused chain).
void expect_parity(const EnumeratorFactory& make_inner, const PipelineFactory& make_pipeline,
                   bool expect_cuts) {
  const RunTrace legacy = run_exhaustive(make_inner, make_pipeline, false);
  const RunTrace oracle = run_exhaustive(make_inner, make_pipeline, true);
  EXPECT_FALSE(legacy.oracle_attached);
  EXPECT_EQ(oracle.admitted, legacy.admitted);
  EXPECT_EQ(oracle.stats.admitted, legacy.stats.admitted);
  EXPECT_EQ(oracle.stats.pruned, legacy.stats.pruned);
  EXPECT_EQ(oracle.stats.pruned_by, legacy.stats.pruned_by);
  EXPECT_EQ(oracle.cache_bytes, legacy.cache_bytes);
  if (expect_cuts) {
    ASSERT_TRUE(oracle.oracle_attached);
    EXPECT_GT(oracle.telemetry.subtrees_cut, 0u);
    EXPECT_GT(oracle.telemetry.candidates_skipped, 0u);
    EXPECT_EQ(oracle.telemetry.blocked_cuts, 0u);
  }
}

PipelineFactory independence(std::vector<int> independent, std::set<int> neutral) {
  return [independent, neutral] {
    PruningPipeline pipeline;
    IndependencePruner::Spec spec;
    spec.independent_events = independent;
    spec.neutral_events = neutral;
    pipeline.add(std::make_unique<IndependencePruner>(spec));
    return pipeline;
  };
}

PipelineFactory failed_ops(std::vector<int> preds, std::vector<int> succs) {
  return [preds, succs] {
    PruningPipeline pipeline;
    FailedOpsPruner::Spec spec;
    spec.predecessor_events = preds;
    spec.successor_events = succs;
    pipeline.add(std::make_unique<FailedOpsPruner>(spec));
    return pipeline;
  };
}

// ---------------------------------------------------------------------------
// Single-pruner parity, DFS event domain
// ---------------------------------------------------------------------------

TEST(GenerationPruning, IndependenceAllNeutralDfs) {
  expect_parity(dfs(6), independence({1, 3, 5}, {0, 2, 4}), /*expect_cuts=*/true);
}

TEST(GenerationPruning, IndependenceWithBlockersDfs) {
  expect_parity(dfs(6), independence({0, 2, 4}, {}), /*expect_cuts=*/true);
}

TEST(GenerationPruning, IndependencePairDfs) {
  expect_parity(dfs(5), independence({1, 4}, {2}), /*expect_cuts=*/true);
}

TEST(GenerationPruning, FailedOpsDfs) {
  expect_parity(dfs(6), failed_ops({0, 1}, {3, 4, 5}), /*expect_cuts=*/true);
}

TEST(GenerationPruning, FailedOpsNoPredecessorsPlacedLateDfs) {
  expect_parity(dfs(5), failed_ops({4}, {0, 2}), /*expect_cuts=*/true);
}

TEST(GenerationPruning, GroupPrunerDfs) {
  std::vector<EventUnit> units;
  units.push_back({{0, 1}});
  units.push_back({{2}});
  units.push_back({{3}});
  units.push_back({{4, 5}});
  const auto make_pipeline = [units] {
    PruningPipeline pipeline;
    pipeline.add(std::make_unique<GroupPruner>(units));
    return pipeline;
  };
  expect_parity(dfs(6), make_pipeline, /*expect_cuts=*/true);
}

TEST(GenerationPruning, GroupPrunerLongChainDfs) {
  std::vector<EventUnit> units;
  units.push_back({{0, 1, 2}});
  units.push_back({{3}});
  units.push_back({{4, 5}});
  units.push_back({{6}});
  const auto make_pipeline = [units] {
    PruningPipeline pipeline;
    pipeline.add(std::make_unique<GroupPruner>(units));
    return pipeline;
  };
  expect_parity(dfs(7), make_pipeline, /*expect_cuts=*/true);
}

// A shuffled DFS branch order breaks the rank==id guard for Independence: the
// chain must refuse to attach (never cut unsoundly) and the run must still be
// identical to the legacy path.
TEST(GenerationPruning, ShuffledBranchOrderRefusesUnsoundOracle) {
  const RunTrace legacy = run_exhaustive(dfs(5, 7), independence({0, 2, 4}, {}), false);
  const RunTrace oracle = run_exhaustive(dfs(5, 7), independence({0, 2, 4}, {}), true);
  EXPECT_EQ(oracle.admitted, legacy.admitted);
  EXPECT_EQ(oracle.stats.pruned_by, legacy.stats.pruned_by);
  if (oracle.oracle_attached) {
    // if a future guard relaxation attaches, it must still be parity-exact
    EXPECT_EQ(oracle.stats.pruned, legacy.stats.pruned);
  }
}

// Group pruning is branch-order independent (rank-lex-minimality is defined
// in rank space), so a shuffled DFS still gets cuts — and stays exact.
TEST(GenerationPruning, GroupPrunerShuffledBranchOrderDfs) {
  std::vector<EventUnit> units;
  units.push_back({{0, 1}});
  units.push_back({{2}});
  units.push_back({{3, 4}});
  units.push_back({{5}});
  const auto make_pipeline = [units] {
    PruningPipeline pipeline;
    pipeline.add(std::make_unique<GroupPruner>(units));
    return pipeline;
  };
  expect_parity(dfs(6, 1234), make_pipeline, /*expect_cuts=*/true);
}

// ---------------------------------------------------------------------------
// Pruner combinations (composition guards must admit these)
// ---------------------------------------------------------------------------

TEST(GenerationPruning, IndependencePlusFailedOpsDfs) {
  const auto make_pipeline = [] {
    PruningPipeline pipeline;
    IndependencePruner::Spec ind;
    ind.independent_events = {1, 2};
    ind.neutral_events = {0, 3, 4, 5, 6};
    pipeline.add(std::make_unique<IndependencePruner>(ind));
    FailedOpsPruner::Spec fo;
    fo.predecessor_events = {4};
    fo.successor_events = {5, 6};
    pipeline.add(std::make_unique<FailedOpsPruner>(fo));
    return pipeline;
  };
  expect_parity(dfs(7), make_pipeline, /*expect_cuts=*/true);
}

TEST(GenerationPruning, GroupPlusIndependenceDfs) {
  const auto make_pipeline = [] {
    std::vector<EventUnit> units;
    units.push_back({{0, 1}});
    for (int id = 2; id <= 5; ++id) units.push_back({{id}});
    PruningPipeline pipeline;
    pipeline.add(std::make_unique<GroupPruner>(units));
    IndependencePruner::Spec ind;
    ind.independent_events = {2, 4};
    ind.neutral_events = {1, 3, 5};  // guard: followers must be neutral
    pipeline.add(std::make_unique<IndependencePruner>(ind));
    return pipeline;
  };
  expect_parity(dfs(6), make_pipeline, /*expect_cuts=*/true);
}

TEST(GenerationPruning, TwoIndependenceSpecsDfs) {
  const auto make_pipeline = [] {
    PruningPipeline pipeline;
    IndependencePruner::Spec a;
    a.independent_events = {0, 1};
    a.neutral_events = {2, 3, 4, 5};
    pipeline.add(std::make_unique<IndependencePruner>(a));
    IndependencePruner::Spec b;
    b.independent_events = {4, 5};
    b.neutral_events = {0, 1, 2, 3};
    pipeline.add(std::make_unique<IndependencePruner>(b));
    return pipeline;
  };
  expect_parity(dfs(6), make_pipeline, /*expect_cuts=*/true);
}

// ---------------------------------------------------------------------------
// Grouped-lex unit domain
// ---------------------------------------------------------------------------

std::vector<EventUnit> stress_units() {
  // the 6-unit shape of the parallel stress workload: two 3-event groups,
  // one auto-paired sync, three singletons
  std::vector<EventUnit> units;
  units.push_back({{0, 1, 2}});
  units.push_back({{3, 4, 5}});
  units.push_back({{6}});
  units.push_back({{7, 8}});
  units.push_back({{9}});
  units.push_back({{10}});
  return units;
}

TEST(GenerationPruning, IndependenceGroupedLex) {
  expect_parity(grouped_lex(stress_units()), independence({6, 9}, {10}),
                /*expect_cuts=*/true);
}

TEST(GenerationPruning, FailedOpsGroupedLex) {
  expect_parity(grouped_lex(stress_units()), failed_ops({6}, {9, 10}),
                /*expect_cuts=*/true);
}

// An independence spec hosted on a multi-event unit has no per-unit prefix
// form — the chain must refuse, and refusal must be invisible in the output.
TEST(GenerationPruning, MultiEventHostRefusesUnitOracle) {
  const auto make_pipeline = independence({0, 9}, {10});  // 0 lives in unit {0,1,2}
  const RunTrace legacy = run_exhaustive(grouped_lex(stress_units()), make_pipeline, false);
  const RunTrace oracle = run_exhaustive(grouped_lex(stress_units()), make_pipeline, true);
  EXPECT_EQ(oracle.admitted, legacy.admitted);
  EXPECT_EQ(oracle.stats.pruned_by, legacy.stats.pruned_by);
  if (oracle.oracle_attached) EXPECT_EQ(oracle.telemetry.subtrees_cut, 0u);
}

// ---------------------------------------------------------------------------
// No tree structure / runtime mutation fallbacks
// ---------------------------------------------------------------------------

TEST(GenerationPruning, RandomEnumeratorHasNoOracle) {
  const auto make_inner = [] {
    std::vector<int> ids(5);
    std::iota(ids.begin(), ids.end(), 0);
    return std::make_unique<RandomEnumerator>(std::move(ids), 77);
  };
  const auto make_pipeline = independence({0, 2}, {1, 3, 4});
  const RunTrace legacy = run_exhaustive(make_inner, make_pipeline, false);
  const RunTrace oracle = run_exhaustive(make_inner, make_pipeline, true);
  EXPECT_FALSE(oracle.oracle_attached);
  EXPECT_EQ(oracle.admitted, legacy.admitted);
  EXPECT_EQ(oracle.stats.pruned, legacy.stats.pruned);
}

// Mid-run pipeline mutation (the runtime-constraints flow): the oracle chain
// detaches at the version bump and the run must continue exactly like a
// legacy run mutated at the same emission index.
TEST(GenerationPruning, MidRunPipelineMutationDetachesExactly) {
  const auto make_pipeline = independence({1, 3, 5}, {0, 2, 4});
  const auto run_with_mutation = [&](bool generation_pruning) {
    PrunedEnumerator pruned(dfs(6)(), make_pipeline());
    pruned.set_generation_pruning(generation_pruning);
    RunTrace trace;
    while (auto il = pruned.next()) {
      trace.admitted.push_back(il->key());
      if (trace.admitted.size() == 3) {
        FailedOpsPruner::Spec fo;
        fo.predecessor_events = {0};
        fo.successor_events = {2, 4};
        pruned.pipeline().add(std::make_unique<FailedOpsPruner>(fo));
      }
    }
    trace.stats = pruned.pipeline().stats();
    trace.cache_bytes = pruned.pipeline().cache_bytes();
    return trace;
  };
  const RunTrace legacy = run_with_mutation(false);
  const RunTrace oracle = run_with_mutation(true);
  EXPECT_EQ(oracle.admitted, legacy.admitted);
  EXPECT_EQ(oracle.stats.admitted, legacy.stats.admitted);
  EXPECT_EQ(oracle.stats.pruned, legacy.stats.pruned);
  EXPECT_EQ(oracle.stats.pruned_by, legacy.stats.pruned_by);
  EXPECT_EQ(oracle.cache_bytes, legacy.cache_bytes);
}

// ---------------------------------------------------------------------------
// Full-stack ReplayReport parity (Session) across parallelism
// ---------------------------------------------------------------------------

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

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

struct SessionRun {
  ReplayReport report;
  PruningPipeline::Stats stats;
};

AssertionList transmit_assertions(proxy::Rdl&) {
  util::Json expected = util::Json::array();
  expected.push_back("lamp");
  expected.push_back("ph");
  return {query_result_equals(10, expected)};
}

/// The stress session. With `legacy`, the run drives the session's own
/// enumerator on the legacy generate-then-test path through the explorer;
/// otherwise it is Session::end with generation pruning on.
SessionRun run_session(bool legacy, int parallelism) {
  Session::Config config;
  config.generation_order = GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  config.independence.push_back({{6, 9}, {10}});
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };

  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, config);
  session.start();
  stress_workload(proxy);
  SessionRun run;
  if (!legacy) {
    run.report = session.end(transmit_assertions);
    run.stats = session.pruning_report().pipeline;
    return run;
  }
  session.finish_capture();
  auto enumerator = session.make_enumerator();
  auto* pruned = dynamic_cast<PrunedEnumerator*>(enumerator.get());
  EXPECT_NE(pruned, nullptr);
  pruned->set_generation_pruning(false);
  sched::ExplorerOptions options;
  options.parallelism = parallelism;
  options.replay = config.replay;
  options.subject_factory = config.subject_factory;
  options.assertion_factory = transmit_assertions;
  run.report = sched::ParallelExplorer(std::move(options)).run(*enumerator, session.events());
  run.stats = pruned->pipeline().stats();
  return run;
}

TEST(GenerationPruning, SessionReportParityAcrossParallelism) {
  const SessionRun baseline = run_session(/*legacy=*/true, 1);
  ASSERT_GT(baseline.report.explored, 0u);
  ASSERT_GT(baseline.stats.pruned, 0u);  // the independence spec engages
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    const SessionRun on = run_session(/*legacy=*/false, parallelism);
    ASSERT_TRUE(on.report.first_violation.has_value());
    EXPECT_EQ(on.report.verdict(), baseline.report.verdict());
    EXPECT_EQ(on.stats.admitted, baseline.stats.admitted);
    EXPECT_EQ(on.stats.pruned, baseline.stats.pruned);
    EXPECT_EQ(on.stats.pruned_by, baseline.stats.pruned_by);
  }
}

// ---------------------------------------------------------------------------
// Fuzz: random-walk pruner specs, cross-check universe accounting
// ---------------------------------------------------------------------------

TEST(GenerationPruning, FuzzRandomSpecsUniverseAccounting) {
  util::Rng rng(0x9120e5);
  uint64_t total_cuts = 0;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const int n = 5 + static_cast<int>(rng.next() % 3);  // 5..7 events
    std::vector<int> pool(static_cast<size_t>(n));
    std::iota(pool.begin(), pool.end(), 0);
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.next() % i]);
    }
    size_t cursor = 0;
    const auto take = [&](size_t count) {
      std::vector<int> out;
      while (out.size() < count && cursor < pool.size()) out.push_back(pool[cursor++]);
      std::sort(out.begin(), out.end());
      return out;
    };

    // Randomly assemble a pipeline from disjoint event pools so the
    // composition guards can accept it; leftovers stay unconstrained.
    const uint64_t shape = rng.next();
    std::vector<EventUnit> group_units;
    std::vector<int> ind, fo_preds, fo_succs;
    std::set<int> ind_neutral;
    if (shape & 1) {
      const auto pair = take(2);
      if (pair.size() == 2) {
        for (int id = 0; id < n; ++id) {
          if (id != pair[0] && id != pair[1]) group_units.push_back({{id}});
        }
        group_units.push_back({{pair[0], pair[1]}});
      }
    }
    if (shape & 2) {
      ind = take(2 + static_cast<size_t>(rng.next() % 2));
      // all remaining events neutral: keeps group followers inside the
      // neutral set whenever both pruners are active
      for (int id = 0; id < n; ++id) {
        if (std::find(ind.begin(), ind.end(), id) == ind.end()) ind_neutral.insert(id);
      }
    }
    if (shape & 4) {
      fo_preds = take(1);
      fo_succs = take(2);
    }

    const auto make_pipeline = [&] {
      PruningPipeline pipeline;
      if (!group_units.empty()) pipeline.add(std::make_unique<GroupPruner>(group_units));
      if (ind.size() >= 2) {
        IndependencePruner::Spec spec;
        spec.independent_events = ind;
        spec.neutral_events = ind_neutral;
        pipeline.add(std::make_unique<IndependencePruner>(spec));
      }
      if (!fo_preds.empty() && fo_succs.size() >= 2) {
        FailedOpsPruner::Spec spec;
        spec.predecessor_events = fo_preds;
        spec.successor_events = fo_succs;
        pipeline.add(std::make_unique<FailedOpsPruner>(spec));
      }
      return pipeline;
    };

    const RunTrace legacy = run_exhaustive(dfs(n), make_pipeline, false);
    const RunTrace oracle = run_exhaustive(dfs(n), make_pipeline, true);
    EXPECT_EQ(oracle.admitted, legacy.admitted);
      EXPECT_EQ(oracle.stats.admitted, legacy.stats.admitted);
    EXPECT_EQ(oracle.stats.pruned, legacy.stats.pruned);
    EXPECT_EQ(oracle.stats.pruned_by, legacy.stats.pruned_by);
    EXPECT_EQ(oracle.cache_bytes, legacy.cache_bytes);
    // universe accounting: every candidate is admitted or pruned, exactly
    EXPECT_EQ(oracle.stats.admitted + oracle.stats.pruned,
              factorial_saturated(static_cast<uint64_t>(n)));
    total_cuts += oracle.telemetry.subtrees_cut;
  }
  EXPECT_GT(total_cuts, 0u);  // the fuzz must actually exercise cuts
}

}  // namespace
}  // namespace erpi::core
