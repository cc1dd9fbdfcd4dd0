// Fault-schedule exploration tests: deterministic bounded catalogs, verdict
// identity across parallelism ∈ {1, 4, 8}, violation naming by
// (interleaving, plan) pair, and graceful budget exhaustion.
#include <gtest/gtest.h>

#include <set>

#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::faults {
namespace {

using core::ReplayReport;
using core::Session;

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

// Three report-then-sync rounds across two replicas. Op-based OR-Set sync
// resends the sender's full op log, so every fault-free interleaving of the
// three units converges — which makes replicas_converge() the ideal oracle:
// a baseline pass is guaranteed, and only injected faults can violate it.
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

Session::Config fault_config(int parallelism) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  return config;
}

core::AssertionFactory convergence_assertions() {
  return [](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  };
}

struct FaultRun {
  ReplayReport report;
  std::vector<FaultPlan> catalog;
};

FaultRun run_faults(Session::Config config, CatalogOptions catalog = {}) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  fault_workload(proxy);
  FaultExplorer explorer(session, catalog);
  FaultRun run;
  run.report = explorer.run(convergence_assertions());
  run.catalog = explorer.catalog();
  return run;
}

core::EventSet captured_events() {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, fault_config(1));
  session.start();
  fault_workload(proxy);
  session.finish_capture();
  return session.events();
}

// ---------------------------------------------------------------------------
// Catalog composition
// ---------------------------------------------------------------------------

TEST(FaultSchedule, CatalogIsDeterministicAndBounded) {
  const core::EventSet events = captured_events();
  const auto first = build_catalog(events, 2);
  const auto second = build_catalog(events, 2);
  EXPECT_EQ(first, second);

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front().kind, FaultPlan::Kind::None);
  EXPECT_EQ(first.front().key(), "none");

  std::set<std::string> keys;
  for (const auto& plan : first) EXPECT_TRUE(keys.insert(plan.key()).second);

  // The workload has 3 sync sends: drop/dup sweeps are bounded by that, not
  // by the (larger) configured caps.
  size_t drops = 0, dups = 0;
  for (const auto& plan : first) {
    drops += plan.kind == FaultPlan::Kind::DropSync ? 1 : 0;
    dups += plan.kind == FaultPlan::Kind::DuplicateSync ? 1 : 0;
  }
  EXPECT_EQ(drops, 3u);
  EXPECT_EQ(dups, 3u);

  CatalogOptions clipped;
  clipped.max_plans = 4;
  EXPECT_EQ(build_catalog(events, 2, clipped).size(), 4u);

  CatalogOptions baseline_only;
  baseline_only.max_drops = 0;
  baseline_only.max_duplicates = 0;
  baseline_only.max_partition_windows = 0;
  baseline_only.max_crash_restarts = 0;
  const auto minimal = build_catalog(events, 2, baseline_only);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal.front().key(), "none");
}

TEST(FaultSchedule, PlanKeysAreStable) {
  FaultPlan drop{.kind = FaultPlan::Kind::DropSync, .sync_index = 2};
  EXPECT_EQ(drop.key(), "drop:2");
  FaultPlan dup{.kind = FaultPlan::Kind::DuplicateSync, .sync_index = 1};
  EXPECT_EQ(dup.key(), "dup:1");
  FaultPlan part{.kind = FaultPlan::Kind::PartitionWindow,
                 .window_begin = 2,
                 .window_end = 4,
                 .replica_a = 0,
                 .replica_b = 1};
  EXPECT_EQ(part.key(), "part:0-1@2..4");
  FaultPlan crash{.kind = FaultPlan::Kind::CrashRestart,
                  .replica_a = 1,
                  .snapshot_pos = 1,
                  .crash_pos = 3};
  EXPECT_EQ(crash.key(), "crash:r1@1->3");
}

// ---------------------------------------------------------------------------
// Determinism across parallelism
// ---------------------------------------------------------------------------

TEST(FaultSchedule, ReportIdenticalAcrossParallelism) {
  const FaultRun baseline = run_faults(fault_config(1));
  ASSERT_GT(baseline.report.explored, 0u);
  ASSERT_GT(baseline.report.plans_explored, 1u);
  EXPECT_EQ(baseline.report.explored,
            baseline.report.plans_explored * 6);  // 3 units -> 6 interleavings/plan
  EXPECT_TRUE(baseline.report.exhausted);

  for (const int parallelism : {4, 8}) {
    const FaultRun run = run_faults(fault_config(parallelism));
    EXPECT_EQ(run.report.verdict(), baseline.report.verdict()) << "p=" << parallelism;
    EXPECT_EQ(run.catalog, baseline.catalog);
  }
}

// ---------------------------------------------------------------------------
// Violation naming and baseline purity
// ---------------------------------------------------------------------------

TEST(FaultSchedule, ViolationsAreNamedByInterleavingPlanPair) {
  // The fault-free sweep is clean: every interleaving of the workload
  // converges, so any violation below is attributable to an injected fault.
  CatalogOptions baseline_only;
  baseline_only.max_drops = 0;
  baseline_only.max_duplicates = 0;
  baseline_only.max_partition_windows = 0;
  baseline_only.max_crash_restarts = 0;
  const FaultRun clean = run_faults(fault_config(4), baseline_only);
  EXPECT_EQ(clean.report.violations, 0u);
  EXPECT_FALSE(clean.report.reproduced);

  const FaultRun faulted = run_faults(fault_config(4));
  ASSERT_TRUE(faulted.report.reproduced);
  EXPECT_GT(faulted.report.violations, 0u);
  EXPECT_NE(faulted.report.first_violation_plan, "none");
  EXPECT_FALSE(faulted.report.first_violation_plan.empty());
  EXPECT_GE(faulted.report.first_violation_plan_interleaving, 1u);
  EXPECT_LE(faulted.report.first_violation_plan_interleaving, 6u);
  ASSERT_TRUE(faulted.report.first_violation.has_value());
  // The named plan is a real catalog entry.
  bool plan_in_catalog = false;
  for (const auto& plan : faulted.catalog) {
    plan_in_catalog |= plan.key() == faulted.report.first_violation_plan;
  }
  EXPECT_TRUE(plan_in_catalog);
  // Messages carry the plan key so a human can replay the exact pair.
  ASSERT_FALSE(faulted.report.messages.empty());
  EXPECT_NE(faulted.report.messages.front().find(
                "[plan " + faulted.report.first_violation_plan + "]"),
            std::string::npos);
}

TEST(FaultSchedule, StopOnViolationHaltsAtFirstPairDeterministically) {
  auto stopping = [](int parallelism) {
    Session::Config config = fault_config(parallelism);
    config.replay.stop_on_violation = true;
    return run_faults(std::move(config));
  };
  const FaultRun sequential = stopping(1);
  ASSERT_TRUE(sequential.report.reproduced);
  EXPECT_EQ(sequential.report.first_violation_index, sequential.report.explored);
  EXPECT_FALSE(sequential.report.exhausted);
  for (const int parallelism : {4, 8}) {
    const FaultRun parallel = stopping(parallelism);
    EXPECT_EQ(parallel.report.verdict(), sequential.report.verdict()) << "p=" << parallelism;
  }
}

// ---------------------------------------------------------------------------
// Graceful budget exhaustion
// ---------------------------------------------------------------------------

TEST(FaultSchedule, BudgetExhaustionSurfacesAsStructuredPartialReport) {
  auto budgeted = [](int parallelism) {
    Session::Config config = fault_config(parallelism);
    config.replay.resource_budget_bytes = 3'000;
    return run_faults(std::move(config));
  };
  const FaultRun sequential = budgeted(1);
  ASSERT_TRUE(sequential.report.budget_exhausted);
  EXPECT_TRUE(sequential.report.crashed);
  EXPECT_GT(sequential.report.explored, 0u);  // partial results survive
  EXPECT_FALSE(sequential.report.exhausted);
  for (const int parallelism : {4, 8}) {
    const FaultRun parallel = budgeted(parallelism);
    EXPECT_EQ(parallel.report.verdict(), sequential.report.verdict()) << "p=" << parallelism;
  }
}

}  // namespace
}  // namespace erpi::faults
