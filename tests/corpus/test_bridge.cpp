// corpus::DatalogBridge tests: plan-key decomposition (cross-checked against
// the real catalog's keys), relation export shapes, idempotent re-export,
// run_meta aggregates, a worked query over the bridge schema, and an
// end-to-end sweep whose corpus answers the same counts as its ReplayReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "corpus/bridge.hpp"
#include "corpus/store.hpp"
#include "datalog/evaluator.hpp"
#include "datalog/parser.hpp"
#include "faults/explorer.hpp"
#include "faults/plan.hpp"
#include "subjects/town.hpp"

namespace erpi::corpus {
namespace {

std::string tmp_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "erpi_bridge_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Record make_record(uint64_t fp, std::string plan, std::string il,
                   core::InterleavingOutcome outcome = {}) {
  Record record;
  record.fingerprint = fp;
  record.plan = std::move(plan);
  record.il = std::move(il);
  record.outcome = std::move(outcome);
  return record;
}

// ---------------------------------------------------------------------------
// Plan-key decomposition
// ---------------------------------------------------------------------------

TEST(DatalogBridge, PlanFaultEntriesCoverEveryKeyShape) {
  using Entries = std::vector<std::pair<std::string, int>>;
  EXPECT_EQ(DatalogBridge::plan_fault_entries("none"), (Entries{{"none", -1}}));
  EXPECT_EQ(DatalogBridge::plan_fault_entries("drop:2"), (Entries{{"drop", -1}}));
  EXPECT_EQ(DatalogBridge::plan_fault_entries("dup:1"), (Entries{{"dup", -1}}));
  EXPECT_EQ(DatalogBridge::plan_fault_entries("part:0-1@2..4"),
            (Entries{{"part", 0}, {"part", 1}}));
  EXPECT_EQ(DatalogBridge::plan_fault_entries("part:2-10@0..2"),
            (Entries{{"part", 2}, {"part", 10}}));
  EXPECT_EQ(DatalogBridge::plan_fault_entries("crash:r1@1->3"),
            (Entries{{"crash", 1}}));
  // Unrecognized keys decompose totally instead of being dropped.
  EXPECT_EQ(DatalogBridge::plan_fault_entries("mystery:9"),
            (Entries{{"unknown", -1}}));
  EXPECT_EQ(DatalogBridge::plan_fault_entries("drop:x"), (Entries{{"unknown", -1}}));
  EXPECT_EQ(DatalogBridge::plan_fault_entries(""), (Entries{{"unknown", -1}}));
}

TEST(DatalogBridge, PlanFaultEntriesAgreeWithTheRealCatalog) {
  // Compose a real catalog and check the string-level parser against the
  // structured plans it came from — the guard that keeps the bridge's
  // decomposition honest without a corpus -> faults dependency.
  core::EventSet events;
  for (int i = 0; i < 6; ++i) {
    core::Event event;
    event.id = i;
    event.kind = i % 3 == 1 ? core::EventKind::SyncReq : core::EventKind::Update;
    event.replica = i % 3;
    if (event.kind == core::EventKind::SyncReq) {
      event.from = i % 3;
      event.to = (i + 1) % 3;
    }
    events.push_back(event);
  }
  const auto plans = faults::build_catalog(events, 3);
  ASSERT_GT(plans.size(), 4u);
  for (const auto& plan : plans) {
    const auto entries = DatalogBridge::plan_fault_entries(plan.key());
    ASSERT_FALSE(entries.empty()) << plan.key();
    switch (plan.kind) {
      case faults::FaultPlan::Kind::None:
        EXPECT_EQ(entries, (std::vector<std::pair<std::string, int>>{{"none", -1}}));
        break;
      case faults::FaultPlan::Kind::DropSync:
        EXPECT_EQ(entries, (std::vector<std::pair<std::string, int>>{{"drop", -1}}));
        break;
      case faults::FaultPlan::Kind::DuplicateSync:
        EXPECT_EQ(entries, (std::vector<std::pair<std::string, int>>{{"dup", -1}}));
        break;
      case faults::FaultPlan::Kind::PartitionWindow:
        ASSERT_EQ(entries.size(), 2u) << plan.key();
        EXPECT_EQ(entries[0], (std::pair<std::string, int>{"part", plan.replica_a}));
        EXPECT_EQ(entries[1], (std::pair<std::string, int>{"part", plan.replica_b}));
        break;
      case faults::FaultPlan::Kind::CrashRestart:
        EXPECT_EQ(entries,
                  (std::vector<std::pair<std::string, int>>{{"crash", plan.replica_a}}));
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Relation export
// ---------------------------------------------------------------------------

Store seeded_store(const std::string& dir) {
  Store store = Store::open(dir);
  Record viol = make_record(1, "part:0-2@1..3", "0,1");
  viol.outcome.violations.push_back({"replicas_converge", "diverged at 2"});
  store.append(viol);
  Record viol2 = make_record(1, "drop:1", "1,0");
  viol2.outcome.violations.push_back({"replicas_converge", "diverged at 1"});
  store.append(viol2);
  store.append(make_record(1, "none", "0,1"));
  Record crash = make_record(1, "crash:r2@1->3", "2,0");
  crash.outcome.crashed = true;
  crash.outcome.term_signal = 11;
  store.append(crash);
  store.append(make_record(2, "none", "0,1"));  // a second namespace
  return store;
}

TEST(DatalogBridge, ExportsAllFourRelations) {
  const std::string dir = tmp_dir("relations");
  Store store = seeded_store(dir);
  datalog::Database db;
  DatalogBridge bridge(db);
  const auto stats = bridge.export_store(store);
  EXPECT_EQ(stats.outcome_facts, 5u);
  EXPECT_EQ(stats.violation_facts, 2u);
  // plan_fault is keyed by plan, not by record: none appears once even
  // though two namespaces hold a "none" record; part contributes two rows.
  EXPECT_EQ(stats.plan_fault_facts, 5u);  // part×2, drop, none, crash
  EXPECT_EQ(stats.run_meta_facts, 6u);    // 3 keys × 2 fingerprints

  // outcome/5 carries the crash signal as its integer column.
  const auto crashed = datalog::query(
      db, {"outcome",
           {datalog::Term::var("Fp"), datalog::Term::var("Plan"), datalog::Term::var("Il"),
            datalog::Term::constant_sym(db.symbols().intern("crashed")),
            datalog::Term::var("Sig")}});
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0].at("Sig"), datalog::Value::integer(11));

  // Re-export is idempotent: relations deduplicate, nothing new is inserted.
  const auto again = bridge.export_store(store);
  EXPECT_EQ(again.outcome_facts, 0u);
  EXPECT_EQ(again.violation_facts, 0u);
  EXPECT_EQ(again.plan_fault_facts, 0u);
  EXPECT_EQ(again.run_meta_facts, 0u);
}

TEST(DatalogBridge, FingerprintFilterScopesTheExport) {
  const std::string dir = tmp_dir("filter");
  Store store = seeded_store(dir);
  datalog::Database db;
  DatalogBridge bridge(db);
  const auto stats = bridge.export_store(store, /*fingerprint=*/2);
  EXPECT_EQ(stats.outcome_facts, 1u);
  EXPECT_EQ(stats.violation_facts, 0u);
  EXPECT_EQ(stats.run_meta_facts, 3u);  // one fingerprint's aggregates only
}

TEST(DatalogBridge, RunMetaAggregatesPerFingerprint) {
  const std::string dir = tmp_dir("meta");
  Store store = seeded_store(dir);
  datalog::Database db;
  DatalogBridge bridge(db);
  bridge.export_store(store);
  const auto records = datalog::query(
      db, {"run_meta",
           {datalog::Term::constant_sym(db.symbols().intern("0000000000000001")),
            datalog::Term::constant_sym(db.symbols().intern("records")),
            datalog::Term::var("N")}});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("N"), datalog::Value::integer(4));
  const auto violations = datalog::query(
      db, {"run_meta",
           {datalog::Term::constant_sym(db.symbols().intern("0000000000000001")),
            datalog::Term::constant_sym(db.symbols().intern("violations")),
            datalog::Term::var("N")}});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].at("N"), datalog::Value::integer(2));
}

TEST(DatalogBridge, WorkedQueryPartitionViolationsInvolvingReplica) {
  // The DESIGN.md §11 worked example: violations under partition plans that
  // involve replica 2 — a rule joining violation/4 against plan_fault/3.
  const std::string dir = tmp_dir("worked");
  Store store = seeded_store(dir);
  datalog::Database db;
  DatalogBridge bridge(db);
  bridge.export_store(store);

  const auto program = datalog::parse_program(
      "part_viol(Plan, Il) :- violation(Fp, Plan, Il, A), plan_fault(Plan, part, 2).",
      db.symbols());
  ASSERT_TRUE(program.has_value()) << program.error().message;
  datalog::evaluate(db, program.value());

  const auto rows = datalog::query(
      db, {"part_viol", {datalog::Term::var("Plan"), datalog::Term::var("Il")}});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(db.symbols().name(rows[0].at("Plan").payload), "part:0-2@1..3");
  EXPECT_EQ(db.symbols().name(rows[0].at("Il").payload), "0,1");
}

// ---------------------------------------------------------------------------
// End-to-end: sweep -> corpus -> bridge counts match the report
// ---------------------------------------------------------------------------

TEST(DatalogBridge, EndToEndSweepCorpusAnswersReportCounts) {
  const std::string dir = tmp_dir("sweep");
  core::Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.corpus_path = dir;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  core::Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", [] {
    util::Json j = util::Json::object();
    j["problem"] = std::string("lamp");
    return j;
  }());
  (void)proxy.sync_req(0, 1);
  (void)proxy.exec_sync(0, 1);
  (void)proxy.update(1, "report", [] {
    util::Json j = util::Json::object();
    j["problem"] = std::string("ph");
    return j;
  }());
  (void)proxy.sync_req(1, 0);
  (void)proxy.exec_sync(1, 0);
  faults::FaultExplorer explorer(session);
  const core::ReplayReport report =
      explorer.run([](proxy::Rdl&) -> core::AssertionList {
        return {core::replicas_converge({0, 1})};
      });
  ASSERT_GT(report.explored, 0u);

  Store store = Store::open(dir);
  EXPECT_EQ(store.size(), report.explored);
  datalog::Database db;
  DatalogBridge bridge(db);
  const auto stats = bridge.export_store(store);
  EXPECT_EQ(stats.outcome_facts, report.explored);
  EXPECT_EQ(stats.violation_facts, report.violations);
  EXPECT_EQ(db.find("outcome")->size(), report.explored);
}

}  // namespace
}  // namespace erpi::corpus
