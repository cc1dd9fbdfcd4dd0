// Storage-fault family tests (DESIGN.md §13): plan-key parse round-trips,
// fingerprint sensitivity to the storage CatalogOptions, verdict identity
// across parallelism with durable-log recovery verdicts, composition with
// the CrashRestart sweep, snapshot round-trips of the durable log, journal/corpus recovery serde, journal resume of a storage
// sweep, and the planted log-recovery bugs that reproduce only when storage
// plans are in the catalog.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bugs/registry.hpp"
#include "core/persist.hpp"
#include "core/session.hpp"
#include "corpus/store.hpp"
#include "faults/explorer.hpp"
#include "subjects/orbitdb.hpp"
#include "subjects/roshi.hpp"
#include "support/verdict.hpp"

namespace erpi::faults {
namespace {

using core::ReplayReport;
using core::RunJournal;
using core::Session;

constexpr net::ReplicaId A = 0;
constexpr net::ReplicaId B = 1;

util::Json member_args(const char* member, double ts) {
  util::Json j = util::Json::object();
  j["key"] = "s";
  j["member"] = member;
  j["ts"] = ts;
  return j;
}

// Two insert-then-sync units on A, one delete-then-sync unit on B. Every
// fault-free interleaving converges; the storage plans damage durable logs
// mid-replay and the honest default-flag Roshi recovers with structured
// verdicts — never a silent divergence.
void storage_workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(A, "insert", member_args("x", 1.0));  // e0
  (void)proxy.update(A, "insert", member_args("y", 2.0));  // e1
  (void)proxy.sync_req(A, B);                              // e2
  (void)proxy.exec_sync(A, B);                             // e3
  (void)proxy.update(B, "delete", member_args("x", 3.0));  // e4
  (void)proxy.sync_req(B, A);                              // e5
  (void)proxy.exec_sync(B, A);                             // e6
}

CatalogOptions storage_catalog() {
  CatalogOptions catalog;
  catalog.max_drops = 0;
  catalog.max_duplicates = 0;
  catalog.max_partition_windows = 0;
  catalog.max_crash_restarts = 0;
  catalog.max_torn_tails = 2;
  catalog.torn_tail_entries = 1;
  catalog.max_drop_log_entries = 2;
  catalog.max_duplicate_segments = 2;
  catalog.duplicate_segment_entries = 1;
  catalog.max_stale_snapshot_recoveries = 2;
  catalog.stale_suffix_keep = 1;
  return catalog;
}

Session::Config storage_config(int parallelism) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2, 3}, {4, 5, 6}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::Roshi>(2); };
  return config;
}

core::AssertionFactory convergence_assertions() {
  return [](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({A, B})};
  };
}

struct StorageRun {
  ReplayReport report;
  std::vector<FaultPlan> catalog;
};

StorageRun run_storage(Session::Config config, const CatalogOptions& catalog) {
  subjects::Roshi roshi(2);
  proxy::RdlProxy proxy(roshi);
  Session session(proxy, std::move(config));
  session.start();
  storage_workload(proxy);
  FaultExplorer explorer(session, catalog);
  StorageRun run;
  run.report = explorer.run(convergence_assertions());
  run.catalog = explorer.catalog();
  return run;
}

core::EventSet captured_events() {
  subjects::Roshi roshi(2);
  proxy::RdlProxy proxy(roshi);
  Session session(proxy, storage_config(1));
  session.start();
  storage_workload(proxy);
  session.finish_capture();
  return session.events();
}

// ---------------------------------------------------------------------------
// Plan keys: parse is the exact inverse of key()
// ---------------------------------------------------------------------------

TEST(StorageFaults, PlanKeysRoundTripThroughParse) {
  std::vector<FaultPlan> plans;
  plans.push_back({});  // none
  plans.push_back({.kind = FaultPlan::Kind::DropSync, .sync_index = 2});
  plans.push_back({.kind = FaultPlan::Kind::DuplicateSync, .sync_index = 7});
  plans.push_back({.kind = FaultPlan::Kind::PartitionWindow,
                   .window_begin = 2,
                   .window_end = 4,
                   .replica_a = 0,
                   .replica_b = 1});
  plans.push_back({.kind = FaultPlan::Kind::CrashRestart,
                   .replica_a = 1,
                   .snapshot_pos = 1,
                   .crash_pos = 3});
  plans.push_back(
      {.kind = FaultPlan::Kind::TornTail, .replica_a = 0, .damage_pos = 3, .entry_count = 2});
  plans.push_back({.kind = FaultPlan::Kind::DropLogEntry, .replica_a = 1, .damage_pos = 2});
  plans.push_back({.kind = FaultPlan::Kind::DuplicateSegment,
                   .replica_a = 0,
                   .damage_pos = 5,
                   .entry_count = 1});
  plans.push_back({.kind = FaultPlan::Kind::StaleSnapshotRecovery,
                   .replica_a = 1,
                   .snapshot_pos = 1,
                   .crash_pos = 3,
                   .suffix_keep = 2});
  for (const auto& plan : plans) {
    const auto parsed = FaultPlan::parse(plan.key());
    ASSERT_TRUE(parsed.has_value()) << plan.key();
    EXPECT_EQ(*parsed, plan) << plan.key();
  }

  for (const char* bad :
       {"", "bogus", "torn:", "torn:r0", "torn:r0@3", "torn:r0@3-", "torn:r0@3-2x",
        "droplog:r1", "dupseg:r0@3x", "stale:r1@1->3", "stale:r1@1->3+", "crash:r1@1->",
        "drop:", "part:0-1@2..", "none2"}) {
    EXPECT_FALSE(FaultPlan::parse(bad).has_value()) << bad;
  }
}

TEST(StorageFaults, CatalogPlanKeysAllRoundTrip) {
  const core::EventSet events = captured_events();
  CatalogOptions everything;  // network + crash defaults, plus storage sweeps
  everything.max_torn_tails = 2;
  everything.max_drop_log_entries = 2;
  everything.max_duplicate_segments = 2;
  everything.max_stale_snapshot_recoveries = 2;
  const auto plans = build_catalog(events, 2, everything);
  ASSERT_FALSE(plans.empty());
  for (const auto& plan : plans) {
    const auto parsed = FaultPlan::parse(plan.key());
    ASSERT_TRUE(parsed.has_value()) << plan.key();
    EXPECT_EQ(*parsed, plan) << plan.key();
  }
}

// ---------------------------------------------------------------------------
// Catalog composition: storage sweeps are opt-in and deterministic
// ---------------------------------------------------------------------------

TEST(StorageFaults, StorageSweepsAreOffByDefaultAndBoundedWhenOn) {
  const core::EventSet events = captured_events();
  for (const auto& plan : build_catalog(events, 2)) {
    EXPECT_FALSE(plan.is_storage()) << plan.key();
  }

  const auto catalog = storage_catalog();
  const auto first = build_catalog(events, 2, catalog);
  EXPECT_EQ(first, build_catalog(events, 2, catalog));

  size_t torn = 0, droplog = 0, dupseg = 0, stale = 0;
  for (const auto& plan : first) {
    torn += plan.kind == FaultPlan::Kind::TornTail ? 1 : 0;
    droplog += plan.kind == FaultPlan::Kind::DropLogEntry ? 1 : 0;
    dupseg += plan.kind == FaultPlan::Kind::DuplicateSegment ? 1 : 0;
    stale += plan.kind == FaultPlan::Kind::StaleSnapshotRecovery ? 1 : 0;
  }
  EXPECT_EQ(torn, 2u);
  EXPECT_EQ(droplog, 2u);
  EXPECT_EQ(dupseg, 2u);
  EXPECT_EQ(stale, 2u);
  EXPECT_EQ(first.front().key(), "none");
}

// ---------------------------------------------------------------------------
// Fingerprints: every storage catalog knob feeds the run namespace
// ---------------------------------------------------------------------------

TEST(StorageFaults, FingerprintHashesStorageCatalogOptions) {
  // Same plan catalog (storage sweeps off in both), different options: like
  // the PR 6 partition_window_length guard, hashing only plan keys would
  // alias these runs, so the fingerprint must hash the options themselves.
  subjects::Roshi roshi(2);
  proxy::RdlProxy proxy(roshi);
  Session session(proxy, storage_config(1));
  session.start();
  storage_workload(proxy);
  session.finish_capture();
  const auto plans = build_catalog(session.events(), 2, CatalogOptions{});

  const CatalogOptions base;
  auto variants = std::vector<CatalogOptions>(7, base);
  variants[0].max_torn_tails = 1;
  variants[1].torn_tail_entries = 3;
  variants[2].max_drop_log_entries = 1;
  variants[3].max_duplicate_segments = 1;
  variants[4].duplicate_segment_entries = 2;
  variants[5].max_stale_snapshot_recoveries = 1;
  variants[6].stale_suffix_keep = 2;

  for (const auto purpose : {FingerprintPurpose::Journal, FingerprintPurpose::Corpus}) {
    const uint64_t reference =
        run_fingerprint(session, plans, base, core::ReplayOptions{}, purpose);
    for (size_t i = 0; i < variants.size(); ++i) {
      EXPECT_NE(run_fingerprint(session, plans, variants[i], core::ReplayOptions{}, purpose),
                reference)
          << "variant " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the same verdict at any parallelism
// ---------------------------------------------------------------------------

TEST(StorageFaults, ReportIdenticalAcrossParallelism) {
  const StorageRun baseline = run_storage(storage_config(1), storage_catalog());
  ASSERT_GT(baseline.report.explored, 0u);
  EXPECT_EQ(baseline.report.plans_explored, baseline.catalog.size());
  EXPECT_TRUE(baseline.report.exhausted);
  // The honest subject never silently diverges: torn entries are genuinely
  // lost (so replicas_converge may legitimately fire, like a dropped sync
  // would), but every loss is a structured missing_entries verdict — no
  // diverged recoveries and no durable-log-recovery violations.
  EXPECT_EQ(baseline.report.recoveries_diverged, 0u);
  for (const auto& message : baseline.report.messages) {
    EXPECT_EQ(message.find("durable-log-recovery"), std::string::npos) << message;
  }
  EXPECT_GT(baseline.report.recoveries_clean + baseline.report.recoveries_missing_entries,
            0u);
  EXPECT_GT(baseline.report.recoveries_missing_entries, 0u);  // torn tails are reported

  const StorageRun run = run_storage(storage_config(4), storage_catalog());
  EXPECT_EQ(run.report.verdict(), baseline.report.verdict());
  EXPECT_EQ(run.catalog, baseline.catalog);
}

TEST(VerdictWire, FaultSweepJsonIsByteStable) {
  // The service daemon streams and persists a verdict's to_json().dump()
  // (job-<id>.report.json), so these bytes outlive the build that wrote
  // them: a violation with plan-tagged messages and recovery counters, as
  // earlier builds serialized this sweep.
  const std::string golden =
      R"({"budget_exhausted":false,"crashed":false,"crashed_replays":0,"exhausted":true)"
      R"(,"explored":18,"first_violation":"4,5,6,0,1,2,3","first_violation_assertion":")"
      R"(replicas_converge","first_violation_index":4,"first_violation_plan":"torn:r0@6)"
      R"(-1","first_violation_plan_interleaving":2,"hit_cap":false,"messages":["[plan t)"
      R"(orn:r0@6-1] replicas_converge: replica 1 state {\"history\":[\"s|x|1.000000|a\)"
      R"(",\"s|x|3.000000|d\",\"s|y|2.000000|a\"],\"order\":[\"s\"],\"s\":{\"adds\":{\")"
      R"(y\":2},\"dels\":{\"x\":3}}} != replica 0 state {\"history\":[\"s|x|1.000000|a\)"
      R"(",\"s|x|3.000000|d\"],\"order\":[\"s\"],\"s\":{\"adds\":{},\"dels\":{\"x\":3}})"
      R"(} [interleaving 4,5,6,0,1,2,3]","[plan torn:r1@6-1] replicas_converge: replica)"
      R"( 1 state {\"history\":[\"s|x|1.000000|a\",\"s|y|2.000000|a\"],\"order\":[\"s\")"
      R"(],\"s\":{\"adds\":{\"x\":1,\"y\":2},\"dels\":{}}} != replica 0 state {\"histor)"
      R"(y\":[\"s|x|1.000000|a\",\"s|x|3.000000|d\",\"s|y|2.000000|a\"],\"order\":[\"s\)"
      R"("],\"s\":{\"adds\":{\"y\":2},\"dels\":{\"x\":3}}} [interleaving 0,1,2,3,4,5,6])"
      R"(","[plan droplog:r0@6] replicas_converge: replica 1 state {\"history\":[\"s|x|)"
      R"(1.000000|a\",\"s|x|3.000000|d\",\"s|y|2.000000|a\"],\"order\":[\"s\"],\"s\":{\)"
      R"("adds\":{\"y\":2},\"dels\":{\"x\":3}}} != replica 0 state {\"history\":[\"s|x|)"
      R"(3.000000|d\"],\"order\":[\"s\"],\"s\":{\"adds\":{},\"dels\":{\"x\":3}}} [inter)"
      R"(leaving 4,5,6,0,1,2,3]","[plan droplog:r1@6] replicas_converge: replica 1 stat)"
      R"(e {\"history\":[\"s|x|1.000000|a\",\"s|y|2.000000|a\"],\"order\":[\"s\"],\"s\")"
      R"(:{\"adds\":{\"x\":1,\"y\":2},\"dels\":{}}} != replica 0 state {\"history\":[\")"
      R"(s|x|1.000000|a\",\"s|x|3.000000|d\",\"s|y|2.000000|a\"],\"order\":[\"s\"],\"s\)"
      R"(":{\"adds\":{\"y\":2},\"dels\":{\"x\":3}}} [interleaving 0,1,2,3,4,5,6]"],"oom)"
      R"(_replays":0,"plans_explored":9,"quarantine_records":[],"quarantined":[],"recov)"
      R"(eries_clean":7,"recoveries_diverged":0,"recoveries_missing_entries":9,"reprodu)"
      R"(ced":true,"timed_out":0,"violations":4})";
  const StorageRun run = run_storage(storage_config(1), storage_catalog());
  EXPECT_EQ(run.report.verdict().to_json().dump(), golden);
}

TEST(StorageFaults, TornTailComposesWithCrashRestartSweep) {
  CatalogOptions mixed = storage_catalog();
  mixed.max_crash_restarts = 2;
  const StorageRun sequential = run_storage(storage_config(1), mixed);
  bool has_crash = false, has_torn = false;
  for (const auto& plan : sequential.catalog) {
    has_crash |= plan.kind == FaultPlan::Kind::CrashRestart;
    has_torn |= plan.kind == FaultPlan::Kind::TornTail;
  }
  EXPECT_TRUE(has_crash);
  EXPECT_TRUE(has_torn);
  EXPECT_EQ(sequential.report.recoveries_diverged, 0u);
  EXPECT_GT(sequential.report.recoveries_missing_entries, 0u);

  const StorageRun parallel = run_storage(storage_config(4), mixed);
  EXPECT_EQ(parallel.report.verdict(), sequential.report.verdict());
}

// ---------------------------------------------------------------------------
// Snapshots: the durable log is part of the snapshot state
// ---------------------------------------------------------------------------

TEST(StorageFaults, SnapshotRoundTripPreservesDurableLog) {
  subjects::Roshi roshi(2);
  roshi.set_durable_logging(true);
  ASSERT_TRUE(roshi.durable_logging());

  (void)roshi.invoke(A, "insert", member_args("x", 1.0));
  (void)roshi.invoke(A, "insert", member_args("y", 2.0));
  ASSERT_EQ(roshi.log_length(A), 2u);
  EXPECT_EQ(roshi.log_committed(A), 2u);
  const auto checkpoint = roshi.snapshot();
  ASSERT_TRUE(checkpoint.valid());

  (void)roshi.invoke(A, "delete", member_args("x", 3.0));
  (void)roshi.invoke(B, "insert", member_args("z", 4.0));
  ASSERT_EQ(roshi.log_length(A), 3u);
  ASSERT_EQ(roshi.log_length(B), 1u);
  const auto log_a_before = roshi.durable_log(A);

  // Restoring rewinds the logs exactly — a resume from this snapshot sees
  // the log a from-scratch replay of the prefix would have written.
  ASSERT_TRUE(roshi.restore(checkpoint));
  EXPECT_EQ(roshi.log_length(A), 2u);
  EXPECT_EQ(roshi.log_committed(A), 2u);
  EXPECT_EQ(roshi.log_length(B), 0u);
  EXPECT_NE(roshi.durable_log(A), log_a_before);

  // reset() clears the logs; a snapshot taken with logging off carries none.
  roshi.reset();
  EXPECT_EQ(roshi.log_length(A), 0u);
}

// ---------------------------------------------------------------------------
// Persistence: journal + corpus carry the recovery verdict
// ---------------------------------------------------------------------------

TEST(StorageFaults, JournalRecoveryFieldsRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "erpi_storage_roundtrip.journal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  {
    RunJournal journal = RunJournal::create(path, 0x1122334455667788ull);
    RunJournal::Record plain;
    plain.plan = "none";
    plain.interleaving = 1;
    plain.key = "0,1";
    journal.append(plain);

    RunJournal::Record missing = plain;
    missing.plan = "torn:r0@6-1";
    missing.interleaving = 1;
    missing.outcome.recovery =
        core::RecoveryVerdict{core::RecoveryVerdict::Status::MissingEntries, 1, 1};
    journal.append(missing);

    RunJournal::Record diverged = plain;
    diverged.plan = "dupseg:r0@6x1";
    diverged.interleaving = 1;
    diverged.outcome.recovery =
        core::RecoveryVerdict{core::RecoveryVerdict::Status::Diverged, 0, 0};
    diverged.outcome.violations.push_back({"durable-log-recovery", "replica 0 diverged"});
    journal.append(diverged);
  }
  const auto loaded = RunJournal::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_FALSE(loaded->records[0].outcome.recovery.has_value());
  ASSERT_TRUE(loaded->records[1].outcome.recovery.has_value());
  EXPECT_EQ(loaded->records[1].outcome.recovery->status,
            core::RecoveryVerdict::Status::MissingEntries);
  EXPECT_EQ(loaded->records[1].outcome.recovery->first_missing, 1u);
  EXPECT_EQ(loaded->records[1].outcome.recovery->missing_count, 1u);
  ASSERT_TRUE(loaded->records[2].outcome.recovery.has_value());
  EXPECT_EQ(loaded->records[2].outcome.recovery->status,
            core::RecoveryVerdict::Status::Diverged);
  EXPECT_EQ(loaded->records[2].outcome.violations.size(), 1u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(StorageFaults, CorpusRecoveryFieldsRoundTrip) {
  const std::string dir = std::string(::testing::TempDir()) + "erpi_storage_corpus";
  std::filesystem::remove_all(dir);

  core::RecoveryVerdict verdict;
  verdict.status = core::RecoveryVerdict::Status::MissingEntries;
  verdict.first_missing = 2;
  verdict.missing_count = 3;

  corpus::Record record;
  record.fingerprint = 0xfeedull;
  record.plan = "torn:r0@6-1";
  record.il = "0,1";
  record.outcome.recovery = verdict;
  {
    auto store = corpus::Store::open(dir);
    store.append(record);
  }
  auto reopened = corpus::Store::open(dir);
  const auto* loaded = reopened.lookup(record.fingerprint, record.plan, record.il);
  ASSERT_NE(loaded, nullptr);
  ASSERT_TRUE(loaded->outcome.recovery.has_value());
  EXPECT_EQ(loaded->outcome.recovery->status, core::RecoveryVerdict::Status::MissingEntries);
  EXPECT_EQ(loaded->outcome.recovery->first_missing, 2u);
  EXPECT_EQ(loaded->outcome.recovery->missing_count, 3u);

  // The verdict is part of the outcome identity diff mode compares, and the
  // reloaded outcome is the one reuse mode commits.
  core::InterleavingOutcome other = loaded->outcome;
  other.recovery->missing_count = 4;
  EXPECT_FALSE(loaded->outcome == other);
  EXPECT_TRUE(loaded->outcome == record.outcome);
  std::filesystem::remove_all(dir);
}

TEST(StorageFaults, JournalResumeReproducesStorageSweep) {
  const std::string path = std::string(::testing::TempDir()) + "erpi_storage_resume.journal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  auto journaled = [&](int parallelism) {
    Session::Config config = storage_config(parallelism);
    config.resume_journal = path;
    return run_storage(std::move(config), storage_catalog());
  };
  const StorageRun full = journaled(1);
  ASSERT_GT(full.report.explored, 4u);
  ASSERT_GT(full.report.recoveries_missing_entries, 0u);

  // Truncate to a mid-run prefix (the state a SIGKILL leaves) and resume:
  // the merged report — recovery counters included — must be identical.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 5u);
  {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    for (size_t i = 0; i < 5; ++i) out << lines[i] << '\n';
  }
  const StorageRun resumed = journaled(4);
  EXPECT_EQ(resumed.report.verdict(), full.report.verdict());
  EXPECT_EQ(resumed.report.pairs_skipped_from_journal, 4u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// Planted bugs: detected only with storage plans in the catalog
// ---------------------------------------------------------------------------

void expect_storage_bug_gated(const std::string& name) {
  const auto& bug = bugs::find_bug(name);
  ASSERT_TRUE(bug.storage_catalog.has_value());

  const auto seeded = bugs::run_bug(bug, core::ExplorationMode::ErPi);
  EXPECT_TRUE(seeded.report.reproduced) << name;
  EXPECT_EQ(seeded.report.first_violation_assertion, "durable-log-recovery") << name;
  EXPECT_GT(seeded.report.recoveries_diverged, 0u) << name;
  EXPECT_TRUE(seeded.report.first_violation_plan.find(':') != std::string::npos) << name;

  // Same seeded subject, storage sweeps stripped from the catalog: the bug
  // cannot manifest — recovery never runs.
  bugs::BugScenario no_storage = bug;
  no_storage.storage_catalog->max_torn_tails = 0;
  no_storage.storage_catalog->max_drop_log_entries = 0;
  no_storage.storage_catalog->max_duplicate_segments = 0;
  no_storage.storage_catalog->max_stale_snapshot_recoveries = 0;
  const auto clean = bugs::run_bug(no_storage, core::ExplorationMode::ErPi);
  EXPECT_FALSE(clean.report.reproduced) << name;
  EXPECT_EQ(clean.report.recoveries_diverged, 0u) << name;
  EXPECT_EQ(clean.report.recoveries_clean + clean.report.recoveries_missing_entries, 0u)
      << name;
}

TEST(StorageBugs, RoshiDuplicatedSegmentReplayGatedOnStoragePlans) {
  expect_storage_bug_gated("Roshi-S1");
}

TEST(StorageBugs, OrbitDbTornTailAcceptanceGatedOnStoragePlans) {
  expect_storage_bug_gated("OrbitDB-S1");
}

TEST(StorageBugs, FixedSubjectsRecoverWithStructuredVerdicts) {
  // The same workloads and catalogs against the *fixed* subjects: recovery
  // runs (verdicts are counted) but classifies as recovered / missing
  // entries — no violation, no silent divergence.
  {
    bugs::BugScenario fixed = bugs::find_bug("Roshi-S1");
    fixed.make_subject = [] { return std::make_unique<subjects::Roshi>(2); };
    const auto run = bugs::run_bug(fixed, core::ExplorationMode::ErPi);
    EXPECT_FALSE(run.report.reproduced);
    EXPECT_EQ(run.report.recoveries_diverged, 0u);
    EXPECT_GT(run.report.recoveries_clean + run.report.recoveries_missing_entries, 0u);
  }
  {
    bugs::BugScenario fixed = bugs::find_bug("OrbitDB-S1");
    fixed.make_subject = [] { return std::make_unique<subjects::OrbitDb>(2); };
    const auto run = bugs::run_bug(fixed, core::ExplorationMode::ErPi);
    EXPECT_FALSE(run.report.reproduced);
    EXPECT_EQ(run.report.recoveries_diverged, 0u);
    EXPECT_GT(run.report.recoveries_missing_entries, 0u);  // torn tail is reported
  }
}

}  // namespace
}  // namespace erpi::faults
