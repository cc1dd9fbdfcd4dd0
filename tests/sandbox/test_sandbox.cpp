// Crash-isolated replay sandbox tests (DESIGN.md §9): a subject that
// segfaults, hogs memory, or hangs inside a replay must surface as a
// structured crashed/oom/timed_out outcome with the (plan, interleaving)
// quarantined — while the exploration completes — and crash-free sandboxed
// runs must report byte-identically to in-process replay. These tests fork
// real children and SIGKILL some of them; they are excluded from the
// sanitizer CI matrices (RLIMIT_AS and ASan's shadow mappings don't mix).
#include <gtest/gtest.h>

#include <csignal>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "crashy_town.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::sandbox {
namespace {

using core::Isolation;
using core::ReplayReport;
using core::Session;
using testing::CollateralTown;
using testing::CrashyTown;
using testing::ExitingTown;
using testing::HungryTown;
using testing::SleepyTown;

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

core::AssertionFactory ops_succeed() {
  return [](proxy::Rdl&) -> core::AssertionList { return {core::all_ops_succeed()}; };
}

Session::Config sandbox_config(int parallelism) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.isolation = Isolation::Process;
  return config;
}

// ---------------------------------------------------------------------------
// Deterministic crash: quarantined with the signal, run completes, identical
// across parallelism
// ---------------------------------------------------------------------------

// report(crashkey) / report(guard) / boom — boom segfaults in exactly one of
// the six interleavings ("0,2,1", see CrashyTown).
ReplayReport run_crashy(int parallelism) {
  Session::Config config = sandbox_config(parallelism);
  config.subject_factory = [] { return std::make_unique<CrashyTown>(2); };
  CrashyTown town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("crashkey"));  // e0
  (void)proxy.update(0, "report", problem("guard"));     // e1
  (void)proxy.update(0, "boom", util::Json::object());   // e2
  return session.end(ops_succeed());
}

TEST(SandboxCrash, SegfaultIsQuarantinedWithSignalAndRunCompletes) {
  const ReplayReport report = run_crashy(1);

  EXPECT_EQ(report.explored, 6u);
  EXPECT_EQ(report.crashed_replays, 1u);
  EXPECT_EQ(report.quarantined, (std::vector<std::string>{"0,2,1"}));
  ASSERT_EQ(report.quarantine_records.size(), 1u);
  EXPECT_EQ(report.quarantine_records[0].key, "0,2,1");
  EXPECT_EQ(report.quarantine_records[0].reason, "crashed");
  EXPECT_EQ(report.quarantine_records[0].signal, SIGSEGV);
  // Quarantined replays contribute no violations; the clean five all pass.
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.exhausted);
  // Two attempts (initial + one retry in a fresh child) both crashed, each
  // death triggered a respawn, and the retry did not come back clean.
  EXPECT_EQ(report.sandbox.crashes, 2u);
  EXPECT_EQ(report.sandbox.retries, 1u);
  EXPECT_EQ(report.sandbox.retry_successes, 0u);
  EXPECT_GE(report.sandbox.respawns, 2u);
  EXPECT_EQ(report.sandbox.oom_kills, 0u);
  EXPECT_EQ(report.sandbox.timeouts, 0u);
}

TEST(SandboxCrash, IdenticalOutcomeAcrossParallelism) {
  const ReplayReport baseline = run_crashy(1);
  const ReplayReport report = run_crashy(4);
  EXPECT_EQ(report.verdict(), baseline.verdict());
  // The crash accounting matches too; respawns depend on scheduling.
  EXPECT_EQ(report.sandbox.crashes, baseline.sandbox.crashes);
  EXPECT_EQ(report.sandbox.retries, baseline.sandbox.retries);
  EXPECT_EQ(report.sandbox.retry_successes, baseline.sandbox.retry_successes);
}

// ---------------------------------------------------------------------------
// Collateral crash: retry in a fresh child succeeds, nothing quarantined
// ---------------------------------------------------------------------------

TEST(SandboxCrash, CollateralCrashRetriesCleanAndIsNotQuarantined) {
  // CollateralTown crashes on every child's *second* replay (one reset per
  // replay), so each crash vanishes on retry in a fresh child:
  //   child1: item1 ok, item2 crash → child2: item2 ok, item3 crash → ...
  // Six items ⇒ five collateral crashes, five clean retries, zero
  // quarantines.
  Session::Config config = sandbox_config(1);
  config.subject_factory = [] { return std::make_unique<CollateralTown>(2); };
  CollateralTown town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("pothole"));  // e0
  (void)proxy.update(0, "report", problem("lamp"));     // e1
  (void)proxy.update(0, "boom", util::Json::object());  // e2
  const ReplayReport report = session.end(ops_succeed());

  EXPECT_EQ(report.explored, 6u);
  EXPECT_EQ(report.crashed_replays, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_TRUE(report.quarantine_records.empty());
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.sandbox.crashes, 5u);
  EXPECT_EQ(report.sandbox.retries, 5u);
  EXPECT_EQ(report.sandbox.retry_successes, 5u);
  EXPECT_EQ(report.sandbox.respawns, 5u);
}

// ---------------------------------------------------------------------------
// Structured oom: RLIMIT_AS trip is reported, retried, quarantined as "oom"
// ---------------------------------------------------------------------------

TEST(SandboxOom, MemoryCapTripIsQuarantinedAsOom) {
  Session::Config config = sandbox_config(1);
  config.subject_factory = [] { return std::make_unique<HungryTown>(2); };
  config.replay.sandbox_memory_limit_bytes = 512ull << 20;  // far below 8 GiB
  HungryTown town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("ready"));   // e0
  (void)proxy.update(0, "hog", util::Json::object());  // e1 — hogs before e0
  const ReplayReport report = session.end(ops_succeed());

  // Two interleavings; "1,0" hogs before "ready" is reported and blows the
  // cap deterministically (both attempts), so it is quarantined as oom.
  EXPECT_EQ(report.explored, 2u);
  EXPECT_EQ(report.oom_replays, 1u);
  EXPECT_EQ(report.crashed_replays, 0u);
  EXPECT_EQ(report.quarantined, (std::vector<std::string>{"1,0"}));
  ASSERT_EQ(report.quarantine_records.size(), 1u);
  EXPECT_EQ(report.quarantine_records[0].reason, "oom");
  EXPECT_EQ(report.quarantine_records[0].signal, 0);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.sandbox.oom_kills, 2u);
  EXPECT_EQ(report.sandbox.retries, 1u);
  EXPECT_EQ(report.sandbox.retry_successes, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog escalation: a hang inside subject code is SIGKILLed and
// quarantined as timed_out, exactly like the in-process watchdog would
// ---------------------------------------------------------------------------

TEST(SandboxWatchdog, HangInsideSubjectCodeIsKilledAndQuarantined) {
  Session::Config config = sandbox_config(2);
  config.replay.watchdog_timeout_ms = 500;
  config.subject_factory = [] { return std::make_unique<SleepyTown>(2); };
  SleepyTown town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(1, "arm", util::Json::object());         // e0
  (void)proxy.update(0, "maybe_hang", util::Json::object());  // e1
  (void)proxy.update(0, "report", problem("pothole"));        // e2
  const ReplayReport report = session.end(ops_succeed());

  // Same shape as the in-process watchdog test (PR 3): of six interleavings
  // the three scheduling maybe_hang before arm hang — but here the hang is a
  // busy-loop in subject code that the cooperative cancel could never reach.
  EXPECT_EQ(report.explored, 6u);
  EXPECT_EQ(report.timed_out, 3u);
  EXPECT_EQ(report.quarantined,
            (std::vector<std::string>{"1,0,2", "1,2,0", "2,1,0"}));
  for (const auto& record : report.quarantine_records) {
    EXPECT_EQ(record.reason, "timed_out");
  }
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.sandbox.timeouts, 3u);
  EXPECT_EQ(report.sandbox.retries, 0u);  // timeouts quarantine immediately
}

// ---------------------------------------------------------------------------
// Crash-free parity: sandboxed runs reach the in-process verdict
// ---------------------------------------------------------------------------

// report(x) / resolve(x) / transmit — some reorderings leave {x} transmitted,
// so the run exercises violations, messages and first_violation too.
ReplayReport run_clean(int parallelism, Isolation isolation) {
  Session::Config config = sandbox_config(parallelism);
  config.isolation = isolation;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("x"));   // e0
  (void)proxy.update(0, "resolve", problem("x"));  // e1
  (void)proxy.query(0, "transmit");                // e2
  return session.end([](proxy::Rdl&) -> core::AssertionList {
    return {core::query_result_equals(2, util::Json::array())};
  });
}

TEST(SandboxParity, CrashFreeReportsAreByteIdenticalToInProcess) {
  // Every replay starts from reset(), so the report is a pure function of
  // the stream at any worker count, in either isolation mode.
  for (const int parallelism : {1, 4}) {
    const ReplayReport in_process = run_clean(parallelism, Isolation::None);
    const ReplayReport sandboxed = run_clean(parallelism, Isolation::Process);
    ASSERT_GT(in_process.violations, 0u);  // the workload really discriminates
    EXPECT_EQ(sandboxed.verdict(), in_process.verdict()) << "p=" << parallelism;
    EXPECT_FALSE(sandboxed.sandbox.any()) << "p=" << parallelism;
  }
}

// ---------------------------------------------------------------------------
// Session API contract
// ---------------------------------------------------------------------------

TEST(SandboxSession, EndWithSharedAssertionListThrowsUnderProcessIsolation) {
  Session::Config config = sandbox_config(1);
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("x"));
  EXPECT_THROW((void)session.end(core::AssertionList{core::all_ops_succeed()}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault exploration + journal: crashes are journaled and resumed runs skip
// known-crashing pairs
// ---------------------------------------------------------------------------

template <typename Town>
ReplayReport run_crashy_faults(const std::string& journal_path) {
  Session::Config config = sandbox_config(1);
  config.subject_factory = [] { return std::make_unique<Town>(2); };
  config.resume_journal = journal_path;
  Town town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("crashkey"));  // e0
  (void)proxy.update(0, "report", problem("guard"));     // e1
  (void)proxy.update(0, "boom", util::Json::object());   // e2
  faults::CatalogOptions baseline_only;
  baseline_only.max_drops = 0;
  baseline_only.max_duplicates = 0;
  baseline_only.max_partition_windows = 0;
  baseline_only.max_crash_restarts = 0;
  return faults::explore_with_faults(session, ops_succeed(), baseline_only);
}

TEST(SandboxJournal, ResumedRunSkipsKnownCrashingPairs) {
  // A segfaulting subject, and one whose child exits cleanly mid-replay
  // (crashed with signal 0).
  const struct {
    const char* subject;
    ReplayReport (*run)(const std::string&);
    int signal;
  } cases[] = {{"CrashyTown", run_crashy_faults<CrashyTown>, SIGSEGV},
               {"ExitingTown", run_crashy_faults<ExitingTown>, 0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.subject);
    const std::string journal_path =
        ::testing::TempDir() + "/erpi_sandbox_journal.jsonl";
    std::remove(journal_path.c_str());

    const ReplayReport first = c.run(journal_path);
    EXPECT_EQ(first.explored, 6u);
    EXPECT_EQ(first.crashed_replays, 1u);
    EXPECT_EQ(first.quarantined, (std::vector<std::string>{"none/0,2,1"}));
    ASSERT_EQ(first.quarantine_records.size(), 1u);
    EXPECT_EQ(first.quarantine_records[0].reason, "crashed");
    EXPECT_EQ(first.quarantine_records[0].signal, c.signal);
    EXPECT_EQ(first.sandbox.crashes, 2u);

    // Resume against the completed journal: every pair is merged back, the
    // crash outcome (including the signal) is rehydrated, and no child ever
    // crashes because the known-crashing pair is never re-executed.
    const ReplayReport second = c.run(journal_path);
    EXPECT_EQ(second.explored, 6u);
    EXPECT_EQ(second.pairs_skipped_from_journal, 6u);
    EXPECT_EQ(second.crashed_replays, 1u);
    EXPECT_EQ(second.quarantined, (std::vector<std::string>{"none/0,2,1"}));
    ASSERT_EQ(second.quarantine_records.size(), 1u);
    EXPECT_EQ(second.quarantine_records[0].reason, "crashed");
    EXPECT_EQ(second.quarantine_records[0].signal, c.signal);
    EXPECT_EQ(second.sandbox.crashes, 0u);
    EXPECT_EQ(second.sandbox.respawns, 0u);

    std::remove(journal_path.c_str());
  }
}

}  // namespace
}  // namespace erpi::sandbox
