// Crash-isolated replay sandbox tests (DESIGN.md §9): a subject that
// segfaults, hogs memory, or hangs inside a replay must surface as a
// structured crashed/oom/timed_out outcome with the (plan, interleaving)
// quarantined — while the exploration completes — and crash-free sandboxed
// runs must report byte-identically to in-process replay. These tests fork
// real children and SIGKILL some of them; they are excluded from the
// sanitizer CI matrices (RLIMIT_AS and ASan's shadow mappings don't mix).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
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
using testing::TrapTown;

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

// ---------------------------------------------------------------------------
// Pipelined windows: a failure anywhere in a window is charged to exactly the
// item that failed, with the counters one item at a time gives
// ---------------------------------------------------------------------------

// Five units of `per_unit` reports on one replica: 120 interleavings, so a
// one-worker sandbox replays windows of 32 (ordinals 1-32, 33-64, ...).
// Event e reports problem "p<e>".
constexpr size_t kUnits = 5;
constexpr size_t kWindow = 32;

Session::Config window_config(size_t per_unit) {
  Session::Config config = sandbox_config(1);
  for (size_t unit = 0; per_unit > 1 && unit < kUnits; ++unit) {
    std::vector<int> group;
    for (size_t i = 0; i < per_unit; ++i) group.push_back(static_cast<int>(unit * per_unit + i));
    config.spec_groups.push_back(std::move(group));
  }
  return config;
}

std::string event_problem(int event) {
  std::string name = "p";
  name += std::to_string(event);
  return name;
}

void window_workload(proxy::RdlProxy& proxy, size_t per_unit) {
  for (size_t e = 0; e < kUnits * per_unit; ++e) {
    (void)proxy.update(0, "report", problem(event_problem(static_cast<int>(e)).c_str()));
  }
}

/// The workload's interleaving keys in commit order, from an in-process run.
std::vector<std::string> window_stream(size_t per_unit = 1) {
  std::vector<std::string> out;
  Session::Config config = window_config(per_unit);
  config.isolation = Isolation::None;
  config.replay.on_outcome = [&](uint64_t, const core::Interleaving& il,
                                 const core::InterleavingOutcome&) { out.push_back(il.key()); };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  window_workload(proxy, per_unit);
  (void)session.end(ops_succeed());
  return out;
}

/// Sandboxed one-worker run whose subject springs `trap` on interleaving `key`.
ReplayReport run_trapped(TrapTown::Trap trap, const std::string& key, size_t per_unit) {
  std::vector<std::string> sequence;
  for (const int id : core::Interleaving::from_key(key).order) {
    sequence.push_back(event_problem(id));
  }
  Session::Config config = window_config(per_unit);
  config.replay.sandbox_memory_limit_bytes = 512ull << 20;
  // Hangs die at a short deadline; anything else gets a long one, so a runner
  // that lost track of its requests fails the test instead of hanging it.
  config.replay.watchdog_timeout_ms = trap == TrapTown::Trap::Hang ? 300 : 5'000;
  config.subject_factory = [trap, sequence] {
    return std::make_unique<TrapTown>(2, trap, sequence);
  };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  window_workload(proxy, per_unit);
  return session.end(ops_succeed());
}

struct Expected {
  const char* reason;
  int signal;
  uint64_t crashes, oom_kills, timeouts, retries, respawns;
};

void expect_only_trap_quarantined(TrapTown::Trap trap, size_t position, const Expected& want,
                                  size_t per_unit = 1) {
  SCOPED_TRACE("window position " + std::to_string(position));
  const std::vector<std::string> stream = window_stream(per_unit);
  const std::string& key = stream.at(position);
  const ReplayReport report = run_trapped(trap, key, per_unit);
  EXPECT_EQ(report.explored, stream.size());
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.quarantined, (std::vector<std::string>{key}));
  ASSERT_EQ(report.quarantine_records.size(), 1u);
  EXPECT_EQ(report.quarantine_records[0].key, key);
  EXPECT_EQ(report.quarantine_records[0].reason, want.reason);
  EXPECT_EQ(report.quarantine_records[0].signal, want.signal);
  EXPECT_EQ(report.sandbox.crashes, want.crashes);
  EXPECT_EQ(report.sandbox.oom_kills, want.oom_kills);
  EXPECT_EQ(report.sandbox.timeouts, want.timeouts);
  EXPECT_EQ(report.sandbox.retries, want.retries);
  EXPECT_EQ(report.sandbox.retry_successes, 0u);
  // One runner for the retry (crash and oom), one for the rest of the run.
  EXPECT_EQ(report.sandbox.respawns, want.respawns);
}

TEST(SandboxWindow, CrashAtEveryWindowPositionIsChargedToItsItem) {
  ASSERT_EQ(window_stream().size(), 120u);
  for (size_t position = 0; position <= kWindow; ++position) {
    expect_only_trap_quarantined(TrapTown::Trap::Crash, position,
                                 {"crashed", SIGSEGV, 2, 0, 0, 1, 2});
  }
}

TEST(SandboxWindow, OomAtEveryWindowPositionIsChargedToItsItem) {
  for (size_t position = 0; position <= kWindow; ++position) {
    expect_only_trap_quarantined(TrapTown::Trap::Oom, position, {"oom", 0, 0, 2, 0, 1, 2});
  }
}

TEST(SandboxWindow, CrashInAWindowOfManyReadsIsChargedToItsItem) {
  // 200-event keys make a request frame of about 25 KB, which the runner
  // reads in several pieces before it answers; the retry and the rest of
  // the window must still go to fresh runners as windows of their own.
  for (const size_t position : {size_t{0}, size_t{1}, size_t{9}}) {
    expect_only_trap_quarantined(TrapTown::Trap::Crash, position,
                                 {"crashed", SIGSEGV, 2, 0, 0, 1, 2}, /*per_unit=*/40);
  }
}

TEST(SandboxWindow, HangOnTheHeadIsTimedOutOnce) {
  for (const size_t position : {size_t{0}, size_t{1}, kWindow / 2, kWindow - 1, kWindow}) {
    expect_only_trap_quarantined(TrapTown::Trap::Hang, position,
                                 {"timed_out", 0, 0, 0, 1, 0, 1});
  }
}

/// One-worker run of the window workload whose assertion fails on the
/// interleavings at the `violating` positions.
struct WindowRun {
  std::vector<size_t> violating;
  bool stop_on_violation = false;
  uint64_t cancel_at = 0;  // the commit that flips the cancel token; 0 for none
  uint64_t cap = 100'000;
  size_t message_bytes = 0;  // pads each violation message to at least this
  /// Sandboxed runs only: the position whose interleaving segfaults.
  std::optional<size_t> crash_at;
  std::string journal;  // resume_journal
};

ReplayReport window_run(Isolation isolation, const WindowRun& run) {
  const std::vector<std::string> stream = window_stream();
  std::vector<std::string> bad;
  for (const size_t position : run.violating) bad.push_back(stream.at(position));
  Session::Config config = sandbox_config(1);
  config.isolation = isolation;
  config.replay.stop_on_violation = run.stop_on_violation;
  config.replay.max_interleavings = run.cap;
  config.resume_journal = run.journal;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  if (run.crash_at) {
    std::vector<std::string> sequence;
    for (const int id : core::Interleaving::from_key(stream.at(*run.crash_at)).order) {
      sequence.push_back(event_problem(id));
    }
    config.subject_factory = [sequence] {
      return std::make_unique<TrapTown>(2, TrapTown::Trap::Crash, sequence);
    };
  }
  auto token = std::make_shared<std::atomic<bool>>(false);
  if (run.cancel_at > 0) {
    config.replay.cancel = token;
    config.replay.on_outcome = [token, at = run.cancel_at](uint64_t index,
                                                           const core::Interleaving&,
                                                           const core::InterleavingOutcome&) {
      if (index == at) token->store(true);
    };
  }
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  window_workload(proxy, 1);
  const size_t pad = run.message_bytes;
  return session.end([bad, pad](proxy::Rdl&) -> core::AssertionList {
    return {core::custom("planted", [bad, pad](const core::TestContext& ctx) {
      for (const auto& key : bad) {
        if (ctx.interleaving.key() != key) continue;
        std::string message = "planted: " + key;
        message.resize(std::max(message.size(), pad), '.');
        return util::Status::fail(message);
      }
      return util::Status::ok();
    })};
  });
}

core::RunVerdict window_verdict(Isolation isolation, const WindowRun& run) {
  const ReplayReport report = window_run(isolation, run);
  EXPECT_FALSE(report.sandbox.any());
  return report.verdict();
}

TEST(SandboxWindow, StopOnViolationMidWindowMatchesInProcess) {
  const std::vector<std::vector<size_t>> cases = {
      {0}, {5}, {5, 8}, {kWindow - 1}, {kWindow}, {kWindow + 7, kWindow + 9}};
  for (const auto& violating : cases) {
    SCOPED_TRACE("first violation at " + std::to_string(violating.front()));
    WindowRun run;
    run.violating = violating;
    run.stop_on_violation = true;
    const core::RunVerdict in_process = window_verdict(Isolation::None, run);
    ASSERT_TRUE(in_process.reproduced);
    EXPECT_EQ(in_process.explored, violating.front() + 1);
    EXPECT_EQ(window_verdict(Isolation::Process, run), in_process);
    // The item after the violation segfaults, but one at a time never
    // replays it, and neither may the window: no crash, retry or respawn.
    run.crash_at = violating.front() + 1;
    EXPECT_EQ(window_verdict(Isolation::Process, run), in_process);
  }
}

TEST(SandboxWindow, CachedViolationEndsTheWindow) {
  const std::string journal = ::testing::TempDir() + "/erpi_window_journal.jsonl";
  std::remove(journal.c_str());
  WindowRun run;
  run.violating = {5};
  run.stop_on_violation = true;
  const core::RunVerdict in_process = window_verdict(Isolation::None, run);
  run.journal = journal;
  EXPECT_EQ(window_verdict(Isolation::Process, run), in_process);
  // Resumed, the window's first six items come from the journal, the sixth
  // a violation: nothing past it is pulled, so the item that segfaults
  // right after it is never replayed.
  run.crash_at = 6;
  const ReplayReport resumed = window_run(Isolation::Process, run);
  EXPECT_EQ(resumed.pairs_skipped_from_journal, 6u);
  EXPECT_FALSE(resumed.sandbox.any());
  EXPECT_EQ(resumed.verdict(), in_process);
  std::remove(journal.c_str());
}

TEST(SandboxWindow, CancelFlippedAtCommitKMatchesInProcess) {
  for (const uint64_t k : {1u, 7u, 31u, 32u, 33u, 120u}) {
    SCOPED_TRACE("cancelled at commit " + std::to_string(k));
    WindowRun run;
    run.violating = {3, 40};
    run.cancel_at = k;
    const core::RunVerdict in_process = window_verdict(Isolation::None, run);
    EXPECT_TRUE(in_process.cancelled);
    EXPECT_FALSE(in_process.exhausted);
    EXPECT_EQ(in_process.explored, k);
    EXPECT_EQ(window_verdict(Isolation::Process, run), in_process);
  }
  // At the cap-th commit the cap stops the next pull before the token does
  // (a cap of 40 makes windows of 8).
  WindowRun capped;
  capped.violating = {3};
  capped.cancel_at = 40;
  capped.cap = 40;
  const core::RunVerdict in_process = window_verdict(Isolation::None, capped);
  EXPECT_TRUE(in_process.hit_cap);
  EXPECT_FALSE(in_process.cancelled);
  EXPECT_EQ(window_verdict(Isolation::Process, capped), in_process);
}

TEST(SandboxWindow, MegabyteMessagesReachTheInProcessVerdict) {
  // Each failing item answers with a frame of about 1 MB, several times the
  // data socket's buffer, so the runner must wake the supervisor at every
  // full socket. No watchdog: were either side left waiting on the other,
  // the run would hang, not time out.
  WindowRun run;
  run.violating = {0, 1, 17, kWindow - 1, kWindow};
  run.message_bytes = 1u << 20;
  const ReplayReport in_process = window_run(Isolation::None, run);
  ASSERT_EQ(in_process.violations, run.violating.size());
  ASSERT_GE(in_process.messages.at(0).size(), run.message_bytes);
  const ReplayReport sandboxed = window_run(Isolation::Process, run);
  EXPECT_FALSE(sandboxed.sandbox.any());
  EXPECT_EQ(sandboxed.verdict(), in_process.verdict());
  EXPECT_EQ(sandboxed.messages, in_process.messages);
}

}  // namespace
}  // namespace erpi::sandbox
