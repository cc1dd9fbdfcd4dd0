// Replay-watchdog tests: a subject operation that deadlocks in threaded-lock
// mode must be cut off at the deadline, reported as a structured `timed_out`
// outcome, quarantined by key — and the remaining interleavings of the run
// must still complete. The hung replay thread blocks inside subject code, so
// the worker abandons its fixture (shared ownership keeps it alive) and
// rebuilds; the test's gate releases the hung threads at the end so nothing
// outlives the test binary.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>

#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"

namespace erpi::faults {
namespace {

using core::ReplayReport;
using core::Session;

/// Test-global gate the deadlocking op blocks on. Opened (and drained) at
/// the end of each test so abandoned replay threads terminate.
struct HangGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int waiters = 0;
};

HangGate& gate() {
  static HangGate g;
  return g;
}

void close_gate() {
  std::lock_guard lock(gate().mu);
  gate().open = false;
}

void release_hung_threads() {
  std::unique_lock lock(gate().mu);
  gate().open = true;
  gate().cv.notify_all();
  gate().cv.wait(lock, [] { return gate().waiters == 0; });
}

/// TownApp with two extra ops: "arm" flips a latch, "maybe_hang" deadlocks
/// unless the latch was flipped first. Interleavings that schedule
/// maybe_hang before arm model a lock-protocol deadlock in subject code.
class HangingTown : public subjects::TownApp {
 public:
  explicit HangingTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    if (op == "arm") {
      armed_ = true;
      return util::Json(true);
    }
    if (op == "maybe_hang") {
      if (!armed_) {
        auto& g = gate();
        std::unique_lock lock(g.mu);
        ++g.waiters;
        g.cv.notify_all();
        g.cv.wait(lock, [&] { return g.open; });
        --g.waiters;
        g.cv.notify_all();
      }
      return util::Json(true);
    }
    return TownApp::do_invoke(replica, op, args);
  }

  void do_reset() override {
    TownApp::do_reset();
    armed_ = false;
  }

 private:
  bool armed_ = false;
};

// Capture order arms before hanging, so recording never blocks; of the six
// unit permutations, the three that schedule maybe_hang before arm deadlock.
void hanging_workload(proxy::RdlProxy& proxy) {
  util::Json report_args = util::Json::object();
  report_args["problem"] = "pothole";
  (void)proxy.update(1, "arm", util::Json::object());         // e0 / unit 0
  (void)proxy.update(0, "maybe_hang", util::Json::object());  // e1 / unit 1
  (void)proxy.update(0, "report", report_args);               // e2 / unit 2
}

Session::Config watchdog_config(int parallelism) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.replay.threaded = true;  // the lock-protocol mode the watchdog guards
  config.replay.watchdog_timeout_ms = 500;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<HangingTown>(2); };
  return config;
}

core::AssertionFactory ops_succeed() {
  return [](proxy::Rdl&) -> core::AssertionList { return {core::all_ops_succeed()}; };
}

TEST(ReplayWatchdog, DeadlockedThreadedReplayIsQuarantinedAndRunCompletes) {
  // The same config at one worker (inline) and two (the pool): the watchdog
  // applies at every parallelism, and the report does not depend on it.
  for (const int parallelism : {1, 2}) {
    close_gate();
    Session::Config config = watchdog_config(parallelism);
    HangingTown town(2);
    proxy::RdlProxy proxy(town);
    Session session(proxy, std::move(config));
    session.start();
    hanging_workload(proxy);
    const ReplayReport report = session.end(ops_succeed());
    release_hung_threads();

    // Three units permute six ways; maybe_hang-before-arm deadlocks in three.
    EXPECT_EQ(report.explored, 6u) << "p=" << parallelism;
    EXPECT_EQ(report.timed_out, 3u) << "p=" << parallelism;
    EXPECT_EQ(report.quarantined,
              (std::vector<std::string>{"1,0,2", "1,2,0", "2,1,0"}))
        << "p=" << parallelism;
    // Quarantined replays contribute no violations; the clean ones all pass.
    EXPECT_EQ(report.violations, 0u) << "p=" << parallelism;
    EXPECT_TRUE(report.exhausted) << "p=" << parallelism;
  }
}

TEST(ReplayWatchdog, BorrowedFixtureRejectsTheWatchdog) {
  // end(AssertionList) replays on the session's own fixture, which cannot be
  // abandoned to a hung replay and rebuilt: the run is refused up front. The
  // gate stays open, so a run that did start would finish instead of hang.
  release_hung_threads();
  Session::Config config = watchdog_config(1);
  config.replay.threaded = false;  // the watchdog is the only reason to refuse
  uint64_t replayed = 0;
  config.replay.on_outcome = [&](uint64_t, const core::Interleaving&,
                                 const core::InterleavingOutcome&) {
    ++replayed;
  };
  HangingTown town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  hanging_workload(proxy);
  EXPECT_THROW((void)session.end(core::AssertionList{core::all_ops_succeed()}),
               std::invalid_argument);
  EXPECT_EQ(replayed, 0u);
}

TEST(ReplayWatchdog, QuarantineKeysNameThePlanUnderFaultExploration) {
  close_gate();
  Session::Config config = watchdog_config(2);
  HangingTown town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  hanging_workload(proxy);
  CatalogOptions baseline_only;
  baseline_only.max_drops = 0;
  baseline_only.max_duplicates = 0;
  baseline_only.max_partition_windows = 0;
  baseline_only.max_crash_restarts = 0;
  const ReplayReport report = explore_with_faults(session, ops_succeed(), baseline_only);
  release_hung_threads();

  EXPECT_EQ(report.plans_explored, 1u);
  EXPECT_EQ(report.explored, 6u);
  EXPECT_EQ(report.timed_out, 3u);
  EXPECT_EQ(report.quarantined,
            (std::vector<std::string>{"none/1,0,2", "none/1,2,0", "none/2,1,0"}));
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.exhausted);
}

}  // namespace
}  // namespace erpi::faults
