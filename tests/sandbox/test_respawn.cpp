// Fork-server respawn backoff: a subject factory that fails the first k
// fixture builds must not hot-loop or kill the run — each failed spawn backs
// off exponentially (10 ms doubling, capped at 1 s) and retries, the
// SandboxStats::respawn_failures counter records exactly k, and a factory
// that keeps failing past the supervisor's 4 retries surfaces the original
// error. The flaky factory counts attempts through a file because each build
// happens in a freshly forked runner: a static counter would reset with
// every child's copy-on-write image.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/session.hpp"
#include "subjects/town.hpp"

namespace erpi::sandbox {
namespace {

using core::Isolation;
using core::ReplayReport;
using core::Session;

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

std::string counter_path(const char* name) {
  const std::string path =
      std::string(::testing::TempDir()) + "erpi_respawn_" + name + ".count";
  std::remove(path.c_str());
  return path;
}

/// Reads, increments and rewrites the attempt counter. Survives fork: every
/// runner child sees the attempts of all its predecessors.
int bump_counter(const std::string& path) {
  int count = 0;
  {
    std::ifstream in(path);
    in >> count;
  }
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << (count + 1);
  out.flush();
  return count;
}

core::SubjectFactory flaky_factory(const std::string& path, int fail_first) {
  return [path, fail_first]() -> std::unique_ptr<proxy::Rdl> {
    if (bump_counter(path) < fail_first) {
      throw std::runtime_error("flaky fixture: warming up");
    }
    return std::make_unique<subjects::TownApp>(2);
  };
}

ReplayReport run_sandboxed(const core::SubjectFactory& factory) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = 1;
  config.isolation = Isolation::Process;
  config.subject_factory = factory;
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("lamp"));
  (void)proxy.update(1, "report", problem("pothole"));
  (void)proxy.sync_req(0, 1);
  return session.end(
      [](proxy::Rdl&) -> core::AssertionList { return {core::all_ops_succeed()}; });
}

TEST(SandboxRespawn, RetriesPastFirstKSpawnFailuresAndCountsThem) {
  const std::string path = counter_path("heals");
  constexpr int kFailFirst = 2;
  const ReplayReport report = run_sandboxed(flaky_factory(path, kFailFirst));
  // The run completed on the healthy respawn...
  EXPECT_GT(report.explored, 0u);
  EXPECT_EQ(report.violations, 0u);
  // ...and the streak is visible, not silently healed.
  EXPECT_EQ(report.sandbox.respawn_failures, static_cast<uint64_t>(kFailFirst));
}

TEST(SandboxRespawn, CleanFactoryReportsZeroRespawnFailures) {
  // Guard for the omitted-when-zero to_json contract: a healthy run must not
  // grow a respawn_failures field.
  const ReplayReport report =
      run_sandboxed([] { return std::make_unique<subjects::TownApp>(2); });
  EXPECT_GT(report.explored, 0u);
  EXPECT_EQ(report.sandbox.respawn_failures, 0u);
  const std::string dumped = report.to_json().dump();
  EXPECT_EQ(dumped.find("respawn_failures"), std::string::npos);
}

TEST(SandboxRespawn, DeterministicFactoryFailureSurfacesAfterRetryBudget) {
  const std::string path = counter_path("exhausts");
  // Fails far past the retry budget: the supervisor must give up with the
  // child's error, after 4 retries and about 150 ms of backoff, instead of
  // respawning forever.
  EXPECT_THROW((void)run_sandboxed(flaky_factory(path, 1000)), std::runtime_error);
}

}  // namespace
}  // namespace erpi::sandbox
