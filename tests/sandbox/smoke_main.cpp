// Crash-isolation smoke binary for CI: drives a deliberately segfaulting
// subject (CrashyTown) through a full exploration under Isolation::Process,
// at one worker (the crash lands mid-window on the inline path) and at two,
// and asserts each run completes with the crashing interleaving quarantined.
// Exits 0 on success, 1 with a diagnostic on any mismatch — no gtest
// dependency, so CI can run it standalone (see .github/workflows/ci.yml).
#include <csignal>
#include <cstdio>
#include <memory>

#include "core/session.hpp"
#include "crashy_town.hpp"

namespace {

erpi::util::Json problem(const char* name) {
  erpi::util::Json j = erpi::util::Json::object();
  j["problem"] = name;
  return j;
}

#define SMOKE_CHECK(cond)                                              \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "sandbox smoke FAILED: %s (%s:%d)\n", #cond, \
                   __FILE__, __LINE__);                                \
      return 1;                                                        \
    }                                                                  \
  } while (0)

/// One sandboxed exploration of the crashing workload; 0 when it checks out.
int smoke(int parallelism) {
  using erpi::sandbox::testing::CrashyTown;

  erpi::core::Session::Config config;
  config.generation_order = erpi::core::GroupedEnumerator::Order::Lexicographic;
  config.replay.stop_on_violation = false;
  config.parallelism = parallelism;
  config.isolation = erpi::core::Isolation::Process;
  config.subject_factory = [] { return std::make_unique<CrashyTown>(2); };

  CrashyTown town(2);
  erpi::proxy::RdlProxy proxy(town);
  erpi::core::Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("crashkey"));
  (void)proxy.update(0, "report", problem("guard"));
  (void)proxy.update(0, "boom", erpi::util::Json::object());
  const erpi::core::ReplayReport report =
      session.end([](erpi::proxy::Rdl&) -> erpi::core::AssertionList {
        return {erpi::core::all_ops_succeed()};
      });

  SMOKE_CHECK(report.explored == 6);
  SMOKE_CHECK(report.exhausted);
  SMOKE_CHECK(report.crashed_replays == 1);
  SMOKE_CHECK(report.quarantined.size() == 1);
  SMOKE_CHECK(report.quarantined[0] == "0,2,1");
  SMOKE_CHECK(report.quarantine_records.size() == 1);
  SMOKE_CHECK(report.quarantine_records[0].reason == "crashed");
  SMOKE_CHECK(report.quarantine_records[0].signal == SIGSEGV);
  SMOKE_CHECK(report.violations == 0);
  SMOKE_CHECK(report.sandbox.crashes == 2);
  SMOKE_CHECK(report.sandbox.retries == 1);

  std::printf(
      "sandbox smoke OK at p=%d: explored=%llu quarantined=%s signal=%d "
      "crashes=%llu respawns=%llu\n",
      parallelism, static_cast<unsigned long long>(report.explored),
      report.quarantined[0].c_str(), report.quarantine_records[0].signal,
      static_cast<unsigned long long>(report.sandbox.crashes),
      static_cast<unsigned long long>(report.sandbox.respawns));
  return 0;
}

}  // namespace

int main() {
  for (const int parallelism : {1, 2}) {
    if (smoke(parallelism) != 0) return 1;
  }
  return 0;
}
