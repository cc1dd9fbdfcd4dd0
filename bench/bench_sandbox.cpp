// Fork-server overhead sweep: the same crash-free exploration replayed
// in-process (Isolation::None) and through the sandbox fork server
// (Isolation::Process), across parallelism. The long-lived
// child amortizes fixture construction, and the wire is pipelined: a window
// of up to 32 items leaves as one request frame, the child answers each
// pass with a 5-byte frame and wakes the supervisor once per window, so the
// per-pair cost is a few bytes of socket traffic and a share of two context
// switches (DESIGN.md §9); the target is < 25% pairs/sec overhead on this
// workload. Both modes must reach the same
// verdict, and the crash-free sandboxed run must leave its anomaly counters
// at zero, or the binary exits non-zero.
//
// Output lands in BENCH_sandbox.json (CI uploads it as an artifact).
//
// Usage: bench_sandbox [--rounds N] [--out BENCH_sandbox.json]
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/session.hpp"
#include "subjects/town.hpp"
#include "verdict_check.hpp"

using namespace erpi;

namespace {

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

/// `rounds` report-then-sync units across two replicas, grouped three events
/// to a unit — the same universe shape the other sweeps use, crash-free.
core::ReplayReport run_sweep(size_t rounds, int parallelism, core::Isolation isolation) {
  core::Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  for (size_t r = 0; r < rounds; ++r) {
    const int base = static_cast<int>(3 * r);
    config.spec_groups.push_back({base, base + 1, base + 2});
  }
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 1'000'000;
  config.parallelism = parallelism;
  config.isolation = isolation;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };

  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  core::Session session(proxy, std::move(config));
  session.start();
  for (size_t r = 0; r < rounds; ++r) {
    const net::ReplicaId from = static_cast<net::ReplicaId>(r % 2);
    const std::string name = "p" + std::to_string(r);
    (void)proxy.update(from, "report", problem(name.c_str()));
    (void)proxy.sync_req(from, 1 - from);
    (void)proxy.exec_sync(from, 1 - from);
  }
  return session.end([](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  });
}

}  // namespace

int main(int argc, char** argv) {
  size_t rounds = 6;  // 720 pairs: enough to amortize fork-server startup
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::stoull(argv[++i]);
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  std::printf("=== Sandbox fork-server overhead sweep (%zu sync rounds) ===\n\n", rounds);
  util::Json rows = util::Json::array();
  bool ok = true;
  for (const int parallelism : {1, 4}) {
    const core::ReplayReport plain = run_sweep(rounds, parallelism, core::Isolation::None);
    const core::ReplayReport sandboxed =
        run_sweep(rounds, parallelism, core::Isolation::Process);
    ok &= bench::same_verdict(sandboxed, plain, "bench_sandbox: sandboxed vs in-process");
    if (sandboxed.sandbox.any()) {
      std::fprintf(stderr, "bench_sandbox: crash-free run counted sandbox anomalies at p=%d\n",
                   parallelism);
      ok = false;
    }

    const double plain_rate =
        plain.elapsed_seconds > 0.0
            ? static_cast<double>(plain.explored) / plain.elapsed_seconds
            : 0.0;
    const double sandbox_rate =
        sandboxed.elapsed_seconds > 0.0
            ? static_cast<double>(sandboxed.explored) / sandboxed.elapsed_seconds
            : 0.0;
    const double overhead_pct = plain_rate > 0.0 && sandbox_rate > 0.0
                                    ? 100.0 * (plain_rate - sandbox_rate) / plain_rate
                                    : 0.0;
    std::printf("  p=%d  %6" PRIu64
                " pairs  in-process %8.0f pairs/s  sandbox %8.0f pairs/s  "
                "overhead %+6.1f%%\n",
                parallelism, plain.explored, plain_rate, sandbox_rate, overhead_pct);

    util::Json row = util::Json::object();
    row["parallelism"] = static_cast<int64_t>(parallelism);
    row["pairs"] = static_cast<int64_t>(plain.explored);
    row["in_process_seconds"] = plain.elapsed_seconds;
    row["in_process_pairs_per_sec"] = plain_rate;
    row["sandbox_seconds"] = sandboxed.elapsed_seconds;
    row["sandbox_pairs_per_sec"] = sandbox_rate;
    row["overhead_pct"] = overhead_pct;
    rows.push_back(std::move(row));
  }

  util::Json doc = util::Json::object();
  doc["bench"] = "sandbox";
  doc["subject"] = "town";
  doc["rounds"] = static_cast<int64_t>(rounds);
  doc["overhead_target_pct"] = static_cast<int64_t>(25);
  doc["rows"] = std::move(rows);
  doc["reports_match"] = ok;

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_sandbox: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "bench_sandbox: sandboxed runs diverged from in-process runs\n");
    return 1;
  }
  return 0;
}
