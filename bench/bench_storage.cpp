// Storage-fault exploration sweep (DESIGN.md §13): durable-log damage plans
// over the Roshi subject — pairs/sec across catalog shapes and worker counts,
// plus the recovery-verdict histogram (recovered / missing_entries /
// diverged) each sweep produced. Output lands in BENCH_storage.json (CI
// uploads it as an artifact).
//
// --smoke is the storage-family acceptance drill, exercised by CI:
//   1. determinism — the storage sweep's verdict (recovery counters included)
//      is identical across parallelism {1, 4};
//   2. structured verdicts — the honest subject's sweep is violation-free
//      with a non-empty verdict histogram and zero diverged recoveries;
//   3. planted bugs — Roshi-S1 and OrbitDB-S1 reproduce as
//      "durable-log-recovery" violations under their storage catalogs, and
//      do NOT reproduce when the storage sweeps are stripped.
//
// Usage: bench_storage [--rounds N] [--out BENCH_storage.json] [--smoke]
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bugs/registry.hpp"
#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "subjects/roshi.hpp"
#include "verdict_check.hpp"

using namespace erpi;

namespace {

util::Json member_args(const std::string& member, double ts) {
  util::Json j = util::Json::object();
  j["key"] = "s";
  j["member"] = member;
  j["ts"] = ts;
  return j;
}

struct RunResult {
  core::ReplayReport report;
  size_t plans = 0;
};

/// `rounds` insert-then-sync units alternating between two Roshi replicas,
/// explored under the given plan catalog at the given parallelism.
RunResult run_sweep(size_t rounds, int parallelism, const faults::CatalogOptions& catalog) {
  core::Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  for (size_t r = 0; r < rounds; ++r) {
    const int base = static_cast<int>(3 * r);
    config.spec_groups.push_back({base, base + 1, base + 2});
  }
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 1'000'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::Roshi>(2); };

  subjects::Roshi roshi(2);
  proxy::RdlProxy proxy(roshi);
  core::Session session(proxy, std::move(config));
  session.start();
  for (size_t r = 0; r < rounds; ++r) {
    const net::ReplicaId from = static_cast<net::ReplicaId>(r % 2);
    (void)proxy.update(from, "insert",
                       member_args("m" + std::to_string(r), 1.0 + static_cast<double>(r)));
    (void)proxy.sync_req(from, 1 - from);
    (void)proxy.exec_sync(from, 1 - from);
  }
  faults::FaultExplorer explorer(session, catalog);
  RunResult result;
  result.report = explorer.run([](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  });
  result.plans = explorer.catalog().size();
  return result;
}

faults::CatalogOptions catalog_for(const std::string& shape) {
  faults::CatalogOptions catalog;
  catalog.max_drops = 0;
  catalog.max_duplicates = 0;
  catalog.max_partition_windows = 0;
  catalog.max_crash_restarts = 0;
  if (shape == "storage" || shape == "mixed") {
    catalog.max_torn_tails = 2;
    catalog.torn_tail_entries = 1;
    catalog.max_drop_log_entries = 2;
    catalog.max_duplicate_segments = 2;
    catalog.max_stale_snapshot_recoveries = 2;
  }
  if (shape == "mixed") catalog.max_crash_restarts = 2;
  return catalog;  // "baseline" = the fault-free none plan only
}

// ---------------------------------------------------------------------------
// --smoke: determinism matrix + structured verdicts + planted-bug gating
// ---------------------------------------------------------------------------

bool smoke_planted_bug(const std::string& name) {
  const auto& bug = bugs::find_bug(name);
  if (!bug.storage_catalog) {
    std::fprintf(stderr, "bench_storage: %s has no storage catalog\n", name.c_str());
    return false;
  }
  const auto seeded = bugs::run_bug(bug, core::ExplorationMode::ErPi);
  bool ok = true;
  if (!seeded.report.reproduced ||
      seeded.report.first_violation_assertion != "durable-log-recovery" ||
      seeded.report.recoveries_diverged == 0) {
    std::fprintf(stderr, "bench_storage: %s did not reproduce under its storage catalog\n",
                 name.c_str());
    ok = false;
  } else {
    std::printf("  %s: reproduced under plan %s (%" PRIu64 " diverged recoveries)\n",
                name.c_str(), seeded.report.first_violation_plan.c_str(),
                seeded.report.recoveries_diverged);
  }

  bugs::BugScenario stripped = bug;
  stripped.storage_catalog->max_torn_tails = 0;
  stripped.storage_catalog->max_drop_log_entries = 0;
  stripped.storage_catalog->max_duplicate_segments = 0;
  stripped.storage_catalog->max_stale_snapshot_recoveries = 0;
  const auto clean = bugs::run_bug(stripped, core::ExplorationMode::ErPi);
  if (clean.report.reproduced || clean.report.recoveries_diverged != 0) {
    std::fprintf(stderr,
                 "bench_storage: %s reproduced WITHOUT storage plans in the catalog\n",
                 name.c_str());
    ok = false;
  } else {
    std::printf("  %s: clean without storage plans\n", name.c_str());
  }
  return ok;
}

int run_smoke(size_t rounds) {
  bool ok = true;
  const faults::CatalogOptions catalog = catalog_for("mixed");

  const RunResult baseline = run_sweep(rounds, 1, catalog);
  std::printf("  baseline p=1: %" PRIu64 " pairs across %zu plans, verdicts %" PRIu64
              " recovered / %" PRIu64 " missing / %" PRIu64 " diverged\n",
              baseline.report.explored, baseline.plans, baseline.report.recoveries_clean,
              baseline.report.recoveries_missing_entries,
              baseline.report.recoveries_diverged);
  // Torn/spliced entries are genuinely lost, so convergence assertions may
  // legitimately fire — the storage contract is that nothing diverges
  // *silently*: zero diverged verdicts, no durable-log-recovery violations.
  if (baseline.report.recoveries_diverged != 0 ||
      baseline.report.first_violation_assertion == "durable-log-recovery") {
    std::fprintf(stderr, "bench_storage: honest subject silently diverged\n");
    ok = false;
  }
  if (baseline.report.recoveries_clean + baseline.report.recoveries_missing_entries == 0) {
    std::fprintf(stderr, "bench_storage: storage sweep produced no recovery verdicts\n");
    ok = false;
  }
  ok &= bench::same_verdict(run_sweep(rounds, 4, catalog).report, baseline.report,
                            "bench_storage: p=4 vs p=1");
  std::printf("  determinism matrix: %s\n", ok ? "identical" : "DIVERGED");

  ok &= smoke_planted_bug("Roshi-S1");
  ok &= smoke_planted_bug("OrbitDB-S1");

  std::printf("bench_storage --smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t rounds = 3;
  std::string out_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::stoull(argv[++i]);
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) return run_smoke(rounds);

  std::printf("=== Storage-fault exploration sweep (%zu sync rounds) ===\n\n", rounds);
  util::Json rows = util::Json::array();
  bool ok = true;
  for (const char* shape : {"baseline", "storage", "mixed"}) {
    const faults::CatalogOptions catalog = catalog_for(shape);
    core::ReplayReport reference;
    for (const int parallelism : {1, 4}) {
      const RunResult run = run_sweep(rounds, parallelism, catalog);
      if (parallelism == 1) {
        reference = run.report;
      } else {
        ok &= bench::same_verdict(run.report, reference,
                                  ("bench_storage: " + std::string(shape) + " p=4 vs p=1").c_str());
      }

      const double pairs_per_sec =
          run.report.elapsed_seconds > 0.0
              ? static_cast<double>(run.report.explored) / run.report.elapsed_seconds
              : 0.0;
      std::printf("  %-8s catalog (%2zu plans)  p=%d  %6" PRIu64 " pairs  %8.0f pairs/s"
                  "  verdicts %" PRIu64 "/%" PRIu64 "/%" PRIu64 "\n",
                  shape, run.plans, parallelism, run.report.explored, pairs_per_sec,
                  run.report.recoveries_clean, run.report.recoveries_missing_entries,
                  run.report.recoveries_diverged);

      util::Json row = util::Json::object();
      row["catalog"] = std::string(shape);
      row["plans"] = static_cast<int64_t>(run.plans);
      row["parallelism"] = static_cast<int64_t>(parallelism);
      row["pairs"] = static_cast<int64_t>(run.report.explored);
      row["violations"] = static_cast<int64_t>(run.report.violations);
      row["recoveries_clean"] = static_cast<int64_t>(run.report.recoveries_clean);
      row["recoveries_missing_entries"] =
          static_cast<int64_t>(run.report.recoveries_missing_entries);
      row["recoveries_diverged"] = static_cast<int64_t>(run.report.recoveries_diverged);
      row["seconds"] = run.report.elapsed_seconds;
      row["pairs_per_sec"] = pairs_per_sec;
      rows.push_back(std::move(row));
    }
  }

  util::Json doc = util::Json::object();
  doc["bench"] = "storage";
  doc["subject"] = "roshi";
  doc["rounds"] = static_cast<int64_t>(rounds);
  doc["rows"] = std::move(rows);
  doc["parallel_runs_match"] = ok;

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_storage: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "bench_storage: parallel runs diverged from sequential runs\n");
    return 1;
  }
  return 0;
}
