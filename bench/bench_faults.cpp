// Fault-schedule exploration sweep: (interleaving, plan) throughput across
// catalog sizes and worker counts, and the cost of the crash-safe run
// journal.
//
// For each catalog size (small/medium/large plan budgets) × parallelism
// {1, 4, 8} the sweep replays the town app's universe under every plan twice
// — once without a journal and once journaling every pair — and reports
// pairs/sec plus the journal's overhead percentage. Output lands in
// BENCH_faults.json (CI uploads it as an artifact).
//
// --smoke is the kill-resume drill: the uninterrupted journaled run executes
// in-process, then a fork()ed child repeats it against a second journal and
// is SIGKILLed mid-exploration (the parent watches the journal grow to pick
// the moment). The parent resumes from the killed child's journal and exits
// non-zero unless the resumed run reaches the uninterrupted run's verdict
// with at least the journaled pairs skipped.
//
// Usage: bench_faults [--rounds N] [--out BENCH_faults.json] [--smoke]
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/persist.hpp"
#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"
#include "verdict_check.hpp"

using namespace erpi;

namespace {

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

struct RunResult {
  core::ReplayReport report;
  size_t plans = 0;
};

/// `rounds` report-then-sync units across two replicas (op-based OR-Set sync
/// converges under every fault-free interleaving), explored under the given
/// plan catalog. An empty journal path disables journaling.
RunResult run_sweep(size_t rounds, int parallelism, const faults::CatalogOptions& catalog,
                    const std::string& journal_path) {
  core::Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  for (size_t r = 0; r < rounds; ++r) {
    const int base = static_cast<int>(3 * r);
    config.spec_groups.push_back({base, base + 1, base + 2});
  }
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 1'000'000;
  config.parallelism = parallelism;
  config.resume_journal = journal_path;
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
  faults::FaultExplorer explorer(session, catalog);
  RunResult result;
  result.report = explorer.run([](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  });
  result.plans = explorer.catalog().size();
  return result;
}

faults::CatalogOptions catalog_for(const std::string& size) {
  faults::CatalogOptions catalog;
  if (size == "small") {
    catalog.max_drops = 1;
    catalog.max_duplicates = 1;
    catalog.max_partition_windows = 1;
    catalog.max_crash_restarts = 0;
  } else if (size == "large") {
    catalog.max_partition_windows = 8;
    catalog.max_plans = 64;
  }
  return catalog;  // "medium" = defaults
}

// ---------------------------------------------------------------------------
// --smoke: SIGKILL a journaled run mid-exploration, resume, compare.
// ---------------------------------------------------------------------------

size_t journal_records(const std::string& path) {
  const auto loaded = core::RunJournal::load(path);
  return loaded ? loaded->records.size() : 0;
}

int run_smoke(size_t rounds) {
  const std::string dir = "/tmp";
  const std::string full_path = dir + "/bench_faults_full.journal";
  const std::string killed_path = dir + "/bench_faults_killed.journal";
  for (const auto& p : {full_path, killed_path}) {
    std::remove(p.c_str());
    std::remove((p + ".tmp").c_str());
  }
  const faults::CatalogOptions catalog = catalog_for("medium");

  // Reference: the uninterrupted journaled run.
  const RunResult full = run_sweep(rounds, 2, catalog, full_path);
  std::printf("  uninterrupted: %" PRIu64 " pairs across %zu plans, %" PRIu64
              " violations\n",
              full.report.explored, full.plans, full.report.violations);

  // The victim: same run against a second journal, SIGKILLed once the
  // parent sees a healthy chunk of pairs journaled but well short of all.
  const size_t kill_after = full.report.explored / 4;
  const pid_t child = fork();
  if (child < 0) {
    std::perror("bench_faults: fork");
    return 2;
  }
  if (child == 0) {
    (void)run_sweep(rounds, 2, catalog, killed_path);
    _exit(0);  // only reached if the kill raced the run's end
  }
  bool killed = false;
  for (int spin = 0; spin < 20'000; ++spin) {  // ≤ 20 s safety net
    if (journal_records(killed_path) >= kill_after) {
      kill(child, SIGKILL);
      killed = true;
      break;
    }
    int status = 0;
    if (waitpid(child, &status, WNOHANG) == child) break;  // finished early
    usleep(1'000);
  }
  if (killed) {
    int status = 0;
    waitpid(child, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      std::fprintf(stderr, "bench_faults: child was not SIGKILLed as intended\n");
    }
  }
  const size_t journaled = journal_records(killed_path);
  std::printf("  child %s with %zu pairs journaled (kill threshold %zu)\n",
              killed ? "SIGKILLed" : "finished before the kill", journaled, kill_after);
  if (journaled == 0) {
    std::fprintf(stderr, "bench_faults: killed child journaled nothing\n");
    return 1;
  }

  // Resume from whatever the kill left behind.
  const RunResult resumed = run_sweep(rounds, 2, catalog, killed_path);
  std::printf("  resumed: %" PRIu64 " pairs (%" PRIu64 " skipped from journal)\n",
              resumed.report.explored, resumed.report.pairs_skipped_from_journal);

  bool ok = bench::same_verdict(resumed.report, full.report, "bench_faults: resumed vs full");
  if (resumed.report.pairs_skipped_from_journal < journaled) {
    std::fprintf(stderr,
                 "bench_faults: resume replayed journaled work (skipped %" PRIu64
                 " < journaled %zu)\n",
                 resumed.report.pairs_skipped_from_journal, journaled);
    ok = false;
  }
  std::printf("bench_faults --smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t rounds = 4;
  std::string out_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::stoull(argv[++i]);
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) return run_smoke(std::max<size_t>(rounds, 5));

  std::printf("=== Fault-schedule exploration sweep (%zu sync rounds) ===\n\n", rounds);
  const std::string journal_path = "/tmp/bench_faults_sweep.journal";
  util::Json rows = util::Json::array();
  bool ok = true;
  for (const char* size : {"small", "medium", "large"}) {
    const faults::CatalogOptions catalog = catalog_for(size);
    for (const int parallelism : {1, 4, 8}) {
      const RunResult plain = run_sweep(rounds, parallelism, catalog, "");
      std::remove(journal_path.c_str());
      const RunResult journaled = run_sweep(rounds, parallelism, catalog, journal_path);
      ok &= bench::same_verdict(journaled.report, plain.report,
                                "bench_faults: journaled vs plain");

      const double pairs_per_sec =
          plain.report.elapsed_seconds > 0.0
              ? static_cast<double>(plain.report.explored) / plain.report.elapsed_seconds
              : 0.0;
      const double overhead_pct =
          plain.report.elapsed_seconds > 0.0
              ? 100.0 * (journaled.report.elapsed_seconds - plain.report.elapsed_seconds) /
                    plain.report.elapsed_seconds
              : 0.0;
      std::printf("  %-6s catalog (%2zu plans)  p=%d  %6" PRIu64
                  " pairs  %8.0f pairs/s  journal %+6.1f%%\n",
                  size, plain.plans, parallelism, plain.report.explored, pairs_per_sec,
                  overhead_pct);

      util::Json row = util::Json::object();
      row["catalog"] = std::string(size);
      row["plans"] = static_cast<int64_t>(plain.plans);
      row["parallelism"] = static_cast<int64_t>(parallelism);
      row["pairs"] = static_cast<int64_t>(plain.report.explored);
      row["violations"] = static_cast<int64_t>(plain.report.violations);
      row["seconds"] = plain.report.elapsed_seconds;
      row["pairs_per_sec"] = pairs_per_sec;
      row["journal_seconds"] = journaled.report.elapsed_seconds;
      row["journal_overhead_pct"] = overhead_pct;
      rows.push_back(std::move(row));
    }
  }
  std::remove(journal_path.c_str());

  util::Json doc = util::Json::object();
  doc["bench"] = "faults";
  doc["subject"] = "town";
  doc["rounds"] = static_cast<int64_t>(rounds);
  doc["rows"] = std::move(rows);
  doc["journaled_runs_match"] = ok;

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_faults: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "bench_faults: journaled runs diverged from plain runs\n");
    return 1;
  }
  return 0;
}
