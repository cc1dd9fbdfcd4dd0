// Persistent outcome-corpus benchmark: cold vs warm sweep throughput, store
// footprint after compaction, and a large-scale append/compact/query drill.
//
// The sweep section replays the town app's fault universe twice into the same
// corpus directory — cold (every pair replayed and appended) and warm (every
// pair resolved from the store) — across workload sizes × parallelism {1, 4},
// reporting pairs/sec for both runs, the warm skip percentage, and the store's
// record count and on-disk bytes after compaction. The scale section appends
// --scale records (default 1,000,000) through the public API, compacts them
// into the sorted index, reopens the store, and answers a Datalog query over a
// bridge-exported fingerprint slice — the "millions of records stay queryable"
// acceptance drill. Output lands in BENCH_corpus.json (CI uploads it).
//
// --smoke is the CI reuse drill: sweep twice into one store and fail unless
// the warm run skipped >= 95% of pairs with the cold run's verdict,
// then flip an injected integration bug under --corpus diff mode and fail
// unless the diff surfaces that change (and nothing on a quiet re-run).
//
// Usage: bench_corpus [--rounds N] [--scale N] [--out BENCH_corpus.json] [--smoke]
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "corpus/bridge.hpp"
#include "corpus/store.hpp"
#include "datalog/evaluator.hpp"
#include "datalog/parser.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"
#include "verdict_check.hpp"

using namespace erpi;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

/// TownApp with an injectable integration bug (smoke mode's diff target):
/// sync bodies whose text carries problem "p1" are acknowledged but never
/// applied.
class BuggyTown : public subjects::TownApp {
 public:
  explicit BuggyTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                          const net::Payload& payload) override {
    if (payload.render().find("p1") != std::string::npos) return util::Status::ok();
    return TownApp::apply_sync(from, to, payload);
  }
};

struct SweepResult {
  core::ReplayReport report;
  corpus::ReuseStats stats;
  corpus::OutcomeDiff diff;
};

SweepResult run_sweep(size_t rounds, int parallelism, const std::string& corpus_dir,
                      core::CorpusMode mode = core::CorpusMode::Reuse,
                      bool buggy = false) {
  core::Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  for (size_t r = 0; r < rounds; ++r) {
    const int base = static_cast<int>(3 * r);
    config.spec_groups.push_back({base, base + 1, base + 2});
  }
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 1'000'000;
  config.parallelism = parallelism;
  config.corpus_path = corpus_dir;
  config.corpus_mode = mode;
  config.subject_factory = [buggy]() -> std::unique_ptr<proxy::Rdl> {
    if (buggy) return std::make_unique<BuggyTown>(2);
    return std::make_unique<subjects::TownApp>(2);
  };

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
  faults::FaultExplorer explorer(session);
  SweepResult result;
  result.report = explorer.run([](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  });
  result.stats = explorer.corpus_stats();
  result.diff = explorer.outcome_diff();
  return result;
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string fresh_dir(const char* name) {
  const std::string dir = std::string("/tmp/bench_corpus_") + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Scale drill: --scale records through append -> compact -> reopen -> query.
// ---------------------------------------------------------------------------

util::Json run_scale(size_t scale, bool& ok) {
  const std::string dir = fresh_dir("scale");
  corpus::StoreOptions options;
  options.segment_roll_records = 1u << 17;  // keep the segment count civilized
  options.max_records = std::max<size_t>(scale, 1'000'000);

  // A small second fingerprint namespace rides along so the bridge query at
  // the end runs over a bounded slice of an otherwise huge store.
  const size_t slice = std::min<size_t>(scale / 100 + 1, 10'000);
  size_t slice_violations = 0;

  auto start = std::chrono::steady_clock::now();
  double append_seconds = 0.0;
  double compact_seconds = 0.0;
  uint64_t segments_before_compact = 0;
  {
    corpus::Store store = corpus::Store::open(dir, options);
    store.begin_run();
    for (size_t i = 0; i < scale; ++i) {
      corpus::Record record;
      record.fingerprint = i < slice ? 2 : 1;
      record.plan = "drop:" + std::to_string(i % 97);
      record.il = std::to_string(i);
      if (i % 11 == 0) {
        record.outcome.violations.push_back({"replicas_converge", "diverged"});
        if (i < slice) ++slice_violations;
      }
      store.append(std::move(record));
    }
    append_seconds = seconds_since(start);
    segments_before_compact = store.segment_count();

    start = std::chrono::steady_clock::now();
    store.compact();
    compact_seconds = seconds_since(start);
    ok &= store.size() == scale;
    ok &= store.segment_count() == 0;
  }

  start = std::chrono::steady_clock::now();
  corpus::Store reopened = corpus::Store::open(dir, options);
  const double reopen_seconds = seconds_since(start);
  ok &= reopened.size() == scale;

  // Bridge the small namespace and count its violations via a Datalog rule —
  // the store stays queryable after compaction at full size.
  start = std::chrono::steady_clock::now();
  datalog::Database db;
  corpus::DatalogBridge bridge(db);
  const auto stats = bridge.export_store(reopened, /*fingerprint=*/2);
  auto program = datalog::parse_program(
      "slice_viol(Plan, Il) :- violation(Fp, Plan, Il, A).", db.symbols());
  if (program.has_value()) {
    datalog::evaluate(db, program.value());
  } else {
    ok = false;
  }
  const double query_seconds = seconds_since(start);
  const datalog::Relation* rel = db.find("slice_viol");
  const size_t query_rows = rel ? rel->size() : 0;
  ok &= stats.outcome_facts == slice;
  ok &= query_rows == slice_violations;

  std::printf("  scale: %zu records  append %.2fs  compact %.2fs (%" PRIu64
              " segments)  reopen %.2fs  %.1f MB on disk\n",
              scale, append_seconds, compact_seconds, segments_before_compact,
              reopen_seconds, static_cast<double>(dir_bytes(dir)) / 1e6);
  std::printf("  scale query: %zu-record slice bridged in %.2fs, %zu violation rows "
              "(expected %zu)\n",
              slice, query_seconds, query_rows, slice_violations);

  util::Json row = util::Json::object();
  row["records"] = static_cast<int64_t>(scale);
  row["append_seconds"] = append_seconds;
  row["compact_seconds"] = compact_seconds;
  row["segments_before_compact"] = static_cast<int64_t>(segments_before_compact);
  row["reopen_seconds"] = reopen_seconds;
  row["store_bytes"] = static_cast<int64_t>(dir_bytes(dir));
  row["bridge_slice_records"] = static_cast<int64_t>(slice);
  row["bridge_query_seconds"] = query_seconds;
  row["bridge_query_rows"] = static_cast<int64_t>(query_rows);
  std::filesystem::remove_all(dir);
  return row;
}

// ---------------------------------------------------------------------------
// --smoke: reuse + diff acceptance drill for CI.
// ---------------------------------------------------------------------------

int run_smoke(size_t rounds) {
  const std::string dir = fresh_dir("smoke");
  bool ok = true;

  const SweepResult cold = run_sweep(rounds, 4, dir);
  std::printf("  cold: %" PRIu64 " pairs, %" PRIu64 " violations, %" PRIu64
              " appended\n",
              cold.report.explored, cold.report.violations, cold.stats.appended);
  if (cold.report.explored == 0) {
    std::fprintf(stderr, "bench_corpus: cold sweep explored nothing\n");
    return 1;
  }

  const SweepResult warm = run_sweep(rounds, 4, dir);
  const uint64_t total = warm.stats.hits + warm.stats.misses;
  std::printf("  warm: %" PRIu64 "/%" PRIu64 " pairs skipped\n", warm.stats.hits,
              total);
  if (warm.stats.hits * 100 < total * 95) {
    std::fprintf(stderr, "bench_corpus: warm run skipped under 95%%\n");
    ok = false;
  }
  ok &= bench::same_verdict(warm.report, cold.report, "bench_corpus: warm vs cold");

  // Flip the bug under diff mode: the corpus must surface the regression.
  const SweepResult flipped =
      run_sweep(rounds, 4, dir, core::CorpusMode::Diff, /*buggy=*/true);
  std::printf("  diff: %" PRIu64 " compared, %zu changed, %" PRIu64 " unchanged\n",
              flipped.diff.compared, flipped.diff.changed.size(), flipped.diff.unchanged);
  if (!flipped.diff.any() || flipped.diff.compared != flipped.report.explored ||
      flipped.diff.missing != 0) {
    std::fprintf(stderr, "bench_corpus: diff mode missed the injected bug\n");
    ok = false;
  }
  bool saw_pass_to_violation = false;
  for (const auto& change : flipped.diff.changed) {
    saw_pass_to_violation |=
        std::string(core::outcome_kind_name(change.before)) == "pass" &&
        std::string(core::outcome_kind_name(change.after)) == "violation";
  }
  if (!saw_pass_to_violation) {
    std::fprintf(stderr, "bench_corpus: no pass->violation flip in the diff\n");
    ok = false;
  }

  // Diff persists last-wins: the same buggy sweep again reports nothing.
  const SweepResult settled =
      run_sweep(rounds, 4, dir, core::CorpusMode::Diff, /*buggy=*/true);
  if (settled.diff.any()) {
    std::fprintf(stderr, "bench_corpus: settled diff run still reported changes\n");
    ok = false;
  }

  std::filesystem::remove_all(dir);
  std::printf("bench_corpus --smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t rounds = 4;
  size_t scale = 1'000'000;
  std::string out_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::stoull(argv[++i]);
    }
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::stoull(argv[++i]);
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) return run_smoke(std::max<size_t>(rounds, 3));

  std::printf("=== Outcome corpus: cold vs warm sweeps ===\n\n");
  bool ok = true;
  util::Json rows = util::Json::array();
  for (const size_t workload : {size_t{3}, rounds}) {
    for (const int parallelism : {1, 4}) {
      const std::string dir = fresh_dir(
          ("sweep_" + std::to_string(workload) + "_" + std::to_string(parallelism))
              .c_str());
      const SweepResult cold = run_sweep(workload, parallelism, dir);
      const SweepResult warm = run_sweep(workload, parallelism, dir);
      ok &= bench::same_verdict(warm.report, cold.report, "bench_corpus: warm vs cold");
      const uint64_t total = warm.stats.hits + warm.stats.misses;
      const double skipped_pct =
          total > 0 ? 100.0 * static_cast<double>(warm.stats.hits) /
                          static_cast<double>(total)
                    : 0.0;
      ok &= warm.stats.hits * 100 >= total * 95;

      corpus::Store store = corpus::Store::open(dir);
      store.compact();
      const uint64_t bytes = dir_bytes(dir);

      const double cold_rate = cold.report.elapsed_seconds > 0.0
                                   ? static_cast<double>(cold.report.explored) /
                                         cold.report.elapsed_seconds
                                   : 0.0;
      const double warm_rate = warm.report.elapsed_seconds > 0.0
                                   ? static_cast<double>(warm.report.explored) /
                                         warm.report.elapsed_seconds
                                   : 0.0;
      std::printf("  %zu rounds  p=%d  %6" PRIu64
                  " pairs  cold %8.0f pairs/s  warm %8.0f pairs/s  %5.1f%% skipped"
                  "  %6" PRIu64 " B compacted\n",
                  workload, parallelism, cold.report.explored, cold_rate, warm_rate,
                  skipped_pct, bytes);

      util::Json row = util::Json::object();
      row["rounds"] = static_cast<int64_t>(workload);
      row["parallelism"] = static_cast<int64_t>(parallelism);
      row["pairs"] = static_cast<int64_t>(cold.report.explored);
      row["violations"] = static_cast<int64_t>(cold.report.violations);
      row["cold_seconds"] = cold.report.elapsed_seconds;
      row["cold_pairs_per_sec"] = cold_rate;
      row["warm_seconds"] = warm.report.elapsed_seconds;
      row["warm_pairs_per_sec"] = warm_rate;
      row["skipped_pct"] = skipped_pct;
      row["store_records"] = static_cast<int64_t>(store.size());
      row["store_bytes"] = static_cast<int64_t>(bytes);
      rows.push_back(std::move(row));
      std::filesystem::remove_all(dir);
    }
  }

  std::printf("\n=== Outcome corpus: scale drill ===\n\n");
  util::Json scale_row = run_scale(scale, ok);

  util::Json doc = util::Json::object();
  doc["bench"] = "corpus";
  doc["subject"] = "town";
  doc["rounds"] = static_cast<int64_t>(rounds);
  doc["rows"] = std::move(rows);
  doc["scale"] = std::move(scale_row);
  doc["warm_runs_match"] = ok;

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_corpus: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "bench_corpus: warm/scale invariants failed\n");
    return 1;
  }
  return 0;
}
