// End-to-end corpus integration through the fault explorer: warm reruns skip
// already-proven (interleaving, plan) classes while reproducing the cold
// run's verdict byte-for-byte (at every parallelism),
// fingerprints namespace incompatible configurations apart, and diff mode
// surfaces exactly the outcome flips an injected bug causes.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "corpus/store.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::faults {
namespace {

using core::ReplayReport;
using core::Session;

std::string tmp_corpus(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "erpi_reuse_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

void fault_workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(0, "report", problem("lamp"));
  (void)proxy.sync_req(0, 1);
  (void)proxy.exec_sync(0, 1);
  (void)proxy.update(1, "report", problem("ph"));
  (void)proxy.sync_req(1, 0);
  (void)proxy.exec_sync(1, 0);
  (void)proxy.update(0, "report", problem("otb"));
  (void)proxy.sync_req(0, 1);
  (void)proxy.exec_sync(0, 1);
}

/// TownApp with an injectable integration bug: sync bodies whose text carries
/// problem "ph" are acknowledged but never applied, so interleavings that relied on
/// that sync now diverge. Capture always runs on a clean TownApp — only the
/// replay fixtures change — so the captured events (and the corpus
/// fingerprint) are identical with the bug on or off.
class BuggyTown : public subjects::TownApp {
 public:
  explicit BuggyTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                          const net::Payload& payload) override {
    if (payload.render().find("ph") != std::string::npos) return util::Status::ok();
    return TownApp::apply_sync(from, to, payload);
  }
};

struct SweepResult {
  ReplayReport report;
  corpus::ReuseStats stats;
  corpus::OutcomeDiff diff;
};

SweepResult run_sweep(const std::string& corpus_dir, int parallelism,
                      core::CorpusMode mode = core::CorpusMode::Reuse,
                      bool buggy = false, uint64_t seed = 0,
                      bool stop_on_violation = false) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  config.replay.stop_on_violation = stop_on_violation;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.random_seed = seed;
  config.corpus_path = corpus_dir;
  config.corpus_mode = mode;
  config.subject_factory = [buggy]() -> std::unique_ptr<proxy::Rdl> {
    if (buggy) return std::make_unique<BuggyTown>(2);
    return std::make_unique<subjects::TownApp>(2);
  };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  fault_workload(proxy);
  FaultExplorer explorer(session);
  SweepResult result;
  result.report = explorer.run([](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  });
  result.stats = explorer.corpus_stats();
  result.diff = explorer.outcome_diff();
  return result;
}

// ---------------------------------------------------------------------------
// Reuse mode
// ---------------------------------------------------------------------------

TEST(CorpusReuse, WarmRerunSkipsEverythingWithByteIdenticalReport) {
  const std::string dir = tmp_corpus("warm");
  const SweepResult cold = run_sweep(dir, /*parallelism=*/1);
  ASSERT_GT(cold.report.explored, 20u);
  EXPECT_EQ(cold.stats.hits, 0u);
  EXPECT_EQ(cold.stats.misses, cold.report.explored);
  EXPECT_EQ(cold.stats.appended, cold.report.explored);

  // The corpus fingerprint excludes parallelism, so every worker count
  // reuses the p=1 cold run's records.
  for (const int parallelism : {1, 4}) {
    const std::string label = "p=" + std::to_string(parallelism);
    const SweepResult warm = run_sweep(dir, parallelism);
    EXPECT_EQ(warm.report.verdict(), cold.report.verdict()) << label;
    EXPECT_EQ(warm.stats.hits, cold.report.explored) << label;
    EXPECT_EQ(warm.stats.misses, 0u) << label;
    EXPECT_EQ(warm.stats.appended, 0u) << label;
    // The acceptance floor (>= 95% skipped) holds with margin: 100%.
    EXPECT_GE(warm.stats.hits * 100, (warm.stats.hits + warm.stats.misses) * 95) << label;
  }
}

TEST(CorpusReuse, StopOnViolationWarmRunMatchesCold) {
  const std::string dir = tmp_corpus("stop");
  const SweepResult cold =
      run_sweep(dir, 4, core::CorpusMode::Reuse, false, 0, /*stop=*/true);
  ASSERT_TRUE(cold.report.reproduced);
  const SweepResult warm =
      run_sweep(dir, 4, core::CorpusMode::Reuse, false, 0, /*stop=*/true);
  EXPECT_EQ(warm.report.verdict(), cold.report.verdict());
  // A stopped run commits exactly first_violation_index pairs; the warm run
  // resolves all of them from the corpus.
  EXPECT_EQ(warm.stats.hits, cold.report.explored);
  EXPECT_EQ(warm.stats.appended, 0u);
}

TEST(CorpusReuse, IncompatibleFingerprintMissesTheCorpus) {
  const std::string dir = tmp_corpus("mismatch");
  const SweepResult cold = run_sweep(dir, 1, core::CorpusMode::Reuse, false, /*seed=*/0);
  ASSERT_GT(cold.stats.appended, 0u);
  // Same store, different run configuration (the seed feeds the fingerprint):
  // nothing may be reused, and the store now holds both namespaces.
  const SweepResult other = run_sweep(dir, 1, core::CorpusMode::Reuse, false, /*seed=*/99);
  EXPECT_EQ(other.stats.hits, 0u);
  EXPECT_EQ(other.stats.misses, other.report.explored);
  EXPECT_EQ(other.stats.appended, other.report.explored);
  corpus::Store store = corpus::Store::open(dir);
  EXPECT_EQ(store.size(), cold.stats.appended + other.stats.appended);
}

// ---------------------------------------------------------------------------
// Diff mode
// ---------------------------------------------------------------------------

TEST(CorpusDiff, SurfacesExactlyTheInjectedOutcomeFlips) {
  const std::string dir = tmp_corpus("diff");
  // Cold clean sweep seeds the corpus.
  const SweepResult cold = run_sweep(dir, 4);
  ASSERT_GT(cold.report.explored, 20u);

  // Diff sweep with the bug injected: every pair is replayed (never skipped),
  // every pair has a stored record, and the flipped pairs surface as changes.
  const SweepResult flipped =
      run_sweep(dir, 4, core::CorpusMode::Diff, /*buggy=*/true);
  EXPECT_EQ(flipped.report.explored, cold.report.explored);
  EXPECT_EQ(flipped.stats.hits, 0u);  // diff mode replays everything
  EXPECT_EQ(flipped.diff.missing, 0u);
  EXPECT_EQ(flipped.diff.compared, flipped.report.explored);
  EXPECT_EQ(flipped.diff.unchanged + flipped.diff.changed.size(), flipped.diff.compared);
  ASSERT_TRUE(flipped.diff.any());
  // Every reported change is a genuine behavior difference, and the bug
  // produced at least one outright pass -> violation flip.
  bool saw_pass_to_violation = false;
  for (const auto& change : flipped.diff.changed) {
    EXPECT_FALSE(change.before == change.after) << change.plan;
    saw_pass_to_violation |=
        std::string(core::outcome_kind_name(change.before)) == "pass" &&
        std::string(core::outcome_kind_name(change.after)) == "violation";
  }
  EXPECT_TRUE(saw_pass_to_violation);
  EXPECT_GT(flipped.report.violations, cold.report.violations);

  // Diff mode persists last-wins, so a second buggy diff run is all-quiet...
  const SweepResult settled =
      run_sweep(dir, 4, core::CorpusMode::Diff, /*buggy=*/true);
  EXPECT_FALSE(settled.diff.any());
  EXPECT_EQ(settled.diff.unchanged, settled.diff.compared);
  // ...and reverting the bug reports exactly the same classes flipping back —
  // the mirror property that pins the diff to the injected change and nothing
  // else.
  const SweepResult reverted = run_sweep(dir, 4, core::CorpusMode::Diff);
  auto change_keys = [](const corpus::OutcomeDiff& diff) {
    std::vector<std::string> keys;
    for (const auto& change : diff.changed) keys.push_back(change.plan + "/" + change.il);
    return keys;
  };
  EXPECT_EQ(change_keys(reverted.diff), change_keys(flipped.diff));
  for (size_t i = 0; i < reverted.diff.changed.size() && i < flipped.diff.changed.size();
       ++i) {
    // Each reverted change is the forward change with before/after swapped.
    EXPECT_TRUE(reverted.diff.changed[i].before == flipped.diff.changed[i].after);
    EXPECT_TRUE(reverted.diff.changed[i].after == flipped.diff.changed[i].before);
  }
  // The diff serializes for CI artifacts.
  const util::Json j = reverted.diff.to_json();
  EXPECT_EQ(j["changed"].as_array().size(), reverted.diff.changed.size());
}

TEST(CorpusDiff, RecoveryOnlyChangeIsVisible) {
  // A storage pair whose recovery verdict moved while its kind stayed "pass"
  // is a change, and the serialized diff must show what changed.
  core::InterleavingOutcome before;
  before.recovery = core::RecoveryVerdict{};
  core::InterleavingOutcome after;
  after.recovery = core::RecoveryVerdict{core::RecoveryVerdict::Status::MissingEntries, 3, 1};
  corpus::OutcomeDiff diff;
  diff.changed.push_back({"torn:r0@6-1", "0,1", before, after});
  const util::Json j = diff.to_json();
  ASSERT_EQ(j["changed"].as_array().size(), 1u);
  const util::Json& change = j["changed"].as_array()[0];
  EXPECT_NE(change["before"].dump(), change["after"].dump());
  EXPECT_EQ(change["after"].dump(), R"({"o":"pass","rc":1,"rf":3,"rk":"missing_entries"})");
}

}  // namespace
}  // namespace erpi::faults
