// FootprintBank persistence (DESIGN.md §15.5): export/absorb/save/load/seed
// round-trips preserve the learned relation bit-for-bit, torn tail lines are
// tolerated like the store's segments, absorb is monotone, and the fault
// explorer's cold-then-warm cycle through a corpus directory opens the
// sync-trust gate on the second run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/session.hpp"
#include "corpus/footprints.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"

namespace erpi::corpus {
namespace {

using core::Footprint;
using core::IndependenceLearner;

std::string tmp_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "erpi_fpbank_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Footprint fp_writes(std::initializer_list<const char*> keys, bool sync = false) {
  Footprint fp;
  for (const char* key : keys) Footprint::insert_key(fp.writes, key);
  fp.sync = sync;
  return fp;
}

void train(IndependenceLearner& learner) {
  learner.observe("none", 0, fp_writes({"r0/x"}, /*sync=*/true));
  learner.observe("none", 1, fp_writes({"r1/x"}));
  learner.observe("drop", 1, fp_writes({"r1/y"}));
  learner.note_training_run();
  learner.record_verdict(0, 1, true);
  learner.record_verdict(1, 2, false);
}

TEST(DporBank, SaveLoadSeedRoundTripPreservesTheRelation) {
  const std::string dir = tmp_dir("roundtrip");
  const uint64_t fp = 0x5eedf00dULL;
  IndependenceLearner original;
  train(original);

  FootprintBank bank;
  EXPECT_TRUE(bank.absorb(original, fp));
  EXPECT_EQ(bank.entry_count(), 3u);  // (none,0), (none,1), (drop,1)
  EXPECT_EQ(bank.verdict_count(), 2u);
  ASSERT_TRUE(bank.save(dir));

  const FootprintBank loaded = FootprintBank::load(dir);
  EXPECT_EQ(loaded.entry_count(), bank.entry_count());
  EXPECT_EQ(loaded.verdict_count(), bank.verdict_count());
  EXPECT_EQ(loaded.torn_lines(), 0u);

  IndependenceLearner restored;
  EXPECT_EQ(loaded.seed_learner(restored, fp), 3u);
  EXPECT_EQ(restored.relation_digest(), original.relation_digest());
  EXPECT_EQ(restored.runs_observed(0), original.runs_observed(0));
  EXPECT_EQ(restored.verdict(1, 2), std::optional<bool>(false));

  // A different workload fingerprint seeds nothing — banks are namespaced.
  IndependenceLearner other;
  EXPECT_EQ(loaded.seed_learner(other, fp + 1), 0u);
  EXPECT_FALSE(other.trained());
}

TEST(DporBank, TornTailLinesAreSkippedNotFatal) {
  const std::string dir = tmp_dir("torn");
  IndependenceLearner learner;
  train(learner);
  FootprintBank bank;
  (void)bank.absorb(learner, 7);
  ASSERT_TRUE(bank.save(dir));
  {
    std::ofstream out(FootprintBank::path_in(dir), std::ios::app);
    out << "{\"fp\":\"zz\",\"ev\":bad\n";  // torn mid-write
    out << "not json at all\n";
    // Fingerprints are exactly 16 lowercase hex digits: a signed or prefixed
    // one is a damaged line, not another namespace.
    for (const char* fp : {"-1", "0x1f"}) {
      out << R"({"ctx":"none","ev":5,"fp":")" << fp << R"(","r":[],"runs":1,"w":[]})" << '\n';
      out << R"({"a":0,"b":5,"fp":")" << fp << R"(","indep":true})" << '\n';
    }
    out << "{\"fp\":\"7\",\"ctx\":\"none\"";  // truncated record
  }
  const FootprintBank reloaded = FootprintBank::load(dir);
  EXPECT_EQ(reloaded.entry_count(), 3u);
  EXPECT_EQ(reloaded.verdict_count(), 2u);
  EXPECT_GT(reloaded.torn_lines(), 0u);
}

TEST(DporBank, AbsorbIsMonotoneAndReportsChange) {
  IndependenceLearner learner;
  train(learner);
  FootprintBank bank;
  EXPECT_TRUE(bank.absorb(learner, 7));
  EXPECT_FALSE(bank.absorb(learner, 7));  // nothing new: save() skippable
  // Widening the learner makes the next absorb report change again.
  IndependenceLearner wider;
  train(wider);
  wider.observe("none", 0, fp_writes({"r0/extra"}));
  EXPECT_TRUE(bank.absorb(wider, 7));
  EXPECT_FALSE(bank.absorb(learner, 7));  // narrower state: union already held
}

// ---------------------------------------------------------------------------
// Cold-then-warm through the fault explorer
// ---------------------------------------------------------------------------

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

struct SweepResult {
  core::ReplayReport report;
  uint32_t runs_of_event0 = 0;
};

SweepResult run_corpus_sweep(const std::string& corpus_dir) {
  core::Session::Config config;
  // DFS over raw events: ER-pi's event grouping would fold the sync ops into
  // their update's unit and leave nothing for the dynamic oracle to cut.
  config.mode = core::ExplorationMode::Dfs;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.corpus_path = corpus_dir;
  config.dynamic_pruning.enabled = true;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  core::Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("a"));  // e0
  (void)proxy.sync_req(0, 1);                     // e1
  (void)proxy.exec_sync(0, 1);                    // e2
  (void)proxy.update(1, "report", problem("b"));  // e3
  faults::CatalogOptions catalog;  // baseline "none" plan only
  catalog.max_drops = 0;
  catalog.max_duplicates = 0;
  catalog.max_partition_windows = 0;
  catalog.max_crash_restarts = 0;
  faults::FaultExplorer explorer(session, catalog);
  SweepResult result;
  result.report = explorer.run([](proxy::Rdl&) -> core::AssertionList {
    return {core::replicas_converge({0, 1})};
  });
  if (session.dpor_learner() != nullptr) {
    result.runs_of_event0 = session.dpor_learner()->runs_observed(0);
  }
  return result;
}

TEST(DporBank, FaultExplorerColdThenWarmOpensTheSyncTrustGate) {
  const std::string dir = tmp_dir("sweep");

  const SweepResult cold = run_corpus_sweep(dir);
  EXPECT_EQ(cold.runs_of_event0, 1u);  // the priming replay only
  ASSERT_TRUE(std::filesystem::exists(FootprintBank::path_in(dir)));
  const FootprintBank saved = FootprintBank::load(dir);
  EXPECT_EQ(saved.entry_count(), 4u);  // every event, context "none"

  const SweepResult warm = run_corpus_sweep(dir);
  // Bank-seeded run count + this run's priming replay.
  EXPECT_EQ(warm.runs_of_event0, 2u);
  // The sync-trust gate opened: sync-flavoured pairs (e1 with e3) become
  // cuttable, so the warm stream is strictly smaller than the cold one.
  EXPECT_LT(warm.report.explored, cold.report.explored);
  EXPECT_GT(warm.report.explored, 0u);
  // Convergence is a property of the final state, which every member of a
  // trace class shares — cutting commuting duplicates never loses the bug.
  EXPECT_EQ(cold.report.reproduced, warm.report.reproduced);
}

}  // namespace
}  // namespace erpi::corpus
