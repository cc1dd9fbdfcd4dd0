// Graceful ENOSPC/EIO degradation of the durable side-channels (ISSUE 9
// satellite): a mid-run write failure in the run journal or the outcome
// corpus must not abort the exploration. The run completes, the report
// carries a structured journal_degraded / corpus_degraded flag, and the
// on-disk file keeps its last good prefix. Failing writes are simulated with
// stream stubs injected through the explorer's StreamFactory seams.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/persist.hpp"
#include "core/session.hpp"
#include "corpus/store.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::faults {
namespace {

using core::ReplayReport;
using core::RunJournal;
using core::Session;

/// streambuf that swallows `budget` bytes, then reports write failure —
/// exactly what an ENOSPC/EIO filesystem does to a buffered stream.
class FailAfterBuf : public std::streambuf {
 public:
  explicit FailAfterBuf(size_t budget) : budget_(budget) {}

 protected:
  int_type overflow(int_type ch) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    if (budget_ == 0) return 0;
    const std::streamsize take = std::min<std::streamsize>(
        n, static_cast<std::streamsize>(budget_));
    budget_ -= static_cast<size_t>(take);
    return take;
  }

 private:
  size_t budget_;
};

class FailAfterStream : public std::ostream {
 public:
  explicit FailAfterStream(size_t budget) : std::ostream(&buf_), buf_(budget) {}

 private:
  FailAfterBuf buf_;
};

std::string tmp_path(const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "erpi_degraded_" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

void small_workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(0, "report", problem("lamp"));
  (void)proxy.sync_req(0, 1);
  (void)proxy.exec_sync(0, 1);
  (void)proxy.update(1, "report", problem("pothole"));
  (void)proxy.sync_req(1, 0);
  (void)proxy.exec_sync(1, 0);
}

struct RunConfig {
  std::string journal_path;
  RunJournal::StreamFactory journal_factory;
  std::string corpus_path;
  corpus::Store::StreamFactory corpus_factory;
};

ReplayReport run_town(const RunConfig& rc) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.resume_journal = rc.journal_path;
  config.corpus_path = rc.corpus_path;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  small_workload(proxy);
  FaultExplorer explorer(session);
  if (rc.journal_factory) explorer.set_journal_stream_factory(rc.journal_factory);
  if (rc.corpus_factory) explorer.set_corpus_stream_factory(rc.corpus_factory);
  return explorer.run(
      [](proxy::Rdl&) -> core::AssertionList { return {core::replicas_converge({0, 1})}; });
}

// ---------------------------------------------------------------------------
// RunJournal primitive
// ---------------------------------------------------------------------------

TEST(DegradedWrites, JournalAppendDegradesInsteadOfThrowing) {
  const std::string path = tmp_path("journal_unit.journal");
  // The staged create (truncate=true) hits the real filesystem so the
  // header and rename commit; the append stream fails after ~one record's
  // worth.
  auto factory = [](const std::string& p, bool truncate) -> std::unique_ptr<std::ostream> {
    if (truncate) {
      return std::make_unique<std::ofstream>(p, std::ios::out | std::ios::trunc);
    }
    return std::make_unique<FailAfterStream>(80);
  };
  RunJournal journal = RunJournal::create(path, 7, {}, factory);
  EXPECT_FALSE(journal.degraded());
  RunJournal::Record record;
  record.plan = "none";
  record.key = "0,1,2";
  for (uint64_t i = 1; i <= 10; ++i) {
    record.interleaving = i;
    journal.append(record);  // must never throw, even once degraded
  }
  EXPECT_TRUE(journal.degraded());
  // The on-disk file keeps its committed prefix (at least the header).
  const auto loaded = RunJournal::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, 7u);
}

TEST(DegradedWrites, JournalCreateStillThrowsWhenHeaderCannotMaterialize) {
  // Degrade-don't-throw is for mid-run failures; an unusable path at create
  // time is a configuration error and must fail loudly.
  auto factory = [](const std::string&, bool) -> std::unique_ptr<std::ostream> {
    return std::make_unique<FailAfterStream>(0);
  };
  EXPECT_THROW(RunJournal::create(tmp_path("journal_nocreate.journal"), 7, {}, factory),
               std::runtime_error);
}

TEST(DegradedWrites, JournalPrefixFailureLeavesTheOldJournalInPlace) {
  const std::string path = tmp_path("journal_prefix.journal");
  std::vector<RunJournal::Record> prefix;
  {
    RunJournal journal = RunJournal::create(path, 7);
    for (uint64_t i = 1; i <= 10; ++i) {
      prefix.push_back({"none", i, "0,1,2", {}});
      journal.append(prefix.back());
    }
  }
  const auto contents = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const std::string before = contents();
  // The staged file takes the header, then fails partway through the prefix.
  auto factory = [](const std::string&, bool truncate) -> std::unique_ptr<std::ostream> {
    return std::make_unique<FailAfterStream>(truncate ? 200 : 0);
  };
  RunJournal journal = RunJournal::create(path, 7, prefix, factory);  // must not throw
  EXPECT_TRUE(journal.degraded());
  journal.append(prefix.front());  // a no-op once degraded
  EXPECT_EQ(contents(), before);
}

// ---------------------------------------------------------------------------
// corpus::Store primitive
// ---------------------------------------------------------------------------

TEST(DegradedWrites, StoreDropsWritesAfterSegmentFailure) {
  const std::string dir = tmp_path("store_unit");
  std::filesystem::remove_all(dir);
  auto factory = [](const std::string&) -> std::unique_ptr<std::ostream> {
    return std::make_unique<FailAfterStream>(0);
  };
  corpus::Store store = corpus::Store::open(dir, {}, factory);
  corpus::Record record;
  record.fingerprint = 42;
  record.plan = "none";
  record.il = "0,1";
  store.append(record);  // segment write fails -> degraded, no throw
  EXPECT_TRUE(store.degraded());
  EXPECT_GE(store.stats().dropped_writes, 1u);
  record.il = "1,0";
  store.append(record);  // swallowed
  EXPECT_GE(store.stats().dropped_writes, 2u);
  // The in-memory view still serves this run.
  EXPECT_NE(store.lookup(42, "none", "1,0"), nullptr);
}

// ---------------------------------------------------------------------------
// Through the fault explorer: report flags, run completes
// ---------------------------------------------------------------------------

TEST(DegradedWrites, ExplorationCompletesWithJournalDegradedFlag) {
  const ReplayReport reference = run_town({});
  ASSERT_GT(reference.explored, 4u);
  EXPECT_FALSE(reference.journal_degraded);

  RunConfig rc;
  rc.journal_path = tmp_path("journal_flag.journal");
  rc.journal_factory = [](const std::string& p,
                          bool truncate) -> std::unique_ptr<std::ostream> {
    if (truncate) {
      return std::make_unique<std::ofstream>(p, std::ios::out | std::ios::trunc);
    }
    return std::make_unique<FailAfterStream>(100);
  };
  const ReplayReport degraded = run_town(rc);
  EXPECT_TRUE(degraded.journal_degraded);
  // Exploration itself is unaffected by the dead journal.
  core::RunVerdict verdict = degraded.verdict();
  verdict.journal_degraded = false;
  EXPECT_EQ(verdict, reference.verdict());
}

TEST(DegradedWrites, ExplorationCompletesWithCorpusDegradedFlag) {
  const std::string dir = tmp_path("corpus_flag");
  std::filesystem::remove_all(dir);
  RunConfig rc;
  rc.corpus_path = dir;
  rc.corpus_factory = [](const std::string&) -> std::unique_ptr<std::ostream> {
    return std::make_unique<FailAfterStream>(0);
  };
  const ReplayReport degraded = run_town(rc);
  EXPECT_TRUE(degraded.corpus_degraded);
  EXPECT_GT(degraded.explored, 4u);

  // And the flag stays off on a healthy store over the same run.
  const std::string healthy_dir = tmp_path("corpus_healthy");
  std::filesystem::remove_all(healthy_dir);
  RunConfig healthy;
  healthy.corpus_path = healthy_dir;
  const ReplayReport ok = run_town(healthy);
  EXPECT_FALSE(ok.corpus_degraded);
  core::RunVerdict verdict = degraded.verdict();
  verdict.corpus_degraded = false;
  EXPECT_EQ(verdict, ok.verdict());
}

}  // namespace
}  // namespace erpi::faults
