// corpus::Store tests: append/lookup/reopen durability, byte-stable record
// lines, segment rolling, last-wins overwrite, segment naming (stray files
// left alone, numeric order), compaction (sorted index, segments deleted,
// torn tails, malformed keys, fingerprints and outcomes tolerated),
// recency-based eviction, and fingerprint namespacing.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "corpus/store.hpp"

namespace erpi::corpus {
namespace {

namespace fs = std::filesystem;

std::string tmp_store(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "erpi_corpus_" + name;
  fs::remove_all(dir);
  return dir;
}

Record make_record(uint64_t fp, std::string plan, std::string il,
                   core::InterleavingOutcome outcome = {}) {
  Record record;
  record.fingerprint = fp;
  record.plan = std::move(plan);
  record.il = std::move(il);
  record.outcome = std::move(outcome);
  return record;
}

core::InterleavingOutcome violated(std::string assertion, std::string message) {
  core::InterleavingOutcome outcome;
  outcome.violations.push_back({std::move(assertion), std::move(message)});
  return outcome;
}

core::InterleavingOutcome crashed(int signal) {
  core::InterleavingOutcome outcome;
  outcome.crashed = true;
  outcome.term_signal = signal;
  return outcome;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// Record lines
// ---------------------------------------------------------------------------

TEST(CorpusStore, RecordLinesAreByteStable) {
  // A corpus outlives the binary that wrote it: these are the segment lines
  // earlier builds wrote for each outcome shape, and every build must write
  // exactly them and read each back to the outcome that wrote it.
  using core::RecoveryVerdict;
  core::InterleavingOutcome violation;
  violation.violations = {
      {"replicas_converge", "replicas_converge: diverged \"lamp\" [interleaving 0,1,2]"},
      {"all_ops_succeed", "op 3 failed"}};
  core::InterleavingOutcome oom;
  oom.oom = true;
  core::InterleavingOutcome timed_out;
  timed_out.timed_out = true;
  core::InterleavingOutcome recovered;
  recovered.recovery = RecoveryVerdict{};
  core::InterleavingOutcome missing;
  missing.recovery = RecoveryVerdict{RecoveryVerdict::Status::MissingEntries, 2, 3};
  core::InterleavingOutcome diverged;
  diverged.recovery = RecoveryVerdict{RecoveryVerdict::Status::Diverged, 0, 0};
  core::InterleavingOutcome violation_diverged =
      violated("durable-log-recovery", "replica 0 diverged");
  violation_diverged.recovery = diverged.recovery;

  struct Golden {
    std::string plan;
    core::InterleavingOutcome outcome;
    std::string line;
  };
  const std::vector<Golden> golden = {
      {"none", {}, R"({"fp":"000c0ffee0ddba11","il":"2,0,1,3","o":"pass","plan":"none","seq":1})"},
      {"none", violation,
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,4","o":"violation","plan":"none","seq":1,)"
       R"("v":[{"a":"replicas_converge","m":"replicas_converge: diverged \"lamp\" )"
       R"([interleaving 0,1,2]"},{"a":"all_ops_succeed","m":"op 3 failed"}]})"},
      {"none", crashed(SIGSEGV),
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,5","o":"crashed","plan":"none","seq":1,"sig":11})"},
      {"none", crashed(0),
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,6","o":"crashed","plan":"none","seq":1})"},
      {"none", oom, R"({"fp":"000c0ffee0ddba11","il":"2,0,1,7","o":"oom","plan":"none","seq":1})"},
      {"none", timed_out,
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,8","o":"timed_out","plan":"none","seq":1})"},
      {"torn:r0@6-1", recovered,
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,9","o":"pass","plan":"torn:r0@6-1",)"
       R"("rk":"recovered","seq":1})"},
      {"torn:r0@6-1", missing,
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,10","o":"pass","plan":"torn:r0@6-1",)"
       R"("rc":3,"rf":2,"rk":"missing_entries","seq":1})"},
      {"torn:r0@6-1", diverged,
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,11","o":"pass","plan":"torn:r0@6-1",)"
       R"("rk":"diverged","seq":1})"},
      {"torn:r0@6-1", violation_diverged,
       R"({"fp":"000c0ffee0ddba11","il":"2,0,1,12","o":"violation","plan":"torn:r0@6-1",)"
       R"("rk":"diverged","seq":1,"v":[{"a":"durable-log-recovery","m":"replica 0 diverged"}]})"},
  };
  const uint64_t fp = 0x000c0ffee0ddba11ull;
  const auto il = [](size_t i) { return "2,0,1," + std::to_string(i + 3); };
  const std::string dir = tmp_store("golden");
  StoreOptions options;
  options.auto_compact_segments = 0;
  {
    Store store = Store::open(dir, options);
    for (size_t i = 0; i < golden.size(); ++i) {
      store.append(make_record(fp, golden[i].plan, il(i), golden[i].outcome));
    }
  }
  const auto lines = file_lines(dir + "/seg-000001.jsonl");
  ASSERT_EQ(lines.size(), golden.size() + 1);
  EXPECT_EQ(lines[0], R"({"created_seq":1,"erpi_corpus_segment":1})");
  Store reopened = Store::open(dir, options);
  EXPECT_EQ(reopened.stats().torn_lines, 0u);
  for (size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE(il(i));
    EXPECT_EQ(lines[i + 1], golden[i].line);
    const Record* loaded = reopened.lookup(fp, golden[i].plan, il(i));
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->outcome == golden[i].outcome);
  }
}

TEST(CorpusStore, StopsAtAMalformedOutcomeOrFingerprint) {
  // A record no build writes ends the segment's valid prefix like a torn
  // line: it is never served as a pass, a violation prior or a record under
  // some other fingerprint.
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"violation without violations",
       R"({"fp":"0000000000000001","il":"1,0","o":"violation","plan":"none","seq":1})"},
      {"signal on a pass",
       R"({"fp":"0000000000000001","il":"1,0","o":"pass","plan":"none","seq":1,"sig":9})"},
      {"negative recovery count",
       R"({"fp":"0000000000000001","il":"1,0","o":"pass","plan":"none","rc":-1,)"
       R"("rk":"missing_entries","seq":1})"},
      {"budget_exhausted kind",
       R"({"fp":"0000000000000001","il":"1,0","o":"budget_exhausted","plan":"none","seq":1})"},
      {"signed fingerprint", R"({"fp":"-1","il":"1,0","o":"pass","plan":"none","seq":1})"},
      {"0x fingerprint", R"({"fp":"0x1f","il":"1,0","o":"pass","plan":"none","seq":1})"},
  };
  StoreOptions options;
  options.auto_compact_segments = 0;
  for (const auto& [name, line] : rows) {
    SCOPED_TRACE(name);
    const std::string dir = tmp_store("malformed");
    {
      Store store = Store::open(dir, options);
      store.append(make_record(1, "none", "0,1"));
    }
    {
      std::ofstream out(dir + "/seg-000001.jsonl", std::ios::app);
      out << line << '\n'
          << R"({"fp":"0000000000000001","il":"2,0","o":"pass","plan":"none","seq":1})" << '\n';
    }
    Store store = Store::open(dir, options);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().torn_lines, 1u);
    EXPECT_TRUE(violation_priors(dir).empty());
  }
}

// ---------------------------------------------------------------------------
// Store durability
// ---------------------------------------------------------------------------

TEST(CorpusStore, AppendLookupReopen) {
  const std::string dir = tmp_store("roundtrip");
  {
    Store store = Store::open(dir);
    EXPECT_EQ(store.size(), 0u);
    store.append(make_record(1, "none", "0,1,2"));
    store.append(make_record(1, "drop:1", "0,1,2", crashed(11)));
    store.append(make_record(2, "none", "2,1,0", violated("replicas_converge", "diverged")));
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.stats().appended, 3u);
  }
  Store store = Store::open(dir);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().loaded, 3u);
  const Record* crash = store.lookup(1, "drop:1", "0,1,2");
  ASSERT_NE(crash, nullptr);
  EXPECT_TRUE(crash->outcome.crashed);
  EXPECT_EQ(crash->outcome.term_signal, 11);
  const Record* viol = store.lookup(2, "none", "2,1,0");
  ASSERT_NE(viol, nullptr);
  ASSERT_EQ(viol->outcome.violations.size(), 1u);
  EXPECT_EQ(viol->outcome.violations[0].assertion, "replicas_converge");
  EXPECT_EQ(store.lookup(3, "none", "0,1,2"), nullptr);
}

TEST(CorpusStore, FingerprintsNamespaceRecords) {
  const std::string dir = tmp_store("namespace");
  Store store = Store::open(dir);
  store.append(make_record(0xaaa, "none", "0,1"));
  store.append(make_record(0xbbb, "none", "0,1", violated("conv", "diverged")));
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.lookup(0xaaa, "none", "0,1"), nullptr);
  EXPECT_EQ(store.lookup(0xaaa, "none", "0,1")->outcome, core::InterleavingOutcome{});
  ASSERT_NE(store.lookup(0xbbb, "none", "0,1"), nullptr);
  EXPECT_EQ(store.lookup(0xbbb, "none", "0,1")->outcome, violated("conv", "diverged"));
}

TEST(CorpusStore, LastAppendWins) {
  const std::string dir = tmp_store("lastwins");
  {
    Store store = Store::open(dir);
    store.append(make_record(1, "none", "0,1"));
    store.append(make_record(1, "none", "0,1", violated("conv", "diverged")));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.lookup(1, "none", "0,1")->outcome, violated("conv", "diverged"));
  }
  // The overwrite survives reload (segments replay in order, last wins).
  Store store = Store::open(dir);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.lookup(1, "none", "0,1")->outcome, violated("conv", "diverged"));
}

TEST(CorpusStore, RollsSegmentsAtConfiguredInterval) {
  const std::string dir = tmp_store("roll");
  StoreOptions options;
  options.segment_roll_records = 3;
  options.auto_compact_segments = 0;  // keep segments visible
  Store store = Store::open(dir, options);
  for (int i = 0; i < 8; ++i) {
    store.append(make_record(1, "none", "0," + std::to_string(i)));
  }
  EXPECT_EQ(store.segment_count(), 3u);  // 3 + 3 + 2
  Store reopened = Store::open(dir, options);
  EXPECT_EQ(reopened.size(), 8u);
}

TEST(CorpusStore, ToleratesTornSegmentTail) {
  const std::string dir = tmp_store("torn");
  StoreOptions options;
  options.auto_compact_segments = 0;
  std::string segment;
  {
    Store store = Store::open(dir, options);
    store.append(make_record(1, "none", "0,1"));
    store.append(make_record(1, "none", "1,0"));
    segment = dir + "/seg-000001.jsonl";
  }
  ASSERT_TRUE(fs::exists(segment));
  {
    // A SIGKILL mid-write leaves a partial trailing line.
    std::ofstream out(segment, std::ios::app);
    out << R"({"fp":"0000000000000001","plan":"none","il":"2,)";
  }
  Store store = Store::open(dir, options);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().torn_lines, 1u);
  ASSERT_NE(store.lookup(1, "none", "1,0"), nullptr);
}

TEST(CorpusStore, StopsAtAMalformedInterleavingKey) {
  // Violation priors rebuild interleavings from their keys, so a damaged key
  // ends the segment's valid prefix like any other malformed line.
  const std::string dir = tmp_store("bad_il");
  StoreOptions options;
  options.auto_compact_segments = 0;
  {
    Store store = Store::open(dir, options);
    store.append(make_record(1, "none", "0,1", violated("replicas_converge", "diverged")));
  }
  {
    std::ofstream out(dir + "/seg-000001.jsonl", std::ios::app);
    out << R"({"fp":"0000000000000001","il":"0,x","o":"violation","plan":"none","seq":1,)"
        << R"("v":[{"a":"replicas_converge","m":"diverged"}]})" << '\n';
  }
  Store store = Store::open(dir, options);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().torn_lines, 1u);
  std::vector<core::Interleaving> priors;
  ASSERT_NO_THROW(priors = violation_priors(dir));
  ASSERT_EQ(priors.size(), 1u);
  EXPECT_EQ(priors[0].key(), "0,1");
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(CorpusStore, LeavesStrayFilesAlone) {
  // Only "seg-<digits>.jsonl" names are segments. A stray file that merely
  // looks like one must not abort open(), be loaded, or be deleted by compact.
  const std::string dir = tmp_store("stray");
  fs::create_directories(dir);
  const std::string stray = dir + "/seg-notes.jsonl";
  const std::string content = "operator notes, not a segment\n";
  {
    std::ofstream out(stray, std::ios::binary);
    out << content;
  }
  StoreOptions options;
  options.auto_compact_segments = 0;
  {
    Store store = Store::open(dir, options);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.segment_count(), 0u);
    store.append(make_record(1, "none", "0,1"));
    store.append(make_record(1, "none", "1,0"));
    EXPECT_EQ(store.segment_count(), 1u);
    store.compact();
    EXPECT_EQ(store.segment_count(), 0u);
    store.append(make_record(2, "none", "0,1"));
  }
  Store reopened = Store::open(dir, options);
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_NE(reopened.lookup(1, "none", "1,0"), nullptr);
  EXPECT_NE(reopened.lookup(2, "none", "0,1"), nullptr);
  ASSERT_TRUE(fs::exists(stray));
  EXPECT_EQ(file_bytes(stray), content);
}

TEST(CorpusStore, OrdersSegmentsByNumberPastSixDigits) {
  // seg-1000000 sorts before seg-999999 by name; the last-wins merge must
  // follow the segment number (creation order) instead.
  const std::string dir = tmp_store("seg_order");
  StoreOptions options;
  options.auto_compact_segments = 0;
  {
    Store store = Store::open(dir, options);
    store.append(make_record(1, "none", "0,1"));
  }
  fs::rename(dir + "/seg-000001.jsonl", dir + "/seg-999999.jsonl");
  {
    Store store = Store::open(dir, options);
    store.append(make_record(1, "none", "0,1", violated("conv", "diverged")));
  }
  ASSERT_TRUE(fs::exists(dir + "/seg-1000000.jsonl"));
  Store reopened = Store::open(dir, options);
  ASSERT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.lookup(1, "none", "0,1")->outcome, violated("conv", "diverged"));
}

// ---------------------------------------------------------------------------
// Compaction + eviction
// ---------------------------------------------------------------------------

TEST(CorpusStore, CompactFoldsSegmentsIntoSortedIndex) {
  const std::string dir = tmp_store("compact");
  StoreOptions options;
  options.segment_roll_records = 2;
  options.auto_compact_segments = 0;
  Store store = Store::open(dir, options);
  store.append(make_record(2, "none", "1,0"));
  store.append(make_record(1, "drop:1", "0,1"));
  store.append(make_record(1, "none", "0,1"));
  EXPECT_GE(store.segment_count(), 1u);
  store.compact();
  EXPECT_EQ(store.segment_count(), 0u);
  EXPECT_EQ(store.stats().compactions, 1u);
  EXPECT_FALSE(fs::exists(dir + "/index.jsonl.tmp"));
  // Index lines (after the header) are sorted by (fingerprint, plan, il).
  const auto lines = file_lines(dir + "/index.jsonl");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_LT(lines[1], lines[2]);
  EXPECT_LT(lines[2], lines[3]);
  // Everything is still there — in memory and after reopen.
  EXPECT_EQ(store.size(), 3u);
  store.append(make_record(3, "none", "0,1"));
  Store reopened = Store::open(dir, options);
  EXPECT_EQ(reopened.size(), 4u);
}

TEST(CorpusStore, ForEachSortedVisitsDeterministically) {
  const std::string dir = tmp_store("sorted");
  Store store = Store::open(dir);
  store.append(make_record(2, "none", "1,0"));
  store.append(make_record(1, "drop:1", "0,1"));
  store.append(make_record(1, "none", "0,1"));
  std::vector<std::string> visited;
  store.for_each_sorted([&](const Record& r) { visited.push_back(r.plan + "/" + r.il); });
  const std::vector<std::string> expected = {"drop:1/0,1", "none/0,1", "none/1,0"};
  EXPECT_EQ(visited, expected);
}

TEST(CorpusStore, AutoCompactsWhenSegmentsPileUp) {
  const std::string dir = tmp_store("autocompact");
  StoreOptions options;
  options.segment_roll_records = 1;  // one record per segment
  options.auto_compact_segments = 4;
  for (int run = 0; run < 4; ++run) {
    Store store = Store::open(dir, options);
    store.append(make_record(1, "none", "0," + std::to_string(run)));
  }
  // The 5th open sees >= 4 segments and folds them into the index.
  Store store = Store::open(dir, options);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.segment_count(), 0u);
  EXPECT_TRUE(fs::exists(dir + "/index.jsonl"));
}

TEST(CorpusStore, CompactionEvictsLeastRecentlyConfirmedFirst) {
  const std::string dir = tmp_store("evict");
  StoreOptions options;
  options.max_records = 2;
  options.auto_compact_segments = 0;
  // The interleavings appended in the first, second and third run.
  const std::string old_il = "0,1,2", mid_il = "1,0,2", new_il = "2,1,0";
  Store store = Store::open(dir, options);
  store.append(make_record(1, "none", old_il));
  store.begin_run();
  store.append(make_record(1, "none", mid_il));
  store.begin_run();
  // Re-confirm "old" in the newest epoch: recency refresh must spare it.
  ASSERT_NE(store.lookup(1, "none", old_il), nullptr);
  store.append(make_record(1, "none", new_il));
  store.compact();
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().evicted, 1u);
  EXPECT_EQ(store.lookup(1, "none", mid_il), nullptr);  // least recently confirmed
  EXPECT_NE(store.lookup(1, "none", old_il), nullptr);
  EXPECT_NE(store.lookup(1, "none", new_il), nullptr);
  // The refreshed recency was persisted by the compaction.
  Store reopened = Store::open(dir, options);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_NE(reopened.lookup(1, "none", old_il), nullptr);
}

TEST(CorpusStore, RunEpochsSurviveReopen) {
  const std::string dir = tmp_store("epochs");
  uint64_t first = 0;
  {
    Store store = Store::open(dir);
    first = store.current_seq();
    store.append(make_record(1, "none", "0,1"));
  }
  Store store = Store::open(dir);
  // A later run's epoch is strictly newer than anything persisted before.
  EXPECT_GT(store.current_seq(), first);
  store.for_each_sorted([&](const Record& record) {
    EXPECT_GT(store.current_seq(), record.seq);  // loaded, not yet re-confirmed
  });
}

}  // namespace
}  // namespace erpi::corpus
