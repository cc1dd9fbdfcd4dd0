// corpus::Store tests: outcome taxonomy round-trips, append/lookup/reopen
// durability, segment rolling, last-wins overwrite, segment naming (stray
// files left alone, numeric order), compaction (sorted index, segments
// deleted, torn tails and malformed keys tolerated), recency-based eviction,
// and fingerprint namespacing.
#include <gtest/gtest.h>

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
                   OutcomeKind kind = OutcomeKind::Pass) {
  Record record;
  record.fingerprint = fp;
  record.plan = std::move(plan);
  record.il = std::move(il);
  record.kind = kind;
  return record;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// Outcome taxonomy
// ---------------------------------------------------------------------------

TEST(CorpusRecord, KindNamesRoundTrip) {
  for (const OutcomeKind kind :
       {OutcomeKind::Pass, OutcomeKind::Violation, OutcomeKind::Crashed,
        OutcomeKind::Oom, OutcomeKind::TimedOut, OutcomeKind::BudgetExhausted}) {
    const auto back = outcome_kind_from_name(outcome_kind_name(kind));
    ASSERT_TRUE(back.has_value()) << outcome_kind_name(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(outcome_kind_from_name("nonsense").has_value());
  EXPECT_FALSE(outcome_kind_from_name("").has_value());
}

TEST(CorpusRecord, OutcomeRoundTripsForEveryPerPairKind) {
  core::InterleavingOutcome pass;
  core::InterleavingOutcome violation;
  violation.violations.push_back({"replicas_converge", "diverged at replica 1"});
  violation.violations.push_back({"query_result", "lamp missing"});
  core::InterleavingOutcome crashed;
  crashed.crashed = true;
  crashed.term_signal = 11;
  core::InterleavingOutcome oom;
  oom.oom = true;
  core::InterleavingOutcome timed_out;
  timed_out.timed_out = true;

  for (const auto* original : {&pass, &violation, &crashed, &oom, &timed_out}) {
    const Record record = Record::from_outcome(7, "none", "0,1,2", *original);
    const core::InterleavingOutcome back = record.to_outcome();
    EXPECT_EQ(back.timed_out, original->timed_out);
    EXPECT_EQ(back.crashed, original->crashed);
    EXPECT_EQ(back.term_signal, original->term_signal);
    EXPECT_EQ(back.oom, original->oom);
    ASSERT_EQ(back.violations.size(), original->violations.size());
    for (size_t i = 0; i < back.violations.size(); ++i) {
      EXPECT_EQ(back.violations[i].assertion, original->violations[i].assertion);
      EXPECT_EQ(back.violations[i].message, original->violations[i].message);
    }
  }
}

TEST(CorpusRecord, BudgetExhaustedCarriesNoReplayOutcome) {
  Record record = make_record(1, "none", "0,1", OutcomeKind::BudgetExhausted);
  EXPECT_THROW(record.to_outcome(), std::logic_error);
}

TEST(CorpusRecord, SameOutcomeIgnoresRecency) {
  Record a = make_record(1, "none", "0,1", OutcomeKind::Crashed);
  a.signal = 11;
  Record b = a;
  b.seq = 99;
  EXPECT_TRUE(a.same_outcome(b));
  b.signal = 6;
  EXPECT_FALSE(a.same_outcome(b));
  Record c = make_record(1, "none", "0,1", OutcomeKind::Violation);
  c.violations.push_back({"conv", "diverged"});
  Record d = c;
  EXPECT_TRUE(c.same_outcome(d));
  d.violations[0].message = "diverged differently";
  EXPECT_FALSE(c.same_outcome(d));
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
    Record crash = make_record(1, "drop:1", "0,1,2", OutcomeKind::Crashed);
    crash.signal = 11;
    store.append(crash);
    Record viol = make_record(2, "none", "2,1,0", OutcomeKind::Violation);
    viol.violations.push_back({"replicas_converge", "diverged"});
    store.append(viol);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.stats().appended, 3u);
  }
  Store store = Store::open(dir);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().loaded, 3u);
  const Record* crash = store.lookup(1, "drop:1", "0,1,2");
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->kind, OutcomeKind::Crashed);
  EXPECT_EQ(crash->signal, 11);
  const Record* viol = store.lookup(2, "none", "2,1,0");
  ASSERT_NE(viol, nullptr);
  ASSERT_EQ(viol->violations.size(), 1u);
  EXPECT_EQ(viol->violations[0].assertion, "replicas_converge");
  EXPECT_EQ(store.lookup(3, "none", "0,1,2"), nullptr);
}

TEST(CorpusStore, FingerprintsNamespaceRecords) {
  const std::string dir = tmp_store("namespace");
  Store store = Store::open(dir);
  store.append(make_record(0xaaa, "none", "0,1", OutcomeKind::Pass));
  Record other = make_record(0xbbb, "none", "0,1", OutcomeKind::Violation);
  other.violations.push_back({"conv", "diverged"});
  store.append(other);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.lookup(0xaaa, "none", "0,1"), nullptr);
  EXPECT_EQ(store.lookup(0xaaa, "none", "0,1")->kind, OutcomeKind::Pass);
  ASSERT_NE(store.lookup(0xbbb, "none", "0,1"), nullptr);
  EXPECT_EQ(store.lookup(0xbbb, "none", "0,1")->kind, OutcomeKind::Violation);
}

TEST(CorpusStore, LastAppendWins) {
  const std::string dir = tmp_store("lastwins");
  {
    Store store = Store::open(dir);
    store.append(make_record(1, "none", "0,1", OutcomeKind::Pass));
    Record flipped = make_record(1, "none", "0,1", OutcomeKind::Violation);
    flipped.violations.push_back({"conv", "diverged"});
    store.append(flipped);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.lookup(1, "none", "0,1")->kind, OutcomeKind::Violation);
  }
  // The overwrite survives reload (segments replay in order, last wins).
  Store store = Store::open(dir);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.lookup(1, "none", "0,1")->kind, OutcomeKind::Violation);
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
    Record violation = make_record(1, "none", "0,1", OutcomeKind::Violation);
    violation.violations.push_back({"replicas_converge", "diverged"});
    store.append(violation);
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
    store.append(make_record(1, "none", "0,1", OutcomeKind::Pass));
  }
  fs::rename(dir + "/seg-000001.jsonl", dir + "/seg-999999.jsonl");
  {
    Store store = Store::open(dir, options);
    Record flipped = make_record(1, "none", "0,1", OutcomeKind::Violation);
    flipped.violations.push_back({"conv", "diverged"});
    store.append(flipped);
  }
  ASSERT_TRUE(fs::exists(dir + "/seg-1000000.jsonl"));
  Store reopened = Store::open(dir, options);
  ASSERT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.lookup(1, "none", "0,1")->kind, OutcomeKind::Violation);
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
