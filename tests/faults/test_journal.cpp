// Crash-safe run-journal tests: append/load round-trips of every outcome
// shape, torn-tail and out-of-order truncation, the staged create, a damage
// matrix, linear write volume — and the headline robustness property: a run
// resumed from a damaged journal (the on-disk state a SIGKILL leaves behind)
// reproduces the uninterrupted run's verdict, skipping the journaled pairs.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/persist.hpp"
#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::faults {
namespace {

using core::ReplayReport;
using core::RunJournal;
using core::Session;

std::string tmp_journal(const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "erpi_" + name + ".journal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

RunJournal::Record make_record(const std::string& plan, uint64_t ordinal) {
  RunJournal::Record record;
  record.plan = plan;
  record.interleaving = ordinal;
  record.key = "0,1,2";
  return record;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines,
                 const std::string& tail = "") {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  for (const auto& line : lines) out << line << '\n';
  out << tail;
}

// ---------------------------------------------------------------------------
// RunJournal primitive
// ---------------------------------------------------------------------------

TEST(RunJournal, AppendLoadRoundTrip) {
  const std::string path = tmp_journal("roundtrip");
  {
    RunJournal journal = RunJournal::create(path, 0xabcdef0123456789ull);
    RunJournal::Record first = make_record("none", 1);
    RunJournal::Record second = make_record("none", 2);
    second.outcome.violations.push_back({"replicas_converge", "diverged at replica 1"});
    RunJournal::Record third = make_record("drop:1", 1);
    third.outcome.timed_out = true;
    journal.append(first);
    journal.append(second);
    journal.append(third);
    EXPECT_EQ(journal.appended(), 3u);
  }
  const auto loaded = RunJournal::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, 0xabcdef0123456789ull);
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_EQ(loaded->records[0], make_record("none", 1));
  EXPECT_EQ(loaded->records[1].outcome.violations.size(), 1u);
  EXPECT_EQ(loaded->records[1].outcome.violations[0].message, "diverged at replica 1");
  EXPECT_TRUE(loaded->records[2].outcome.timed_out);
}

TEST(RunJournal, EveryOutcomeShapeRoundTrips) {
  using core::InterleavingOutcome;
  using core::RecoveryVerdict;
  InterleavingOutcome violated;
  violated.violations = {{"replicas_converge", "diverged at replica 1"},
                         {"all_ops_succeed", "op 3 failed"}};
  InterleavingOutcome timed_out;
  timed_out.timed_out = true;
  InterleavingOutcome segfault;
  segfault.crashed = true;
  segfault.term_signal = SIGSEGV;
  InterleavingOutcome exited;  // a child that exited cleanly mid-replay
  exited.crashed = true;
  InterleavingOutcome oom;
  oom.oom = true;
  InterleavingOutcome recovered;
  recovered.recovery = RecoveryVerdict{};
  InterleavingOutcome missing;
  missing.recovery = RecoveryVerdict{RecoveryVerdict::Status::MissingEntries, 2, 3};
  InterleavingOutcome diverged;
  diverged.recovery = RecoveryVerdict{RecoveryVerdict::Status::Diverged, 0, 0};
  diverged.violations = {{"durable-log-recovery", "replica 0 diverged"}};
  const std::vector<InterleavingOutcome> shapes = {
      {}, violated, timed_out, segfault, exited, oom, recovered, missing, diverged};

  std::vector<RunJournal::Record> records;
  for (const auto& outcome : shapes) {
    records.push_back({"none", records.size() + 1, "2,0,1", outcome});
  }
  // Through append, and through create's prefix.
  const std::string appended_path = tmp_journal("outcomes_appended");
  {
    RunJournal journal = RunJournal::create(appended_path, 7);
    for (const auto& record : records) journal.append(record);
  }
  const std::string prefix_path = tmp_journal("outcomes_prefix");
  (void)RunJournal::create(prefix_path, 7, records);
  for (const auto& path : {appended_path, prefix_path}) {
    const auto loaded = RunJournal::load(path);
    ASSERT_TRUE(loaded.has_value()) << path;
    ASSERT_EQ(loaded->records.size(), records.size()) << path;
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_TRUE(loaded->records[i] == records[i]) << path << ", shape " << i;
    }
  }
}

TEST(RunJournal, LoadReturnsNulloptForMissingOrHeaderlessFile) {
  EXPECT_FALSE(RunJournal::load(tmp_journal("missing")).has_value());
  const std::string path = tmp_journal("headerless");
  write_lines(path, {"this is not a journal"});
  EXPECT_FALSE(RunJournal::load(path).has_value());
}

TEST(RunJournal, ToleratesTornTail) {
  const std::string path = tmp_journal("torn");
  {
    RunJournal journal = RunJournal::create(path, 42);
    journal.append(make_record("none", 1));
    journal.append(make_record("none", 2));
  }
  // A SIGKILL mid-write leaves a partial trailing line; the valid prefix
  // before it must load intact.
  auto lines = file_lines(path);
  write_lines(path, lines, R"({"plan":"none","il":3,"ke)");
  const auto loaded = RunJournal::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->records.size(), 2u);
  EXPECT_EQ(loaded->records[1].interleaving, 2u);
}

TEST(RunJournal, TruncatesAtPerPlanOrdinalGap) {
  const std::string path = tmp_journal("gap");
  {
    RunJournal journal = RunJournal::create(path, 42);
    journal.append(make_record("none", 1));
  }
  auto lines = file_lines(path);
  // Hand-corrupt the tail: ordinal 3 skips 2, and everything after the gap
  // is discarded even if well-formed.
  lines.push_back(R"({"il":3,"key":"0,1","o":"pass","plan":"none"})");
  lines.push_back(R"({"il":4,"key":"0,1","o":"pass","plan":"none"})");
  write_lines(path, lines);
  const auto loaded = RunJournal::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->records.size(), 1u);
  // Per-plan sequences are independent: a second plan restarts at 1.
  lines = file_lines(path);
  lines.resize(2);  // header + none:1
  lines.push_back(R"({"il":1,"key":"0,1","o":"pass","plan":"drop:1"})");
  write_lines(path, lines);
  const auto reloaded = RunJournal::load(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->records.size(), 2u);
}

TEST(RunJournal, CreateStagesThePrefixAndRenamesAtomically) {
  const std::string path = tmp_journal("create");
  // What a killed run left behind: two records and a torn tail.
  {
    RunJournal journal = RunJournal::create(path, 7);
    journal.append(make_record("none", 1));
    journal.append(make_record("none", 2));
  }
  write_lines(path, file_lines(path), R"({"plan":"none","il":3,"ke)");
  const auto killed = RunJournal::load(path);
  ASSERT_TRUE(killed.has_value());

  RunJournal journal = RunJournal::create(path, 7, killed->records);
  // The tmp staging file never survives a successful create, and the torn
  // tail is gone rather than appended onto.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_EQ(file_lines(path).size(), 3u);  // header + 2 records
  journal.append(make_record("none", 3));
  EXPECT_EQ(journal.appended(), 1u);
  const auto loaded = RunJournal::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->records.size(), 3u);
}

// ---------------------------------------------------------------------------
// Kill + resume through the fault explorer
// ---------------------------------------------------------------------------

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

ReplayReport run_journaled(const std::string& journal_path, int parallelism,
                           uint64_t seed = 0, const CatalogOptions& catalog = {},
                           const RunJournal::StreamFactory& streams = {}) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.random_seed = seed;
  config.resume_journal = journal_path;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  fault_workload(proxy);
  FaultExplorer explorer(session, catalog);
  explorer.set_journal_stream_factory(streams);
  return explorer.run(
      [](proxy::Rdl&) -> core::AssertionList { return {core::replicas_converge({0, 1})}; });
}

TEST(RunJournal, ResumeFromTruncatedJournalReproducesUninterruptedReport) {
  const std::string path = tmp_journal("resume");
  const ReplayReport full = run_journaled(path, 4);
  ASSERT_GT(full.explored, 20u);
  EXPECT_EQ(full.pairs_skipped_from_journal, 0u);
  const auto complete = RunJournal::load(path);
  ASSERT_TRUE(complete.has_value());
  ASSERT_EQ(complete->records.size(), full.explored);

  // Chop the journal to what a SIGKILL partway through would have durably
  // left behind (any line-aligned prefix is reachable: appends are
  // flushed per record).
  const auto lines = file_lines(path);
  for (const size_t keep : {size_t{5}, size_t{13}, lines.size() - 1}) {
    std::vector<std::string> prefix(lines.begin(), lines.begin() + 1 + keep);
    write_lines(path, prefix);
    const ReplayReport resumed = run_journaled(path, 4);
    EXPECT_EQ(resumed.verdict(), full.verdict()) << "keep=" << keep;
    EXPECT_EQ(resumed.pairs_skipped_from_journal, keep) << "keep=" << keep;
  }
}

TEST(RunJournal, ResumeIsParallelismIndependent) {
  // The fingerprint deliberately excludes parallelism: a run journaled at
  // p=1 may resume at p=8 and vice versa.
  const std::string path = tmp_journal("resume_par");
  const ReplayReport full = run_journaled(path, 1);
  const auto lines = file_lines(path);
  std::vector<std::string> prefix(lines.begin(), lines.begin() + 1 + 9);
  write_lines(path, prefix);
  const ReplayReport resumed = run_journaled(path, 8);
  EXPECT_EQ(resumed.verdict(), full.verdict());
  EXPECT_EQ(resumed.pairs_skipped_from_journal, 9u);
}

TEST(RunJournal, FingerprintMismatchStartsFresh) {
  const std::string path = tmp_journal("mismatch");
  const ReplayReport full = run_journaled(path, 4, /*seed=*/0);
  ASSERT_GT(full.explored, 0u);
  // Same journal, different run configuration (seed feeds the fingerprint):
  // the stale journal must be ignored, not merged.
  const ReplayReport other = run_journaled(path, 4, /*seed=*/99);
  EXPECT_EQ(other.pairs_skipped_from_journal, 0u);
  EXPECT_EQ(other.explored, full.explored);  // same universe, fully re-explored
}

TEST(RunJournal, ChangedCatalogOptionsInvalidateTheJournal) {
  // Regression guard: two CatalogOptions can compose the *same* plan catalog
  // (partition_window_length is irrelevant while max_partition_windows == 0),
  // so hashing only the plan keys would let the second configuration silently
  // merge the first one's journal. The fingerprint hashes the options
  // themselves, so the stale journal must be ignored.
  CatalogOptions narrow;
  narrow.max_partition_windows = 0;
  narrow.partition_window_length = 2;
  CatalogOptions wide = narrow;
  wide.partition_window_length = 5;

  const std::string path = tmp_journal("catalog_options");
  const ReplayReport first = run_journaled(path, 4, 0, narrow);
  ASSERT_GT(first.explored, 0u);
  const ReplayReport second = run_journaled(path, 4, 0, wide);
  EXPECT_EQ(second.pairs_skipped_from_journal, 0u);  // not resumed
  EXPECT_EQ(second.explored, first.explored);        // same composed catalog
}

// ---------------------------------------------------------------------------
// Damage matrix: each way a journal can be damaged on disk × what load()
// keeps and what a resumed run skips. Every resume reproduces the
// uninterrupted report and leaves the uninterrupted run's journal behind.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

struct Damage {
  std::string name;
  std::string bytes;             // the damaged journal file
  std::optional<size_t> loaded;  // load()'s record count; nullopt = no header
  size_t skipped = 0;            // pairs_skipped_from_journal on resume
  bool resume = true;            // also run a full resume
};

TEST(RunJournal, DamageMatrix) {
  const std::string path = tmp_journal("damage");
  const ReplayReport full = run_journaled(path, 2);
  const std::string complete = read_file(path);
  // starts[i] is where line i begins (0 = header, i = record i); the last
  // entry is the file size.
  std::vector<size_t> starts{0};
  for (size_t i = 0; i < complete.size(); ++i) {
    if (complete[i] == '\n') starts.push_back(i + 1);
  }
  const size_t records = starts.size() - 2;
  ASSERT_EQ(records, full.explored);
  ASSERT_GE(records, 4u);
  const auto upto = [&](size_t n) { return complete.substr(0, starts[n + 1]); };
  const auto after = [&](size_t n) { return complete.substr(starts[n + 1]); };
  const auto line = [&](size_t i) {
    return complete.substr(starts[i], starts[i + 1] - starts[i]);
  };
  const size_t mid = records / 2;

  std::string bad_key = line(mid);
  bad_key[bad_key.find("\"key\":\"") + 7] = 'x';
  std::string bad_recovery = line(mid);
  bad_recovery.insert(bad_recovery.find("\"o\":"), R"("rk":"bogus",)");
  // The town workload never crashes, so a signal is malformed on any record.
  std::string stray_signal = line(mid);
  stray_signal.insert(stray_signal.find("\"o\":"), R"("sig":9,)");
  // The same records in the field names journals used before they shared
  // the outcome codec: no "o", so the first record ends the valid prefix and
  // the resume starts fresh.
  std::string pre_codec = line(0);
  for (size_t i = 1; i <= records; ++i) {
    const util::Json record = util::Json::parse(line(i)).value();
    util::Json old = util::Json::object();
    old["plan"] = record["plan"];
    old["il"] = record["il"];
    old["key"] = record["key"];
    old["timed_out"] = false;
    util::Json violations = util::Json::array();
    if (record.contains("v")) {
      for (const auto& v : record["v"].as_array()) {
        util::Json violation = util::Json::object();
        violation["assertion"] = v["a"];
        violation["message"] = v["m"];
        violations.push_back(std::move(violation));
      }
    }
    old["violations"] = std::move(violations);
    pre_codec += old.dump() + "\n";
  }
  std::string other_fingerprint = complete;
  char& digit = other_fingerprint[other_fingerprint.find("\"fingerprint\":\"") + 15];
  digit = digit == '0' ? '1' : '0';

  std::vector<Damage> table = {
      {"header only", upto(0), 0, 0},
      {"torn header", complete.substr(0, starts[1] / 2), std::nullopt, 0},
      {"garbage middle line", upto(mid) + "GARBAGE\n" + after(mid), mid, mid},
      {"duplicated record", upto(mid) + line(mid) + after(mid), mid, mid},
      {"corrupted key", upto(mid - 1) + bad_key + after(mid), mid - 1, mid - 1},
      {"unknown recovery name", upto(mid - 1) + bad_recovery + after(mid), mid - 1, mid - 1},
      {"signal on a non-crash", upto(mid - 1) + stray_signal + after(mid), mid - 1, mid - 1},
      {"pre-codec record fields", pre_codec, 0, 0},
      {"fingerprint mismatch", other_fingerprint, records, 0},
  };
  // A torn tail at every byte offset of the last two records. A record whose
  // JSON is whole but lacks its newline still loads. Resume where the cut
  // keeps only the record's first byte and where it drops only its last.
  for (size_t i = records - 1; i <= records; ++i) {
    for (size_t cut = starts[i]; cut < starts[i + 1]; ++cut) {
      const size_t kept = cut == starts[i + 1] - 1 ? i : i - 1;
      const bool resume = cut == starts[i] + 1 || cut == starts[i + 1] - 1;
      table.push_back({"torn at byte " + std::to_string(cut), complete.substr(0, cut), kept,
                       kept, resume});
    }
  }

  for (const auto& damage : table) {
    SCOPED_TRACE(damage.name);
    write_file(path, damage.bytes);
    const auto loaded = RunJournal::load(path);
    ASSERT_EQ(loaded.has_value(), damage.loaded.has_value());
    if (loaded) {
      EXPECT_EQ(loaded->records.size(), *damage.loaded);
    }
    if (!damage.resume) continue;
    const ReplayReport resumed = run_journaled(path, 2);
    EXPECT_EQ(resumed.verdict(), full.verdict());
    EXPECT_EQ(resumed.pairs_skipped_from_journal, damage.skipped);
    EXPECT_EQ(read_file(path), complete);
  }
}

// ---------------------------------------------------------------------------
// Write volume: every journal byte is written once
// ---------------------------------------------------------------------------

struct StreamIo {
  size_t bytes = 0;
  size_t opens = 0;
};

/// Unbuffered pass-through to a file that counts what is written to it.
class CountingBuf : public std::streambuf {
 public:
  CountingBuf(const std::string& path, bool truncate, StreamIo& io) : io_(&io) {
    file_.open(path, std::ios::out | (truncate ? std::ios::trunc : std::ios::app));
    ++io_->opens;
  }
  bool is_open() const { return file_.is_open(); }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::streamsize written = file_.sputn(s, n);
    if (written > 0) io_->bytes += static_cast<size_t>(written);
    return written;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }
  int sync() override { return file_.pubsync(); }

 private:
  std::filebuf file_;
  StreamIo* io_;
};

class CountingStream : public std::ostream {
 public:
  CountingStream(const std::string& path, bool truncate, StreamIo& io)
      : std::ostream(nullptr), buf_(path, truncate, io) {
    rdbuf(&buf_);
    if (!buf_.is_open()) setstate(std::ios::badbit);
  }

 private:
  CountingBuf buf_;
};

RunJournal::StreamFactory counting(StreamIo& io) {
  return [&io](const std::string& path, bool truncate) -> std::unique_ptr<std::ostream> {
    return std::make_unique<CountingStream>(path, truncate, io);
  };
}

TEST(RunJournal, WritesEveryRecordOnce) {
  const std::string path = tmp_journal("write_once");
  StreamIo cold;
  const ReplayReport full = run_journaled(path, 2, 0, {}, counting(cold));
  ASSERT_GT(full.explored, 64u);
  // Two opens: the staged path.tmp, then the append stream.
  EXPECT_EQ(cold.opens, 2u);
  EXPECT_LE(cold.bytes * 10, std::filesystem::file_size(path) * 11);

  // A resume stages the loaded prefix once and appends the rest.
  const auto lines = file_lines(path);
  const size_t keep = lines.size() / 2;
  write_lines(path, std::vector<std::string>(lines.begin(), lines.begin() + 1 + keep),
              lines[1 + keep].substr(0, 9));
  StreamIo resumed_io;
  const ReplayReport resumed = run_journaled(path, 2, 0, {}, counting(resumed_io));
  EXPECT_EQ(resumed.verdict(), full.verdict());
  EXPECT_EQ(resumed.pairs_skipped_from_journal, keep);
  EXPECT_EQ(resumed_io.opens, 2u);
  EXPECT_LE(resumed_io.bytes * 10, std::filesystem::file_size(path) * 11);
  EXPECT_EQ(file_lines(path), lines);
}

}  // namespace
}  // namespace erpi::faults
