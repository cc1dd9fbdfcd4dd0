// Cross-run persistent outcome corpus (DESIGN.md §11).
//
// A corpus::Store remembers what prior explorations proved: one Record per
// (run-configuration fingerprint, fault-plan key, interleaving key) class,
// carrying the replay outcome (core::InterleavingOutcome) — pass, violation
// (with the assertion messages), crashed{signal}, oom or timed_out, plus any
// recovery verdict. Where the RunJournal survives a single resumed run, the
// corpus survives across runs and machines: CI fleets and nightly sweeps
// that re-explore the same universe skip already-proven classes (reuse mode)
// or detect regressions as outcome *diffs* against the accumulated history
// (diff mode) instead of re-proving millions of pairs from scratch.
//
// On-disk layout (a directory):
//   seg-000001.jsonl ...  append-only segment files. Line 1 is a header
//                         {"erpi_corpus_segment":1,"created_seq":N}; every
//                         further line is one Record — "fp", "plan", "il",
//                         "seq" plus the outcome codec's fields
//                         (core::outcome_to_json) — written and flushed
//                         per append (a SIGKILL can at worst tear the
//                         trailing line of the newest segment). A segment
//                         rolls over after `segment_roll_records` appends.
//   index.jsonl           the compacted form: all records, deduplicated
//                         last-wins and sorted by (fingerprint, plan, il),
//                         written to a temp file and atomically renamed.
//                         compact() folds every segment into the index and
//                         deletes the segments, so the directory stays
//                         O(index + recent appends) even after millions of
//                         records.
//
// Recency + eviction: every record carries the sequence number of the last
// run that proved or re-confirmed it (lookup hits refresh it in memory;
// compaction persists the refresh). When the store exceeds `max_records`,
// compaction evicts least-recently-confirmed records first — outcomes for
// run configurations nobody sweeps anymore age out, the live fleet's
// namespaces survive.
//
// Thread contract: a Store is confined to the exploration control threads —
// the scheduler's dispatcher consults lookup() and the committer appends,
// both under the explorer's enumerator mutex (see sched::ExplorerOptions::
// outcome_cache). The Store itself takes no locks.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/replay.hpp"

namespace erpi::corpus {

/// One proven (interleaving, plan) class under one run-configuration
/// fingerprint.
struct Record {
  uint64_t fingerprint = 0;  // corpus fingerprint (faults::run_fingerprint)
  std::string plan;          // FaultPlan::key()
  std::string il;            // Interleaving::key()
  core::InterleavingOutcome outcome;
  /// Sequence of the run that last proved or re-confirmed this record
  /// (eviction recency; see Store::begin_run).
  uint64_t seq = 0;

  bool operator==(const Record&) const = default;
};

struct StoreOptions {
  /// Records per segment before rolling to a fresh file.
  size_t segment_roll_records = 64;
  /// Eviction cap enforced at compaction (0 = unbounded): when the store
  /// holds more records, the least-recently-confirmed are dropped first.
  size_t max_records = 1'000'000;
  /// open() compacts eagerly when the directory has accumulated at least
  /// this many segments, so repeated short runs cannot grow the directory
  /// without bound. 0 disables auto-compaction on open.
  size_t auto_compact_segments = 8;
};

struct StoreStats {
  uint64_t loaded = 0;     // records read back at open()
  uint64_t appended = 0;   // records written this session
  uint64_t evicted = 0;    // records dropped by compaction eviction
  uint64_t compactions = 0;
  uint64_t torn_lines = 0;  // malformed tails skipped at open()
  uint64_t dropped_writes = 0;  // appends swallowed after the store degraded
};

class Store {
 public:
  /// Test seam for write-fault injection: builds the segment stream appends
  /// go through. The default opens a real std::ofstream; tests substitute a
  /// stream whose writes start failing after N bytes (ENOSPC/EIO stand-in).
  using StreamFactory = std::function<std::unique_ptr<std::ostream>(const std::string& path)>;

  /// Open (creating the directory if needed) and load the index plus every
  /// segment, last-wins. Auto-compacts per StoreOptions::auto_compact_segments.
  static Store open(std::string dir, StoreOptions options = {},
                    StreamFactory stream_factory = {});

  Store(Store&&) = default;
  Store& operator=(Store&&) = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Start a run epoch: returns a fresh sequence number stamped on every
  /// record appended or re-confirmed (lookup hit) until the next begin_run.
  /// Opening a store starts an implicit first epoch.
  uint64_t begin_run();

  /// The proven record for this class, or nullptr. A hit refreshes the
  /// record's recency to the current epoch (persisted at the next
  /// compaction), which is what keeps actively-reused namespaces out of the
  /// eviction shortlist.
  const Record* lookup(uint64_t fingerprint, const std::string& plan,
                       const std::string& il);

  /// Insert or overwrite (last-wins) the class's record, stamped with the
  /// current epoch, written and flushed to the active segment before
  /// returning. A segment write failure (ENOSPC, EIO, ...) does NOT throw:
  /// the store flips to degraded, keeps serving the in-memory map for the
  /// rest of the run, and stops persisting — the disk keeps whatever prefix
  /// made it out. The fault explorer surfaces this as
  /// ReplayReport::corpus_degraded.
  void append(Record record);

  /// True once any segment or index write failed; persistence is off.
  bool degraded() const noexcept { return degraded_; }

  /// Fold index + segments into a fresh sorted index.jsonl (atomic rename),
  /// evict past max_records, delete the segments.
  void compact();

  /// compact() only when the segment count or record count warrants it —
  /// the end-of-run call sites use this so short runs don't rewrite a large
  /// index every time.
  void maybe_compact();

  /// Visit every record sorted by (fingerprint, plan, il) — the
  /// deterministic order the Datalog bridge exports in.
  void for_each_sorted(const std::function<void(const Record&)>& fn) const;

  size_t size() const noexcept { return records_.size(); }
  /// Segment files currently on disk (the active one included once it has a
  /// record).
  size_t segment_count() const;
  const std::string& dir() const noexcept { return dir_; }
  const StoreOptions& options() const noexcept { return options_; }
  const StoreStats& stats() const noexcept { return stats_; }
  uint64_t current_seq() const noexcept { return current_seq_; }

 private:
  Store(std::string dir, StoreOptions options, StreamFactory stream_factory);

  void load();
  size_t load_file(const std::string& path, bool is_index);
  void roll_segment();
  void write_record(const Record& record);
  std::string index_path() const;
  std::vector<std::string> segment_paths() const;

  std::string dir_;
  StoreOptions options_;
  StreamFactory stream_factory_;  // empty = real std::ofstream
  std::unordered_map<std::string, Record> records_;  // key: fp-hex/plan/il
  uint64_t next_seq_ = 1;     // next begin_run epoch
  uint64_t current_seq_ = 0;  // active epoch
  uint64_t next_segment_ = 1;
  std::unique_ptr<std::ostream> active_;
  std::string active_path_;
  size_t active_records_ = 0;
  StoreStats stats_;
  bool degraded_ = false;
};

/// Load the distinct violating interleavings recorded anywhere in the corpus
/// at `dir` (every fingerprint and plan — a violation's *neighborhood* in the
/// interleaving tree transfers across configurations even when outcome reuse
/// must not), in deterministic (fingerprint, plan, il) order. These seed the
/// ViolationFirst searcher's priors — the corpus-side view of the Datalog
/// bridge's violation/4 relation. Returns empty when the directory does not
/// exist or holds no violations.
std::vector<core::Interleaving> violation_priors(const std::string& dir);

/// Reuse-mode accounting the fault explorer keeps *outside* the
/// ReplayReport, so warm and cold reports stay byte-identical
/// (FaultExplorer::corpus_stats).
struct ReuseStats {
  uint64_t hits = 0;      // pairs resolved from the corpus without replaying
  uint64_t misses = 0;    // pairs replayed and newly proven
  uint64_t appended = 0;  // records written this run (== misses in reuse mode)

  bool operator==(const ReuseStats&) const = default;
};

}  // namespace erpi::corpus
