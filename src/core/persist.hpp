// Persistence of events and interleavings into the Datalog store
// (paper §5.1: "ER-pi initially stores the exhaustive set of interleavings in
// Datalog's deductive database, using logic queries to perform the applicable
// pruning").
//
// Facts written:
//   event(Id, Kind, Replica, From, To, Op)
//   interleaving(IlId, Pos, EventId)
//   group(Leader, Member)
// and a derived happens-before relation is installed:
//   precedes(Il, E1, E2) :- interleaving(Il,P1,E1), interleaving(Il,P2,E2), P1 < P2.
//
// This header also hosts core::RunJournal, the crash-safe on-disk record of
// explored (interleaving, plan) pairs that lets a killed fault-schedule run
// resume where it left off (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/interleaving.hpp"
#include "core/replay.hpp"
#include "datalog/database.hpp"
#include "datalog/evaluator.hpp"

namespace erpi::core {

class InterleavingStore {
 public:
  explicit InterleavingStore(datalog::Database& db);

  void persist_events(const EventSet& events);
  void persist_units(const std::vector<EventUnit>& units);

  /// Persist one interleaving; returns its id.
  int64_t persist(const Interleaving& il);

  uint64_t interleaving_count() const noexcept { return next_il_id_; }

  /// Load a persisted interleaving back (by id).
  Interleaving load(int64_t il_id) const;
  std::vector<Interleaving> load_all() const;

  /// Derive the precedes/3 relation for all persisted interleavings.
  datalog::EvalStats derive_precedes();

  /// Ids of interleavings where event e1 executes before e2 (requires
  /// derive_precedes). Used by tests to cross-check the native pruners.
  std::vector<int64_t> interleavings_where_precedes(int e1, int e2) const;

  /// Ids of interleavings where e1 does NOT execute before e2 — derived with
  /// a stratified-negation rule over precedes/3:
  ///   not_precedes(Il, E1, E2) :- interleaving(Il, _, E1),
  ///                               interleaving(Il, _, E2), !precedes(Il, E1, E2).
  std::vector<int64_t> interleavings_where_not_precedes(int e1, int e2);

  datalog::Database& database() noexcept { return *db_; }

 private:
  datalog::Database* db_;
  int64_t next_il_id_ = 0;
};

/// Crash-safe, append-only journal of completed (interleaving, plan) pairs.
///
/// File layout (JSONL):
///   line 1   — header: {"erpi_run_journal":1,"fingerprint":"<16 hex digits>"}
///   line 2.. — one record per completed pair, in commit order: "plan",
///              "il" (the ordinal), "key", plus the outcome codec's fields
///              (core::outcome_to_json — the corpus writes the same ones)
///
/// Durability model: create() writes the header and the resumed prefix to
/// `path.tmp` in one pass and atomically renames it over `path`, so a torn
/// tail a killed run left behind is never appended onto. After that, every
/// record is appended and flushed exactly once. A SIGKILL can therefore at
/// worst leave one torn trailing line, which load() tolerates by stopping at
/// the first malformed or out-of-order record — everything before it is a
/// valid prefix of the run. Because the parallel committer commits pairs in
/// order, the journaled records for each plan always form an ascending 1..m
/// prefix of that plan's sweep; a resumed run serves them back as the
/// outcomes of that plan's first m pulls, through the explorer's outcome
/// cache, the way corpus hits are served.
///
/// The fingerprint (FNV-1a over the run configuration: mode, order, seeds,
/// caps, events, plan catalog — but not parallelism, so a resume may use a
/// different worker count) guards against resuming with a journal written by
/// a different run.
class RunJournal {
 public:
  struct Record {
    std::string plan;           // FaultPlan::key()
    uint64_t interleaving = 0;  // 1-based ordinal within the plan's sweep
    std::string key;            // Interleaving::key()
    /// What the pair's replay observed. Sandbox outcomes (crashed, oom) and
    /// storage recovery verdicts are journaled too, so a resumed run skips
    /// known-crashing pairs instead of re-executing them.
    InterleavingOutcome outcome;

    bool operator==(const Record&) const = default;
  };

  struct Loaded {
    uint64_t fingerprint = 0;
    std::vector<Record> records;  // the valid prefix, in commit order
  };

  /// Test seam for write-fault injection: builds the output stream the
  /// journal writes through — `truncate` for the `path.tmp` staging file,
  /// append mode for the live journal. The default opens a real
  /// std::ofstream; tests substitute a stream whose writes start failing
  /// after N bytes to simulate ENOSPC/EIO.
  using StreamFactory =
      std::function<std::unique_ptr<std::ostream>(const std::string& path, bool truncate)>;

  /// Start a journal at `path` holding `prefix` (the records a resumed run
  /// merges), atomically replacing any existing file, and leave it open for
  /// appending. Throws when even the header cannot be materialized — a run
  /// that can't journal its first byte should fail loudly up front. A write
  /// failure in the prefix degrades instead (see degraded()) and renames
  /// nothing, so the old journal stays untouched.
  static RunJournal create(const std::string& path, uint64_t fingerprint,
                           std::span<const Record> prefix = {},
                           const StreamFactory& stream_factory = {});

  /// Read back the valid prefix of a journal. nullopt when the file is
  /// missing or its header is unreadable; torn/out-of-order tails are
  /// silently truncated.
  static std::optional<Loaded> load(const std::string& path);

  RunJournal(RunJournal&&) = default;
  RunJournal& operator=(RunJournal&&) = default;
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Append one completed pair: written and flushed before returning. A
  /// write failure (ENOSPC, EIO, ...) does NOT throw: the journal flips to
  /// degraded, stops touching the disk, and the exploration completes in
  /// memory — the on-disk file keeps its last good prefix, and resuming from
  /// it is what's lost, not the run. Appends on a degraded journal are no-ops.
  void append(const Record& record);

  /// True once a prefix write or an append failed. The fault explorer
  /// surfaces this as ReplayReport::journal_degraded.
  bool degraded() const noexcept { return degraded_; }

  /// Records passed to append() since create(); the prefix is not counted.
  size_t appended() const noexcept { return records_; }

 private:
  RunJournal() = default;

  std::unique_ptr<std::ostream> out_;
  size_t records_ = 0;
  bool degraded_ = false;
};

}  // namespace erpi::core
