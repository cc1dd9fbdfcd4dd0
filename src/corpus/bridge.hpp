// DatalogBridge — the corpus as a deductive database (DESIGN.md §11).
//
// Exports the persistent outcome store into the src/datalog engine as ground
// relations, so months of accumulated sweeps answer logic queries ("all
// violations involving replica 2 under partition plans") instead of needing
// ad-hoc report scraping:
//
//   outcome(Fp, Plan, Il, Kind, Signal)   every record; Kind is the outcome
//                                         codec's name for it
//                                         (core::outcome_kind_name: "pass" /
//                                         "violation" / "crashed" / "oom" /
//                                         "timed_out"), Signal is the
//                                         terminating signal (0 unless
//                                         crashed).
//   violation(Fp, Plan, Il, Assertion)    one fact per violated assertion of
//                                         a violation record.
//   plan_fault(Plan, Kind, Replica)       structural decomposition of the
//                                         plan key: Kind in "none" / "drop" /
//                                         "dup" / "part" / "crash"; Replica
//                                         is an involved replica id or -1
//                                         when the fault is not
//                                         replica-targeted (partitions emit
//                                         one fact per endpoint).
//   run_meta(Fp, Key, Value)              per-fingerprint aggregates:
//                                         "records", "violations",
//                                         "last_seq".
//
// Fingerprints and keys are interned symbols (Fp as 16-digit hex); facts are
// inserted in sorted (Fp, Plan, Il) order so query output is deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "corpus/store.hpp"
#include "datalog/database.hpp"

namespace erpi::corpus {

class DatalogBridge {
 public:
  struct Stats {
    size_t outcome_facts = 0;
    size_t violation_facts = 0;
    size_t plan_fault_facts = 0;
    size_t run_meta_facts = 0;

    bool operator==(const Stats&) const = default;
  };

  /// Declares the four relations on `db` (arity-checked against any existing
  /// relations of the same name). `db` must outlive the bridge.
  explicit DatalogBridge(datalog::Database& db);

  /// Export every record of `store` (or only one fingerprint namespace) as
  /// facts. Re-exporting is idempotent — the relations deduplicate.
  Stats export_store(const Store& store,
                     std::optional<uint64_t> fingerprint = std::nullopt);

  /// Structural decomposition of a FaultPlan::key() string into
  /// (fault-kind, replica) rows — the plan_fault/3 payload. Exposed for
  /// tests, which cross-check it against real catalog keys. Unrecognized
  /// keys decompose to {("unknown", -1)} so exports stay total.
  static std::vector<std::pair<std::string, int>> plan_fault_entries(
      const std::string& plan_key);

 private:
  datalog::Database* db_;
};

}  // namespace erpi::corpus
