// OutcomeDiff — the regression-detection primitive (DESIGN.md §11).
//
// Diff mode replays every (interleaving, plan) pair of a sweep and compares
// each live outcome against the corpus record proven by earlier runs under
// the same fingerprint. A pair whose outcome *changed* — pass turned
// violation after a library upgrade, a crash signal moved, a violation
// message shifted — is a regression (or a fix) surfaced directly, without a
// human eyeballing two multi-thousand-line reports.
#pragma once

#include <string>
#include <vector>

#include "core/replay.hpp"
#include "util/json.hpp"

namespace erpi::corpus {

struct OutcomeDiff {
  /// One pair whose outcome differs from the corpus: `before` is the stored
  /// outcome, `after` the live one.
  struct Change {
    std::string plan;
    std::string il;
    core::InterleavingOutcome before;
    core::InterleavingOutcome after;

    bool operator==(const Change&) const = default;
  };

  std::vector<Change> changed;  // in commit (plan-major, ascending) order
  uint64_t compared = 0;   // replayed pairs that had a corpus record
  uint64_t unchanged = 0;  // compared pairs whose outcome matched
  uint64_t missing = 0;    // replayed pairs with no corpus record (new classes)

  bool any() const noexcept { return !changed.empty(); }

  /// Serializable form (CI artifacts, corpus_query tooling). Each side of a
  /// change is an object of the outcome codec's fields (core::outcome_to_json).
  util::Json to_json() const;
};

}  // namespace erpi::corpus
