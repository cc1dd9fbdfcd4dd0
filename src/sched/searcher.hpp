// Searcher strategies for guided exploration (DESIGN.md §12).
//
// A searcher ranks the enumeration subtrees before any of them is served:
// given the materialized (capped) stream and its subtree partition
// (core::split_tree_order), select() returns a permutation of the subtree
// indices. Replay *commits* follow that rank — ordinal 0 is every item of the
// first-ranked subtree in stream order, then the second, and so on — so the
// report (explored count, first violation, stop_on_violation cut) is a pure
// function of (stream, SearchOptions), identical at every worker count.
//
// The contract is deliberately one-shot and side-effect-free with one
// exception: CoverageWeighted records the features it selects into a shared
// CoverageState, so an exploration that runs many sweeps (the fault
// explorer's plan-major loop) steers later sweeps toward still-uncovered
// fault-plan × operation pairs.
#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/enumerate.hpp"
#include "core/replay.hpp"

namespace erpi::sched {

/// Feature dedup for CoverageWeighted, shared across sweeps. Features are
/// opaque 64-bit hashes of (context, prefix position, operation) triples.
/// Not thread-safe: a searcher runs once, on the thread that drains the
/// explorer's source, before any ranked item is served.
class CoverageState {
 public:
  /// Record a feature; true if it was new.
  bool insert(uint64_t feature) { return seen_.insert(feature).second; }
  bool contains(uint64_t feature) const { return seen_.count(feature) != 0; }
  size_t size() const noexcept { return seen_.size(); }

 private:
  std::unordered_set<uint64_t> seen_;
};

/// Everything a searcher may consult beyond the stream itself. All fields are
/// optional; a searcher missing its inputs degenerates to lex order.
struct SearcherDeps {
  /// Captured events, for operation names in coverage features. May be null.
  const core::EventSet* events = nullptr;
  /// Previously violating interleavings (explicit Session config + the
  /// outcome corpus's violation records). ViolationFirst's prior set.
  std::shared_ptr<const std::vector<core::Interleaving>> violation_priors;
  /// CoverageWeighted's cross-sweep feature memory. Null = per-call state.
  std::shared_ptr<CoverageState> coverage;
  /// Context tag mixed into coverage features (the fault explorer passes the
  /// plan key, making features fault-plan × operation pairs).
  std::string context_key;
};

class Searcher {
 public:
  virtual ~Searcher() = default;

  virtual const char* name() const noexcept = 0;

  /// Rank the subtrees: a permutation of {0, ..., subtrees.size()-1}, best
  /// first. Must be deterministic in (items, subtrees, construction inputs).
  virtual std::vector<size_t> select(const std::vector<core::Interleaving>& items,
                                     const std::vector<core::SubtreeSpan>& subtrees) = 0;
};

/// Build the searcher for `options.strategy`. Never returns null.
std::unique_ptr<Searcher> make_searcher(const core::SearchOptions& options,
                                        SearcherDeps deps);

}  // namespace erpi::sched
