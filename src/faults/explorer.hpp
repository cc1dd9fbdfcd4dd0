// FaultExplorer — the fault-schedule exploration driver (DESIGN.md §8).
//
// Composes the bounded plan catalog with the Session's interleaving stream,
// plan-major: for each plan, the configured enumerator is rebuilt and its
// full surviving stream is replayed under that plan through one
// sched::ParallelExplorer built from the subject factory (workers =
// max(1, Session::Config::parallelism); one worker runs inline on the
// calling thread). Every pair — replayed, corpus hit or journaled — is
// committed through core::commit_outcome in (plan, interleaving) order, so
// the merged report — explored pairs, violations, first (interleaving, plan)
// violation, quarantine list — is identical at any parallelism.
//
// Robustness mechanisms wired here:
//  * run journal (core::RunJournal): when Session::Config::resume_journal is
//    set, every committed pair is journaled; a killed run resumed with the
//    same configuration serves each plan's journaled outcomes as the
//    outcomes of its first pulls (sched::ExplorerOptions::outcome_cache,
//    checked before the corpus), reproducing the uninterrupted report.
//  * replay watchdog: ReplayOptions::watchdog_timeout_ms applies per replay
//    via the worker pool; timed-out pairs are quarantined as "plan/il-key".
//  * budget: one shared BudgetAccount spans all plans; exhaustion surfaces
//    as report.budget_exhausted with partial results, never as a throw.
//
// Deliberately NOT wired for fault runs: per-pair Datalog persistence and
// runtime-constraint polling (Session::end's on_interleaving_done plumbing).
// A fault sweep replays the same interleavings once per plan; persisting
// every pair would multiply the store by the catalog size.
#pragma once

#include <vector>

#include "core/session.hpp"
#include "corpus/diff.hpp"
#include "corpus/store.hpp"
#include "faults/plan.hpp"

namespace erpi::faults {

/// What a run-configuration fingerprint guards. Both hash everything that
/// shapes the (interleaving, plan) stream and its outcomes — events, units,
/// enumerator configuration, caps, catalog options — and neither hashes
/// parallelism or the watchdog deadline. They differ on the learned
/// dynamic-pruning relation:
///   Journal — includes its digest (a resumed run must regenerate the exact
///             stream to merge the journaled prefix soundly).
///   Corpus  — excludes it: a record proves one (plan, interleaving) outcome
///             whatever relation generated the stream that reached it.
enum class FingerprintPurpose { Journal, Corpus };

/// The fingerprint namespacing journal resumes and corpus records. Exposed
/// for tests and tooling; session must have finished capture.
uint64_t run_fingerprint(const core::Session& session,
                         const std::vector<FaultPlan>& plans,
                         const CatalogOptions& catalog,
                         const core::ReplayOptions& replay,
                         FingerprintPurpose purpose);

class FaultExplorer {
 public:
  /// `session` must outlive the explorer. Catalog options bound the plan
  /// sweeps (see CatalogOptions); the rest of the run configuration comes
  /// from the session's Config (parallelism, replay options, resume_journal).
  explicit FaultExplorer(core::Session& session, CatalogOptions catalog = {});

  /// Finish the capture, build the catalog, and replay every surviving
  /// interleaving under every plan. Requires Config::subject_factory (the
  /// worker pool clones fixtures even at parallelism 1).
  core::ReplayReport run(const core::AssertionFactory& assertion_factory);

  /// The composed catalog (valid after run()).
  const std::vector<FaultPlan>& catalog() const noexcept { return plans_; }

  /// Every worker's assertion instances across all plan runs, for merging
  /// observer state (core::collect_profiles). Workers abandoned to hung
  /// replays are not included.
  const std::vector<core::AssertionList>& worker_assertions() const noexcept {
    return worker_assertions_;
  }

  /// Corpus reuse accounting for the last run() (zeroes when no corpus is
  /// configured). Kept out of the ReplayReport on purpose: a warm run's
  /// report stays byte-identical to a cold run's.
  const corpus::ReuseStats& corpus_stats() const noexcept { return corpus_stats_; }

  /// Diff-mode result of the last run() (empty in reuse mode / no corpus):
  /// every (interleaving, plan) class whose live outcome differs from the
  /// corpus record, plus compared/unchanged/missing totals.
  const corpus::OutcomeDiff& outcome_diff() const noexcept { return outcome_diff_; }

  /// Write-fault injection seams (tests only): substitute the stream the run
  /// journal / corpus store writes through, to drive the graceful
  /// ENOSPC/EIO degradation (report.journal_degraded / corpus_degraded).
  void set_journal_stream_factory(core::RunJournal::StreamFactory factory) {
    journal_stream_factory_ = std::move(factory);
  }
  void set_corpus_stream_factory(corpus::Store::StreamFactory factory) {
    corpus_stream_factory_ = std::move(factory);
  }

 private:
  core::Session* session_;
  CatalogOptions catalog_options_;
  std::vector<FaultPlan> plans_;
  std::vector<core::AssertionList> worker_assertions_;
  corpus::ReuseStats corpus_stats_;
  corpus::OutcomeDiff outcome_diff_;
  core::RunJournal::StreamFactory journal_stream_factory_;
  corpus::Store::StreamFactory corpus_stream_factory_;
};

/// One-call convenience mirroring Session::end_with_factory:
///   session.start(factory); ... workload ...;
///   auto report = faults::explore_with_faults(session, assertion_factory);
core::ReplayReport explore_with_faults(core::Session& session,
                                       const core::AssertionFactory& assertion_factory,
                                       const CatalogOptions& catalog = {});

}  // namespace erpi::faults
