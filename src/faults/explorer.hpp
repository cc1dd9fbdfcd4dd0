// FaultExplorer — the fault-schedule exploration driver (DESIGN.md §8).
//
// Composes the bounded plan catalog with the Session's interleaving stream,
// plan-major. The explorer owns only what is fault-specific: it probes one
// fixture for the replica count, builds the catalog, and gives each plan a
// PlanRuntime observer factory and a footprint context. The sweep runs
// through the run driver end() uses (core::Session::explore_faults), one
// segment per plan on workers built from the subject factory, and every
// pair commits with its plan tag in (plan, interleaving) order, so the
// merged report is identical at any parallelism. Every other Config field
// means what it means for end(); persist and constraints_dir are rejected
// up front (see Session::Config).
#pragma once

#include <vector>

#include "core/session.hpp"
#include "faults/plan.hpp"

namespace erpi::faults {

using core::FingerprintPurpose;

/// The fingerprint namespacing a fault sweep's journal resumes and corpus
/// records: core::run_fingerprint with the catalog — every plan key and
/// every CatalogOptions field — hashed in. Exposed for tests and tooling;
/// session must have finished capture.
uint64_t run_fingerprint(const core::Session& session,
                         const std::vector<FaultPlan>& plans,
                         const CatalogOptions& catalog,
                         const core::ReplayOptions& replay,
                         FingerprintPurpose purpose);

class FaultExplorer {
 public:
  /// `session` must outlive the explorer. Catalog options bound the plan
  /// sweeps (see CatalogOptions); the rest of the run configuration comes
  /// from the session's Config.
  explicit FaultExplorer(core::Session& session, CatalogOptions catalog = {});

  /// Finish the capture, build the catalog, and replay every surviving
  /// interleaving under every plan. Requires Config::subject_factory (the
  /// worker pool clones fixtures even at parallelism 1).
  core::ReplayReport run(const core::AssertionFactory& assertion_factory);

  /// The composed catalog (valid after run()).
  const std::vector<FaultPlan>& catalog() const noexcept { return plans_; }

  /// The session's corpus accounting for the last run (core::Session::
  /// corpus_stats, outcome_diff).
  const corpus::ReuseStats& corpus_stats() const noexcept { return session_->corpus_stats(); }
  const corpus::OutcomeDiff& outcome_diff() const noexcept { return session_->outcome_diff(); }

  /// The session's write-fault injection seams (tests only).
  void set_journal_stream_factory(core::RunJournal::StreamFactory factory) {
    session_->set_journal_stream_factory(std::move(factory));
  }
  void set_corpus_stream_factory(corpus::Store::StreamFactory factory) {
    session_->set_corpus_stream_factory(std::move(factory));
  }

 private:
  core::Session* session_;
  CatalogOptions catalog_options_;
  std::vector<FaultPlan> plans_;
};

/// One-call convenience mirroring Session::end_with_factory:
///   session.start(factory); ... workload ...;
///   auto report = faults::explore_with_faults(session, assertion_factory);
core::ReplayReport explore_with_faults(core::Session& session,
                                       const core::AssertionFactory& assertion_factory,
                                       const CatalogOptions& catalog = {});

}  // namespace erpi::faults
