#include "faults/explorer.hpp"

#include <stdexcept>
#include <utility>

#include "faults/runtime.hpp"

namespace erpi::faults {

namespace {

/// Footprints are keyed per plan *kind* ("none", "drop", ...), not per plan
/// instance — "drop:3" and "drop:5" perturb events in the same way, and
/// per-instance contexts would never accumulate kSyncTrustRuns confirmations.
std::string plan_kind_context(const FaultPlan& plan) {
  const std::string key = plan.key();
  const auto colon = key.find(':');
  return colon == std::string::npos ? key : key.substr(0, colon);
}

void hash_catalog(util::Fnv1aHasher& hasher, const std::vector<FaultPlan>& plans,
                  const CatalogOptions& catalog) {
  for (const auto& plan : plans) hasher.bytes(plan.key());
  // Catalog options are hashed even though the plan keys already are:
  // two option sets can compose the *same* catalog today (e.g.
  // partition_window_length with max_partition_windows == 0) yet diverge on
  // the next capture, and a stale journal/corpus entry under the old options
  // must never be silently reused.
  hasher.u64(catalog.baseline ? 1 : 0);
  hasher.u64(catalog.max_drops);
  hasher.u64(catalog.max_duplicates);
  hasher.u64(catalog.max_partition_windows);
  hasher.u64(catalog.partition_window_length);
  hasher.u64(catalog.max_crash_restarts);
  hasher.u64(catalog.max_torn_tails);
  hasher.u64(catalog.torn_tail_entries);
  hasher.u64(catalog.max_drop_log_entries);
  hasher.u64(catalog.max_duplicate_segments);
  hasher.u64(catalog.duplicate_segment_entries);
  hasher.u64(catalog.max_stale_snapshot_recoveries);
  hasher.u64(catalog.stale_suffix_keep);
  hasher.u64(catalog.max_plans);
}

}  // namespace

uint64_t run_fingerprint(const core::Session& session,
                         const std::vector<FaultPlan>& plans,
                         const CatalogOptions& catalog,
                         const core::ReplayOptions& replay,
                         FingerprintPurpose purpose) {
  return core::run_fingerprint(session, replay, purpose, [&](util::Fnv1aHasher& hasher) {
    hash_catalog(hasher, plans, catalog);
  });
}

FaultExplorer::FaultExplorer(core::Session& session, CatalogOptions catalog)
    : session_(&session), catalog_options_(catalog) {}

core::ReplayReport FaultExplorer::run(const core::AssertionFactory& assertion_factory) {
  core::Session::FaultSweep sweep;
  sweep.segments = [this] {
    // The catalog needs the replica count; probe one fixture for it.
    const auto probe = session_->config().subject_factory();
    if (probe == nullptr) {
      throw std::invalid_argument("subject factory returned a null fixture");
    }
    plans_ = build_catalog(session_->events(), probe->replica_count(), catalog_options_);
    std::vector<core::Session::Segment> segments;
    segments.reserve(plans_.size());
    for (const FaultPlan& plan : plans_) {
      core::Session::Segment& segment = segments.emplace_back();
      segment.plan = plan.key();
      segment.hooks.observer_factory = [plan](proxy::Rdl& subject) {
        return std::make_shared<PlanRuntime>(plan, subject);
      };
      // Footprints were learned under the unfaulted ("none") context; a fault
      // plan changes what events touch, so its replays train the plan kind's
      // context for future (union-across-contexts, conservative) queries,
      // and the driver keeps dynamic cuts off for every context but "none".
      segment.hooks.footprint_context = plan_kind_context(plan);
    }
    return segments;
  };
  sweep.hash_catalog = [this](util::Fnv1aHasher& hasher) {
    hash_catalog(hasher, plans_, catalog_options_);
  };
  return session_->explore_faults(sweep, assertion_factory);
}

core::ReplayReport explore_with_faults(core::Session& session,
                                       const core::AssertionFactory& assertion_factory,
                                       const CatalogOptions& catalog) {
  FaultExplorer explorer(session, catalog);
  return explorer.run(assertion_factory);
}

}  // namespace erpi::faults
