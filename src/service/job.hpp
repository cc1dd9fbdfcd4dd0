// Exploration-job wire format (DESIGN.md §14).
//
// A JobSpec names a registered scenario plus the run configuration the
// daemon multiplexes it under. The codec is strict: from_json rejects
// unknown ops at the daemon layer, but tolerates omitted fields here (every
// field has a service-sensible default) so clients send only what they
// override. Serialization round-trips exactly — the accepted-queue journal
// persists specs as JSON and must rebuild identical runs after a restart.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/replay.hpp"
#include "core/session.hpp"
#include "faults/plan.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace erpi::service {

struct JobSpec {
  /// Client-chosen identity. Doubles as the idempotency key: resubmitting a
  /// finished id returns the persisted report instead of re-running.
  std::string id;
  /// Admission-control namespace: budget burn and the circuit breaker are
  /// accounted per tenant.
  std::string tenant = "default";
  /// Registered scenario name (service::Registry).
  std::string scenario;

  std::string mode = "erpi";  // "erpi" | "dfs" | "rand"
  uint64_t max_interleavings = 10'000;
  bool stop_on_violation = true;
  int parallelism = 1;
  uint64_t seed = 42;

  /// Bytes charged against the daemon's shared admission budget while the
  /// job is in flight.
  uint64_t budget_bytes = 1ull << 20;
  /// Per-job deadline override (0 = ServiceConfig::job_timeout_ms).
  uint64_t timeout_ms = 0;

  /// Fault-catalog overrides; unset fields keep the scenario's catalog.
  std::optional<uint64_t> max_drops;
  std::optional<uint64_t> max_duplicates;
  std::optional<uint64_t> max_partition_windows;
  std::optional<uint64_t> partition_window_length;
  std::optional<uint64_t> max_crash_restarts;
  std::optional<uint64_t> max_plans;

  /// Parse "erpi"/"dfs"/"rand"; nullopt on anything else.
  std::optional<core::ExplorationMode> exploration_mode() const;
  /// The scenario catalog with this spec's overrides applied.
  faults::CatalogOptions apply_catalog(faults::CatalogOptions base) const;

  util::Json to_json() const;
  /// Errors on a non-object, a missing/empty id or scenario, a bad mode, or
  /// parallelism < 1.
  static util::Result<JobSpec> from_json(const util::Json& j);

  bool operator==(const JobSpec&) const = default;
};

}  // namespace erpi::service
