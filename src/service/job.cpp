#include "service/job.hpp"

#include <algorithm>

namespace erpi::service {

namespace {

uint64_t get_u64(const util::Json& j, const char* key, uint64_t fallback) {
  if (!j.contains(key)) return fallback;
  const int64_t v = j[key].as_int();
  return v < 0 ? 0 : static_cast<uint64_t>(v);
}

void put_opt(util::Json& j, const char* key, const std::optional<uint64_t>& v) {
  if (v) j[key] = *v;
}

std::optional<uint64_t> get_opt(const util::Json& j, const char* key) {
  if (!j.contains(key)) return std::nullopt;
  const int64_t v = j[key].as_int();
  return v < 0 ? std::optional<uint64_t>(0) : std::optional<uint64_t>(v);
}

}  // namespace

std::optional<core::ExplorationMode> JobSpec::exploration_mode() const {
  if (mode == "erpi") return core::ExplorationMode::ErPi;
  if (mode == "dfs") return core::ExplorationMode::Dfs;
  if (mode == "rand") return core::ExplorationMode::Rand;
  return std::nullopt;
}

faults::CatalogOptions JobSpec::apply_catalog(faults::CatalogOptions base) const {
  if (max_drops) base.max_drops = *max_drops;
  if (max_duplicates) base.max_duplicates = *max_duplicates;
  if (max_partition_windows) base.max_partition_windows = *max_partition_windows;
  if (partition_window_length) base.partition_window_length = *partition_window_length;
  if (max_crash_restarts) base.max_crash_restarts = *max_crash_restarts;
  if (max_plans) base.max_plans = *max_plans;
  return base;
}

util::Json JobSpec::to_json() const {
  util::Json j = util::Json::object();
  j["id"] = id;
  j["tenant"] = tenant;
  j["scenario"] = scenario;
  j["mode"] = mode;
  j["max_interleavings"] = max_interleavings;
  j["stop_on_violation"] = stop_on_violation;
  j["parallelism"] = parallelism;
  j["seed"] = seed;
  j["budget_bytes"] = budget_bytes;
  if (timeout_ms != 0) j["timeout_ms"] = timeout_ms;
  put_opt(j, "max_drops", max_drops);
  put_opt(j, "max_duplicates", max_duplicates);
  put_opt(j, "max_partition_windows", max_partition_windows);
  put_opt(j, "partition_window_length", partition_window_length);
  put_opt(j, "max_crash_restarts", max_crash_restarts);
  put_opt(j, "max_plans", max_plans);
  return j;
}

namespace {

/// The id names filesystem artifacts under journal_dir (job-<id>.journal,
/// job-<id>.report.json), so it must not be able to traverse out of it or
/// hide as a dotfile.
bool valid_job_id(const std::string& id) {
  if (id.empty() || id.size() > 128 || id.front() == '.') return false;
  return std::all_of(id.begin(), id.end(), [](unsigned char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

}  // namespace

util::Result<JobSpec> JobSpec::from_json(const util::Json& j) {
  if (!j.is_object()) return util::Result<JobSpec>::fail("job spec must be an object");
  // Client-supplied JSON: type-check every field up front so the as_* calls
  // below cannot throw (Json::ensure aborts on mismatch, and a stray
  // exception here would escape into the daemon's reader thread).
  for (const char* key : {"id", "tenant", "scenario", "mode"}) {
    if (j.contains(key) && !j[key].is_string()) {
      return util::Result<JobSpec>::fail(std::string(key) + " must be a string");
    }
  }
  for (const char* key :
       {"max_interleavings", "parallelism", "seed", "budget_bytes", "timeout_ms",
        "max_drops", "max_duplicates", "max_partition_windows",
        "partition_window_length", "max_crash_restarts", "max_plans"}) {
    if (j.contains(key) && !j[key].is_int()) {
      return util::Result<JobSpec>::fail(std::string(key) + " must be an integer");
    }
  }
  if (j.contains("stop_on_violation") && !j["stop_on_violation"].is_bool()) {
    return util::Result<JobSpec>::fail("stop_on_violation must be a bool");
  }
  JobSpec spec;
  if (j.contains("id")) spec.id = j["id"].as_string();
  if (spec.id.empty()) return util::Result<JobSpec>::fail("job spec needs a non-empty id");
  if (!valid_job_id(spec.id)) {
    return util::Result<JobSpec>::fail(
        "job id must match [A-Za-z0-9._-]{1,128} and not start with '.'");
  }
  if (j.contains("tenant")) spec.tenant = j["tenant"].as_string();
  if (spec.tenant.empty()) spec.tenant = "default";
  if (j.contains("scenario")) spec.scenario = j["scenario"].as_string();
  if (spec.scenario.empty()) {
    return util::Result<JobSpec>::fail("job spec needs a scenario name");
  }
  if (j.contains("mode")) spec.mode = j["mode"].as_string();
  if (!spec.exploration_mode()) {
    return util::Result<JobSpec>::fail("unknown mode: " + spec.mode);
  }
  spec.max_interleavings = get_u64(j, "max_interleavings", spec.max_interleavings);
  if (j.contains("stop_on_violation")) {
    spec.stop_on_violation = j["stop_on_violation"].as_bool();
  }
  if (j.contains("parallelism")) {
    spec.parallelism = static_cast<int>(j["parallelism"].as_int());
  }
  if (spec.parallelism < 1) return util::Result<JobSpec>::fail("parallelism must be >= 1");
  spec.seed = get_u64(j, "seed", spec.seed);
  spec.budget_bytes = get_u64(j, "budget_bytes", spec.budget_bytes);
  spec.timeout_ms = get_u64(j, "timeout_ms", 0);
  spec.max_drops = get_opt(j, "max_drops");
  spec.max_duplicates = get_opt(j, "max_duplicates");
  spec.max_partition_windows = get_opt(j, "max_partition_windows");
  spec.partition_window_length = get_opt(j, "partition_window_length");
  spec.max_crash_restarts = get_opt(j, "max_crash_restarts");
  spec.max_plans = get_opt(j, "max_plans");
  return util::Result<JobSpec>::ok(std::move(spec));
}

}  // namespace erpi::service
