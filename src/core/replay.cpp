#include "core/replay.hpp"

#include <limits>
#include <thread>

#include "core/dpor.hpp"
#include "kvstore/lock.hpp"
#include "util/log.hpp"

namespace erpi::core {

const char* isolation_name(Isolation isolation) noexcept {
  switch (isolation) {
    case Isolation::None: return "none";
    case Isolation::Process: return "process";
  }
  return "?";
}

const char* search_strategy_name(SearchStrategy strategy) noexcept {
  switch (strategy) {
    case SearchStrategy::LexOrder: return "lex";
    case SearchStrategy::RandomPath: return "random_path";
    case SearchStrategy::ViolationFirst: return "violation_first";
    case SearchStrategy::CoverageWeighted: return "coverage_weighted";
    case SearchStrategy::Interleaved: return "interleaved";
  }
  return "?";
}

util::Json ExplorerStats::to_json() const {
  util::Json j = util::Json::object();
  j["batch_size"] = static_cast<int64_t>(batch_size);
  j["subtrees"] = static_cast<int64_t>(subtrees);
  j["queue_wait_seconds"] = queue_wait_seconds;
  j["max_idle_fraction"] = max_idle_fraction;
  return j;
}

util::Json SandboxStats::to_json() const {
  util::Json j = util::Json::object();
  j["crashes"] = static_cast<int64_t>(crashes);
  j["oom_kills"] = static_cast<int64_t>(oom_kills);
  j["timeouts"] = static_cast<int64_t>(timeouts);
  j["respawns"] = static_cast<int64_t>(respawns);
  j["retries"] = static_cast<int64_t>(retries);
  j["retry_successes"] = static_cast<int64_t>(retry_successes);
  // Omitted when zero so reports from runs that never saw a failed spawn
  // serialize byte-identically to prior releases.
  if (respawn_failures != 0) {
    j["respawn_failures"] = static_cast<int64_t>(respawn_failures);
  }
  return j;
}

util::Json RunVerdict::to_json() const {
  util::Json j = util::Json::object();
  j["explored"] = static_cast<int64_t>(explored);
  j["violations"] = static_cast<int64_t>(violations);
  j["reproduced"] = reproduced;
  j["first_violation_index"] = static_cast<int64_t>(first_violation_index);
  j["first_violation_assertion"] = first_violation_assertion;
  if (first_violation) j["first_violation"] = first_violation->key();
  j["exhausted"] = exhausted;
  j["hit_cap"] = hit_cap;
  j["crashed"] = crashed;
  j["budget_exhausted"] = budget_exhausted;
  // Robustness flags are omitted when false so unaffected runs serialize
  // byte-identically to prior releases (the same discipline as the recovery
  // block below).
  if (cancelled) j["cancelled"] = true;
  if (journal_degraded) j["journal_degraded"] = true;
  if (corpus_degraded) j["corpus_degraded"] = true;
  j["timed_out"] = static_cast<int64_t>(timed_out);
  j["crashed_replays"] = static_cast<int64_t>(crashed_replays);
  j["oom_replays"] = static_cast<int64_t>(oom_replays);
  util::Json quarantine = util::Json::array();
  for (const auto& key : quarantined) quarantine.push_back(key);
  j["quarantined"] = std::move(quarantine);
  util::Json records = util::Json::array();
  for (const auto& record : quarantine_records) {
    util::Json r = util::Json::object();
    r["key"] = record.key;
    r["reason"] = record.reason;
    r["signal"] = static_cast<int64_t>(record.signal);
    records.push_back(std::move(r));
  }
  j["quarantine_records"] = std::move(records);
  // Recovery counters are omitted when all-zero, so reports from runs
  // without storage-fault plans serialize byte-identically to prior releases.
  if (recoveries_clean != 0 || recoveries_missing_entries != 0 || recoveries_diverged != 0) {
    j["recoveries_clean"] = static_cast<int64_t>(recoveries_clean);
    j["recoveries_missing_entries"] = static_cast<int64_t>(recoveries_missing_entries);
    j["recoveries_diverged"] = static_cast<int64_t>(recoveries_diverged);
  }
  j["plans_explored"] = static_cast<int64_t>(plans_explored);
  j["first_violation_plan"] = first_violation_plan;
  j["first_violation_plan_interleaving"] =
      static_cast<int64_t>(first_violation_plan_interleaving);
  util::Json msgs = util::Json::array();
  for (const auto& message : messages) msgs.push_back(message);
  j["messages"] = std::move(msgs);
  return j;
}

util::Json ReplayReport::to_json() const {
  util::Json j = RunVerdict::to_json();
  j["pairs_skipped_from_journal"] = static_cast<int64_t>(pairs_skipped_from_journal);
  j["elapsed_seconds"] = elapsed_seconds;
  // Omitted when all-zero, as on every in-process and crash-free run.
  if (sandbox.any()) j["sandbox"] = sandbox.to_json();
  j["explorer"] = explorer.to_json();
  return j;
}

// ---------------------------------------------------------------------------
// The outcome codec

namespace {

const char* recovery_status_name(RecoveryVerdict::Status status) noexcept {
  switch (status) {
    case RecoveryVerdict::Status::Recovered: return "recovered";
    case RecoveryVerdict::Status::MissingEntries: return "missing_entries";
    case RecoveryVerdict::Status::Diverged: return "diverged";
  }
  return "?";
}

std::optional<RecoveryVerdict::Status> recovery_status_from_name(
    std::string_view name) noexcept {
  if (name == "recovered") return RecoveryVerdict::Status::Recovered;
  if (name == "missing_entries") return RecoveryVerdict::Status::MissingEntries;
  if (name == "diverged") return RecoveryVerdict::Status::Diverged;
  return std::nullopt;
}

/// An optional non-negative count field; false when present but malformed.
bool read_count(const util::Json& j, const char* field, uint64_t& out) {
  if (!j.contains(field)) return true;
  if (!j[field].is_int() || j[field].as_int() < 0) return false;
  out = static_cast<uint64_t>(j[field].as_int());
  return true;
}

}  // namespace

const char* outcome_kind_name(const InterleavingOutcome& outcome) noexcept {
  if (outcome.timed_out) return "timed_out";
  if (outcome.crashed) return "crashed";
  if (outcome.oom) return "oom";
  return outcome.violations.empty() ? "pass" : "violation";
}

void outcome_to_json(util::Json& object, const InterleavingOutcome& outcome) {
  const std::string_view kind = outcome_kind_name(outcome);
  object["o"] = std::string(kind);
  if (outcome.quarantine()) {
    // A crash with signal 0 is a child that exited cleanly mid-replay.
    if (kind == "crashed" && outcome.term_signal > 0) {
      object["sig"] = static_cast<int64_t>(outcome.term_signal);
    }
    return;
  }
  if (!outcome.violations.empty()) {
    util::Json violations = util::Json::array();
    for (const auto& violation : outcome.violations) {
      util::Json v = util::Json::object();
      v["a"] = violation.assertion;
      v["m"] = violation.message;
      violations.push_back(std::move(v));
    }
    object["v"] = std::move(violations);
  }
  if (outcome.recovery) {
    object["rk"] = std::string(recovery_status_name(outcome.recovery->status));
    if (outcome.recovery->first_missing != 0) {
      object["rf"] = static_cast<int64_t>(outcome.recovery->first_missing);
    }
    if (outcome.recovery->missing_count != 0) {
      object["rc"] = static_cast<int64_t>(outcome.recovery->missing_count);
    }
  }
}

std::optional<InterleavingOutcome> outcome_from_json(const util::Json& object) {
  if (!object.is_object() || !object.contains("o") || !object["o"].is_string()) {
    return std::nullopt;
  }
  const std::string& kind = object["o"].as_string();
  InterleavingOutcome outcome;
  if (kind == "timed_out") {
    outcome.timed_out = true;
  } else if (kind == "crashed") {
    outcome.crashed = true;
  } else if (kind == "oom") {
    outcome.oom = true;
  } else if (kind != "pass" && kind != "violation") {
    return std::nullopt;
  }
  if (object.contains("sig")) {
    const util::Json& sig = object["sig"];
    if (!outcome.crashed || !sig.is_int() || sig.as_int() <= 0 ||
        sig.as_int() > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    outcome.term_signal = static_cast<int>(sig.as_int());
  }
  if (object.contains("v") != (kind == "violation")) return std::nullopt;
  if (object.contains("v")) {
    const util::Json& violations = object["v"];
    if (!violations.is_array() || violations.as_array().empty()) return std::nullopt;
    for (const auto& v : violations.as_array()) {
      if (!v.is_object() || !v.contains("a") || !v["a"].is_string() || !v.contains("m") ||
          !v["m"].is_string()) {
        return std::nullopt;
      }
      outcome.violations.push_back({v["a"].as_string(), v["m"].as_string()});
    }
  }
  if (!object.contains("rk")) {
    if (object.contains("rf") || object.contains("rc")) return std::nullopt;
    return outcome;
  }
  if (outcome.quarantine() || !object["rk"].is_string()) return std::nullopt;
  const auto status = recovery_status_from_name(object["rk"].as_string());
  if (!status) return std::nullopt;
  RecoveryVerdict verdict;
  verdict.status = *status;
  if (!read_count(object, "rf", verdict.first_missing) ||
      !read_count(object, "rc", verdict.missing_count)) {
    return std::nullopt;
  }
  outcome.recovery = verdict;
  return outcome;
}

// ---------------------------------------------------------------------------
// Aggregation

void commit_outcome(RunVerdict& report, const Interleaving& il,
                    const InterleavingOutcome& outcome, const std::optional<PlanTag>& plan) {
  ++report.explored;
  if (outcome.quarantine()) {
    // Quarantine (watchdog timeout, deterministic sandbox crash or oom):
    // counted per kind, keyed, never a violation — and committed in order,
    // so the quarantine list is deterministic.
    if (outcome.timed_out) {
      ++report.timed_out;
    } else if (outcome.crashed) {
      ++report.crashed_replays;
    } else {
      ++report.oom_replays;
    }
    std::string key;
    if (plan) {
      key = plan->key;
      key += '/';
    }
    il.append_key(key);
    report.quarantine_records.push_back(
        {key, outcome_kind_name(outcome), outcome.term_signal});
    report.quarantined.push_back(std::move(key));
  }
  if (outcome.recovery) {
    switch (outcome.recovery->status) {
      case RecoveryVerdict::Status::Recovered: ++report.recoveries_clean; break;
      case RecoveryVerdict::Status::MissingEntries: ++report.recoveries_missing_entries; break;
      case RecoveryVerdict::Status::Diverged: ++report.recoveries_diverged; break;
    }
  }
  for (const auto& violation : outcome.violations) {
    ++report.violations;
    if (report.messages.size() < 16) {
      report.messages.push_back(
          plan ? "[plan " + std::string(plan->key) + "] " + violation.message
               : violation.message);
    }
    if (!report.reproduced) {
      report.reproduced = true;
      report.first_violation_index = report.explored;
      report.first_violation_assertion = violation.assertion;
      report.first_violation = il;
      if (plan) {
        report.first_violation_plan = plan->key;
        report.first_violation_plan_interleaving = plan->ordinal;
      }
    }
  }
}

ReplayEngine::ReplayEngine(proxy::RdlProxy& proxy, ReplayOptions options,
                           const ReplayHooks& hooks)
    : proxy_(&proxy), options_(std::move(options)) {
  if (options_.threaded) lock_server_ = std::make_unique<kv::Server>();
  if (hooks.observer_factory) observer_ = hooks.observer_factory(proxy.target());
  if (hooks.footprint_learner != nullptr) {
    recorder_ = std::make_unique<FootprintRecorder>(
        [learner = hooks.footprint_learner, context = hooks.footprint_context](
            int event_id, Footprint&& fp) {
          learner->observe(context, event_id, std::move(fp));
        });
    proxy_->target().set_footprint_recorder(recorder_.get());
  }
}

ReplayEngine::~ReplayEngine() {
  if (recorder_ != nullptr) proxy_->target().set_footprint_recorder(nullptr);
}

void ReplayEngine::execute_fast(const Interleaving& il, const EventSet& events,
                                std::vector<util::Result<util::Json>>& results) {
  for (size_t pos = 0; pos < il.size(); ++pos) {
    if (cancel_requested_.load(std::memory_order_relaxed)) return;
    if (observer_) observer_->before_event(proxy_->target(), il, pos);
    const Event& event = events.at(static_cast<size_t>(il.order[pos]));
    if (recorder_) recorder_->begin_event(event.id);
    results.emplace_back(proxy_->invoke(event));
    if (recorder_) recorder_->end_event();
  }
}

void ReplayEngine::execute_threaded(const Interleaving& il, const EventSet& events,
                                    std::vector<util::Result<util::Json>>& results) {
  // Pre-size results; each worker writes only its own positions, and the
  // turn counter guarantees mutual exclusion between writers.
  results.resize(il.size(), util::Result<util::Json>(util::Json()));

  // Collect the replicas that participate and each one's positions in order.
  std::map<net::ReplicaId, std::vector<size_t>> positions_by_replica;
  for (size_t pos = 0; pos < il.size(); ++pos) {
    const Event& event = events.at(static_cast<size_t>(il.order[pos]));
    positions_by_replica[event.replica].push_back(pos);
  }

  kv::Client control(*lock_server_);
  const std::string turn_key = "erpi:turn";
  control.set(turn_key, "0");

  std::vector<std::thread> workers;
  workers.reserve(positions_by_replica.size());
  for (const auto& [replica, positions] : positions_by_replica) {
    workers.emplace_back([&, replica = replica, positions = positions] {
      kv::DistributedMutex mutex(*lock_server_, "erpi:replay-lock",
                                 kv::DistributedMutex::Options{},
                                 0x9e3779b9u ^ static_cast<uint64_t>(replica));
      kv::Client client(*lock_server_);
      for (const size_t pos : positions) {
        // Wait for our turn under the distributed lock — the same shared-key
        // mutex discipline the paper uses across machines.
        while (true) {
          // Watchdog cancellation: a hung replay spins here forever when an
          // earlier turn never completes, so the spin loop is where workers
          // must notice the deadline and bail.
          if (cancel_requested_.load(std::memory_order_relaxed)) return;
          if (!mutex.lock()) {
            ERPI_ERROR("replay") << "lock acquisition timed out (replica " << replica << ")";
            return;
          }
          const auto turn = client.get(turn_key);
          const bool ours = turn && std::stoull(*turn) == pos;
          if (ours) {
            if (observer_) observer_->before_event(proxy_->target(), il, pos);
            const Event& event = events.at(static_cast<size_t>(il.order[pos]));
            // Turn ownership serializes workers, so the shared recorder sees
            // begin/end pairs in execution order despite the thread handoff.
            if (recorder_) recorder_->begin_event(event.id);
            results[pos] = proxy_->invoke(event);
            if (recorder_) recorder_->end_event();
            client.set(turn_key, std::to_string(pos + 1));
            mutex.unlock();
            break;
          }
          mutex.unlock();
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

InterleavingOutcome ReplayEngine::replay_one(const Interleaving& il, const EventSet& events,
                                             const AssertionList& assertions) {
  std::vector<util::Result<util::Json>> results;
  results.reserve(il.size());

  proxy_->target().reset();
  if (observer_) observer_->on_replay_begin(proxy_->target(), il);

  if (options_.threaded) {
    execute_threaded(il, events, results);
  } else {
    execute_fast(il, events, results);
  }
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    // Watchdog fired mid-replay: subject state is unspecified, so skip the
    // assertions and hand back a structured timeout. The caller discards
    // this fixture.
    InterleavingOutcome cancelled;
    cancelled.timed_out = true;
    return cancelled;
  }

  const TestContext ctx{proxy_->target(), il, events, results};
  InterleavingOutcome outcome;
  for (const auto& assertion : assertions) {
    const auto status = assertion->check(ctx);
    if (!status.is_ok()) {
      std::string message = assertion->name() + ": " + status.error().message +
                            " [interleaving ";
      il.append_key(message);
      message += ']';
      outcome.violations.push_back({assertion->name(), std::move(message)});
    }
  }
  if (observer_) observer_->finish_outcome(proxy_->target(), il, outcome);
  return outcome;
}

}  // namespace erpi::core
