#include "faults/runtime.hpp"

#include <algorithm>
#include <string>

namespace erpi::faults {

PlanRuntime::PlanRuntime(FaultPlan plan, proxy::Rdl& subject) : plan_(plan) {
  base_ = dynamic_cast<subjects::SubjectBase*>(&subject);
  if (base_ == nullptr) return;
  // Scripted network faults are installed once per fixture; the per-
  // interleaving reset() rewinds the send ordinal but keeps the script.
  net::SimNetwork::Script script;
  if (plan_.kind == FaultPlan::Kind::DropSync) script.drop.insert(plan_.sync_index);
  if (plan_.kind == FaultPlan::Kind::DuplicateSync) {
    script.duplicate.insert(plan_.sync_index);
  }
  if (!script.empty()) base_->network().set_script(std::move(script));
  // Durable logging is enabled exactly for storage plans (and disabled
  // otherwise, so a reused fixture never carries a stale flag into another
  // plan): non-storage replays log nothing and serialize the same reports as
  // before the storage family existed.
  base_->set_durable_logging(plan_.is_storage());
}

void PlanRuntime::on_replay_begin(proxy::Rdl& subject, const core::Interleaving& il) {
  (void)subject;
  (void)il;
  // A checkpoint or verdict from the previous interleaving must never leak
  // into this one: a failed retake would otherwise restore across replays.
  saved_ = subjects::SubjectBase::ReplicaSnapshotState{};
  verdict_.reset();
  saved_log_len_.reset();
}

void PlanRuntime::before_event(proxy::Rdl& subject, const core::Interleaving& il,
                               size_t pos) {
  (void)subject;
  (void)il;
  if (base_ == nullptr) return;
  switch (plan_.kind) {
    case FaultPlan::Kind::None:
    case FaultPlan::Kind::DropSync:
    case FaultPlan::Kind::DuplicateSync:
      break;  // script-driven; nothing positional to do
    case FaultPlan::Kind::PartitionWindow:
      if (pos == plan_.window_begin) {
        base_->network().partition(plan_.replica_a, plan_.replica_b);
      }
      if (pos == plan_.window_end) {
        base_->network().heal(plan_.replica_a, plan_.replica_b);
      }
      break;
    case FaultPlan::Kind::CrashRestart:
      if (pos == plan_.snapshot_pos) {
        saved_ = base_->snapshot_replica(plan_.replica_a);
      }
      if (pos == plan_.crash_pos && saved_.valid()) {
        base_->crash_restore_replica(plan_.replica_a, saved_);
      }
      break;
    case FaultPlan::Kind::TornTail:
    case FaultPlan::Kind::DropLogEntry:
    case FaultPlan::Kind::DuplicateSegment:
      if (pos == plan_.damage_pos) damage_and_recover();
      break;
    case FaultPlan::Kind::StaleSnapshotRecovery:
      if (pos == plan_.snapshot_pos) {
        // The "old checkpoint" covers the log as written so far; everything
        // after it (minus suffix_keep survivors) dies with the crash.
        if (base_->durable_logging()) saved_log_len_ = base_->log_length(plan_.replica_a);
      }
      if (pos == plan_.crash_pos && saved_log_len_) {
        base_->splice_log_suffix(plan_.replica_a, *saved_log_len_, plan_.suffix_keep);
        base_->network().drop_inbound(plan_.replica_a);
        damage_and_recover();
      }
      break;
  }
}

void PlanRuntime::damage_and_recover() {
  if (!base_->durable_logging()) {
    // Subject never opted into the durable-log model: the plan degrades to a
    // deterministic no-op with no verdict (not a silent "recovered").
    verdict_.reset();
    return;
  }
  const auto replica = plan_.replica_a;
  // Reference state captured before damage: a recovery that claims full
  // success must reproduce its text exactly, else it silently diverged.
  const uint64_t reference = base_->state_digest(replica, {});

  switch (plan_.kind) {
    case FaultPlan::Kind::TornTail:
      base_->truncate_log(replica, plan_.entry_count);
      break;
    case FaultPlan::Kind::DropLogEntry: {
      const size_t len = base_->log_length(replica);
      if (len > 0) base_->drop_log_entry(replica, len / 2);
      break;
    }
    case FaultPlan::Kind::DuplicateSegment: {
      const size_t len = base_->log_length(replica);
      const size_t count = std::min(plan_.entry_count, len);
      if (count > 0) base_->duplicate_log_segment(replica, (len - count) / 2, count);
      break;
    }
    case FaultPlan::Kind::StaleSnapshotRecovery:
      break;  // the splice already happened in before_event
    default:
      break;
  }

  const auto result = base_->recover_from_log(replica);
  core::RecoveryVerdict verdict;
  switch (result.status) {
    case subjects::SubjectBase::RecoveryResult::Status::Unsupported:
      verdict_.reset();
      return;
    case subjects::SubjectBase::RecoveryResult::Status::MissingEntries:
      verdict.status = core::RecoveryVerdict::Status::MissingEntries;
      verdict.first_missing = result.first_missing;
      verdict.missing_count = result.missing_count;
      break;
    case subjects::SubjectBase::RecoveryResult::Status::Ok:
      // The subject claims a complete recovery: hold it to that. Anything
      // short of the exact pre-damage state is a silent divergence.
      verdict.status = base_->state_digest(replica, {}) == reference
                           ? core::RecoveryVerdict::Status::Recovered
                           : core::RecoveryVerdict::Status::Diverged;
      break;
  }
  verdict_ = verdict;
}

void PlanRuntime::finish_outcome(proxy::Rdl& subject, const core::Interleaving& il,
                                 core::InterleavingOutcome& outcome) {
  (void)subject;
  if (!plan_.is_storage() || !verdict_) return;
  outcome.recovery = *verdict_;
  if (verdict_->status == core::RecoveryVerdict::Status::Diverged) {
    std::string key;
    il.append_key(key);
    outcome.violations.push_back(
        {"durable-log-recovery",
         "plan " + plan_.key() + ": replica " + std::to_string(plan_.replica_a) +
             " silently diverged recovering from a damaged durable log (interleaving " +
             key + ")"});
  }
}

}  // namespace erpi::faults
