#include "subjects/subject_base.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/dpor.hpp"

namespace erpi::subjects {

SubjectBase::SubjectBase(std::string name, int replica_count)
    : name_(std::move(name)),
      replica_count_(replica_count),
      network_(std::make_unique<net::SimNetwork>(replica_count)),
      logs_(static_cast<size_t>(replica_count)) {}

void SubjectBase::check_replica(net::ReplicaId replica) const {
  if (replica < 0 || replica >= replica_count_) {
    throw std::out_of_range("replica " + std::to_string(replica) + " out of range for " +
                            name_);
  }
}

util::Json SubjectBase::replica_state(net::ReplicaId replica) const {
  check_replica(replica);
  util::Json state;
  auto out = util::JsonWriter::tree(state);
  write_state(replica, out);
  return state;
}

uint64_t SubjectBase::state_digest(net::ReplicaId replica, std::string_view field) const {
  check_replica(replica);
  auto out = util::JsonWriter::fnv();
  if (!field.empty()) out.only(field);
  write_state(replica, out);
  return out.digest();
}

util::Result<util::Json> SubjectBase::invoke(net::ReplicaId replica, const std::string& op,
                                             const util::Json& args) {
  check_replica(replica);
  if (op == proxy::kSyncReqOp) {
    const auto to = static_cast<net::ReplicaId>(args["peer"].as_int());
    check_replica(to);
    if (recorder_ != nullptr) {
      // The payload is composed from the sender's full state and queued on
      // the from->to channel; the channel key also carries FIFO
      // happens-before (two ops on one channel never commute).
      recorder_->note_sync();
      recorder_->note_read(static_cast<int>(replica), "*");
      recorder_->note_channel_write(static_cast<int>(replica), static_cast<int>(to));
    }
    auto payload = make_sync(replica, to, args);
    if (!payload) return util::Error{payload.error()};
    if (!network_->send(replica, to, "sync", std::move(payload).take())) {
      return util::Error{"sync request dropped by network (partition or fault)"};
    }
    return util::Json(true);
  }
  if (op == proxy::kExecSyncOp) {
    const auto from = static_cast<net::ReplicaId>(args["peer"].as_int());
    check_replica(from);
    if (recorder_ != nullptr) {
      // Pops the channel (read + write) and merges the payload into the
      // receiver, conservatively the whole replica.
      recorder_->note_sync();
      recorder_->note_channel_read(static_cast<int>(from), static_cast<int>(replica));
      recorder_->note_channel_write(static_cast<int>(from), static_cast<int>(replica));
      recorder_->note_read(static_cast<int>(replica), "*");
      recorder_->note_write(static_cast<int>(replica), "*");
    }
    const auto message = network_->deliver_next(from, replica);
    if (!message) {
      return util::Error{"no pending sync request from replica " + std::to_string(from)};
    }
    auto st = apply_sync(from, replica, *message->payload);
    if (durable_logging_) {
      // Logged whether or not the apply succeeded: a real WAL records the
      // received update before the outcome is known, and a deterministic
      // apply fails the same way on recovery replay. The body never changed
      // after send, so its rendering is the bytes the sender shipped.
      util::Json::Object record;
      record["t"] = "sync";
      record["f"] = static_cast<int64_t>(from);
      record["p"] = message->payload->render();
      append_log(replica, util::Json(std::move(record)).dump());
      note_write(replica, "log");
    }
    if (!st) return util::Error{st.error()};
    return util::Json(true);
  }
  const size_t notes_before = recorder_ != nullptr ? recorder_->note_count() : 0;
  auto result = do_invoke(replica, op, args);
  if (recorder_ != nullptr && recorder_->recording() &&
      recorder_->note_count() == notes_before) {
    // Uninstrumented op: conservative whole-replica footprint so it conflicts
    // with every other op on this replica (sound, never cuts too much).
    recorder_->note_read(static_cast<int>(replica), "*");
    if (!is_readonly_op(op)) recorder_->note_write(static_cast<int>(replica), "*");
  }
  if (durable_logging_ && result && !is_readonly_op(op)) {
    util::Json::Object record;
    record["t"] = "op";
    record["op"] = op;
    record["a"] = args;
    append_log(replica, util::Json(std::move(record)).dump());
    note_write(replica, "log");
  }
  return result;
}

util::Result<std::string> SubjectBase::make_sync_payload(net::ReplicaId from, net::ReplicaId to,
                                                         const util::Json& args) {
  auto payload = make_sync(from, to, args);
  if (!payload) return util::Error{payload.error()};
  return payload.value()->render();
}

util::Status SubjectBase::apply_sync_payload(net::ReplicaId from, net::ReplicaId to,
                                             const std::string& payload) {
  auto decoded = decode_sync(payload);
  if (!decoded) return util::Status(decoded.error());
  return apply_sync(from, to, *decoded.value());
}

void SubjectBase::set_footprint_recorder(core::FootprintRecorder* recorder) {
  recorder_ = recorder;
}

void SubjectBase::note_read(net::ReplicaId replica, std::string_view field) {
  if (recorder_ != nullptr) recorder_->note_read(static_cast<int>(replica), field);
}

void SubjectBase::note_write(net::ReplicaId replica, std::string_view field) {
  if (recorder_ != nullptr) recorder_->note_write(static_cast<int>(replica), field);
}

void SubjectBase::reset() {
  network_->reset();
  network_->heal_all();
  do_reset();
  for (auto& log : logs_) log = DurableLog{};
  recovering_ = false;
  replaying_duplicate_ = false;
}

uint64_t SubjectBase::replica_state_bytes() const {
  uint64_t total = 0;
  for (int r = 0; r < replica_count_; ++r) {
    total += replica_state(static_cast<net::ReplicaId>(r)).dump().size();
  }
  return total;
}

proxy::Snapshot SubjectBase::snapshot() {
  auto replicas = clone_replicas();
  if (replicas == nullptr) return {};
  auto state = std::make_shared<SnapshotState>();
  state->owner = this;
  state->replicas = std::move(replicas);
  state->network = network_->save_state();
  state->logs = logs_;
  state->logging = durable_logging_;
  uint64_t log_bytes = 0;
  for (const auto& log : logs_) log_bytes += log.bytes();
  proxy::Snapshot snap;
  snap.bytes = replica_state_bytes() + state->network.bytes() + log_bytes;
  snap.state = std::move(state);
  return snap;
}

bool SubjectBase::restore(const proxy::Snapshot& snap) {
  if (!snap.valid()) return false;
  const auto* state = static_cast<const SnapshotState*>(snap.state.get());
  if (state->owner != this) return false;
  if (!adopt_replicas(state->replicas.get())) return false;
  network_->restore_state(state->network);
  logs_ = state->logs;
  durable_logging_ = state->logging;
  return true;
}

SubjectBase::ReplicaSnapshotState SubjectBase::snapshot_replica(net::ReplicaId replica) const {
  check_replica(replica);
  ReplicaSnapshotState snap;
  snap.saved = clone_replica(replica);
  if (snap.saved == nullptr) return snap;  // unsupported — invalid snapshot
  snap.owner = this;
  snap.replica = replica;
  return snap;
}

bool SubjectBase::crash_restore_replica(net::ReplicaId replica,
                                        const ReplicaSnapshotState& snap) {
  check_replica(replica);
  if (!snap.valid() || snap.owner != this || snap.replica != replica) return false;
  if (!adopt_replica(replica, snap.saved.get())) return false;
  network_->drop_inbound(replica);
  // The durable log survives the crash untouched: it is the disk, not the
  // process. Storage plans damage it separately.
  return true;
}

uint64_t SubjectBase::DurableLog::bytes() const noexcept {
  uint64_t total = 0;
  for (const auto& entry : entries) total += entry.record.size() + sizeof(entry.seqno);
  return total;
}

void SubjectBase::set_durable_logging(bool on) {
  durable_logging_ = on && supports_durable_log();
  for (auto& log : logs_) log = DurableLog{};
}

SubjectBase::DurableLog& SubjectBase::log_at(net::ReplicaId replica) {
  check_replica(replica);
  return logs_[static_cast<size_t>(replica)];
}

const SubjectBase::DurableLog& SubjectBase::log_at(net::ReplicaId replica) const {
  check_replica(replica);
  return logs_[static_cast<size_t>(replica)];
}

const SubjectBase::DurableLog& SubjectBase::durable_log(net::ReplicaId replica) const {
  return log_at(replica);
}

size_t SubjectBase::log_length(net::ReplicaId replica) const {
  return log_at(replica).entries.size();
}

uint64_t SubjectBase::log_committed(net::ReplicaId replica) const {
  return log_at(replica).committed;
}

void SubjectBase::append_log(net::ReplicaId replica, std::string record) {
  auto& log = log_at(replica);
  log.entries.push_back({log.committed, std::move(record)});
  ++log.committed;
}

size_t SubjectBase::truncate_log(net::ReplicaId replica, size_t count) {
  auto& entries = log_at(replica).entries;
  const size_t removed = std::min(count, entries.size());
  entries.resize(entries.size() - removed);
  return removed;
}

bool SubjectBase::drop_log_entry(net::ReplicaId replica, size_t index) {
  auto& entries = log_at(replica).entries;
  if (index >= entries.size()) return false;
  entries.erase(entries.begin() + static_cast<ptrdiff_t>(index));
  return true;
}

size_t SubjectBase::duplicate_log_segment(net::ReplicaId replica, size_t first, size_t count) {
  auto& entries = log_at(replica).entries;
  if (first >= entries.size()) return 0;
  const size_t copied = std::min(count, entries.size() - first);
  // Copy out before appending: push_back into the source vector invalidates
  // the range being copied.
  const std::vector<DurableLog::Entry> segment(
      entries.begin() + static_cast<ptrdiff_t>(first),
      entries.begin() + static_cast<ptrdiff_t>(first + copied));
  entries.insert(entries.end(), segment.begin(), segment.end());
  return copied;
}

size_t SubjectBase::splice_log_suffix(net::ReplicaId replica, size_t from_length, size_t keep) {
  auto& entries = log_at(replica).entries;
  const size_t keep_end = std::min(entries.size(), from_length + keep);
  const size_t removed = entries.size() - keep_end;
  entries.resize(keep_end);
  return removed;
}

void SubjectBase::replay_log_record(net::ReplicaId replica, const std::string& record) {
  auto parsed = util::Json::parse(record);
  if (!parsed) return;
  const auto doc = std::move(parsed).take();
  if (!doc.is_object() || !doc["t"].is_string()) return;
  const auto& type = doc["t"].as_string();
  if (type == "op" && doc["op"].is_string()) {
    (void)do_invoke(replica, doc["op"].as_string(), doc["a"]);
  } else if (type == "sync" && doc["f"].is_int() && doc["p"].is_string()) {
    // A body that does not decode replays as nothing: the decode fails
    // before the replica is touched.
    const auto payload = decode_sync(doc["p"].as_string());
    if (!payload) return;
    (void)apply_sync(static_cast<net::ReplicaId>(doc["f"].as_int()), replica, *payload.value());
  }
}

SubjectBase::RecoveryResult SubjectBase::recover_from_log(net::ReplicaId replica) {
  check_replica(replica);
  RecoveryResult result;
  if (!durable_logging_ || !supports_durable_log()) return result;  // Unsupported

  const auto policy = recovery_policy();
  const auto& log = log_at(replica);

  // What history does the log claim? An honest subject trusts the committed
  // mark; a buggy one trusts only the entries present, so a torn tail looks
  // complete.
  uint64_t limit = 0;
  if (policy.check_committed) {
    limit = log.committed;
  } else {
    for (const auto& entry : log.entries) limit = std::max(limit, entry.seqno + 1);
  }

  std::vector<bool> present(static_cast<size_t>(limit), false);
  for (const auto& entry : log.entries) {
    if (entry.seqno < limit) present[static_cast<size_t>(entry.seqno)] = true;
  }
  uint64_t first_missing = limit;
  uint64_t missing_count = 0;
  for (uint64_t s = 0; s < limit; ++s) {
    if (!present[static_cast<size_t>(s)]) {
      if (missing_count == 0) first_missing = s;
      ++missing_count;
    }
  }

  if (!reset_replica_state(replica)) return result;  // Unsupported

  // Replay in file order. Everything at or past the first gap is untrusted —
  // the recovered prefix is exactly [0, first_missing) — and duplicates are
  // skipped or replayed per the subject's policy.
  recovering_ = true;
  std::vector<bool> applied(static_cast<size_t>(limit), false);
  for (const auto& entry : log.entries) {
    if (missing_count > 0 && entry.seqno >= first_missing) continue;
    const bool duplicate =
        entry.seqno < limit && applied[static_cast<size_t>(entry.seqno)];
    if (entry.seqno < limit) applied[static_cast<size_t>(entry.seqno)] = true;
    if (duplicate && policy.dedup_duplicates) continue;
    replaying_duplicate_ = duplicate;
    replay_log_record(replica, entry.record);
    replaying_duplicate_ = false;
  }
  recovering_ = false;

  result.status = missing_count > 0 ? RecoveryResult::Status::MissingEntries
                                    : RecoveryResult::Status::Ok;
  result.first_missing = missing_count > 0 ? first_missing : 0;
  result.missing_count = missing_count;
  return result;
}

}  // namespace erpi::subjects
