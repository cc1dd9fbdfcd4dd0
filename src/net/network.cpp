#include "net/network.hpp"

#include <stdexcept>

namespace erpi::net {

SimNetwork::SimNetwork(int replica_count, uint64_t seed)
    : replica_count_(replica_count), rng_(seed) {
  if (replica_count <= 0) throw std::invalid_argument("replica_count must be positive");
}

void SimNetwork::check_replica(ReplicaId id) const {
  if (id < 0 || id >= replica_count_) {
    throw std::out_of_range("replica id " + std::to_string(id) + " out of range");
  }
}

void SimNetwork::set_faults(Faults faults) {
  std::lock_guard lock(mu_);
  faults_ = faults;
}

void SimNetwork::set_script(Script script) {
  std::lock_guard lock(mu_);
  script_ = std::move(script);
  script_sends_seen_ = 0;
}

SimNetwork::Script SimNetwork::script() const {
  std::lock_guard lock(mu_);
  return script_;
}

void SimNetwork::partition(ReplicaId a, ReplicaId b) {
  check_replica(a);
  check_replica(b);
  std::lock_guard lock(mu_);
  partitions_.insert({std::min(a, b), std::max(a, b)});
}

void SimNetwork::heal(ReplicaId a, ReplicaId b) {
  std::lock_guard lock(mu_);
  partitions_.erase({std::min(a, b), std::max(a, b)});
}

void SimNetwork::heal_all() {
  std::lock_guard lock(mu_);
  partitions_.clear();
}

bool SimNetwork::partitioned(ReplicaId a, ReplicaId b) const {
  std::lock_guard lock(mu_);
  return partitions_.count({std::min(a, b), std::max(a, b)}) > 0;
}

std::optional<uint64_t> SimNetwork::send(ReplicaId from, ReplicaId to, std::string topic,
                                         PayloadPtr payload) {
  check_replica(from);
  check_replica(to);
  std::lock_guard lock(mu_);
  ++stats_.sent;
  ++script_sends_seen_;
  const bool severed = partitions_.count({std::min(from, to), std::max(from, to)}) > 0;
  // Both fault chances are drawn on every send, even across a severed link:
  // the fault RNG stream must advance exactly one (drop, duplicate) pair per
  // send so that save_state()/restore_state() round-trips and fault-schedule
  // replays see the same stream regardless of partition timing.
  const bool fault_drop = rng_.chance(faults_.drop_probability);
  const bool fault_dup = rng_.chance(faults_.duplicate_probability);
  const bool script_drop = script_.drop.count(script_sends_seen_) > 0;
  const bool script_dup = script_.duplicate.count(script_sends_seen_) > 0;
  if (severed || fault_drop || script_drop) {
    // However many causes coincide (probability drop on a severed link, a
    // scripted drop on top of either), the message is one loss: count it
    // exactly once, and never duplicate what was never delivered.
    ++stats_.dropped;
    return std::nullopt;
  }
  Message m{from, to, std::move(topic), std::move(payload), next_seq_++};
  auto& channel = channels_[{from, to}];
  channel.push_back(std::move(m));
  if (fault_dup || script_dup) {
    Message dup = channel.back();  // shares the body
    dup.seq = next_seq_++;
    channel.push_back(std::move(dup));
    ++stats_.duplicated;
  }
  return channel.back().seq;
}

std::optional<Message> SimNetwork::pop_locked(ReplicaId from, ReplicaId to) {
  const auto it = channels_.find({from, to});
  if (it == channels_.end() || it->second.empty()) return std::nullopt;
  Message m = std::move(it->second.front());
  it->second.pop_front();  // a drained channel stays, so its next send reuses it
  ++stats_.delivered;
  return m;
}

std::optional<Message> SimNetwork::deliver_next(ReplicaId from, ReplicaId to) {
  check_replica(from);
  check_replica(to);
  std::lock_guard lock(mu_);
  return pop_locked(from, to);
}

std::optional<Message> SimNetwork::deliver_any(ReplicaId to) {
  check_replica(to);
  std::lock_guard lock(mu_);
  // lowest global seq among channels destined to `to`
  const std::pair<ReplicaId, ReplicaId>* best = nullptr;
  uint64_t best_seq = 0;
  for (const auto& [key, queue] : channels_) {
    if (key.second != to || queue.empty()) continue;
    if (best == nullptr || queue.front().seq < best_seq) {
      best = &key;
      best_seq = queue.front().seq;
    }
  }
  if (best == nullptr) return std::nullopt;
  return pop_locked(best->first, best->second);
}

size_t SimNetwork::deliver_all() {
  std::lock_guard lock(mu_);
  size_t count = 0;
  for (auto& [key, queue] : channels_) {
    count += queue.size();
    queue.clear();
  }
  stats_.delivered += count;
  return count;
}

size_t SimNetwork::pending(ReplicaId from, ReplicaId to) const {
  std::lock_guard lock(mu_);
  const auto it = channels_.find({from, to});
  return it == channels_.end() ? 0 : it->second.size();
}

size_t SimNetwork::total_pending() const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (const auto& [key, queue] : channels_) n += queue.size();
  return n;
}

NetworkStats SimNetwork::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void SimNetwork::reset() {
  std::lock_guard lock(mu_);
  for (auto& [key, queue] : channels_) queue.clear();  // keep the channels' storage
  stats_ = NetworkStats{};
  next_seq_ = 1;
  script_sends_seen_ = 0;  // the script itself survives across interleavings
}

size_t SimNetwork::drop_inbound(ReplicaId to) {
  check_replica(to);
  std::lock_guard lock(mu_);
  size_t discarded = 0;
  for (auto it = channels_.begin(); it != channels_.end();) {
    if (it->first.second == to) {
      discarded += it->second.size();
      it = channels_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.dropped += discarded;
  return discarded;
}

uint64_t SimNetwork::State::bytes() const noexcept {
  uint64_t total = sizeof(State);
  for (const auto& [key, queue] : channels) {
    for (const auto& message : queue) {
      total += sizeof(Message) + message.topic.size();
    }
  }
  total += partitions.size() * sizeof(std::pair<ReplicaId, ReplicaId>);
  total += (script.drop.size() + script.duplicate.size()) * sizeof(uint64_t);
  return total;
}

SimNetwork::State SimNetwork::save_state() const {
  std::lock_guard lock(mu_);
  State state;
  state.rng = rng_;
  state.faults = faults_;
  state.next_seq = next_seq_;
  state.channels = channels_;
  state.partitions = partitions_;
  state.stats = stats_;
  state.script = script_;
  state.script_sends_seen = script_sends_seen_;
  return state;
}

void SimNetwork::restore_state(const State& state) {
  std::lock_guard lock(mu_);
  rng_ = state.rng;
  faults_ = state.faults;
  next_seq_ = state.next_seq;
  channels_ = state.channels;
  partitions_ = state.partitions;
  stats_ = state.stats;
  script_ = state.script;
  script_sends_seen_ = state.script_sends_seen;
}

}  // namespace erpi::net
