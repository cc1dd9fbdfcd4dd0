// Simulated distributed environment.
//
// The paper evaluates on three physical replicas; here each replica is a
// context attached to a SimNetwork. The network holds every sent message in a
// per-(sender, receiver) FIFO channel and only delivers when told to — which
// is exactly the control ER-pi's replay engine needs: a sync_req event maps
// to send(), the paired exec_sync event maps to deliver_next(). Fault
// injection (drop / duplicate / partition) is available for robustness tests.
//
// A message body is an immutable, shared Payload object, not text: the
// sending subject builds it, only that subject reads it, and the network
// stores and forwards the pointer. Faults key on send ordinals, never on
// bytes, so they behave the same whatever the body holds.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "util/rng.hpp"

namespace erpi::net {

using ReplicaId = int32_t;

/// A message body. It never changes after send(), so a duplicated message
/// shares its body with the original, and rendering a body at delivery gives
/// the bytes its sender would have put on the wire.
class Payload {
 public:
  virtual ~Payload() = default;
  /// The body's wire text. Replay never needs it; the durable log does.
  virtual std::string render() const = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

struct Message {
  ReplicaId from = -1;
  ReplicaId to = -1;
  std::string topic;   // e.g. "sync", "op", subject-specific kinds
  PayloadPtr payload;  // immutable body, shared by every copy of the message
  uint64_t seq = 0;    // global send sequence, unique per send
};

struct NetworkStats {
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
};

class SimNetwork {
 public:
  struct Faults {
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;

    bool operator==(const Faults&) const = default;
  };

  /// Deterministic scripted faults (the fault-schedule exploration layer,
  /// src/faults): sends are counted 1, 2, 3, ... from the last reset() /
  /// set_script(), and a send whose ordinal appears in `drop` is dropped,
  /// in `duplicate` duplicated. Unlike the probabilistic Faults above, a
  /// script makes the exact same message fail on every replay of the same
  /// interleaving — which is what lets a FaultPlan be an explored dimension
  /// rather than noise.
  struct Script {
    std::set<uint64_t> drop;
    std::set<uint64_t> duplicate;

    bool empty() const noexcept { return drop.empty() && duplicate.empty(); }
    bool operator==(const Script&) const = default;
  };

  explicit SimNetwork(int replica_count, uint64_t seed = 0xbeef);

  int replica_count() const noexcept { return replica_count_; }

  void set_faults(Faults faults);

  /// Install a scripted fault schedule and restart the send ordinal at 1.
  /// The script survives reset() (reset only rewinds the ordinal), so one
  /// installation covers every interleaving replayed under the same plan.
  void set_script(Script script);
  Script script() const;

  /// Sever the link between two replicas (both directions). Messages sent
  /// across a partition are dropped.
  void partition(ReplicaId a, ReplicaId b);
  void heal(ReplicaId a, ReplicaId b);
  void heal_all();
  bool partitioned(ReplicaId a, ReplicaId b) const;

  /// Queue a message. Returns the send sequence number, or nullopt if the
  /// message was dropped (fault or partition).
  std::optional<uint64_t> send(ReplicaId from, ReplicaId to, std::string topic,
                               PayloadPtr payload);

  /// Deliver the oldest message on channel (from -> to). FIFO per channel.
  std::optional<Message> deliver_next(ReplicaId from, ReplicaId to);

  /// Deliver the oldest message destined to `to` from any sender
  /// (lowest-seq first, i.e. global send order).
  std::optional<Message> deliver_any(ReplicaId to);

  /// Deliver everything currently queued, discarding the messages. Returns
  /// how many were delivered.
  size_t deliver_all();

  size_t pending(ReplicaId from, ReplicaId to) const;
  size_t total_pending() const;

  NetworkStats stats() const;

  /// Drop all in-flight messages and reset statistics (between
  /// interleavings). Keeps the scripted fault schedule but rewinds its send
  /// ordinal to the beginning, so every interleaving sees the same script.
  void reset();

  /// Crash-fault support: discard every queued message destined to `to`
  /// (the crashed replica's inbox dies with its process). The discarded
  /// messages count as dropped in stats(). Returns how many were discarded.
  size_t drop_inbound(ReplicaId to);

  /// Value-semantic checkpoint of the network: queued messages, partitions,
  /// fault configuration, the fault RNG stream, sequence counter and stats.
  /// Subjects embed this in their proxy::Snapshot so a restore brings back
  /// in-flight sync traffic along with replica state. Queued bodies are
  /// immutable, so the checkpoint shares them.
  struct State {
    util::Rng rng;
    Faults faults;
    Script script;
    uint64_t script_sends_seen = 0;
    uint64_t next_seq = 1;
    std::map<std::pair<ReplicaId, ReplicaId>, std::deque<Message>> channels;
    std::set<std::pair<ReplicaId, ReplicaId>> partitions;
    NetworkStats stats;

    /// Approximate heap bytes: per-message overhead and topics. Bodies are
    /// shared with the live network, so they are not counted.
    uint64_t bytes() const noexcept;
  };

  State save_state() const;
  void restore_state(const State& state);

 private:
  void check_replica(ReplicaId id) const;
  std::optional<Message> pop_locked(ReplicaId from, ReplicaId to);

  const int replica_count_;
  mutable std::mutex mu_;
  util::Rng rng_;
  Faults faults_;
  Script script_;
  uint64_t script_sends_seen_ = 0;
  uint64_t next_seq_ = 1;
  std::map<std::pair<ReplicaId, ReplicaId>, std::deque<Message>> channels_;
  std::set<std::pair<ReplicaId, ReplicaId>> partitions_;  // normalized (min,max)
  NetworkStats stats_;
};

}  // namespace erpi::net
