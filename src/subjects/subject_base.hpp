// Shared machinery for the evaluation subjects (paper §6).
//
// Every subject models one third-party replicated data system re-implemented
// in C++: N replica contexts attached to a SimNetwork, with synchronization
// expressed as the reserved "sync_req"/"exec_sync" operations. A sync_req
// puts the sender's immutable, typed sync body on the network channel; the
// paired exec_sync pops it at the receiver and applies it — so the
// interleaving fully controls when replication happens, which is what ER-pi
// replays. The body's text form is rendered only for the durable log.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "proxy/rdl.hpp"

namespace erpi::subjects {

class SubjectBase : public proxy::Rdl {
 public:
  SubjectBase(std::string name, int replica_count);

  std::string name() const override { return name_; }
  int replica_count() const override { return replica_count_; }

  /// write_state() through a tree sink. Virtual so a decorator subclass can
  /// wrap it; state_digest() never calls it.
  util::Json replica_state(net::ReplicaId replica) const override;
  /// write_state() folded into FNV-1a; with a `field`, only that member.
  uint64_t state_digest(net::ReplicaId replica, std::string_view field) const override;

  util::Result<util::Json> invoke(net::ReplicaId replica, const std::string& op,
                                  const util::Json& args) final;

  void reset() final;

  /// Incremental-replay checkpoint: replica state (via clone_replicas) plus
  /// the simulated network (in-flight sync traffic, partitions, fault RNG).
  /// Returns an invalid Snapshot when the subject does not override
  /// clone_replicas/adopt_replicas; the replay engine then falls back to the
  /// full reset() path.
  proxy::Snapshot snapshot() final;

  /// Restore a checkpoint produced by *this* subject's snapshot(). Snapshots
  /// from another instance (or an invalid one) are rejected with false and
  /// leave the state untouched.
  bool restore(const proxy::Snapshot& snap) final;

  net::SimNetwork& network() noexcept { return *network_; }

  /// Dynamic-pruning wiring (DESIGN.md §15). The recorder is owned by the
  /// replay engine; it is deliberately *not* part of SnapshotState, so
  /// snapshot()/restore() round-trips leave the installed recorder intact.
  void set_footprint_recorder(core::FootprintRecorder* recorder) final;

  // ---- crash-fault support (faults:: CrashRestart plans) ------------------

  /// A single replica's checkpoint, taken by snapshot_replica(). Invalid
  /// (valid() == false) when the subject does not override the per-replica
  /// clone/adopt hooks; the fault layer then reports the plan's crash action
  /// as unsupported instead of faulting the process.
  struct ReplicaSnapshotState {
    const SubjectBase* owner = nullptr;  // guards against cross-subject restore
    net::ReplicaId replica = -1;
    std::shared_ptr<const void> saved;

    bool valid() const noexcept { return owner != nullptr && saved != nullptr; }
  };

  /// Checkpoint one replica's state (the "periodic durable snapshot" a real
  /// deployment would restart from).
  ReplicaSnapshotState snapshot_replica(net::ReplicaId replica) const;

  /// Crash the replica and restart it from `snap`: its live state is replaced
  /// by the checkpoint and every queued network message addressed to it is
  /// discarded (the crashed process's inbox dies with it, counted as dropped
  /// in network stats). Returns false when the snapshot does not belong to
  /// this subject/replica or per-replica hooks are unsupported.
  bool crash_restore_replica(net::ReplicaId replica, const ReplicaSnapshotState& snap);

  // ---- durable-log model (faults:: storage plans, DESIGN.md §13) ----------

  /// A replica's write-ahead log. The entry file models the bytes on disk —
  /// storage damage mutates it freely — while `committed` is the durable
  /// high-water mark a journal header would carry: damage never touches it,
  /// so recovery can tell "the log claims 5 entries but holds 3".
  struct DurableLog {
    struct Entry {
      uint64_t seqno = 0;   // commit order; gaps reveal missing entries
      std::string record;   // self-describing JSON replay record
      bool operator==(const Entry&) const = default;
    };
    std::vector<Entry> entries;
    uint64_t committed = 0;

    bool operator==(const DurableLog&) const = default;
    uint64_t bytes() const noexcept;
  };

  /// Structured recovery verdict. Unsupported = the subject does not opt in
  /// (or logging is off); Ok = the full committed history replayed;
  /// MissingEntries = the log is damaged and recovery stopped at the first
  /// seqno gap, reporting exactly what is lost — never a silent guess.
  struct RecoveryResult {
    enum class Status { Unsupported, Ok, MissingEntries };
    Status status = Status::Unsupported;
    uint64_t first_missing = 0;
    uint64_t missing_count = 0;
  };

  /// Opt-in durable logging: when enabled (and the subject implements the
  /// recovery hooks), every successful mutating operation and every applied
  /// sync payload is appended to the acting replica's log. Off by default —
  /// plain replays carry no logging cost and snapshot byte-identically to
  /// prior releases. Toggling clears the logs.
  void set_durable_logging(bool on);
  bool durable_logging() const noexcept { return durable_logging_; }
  /// Non-mutating probe: true when the subject implements the recovery hooks.
  bool durable_log_supported() const { return supports_durable_log(); }

  const DurableLog& durable_log(net::ReplicaId replica) const;
  size_t log_length(net::ReplicaId replica) const;
  uint64_t log_committed(net::ReplicaId replica) const;

  // Damage primitives (the fault layer's storage injections). They mutate
  // the entry file only, never the committed mark — like disk corruption
  // under a journal header that still claims the full history.

  /// Remove the last `count` entries (torn tail). Returns entries removed.
  size_t truncate_log(net::ReplicaId replica, size_t count);
  /// Hide one entry by file index. Returns false when out of range.
  bool drop_log_entry(net::ReplicaId replica, size_t index);
  /// Re-append a copy of entries [first, first+count), clamped to the file.
  /// Returns entries appended.
  size_t duplicate_log_segment(net::ReplicaId replica, size_t first, size_t count);
  /// Stale-snapshot restore shape: keep the prefix [0, from_length) plus the
  /// next `keep` entries, discard the rest. Returns entries removed.
  size_t splice_log_suffix(net::ReplicaId replica, size_t from_length, size_t keep);

  /// Rebuild the replica from its (possibly damaged) durable log: reset it
  /// to initial state, then replay entries in file order up to the first
  /// seqno gap, deduping duplicates per the subject's recovery policy. The
  /// caller compares the rebuilt state against a pre-damage reference to
  /// rule out silent divergence.
  RecoveryResult recover_from_log(net::ReplicaId replica);

 protected:
  /// Subject-specific operation dispatch (sync ops are handled by the base).
  virtual util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                             const util::Json& args) = 0;

  /// The replica's state document, described once: replica_state() and
  /// state_digest() both come from it. Keys go in strictly increasing order
  /// (util::JsonWriter throws otherwise); a member the writer does not
  /// wants() may be skipped.
  virtual void write_state(net::ReplicaId replica, util::JsonWriter& out) const = 0;

  // ---- sync hooks (see subjects/sync_codec.hpp) ---------------------------

  /// Build the immutable body a sync_req from -> to puts on the wire. `args`
  /// are the sync_req's arguments (subjects may support modes, e.g.
  /// OrbitDB's separate head announcement vs entry shipment).
  virtual util::Result<net::PayloadPtr> make_sync(net::ReplicaId from, net::ReplicaId to,
                                                  const util::Json& args) = 0;

  /// Apply a delivered body at the receiver. The body came from this
  /// subject's make_sync() or decode_sync(). Apply order is behaviour: a
  /// typed apply visits data in the order its text form's decode would
  /// (JSON objects iterate in sorted key order).
  virtual util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                                  const net::Payload& payload) = 0;

  /// Strict decode of a body's render() text: a failed Result on malformed
  /// text or a wrong shape, never an exception, and nothing is mutated.
  virtual util::Result<net::PayloadPtr> decode_sync(const std::string& text) const = 0;

  /// Text form of make_sync(): the body, rendered. Not on the sync path.
  virtual util::Result<std::string> make_sync_payload(net::ReplicaId from, net::ReplicaId to,
                                                      const util::Json& args);

  /// Text form of apply_sync(): decode_sync(), then apply_sync(). Not on the
  /// sync path.
  virtual util::Status apply_sync_payload(net::ReplicaId from, net::ReplicaId to,
                                          const std::string& payload);

  /// Rebuild all replica state from scratch.
  virtual void do_reset() = 0;

  // ---- snapshot hooks (whole-subject checkpoints) -------------------------
  //
  // A subject that wants snapshot support returns a type-erased deep copy of
  // its replica contexts from clone_replicas() and replaces the live contexts
  // from that copy in adopt_replicas(). Every subject in src/subjects/ does;
  // the base defaults keep snapshots *unsupported* (nullptr / false), because
  // replica state cannot be rebuilt generically — only sized: the default
  // replica_state_bytes() serializes each replica_state() through the
  // existing JSON machinery to estimate the checkpoint's budget charge.

  /// Deep copy of all replica state. nullptr = snapshots unsupported.
  virtual std::shared_ptr<const void> clone_replicas() const { return nullptr; }

  /// Replace the live replica state with a copy previously produced by
  /// clone_replicas(). Must deep-copy (a snapshot may be restored many
  /// times). Returns false when unsupported.
  virtual bool adopt_replicas(const void* saved) {
    (void)saved;
    return false;
  }

  /// Approximate heap bytes of the current replica state, reported as a
  /// checkpoint's Snapshot::bytes. Default: total length of every replica's
  /// JSON-rendered state.
  virtual uint64_t replica_state_bytes() const;

  /// Deep copy of one replica's state (crash-restart support). nullptr =
  /// per-replica snapshots unsupported; crash plans degrade gracefully.
  virtual std::shared_ptr<const void> clone_replica(net::ReplicaId replica) const {
    (void)replica;
    return nullptr;
  }

  /// Replace one replica's live state with a copy previously produced by
  /// clone_replica() for the same replica. Must deep-copy. Returns false
  /// when unsupported.
  virtual bool adopt_replica(net::ReplicaId replica, const void* saved) {
    (void)replica;
    (void)saved;
    return false;
  }

  /// Boilerplate for the common `std::vector<ReplicaCtx>` subject layout.
  template <typename Ctx>
  static std::shared_ptr<const void> clone_ctx_vector(const std::vector<Ctx>& contexts) {
    return std::make_shared<const std::vector<Ctx>>(contexts);
  }
  template <typename Ctx>
  static bool adopt_ctx_vector(std::vector<Ctx>& contexts, const void* saved) {
    contexts = *static_cast<const std::vector<Ctx>*>(saved);
    return true;
  }
  template <typename Ctx>
  static std::shared_ptr<const void> clone_ctx_at(const std::vector<Ctx>& contexts,
                                                  net::ReplicaId replica) {
    return std::make_shared<const Ctx>(contexts.at(static_cast<size_t>(replica)));
  }
  template <typename Ctx>
  static bool adopt_ctx_at(std::vector<Ctx>& contexts, net::ReplicaId replica,
                           const void* saved) {
    contexts.at(static_cast<size_t>(replica)) = *static_cast<const Ctx*>(saved);
    return true;
  }

  // ---- durable-log hooks --------------------------------------------------

  /// Opt-in probe; must not mutate. A subject returning true must also
  /// implement reset_replica_state() and is_readonly_op().
  virtual bool supports_durable_log() const { return false; }

  /// Rebuild one replica to its post-reset() initial state (recovery starts
  /// here before replaying the log). Returns false when unsupported, without
  /// mutating anything.
  virtual bool reset_replica_state(net::ReplicaId replica) {
    (void)replica;
    return false;
  }

  /// Operations that never mutate replica state; they are not logged.
  virtual bool is_readonly_op(const std::string& op) const {
    (void)op;
    return false;
  }

  /// How recover_from_log() trusts the damaged file.
  struct RecoveryPolicy {
    /// Trust the committed high-water mark: a log shorter than it claims is
    /// reported as missing entries. A subject that only trusts the entries
    /// present (false) accepts torn tails silently — and diverges, which the
    /// fault layer flags as a violation.
    bool check_committed = true;
    /// Skip entries whose seqno already replayed. A subject replaying
    /// duplicated segments non-idempotently (false) sees every copy.
    bool dedup_duplicates = true;
  };
  virtual RecoveryPolicy recovery_policy() const { return {}; }

  // ---- footprint hooks (core/dpor.hpp) ------------------------------------
  //
  // invoke() records sync traffic at the base (channel keys + conservative
  // whole-replica payload effects); subjects refine do_invoke coverage with
  // these helpers. When a do_invoke records nothing, invoke() falls back to
  // a conservative whole-replica footprint ("rN/*"), so uninstrumented ops
  // conflict with everything on their replica and stay sound.

  core::FootprintRecorder* footprint_recorder() const noexcept { return recorder_; }
  /// Record "r<replica>/<field>" into the current event's read/write set.
  /// No-ops when no recorder is installed or no event is being replayed.
  void note_read(net::ReplicaId replica, std::string_view field);
  void note_write(net::ReplicaId replica, std::string_view field);

  /// True while recover_from_log() is replaying entries.
  bool recovering() const noexcept { return recovering_; }
  /// True while the entry being replayed is a duplicate the policy chose not
  /// to dedup — the hook where non-idempotent-replay bugs live.
  bool replaying_duplicate() const noexcept { return replaying_duplicate_; }

  void check_replica(net::ReplicaId replica) const;

 private:
  struct SnapshotState {
    const SubjectBase* owner = nullptr;  // guards against cross-subject restore
    std::shared_ptr<const void> replicas;
    net::SimNetwork::State network;
    // Durable logs ride along in snapshots so a restore sees exactly the log
    // the checkpointed replay had written.
    // Empty (zero bytes) when logging is off.
    std::vector<DurableLog> logs;
    bool logging = false;
  };

  void append_log(net::ReplicaId replica, std::string record);
  void replay_log_record(net::ReplicaId replica, const std::string& record);
  DurableLog& log_at(net::ReplicaId replica);
  const DurableLog& log_at(net::ReplicaId replica) const;

  std::string name_;
  int replica_count_;
  std::unique_ptr<net::SimNetwork> network_;
  core::FootprintRecorder* recorder_ = nullptr;  // wiring, not state (see above)
  bool durable_logging_ = false;
  bool recovering_ = false;
  bool replaying_duplicate_ = false;
  std::vector<DurableLog> logs_;
};

}  // namespace erpi::subjects
