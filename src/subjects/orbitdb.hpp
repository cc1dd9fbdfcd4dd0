// Subject 2 — OrbitDB: serverless peer-to-peer database over a Merkle-CRDT
// log (paper §6, [59]). Each replica holds a MerkleLog plus a key-value view
// derived from it; sync ships the full DAG state.
//
// Historical bugs behind flags (all fixed = faithful current OrbitDB):
//  * log_flags.identity_tiebreak = false — issue #513 (undefined ordering on
//    equal Lamport clocks).
//  * log_flags.reject_future_clocks = true — issue #512 (a far-future clock
//    halts replication).
//  * log_flags.hash_includes_parents = false — issue #583 ("Head hash didn't
//    match the contents").
//  * !buffer_unauthorized — issue #1153: entries from a writer whose access
//    grant has not yet been executed locally are rejected outright instead
//    of buffered, so "Could not append entry although write access is
//    granted" depending on the interleaving.
//  * !release_lock_on_sync_fixed — issue #557: executing a sync between
//    open() and close() leaves the repo lock held, wedging the next open().
//  * !recovery_checks_committed — planted log-recovery bug (storage-fault
//    family, DESIGN.md §13): head reconciliation trusts whatever entries the
//    on-disk Merkle log holds and never checks the committed high-water mark,
//    so a torn tail replays as a shorter-but-"complete" history — the replica
//    silently diverges instead of reporting missing entries.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "crdt/merkle_log.hpp"
#include "subjects/subject_base.hpp"

namespace erpi::subjects {

class OrbitDb : public SubjectBase {
 public:
  struct Flags {
    crdt::MerkleLog::Flags log_flags;
    bool buffer_unauthorized = true;
    bool release_lock_on_sync_fixed = true;
    bool recovery_checks_committed = true;
  };

  explicit OrbitDb(int replica_count) : OrbitDb(replica_count, Flags()) {}
  OrbitDb(int replica_count, Flags flags);

  const Flags& flags() const noexcept { return flags_; }

  /// Identity string used by replica r ("id<r>").
  static std::string identity_of(net::ReplicaId replica);

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override;
  util::Result<net::PayloadPtr> make_sync(net::ReplicaId from, net::ReplicaId to,
                                          const util::Json& args) override;
  util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                          const net::Payload& payload) override;
  util::Result<net::PayloadPtr> decode_sync(const std::string& text) const override;
  /// {"announced": peer -> heads, "clock", "hashes" and "log" in traversal
  /// order, "locked", "pending", "seen", "verified"}.
  void write_state(net::ReplicaId replica, util::JsonWriter& out) const override;
  void do_reset() override;
  std::shared_ptr<const void> clone_replicas() const override;
  bool adopt_replicas(const void* saved) override;
  std::shared_ptr<const void> clone_replica(net::ReplicaId replica) const override;
  bool adopt_replica(net::ReplicaId replica, const void* saved) override;
  bool supports_durable_log() const override { return true; }
  bool reset_replica_state(net::ReplicaId replica) override;
  bool is_readonly_op(const std::string& op) const override;
  RecoveryPolicy recovery_policy() const override {
    return {flags_.recovery_checks_committed, true};
  }

 private:
  struct ReplicaCtx {
    std::optional<crdt::MerkleLog> log;
    std::vector<crdt::LogEntry> pending;  // buffered unauthorized entries
    std::set<std::string> seen_hashes;    // every entry hash ever delivered
    // head hashes most recently announced by each peer ("heads" sync mode);
    // consulted by the check_head op (issue #583 scenario)
    std::map<int32_t, std::vector<std::string>> announced_heads;
    bool repo_locked = false;
    int synced_while_open_count = 0;
    bool is_open = false;
  };

  struct SyncBody;  // head announcement and/or the full DAG, per sync mode

  void init_replicas();
  util::Status apply_entry(ReplicaCtx& ctx, const crdt::LogEntry& entry);
  void retry_pending(ReplicaCtx& ctx);

  Flags flags_;
  std::vector<ReplicaCtx> replicas_;
};

}  // namespace erpi::subjects
