// Subject 1 — Roshi: SoundCloud's LWW-element-set time-series event database
// layered on Redis (paper §6, [13]). Each replica holds an independent
// mini-Redis store; a stream key K keeps its adds in zset "K+" and its
// deletes in zset "K-" with the operation timestamp as the score — the same
// data layout the real Roshi uses.
//
// Operations: insert(key, member, ts), delete(key, member, ts),
// select(key, offset, limit), select_all(). Sync is state-based: the full
// add/delete zsets are shipped and merged member-wise under LWW.
//
// Historical bugs behind flags (all off = faithful fixed Roshi):
//  * !lww_tiebreak_fixed — equal-timestamp writes apply in arrival order, so
//    replicas disagree (issue #11, "CRDT semantics violated if same
//    timestamp?").
//  * !deleted_field_fixed — select reads only the add-set and reports
//    deleted members as live (issue #18, "Incorrect deleted field in
//    response").
//  * !stable_select_order — select_all assembles its response by iterating a
//    hash map seeded by key-arrival order, like a Go map, so the stream
//    order varies between replicas/interleavings (issue #40, "roshi-server
//    golang app select and map order?").
//  * !idempotent_wal_replay — planted log-recovery bug (storage-fault
//    family, DESIGN.md §13): WAL replay applies a duplicated log segment
//    verbatim, skipping the LWW guard, so the second copy of an
//    already-settled write wins again and the replica silently diverges.
#pragma once

#include <set>
#include <vector>

#include "kvstore/store.hpp"
#include "subjects/subject_base.hpp"

namespace erpi::subjects {

class Roshi : public SubjectBase {
 public:
  struct Flags {
    bool lww_tiebreak_fixed = true;
    bool deleted_field_fixed = true;
    bool stable_select_order = true;
    bool idempotent_wal_replay = true;
  };

  explicit Roshi(int replica_count) : Roshi(replica_count, Flags()) {}
  Roshi(int replica_count, Flags flags);

  const Flags& flags() const noexcept { return flags_; }

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override;
  util::Result<net::PayloadPtr> make_sync(net::ReplicaId from, net::ReplicaId to,
                                          const util::Json& args) override;
  util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                          const net::Payload& payload) override;
  util::Result<net::PayloadPtr> decode_sync(const std::string& text) const override;
  /// {"history", "order": the select_all stream order, and per stream key
  /// {"adds": member -> ts, "dels": member -> ts}}, in one sorted order.
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
    return {true, flags_.idempotent_wal_replay};
  }

 private:
  struct ReplicaCtx {
    kv::Store store;
    std::vector<std::string> key_arrival;  // key first-write order (bug #40)
    // every (key, member, ts, kind) operation ever observed here — the
    // causal-history witness used by conditional convergence assertions
    std::set<std::string> history;
    bool received_any = false;              // has any sync been applied here
    std::set<std::string> flagged_keys;     // local first-writes post-delivery

    explicit ReplicaCtx() : store([] { return int64_t{0}; }) {}
  };

  struct SyncBody;  // state-based sync: every stream's add/delete sets

  /// Apply one LWW write (add or delete) at a replica; returns whether the
  /// write won.
  bool lww_write(ReplicaCtx& ctx, const std::string& key, const std::string& member,
                 double ts, bool is_delete, bool from_sync);
  std::vector<std::string> ordered_keys(const ReplicaCtx& ctx) const;
  util::Json select(const ReplicaCtx& ctx, const std::string& key, int64_t offset,
                    int64_t limit) const;

  Flags flags_;
  std::vector<ReplicaCtx> replicas_;
};

}  // namespace erpi::subjects
