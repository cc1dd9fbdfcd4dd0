// Subject 3 — ReplicaDB: bulk data replication between a source and a sink
// table (paper §6, [41]), with complete and incremental transfer modes and
// chunked parallel fetch. Each replica holds its own source and sink; source
// tables synchronize across replicas row-wise under LWW (by row version), and
// transfer() replicates source -> sink locally.
//
// Historical bugs behind flags:
//  * !incremental_deletes_fixed — issue #23: incremental transfers skip
//    tombstoned rows, so "deleted records aren't getting deleted from the
//    sink tables".
//  * !streaming_fetch_fixed — issue #79: the transfer buffers the entire
//    result set instead of streaming it in fetch-size chunks; once the
//    source has grown past the configured memory budget the transfer dies
//    with an out-of-memory error — whether it does depends on how inserts
//    interleave with the transfer.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "subjects/subject_base.hpp"

namespace erpi::subjects {

class ReplicaDb : public SubjectBase {
 public:
  struct Flags {
    bool incremental_deletes_fixed = true;
    bool streaming_fetch_fixed = true;
    /// Rows the buggy buffered transfer can hold before "OOM".
    int64_t memory_budget_rows = 8;
    /// Misconception #1 seeding: skip version-based conflict resolution so
    /// incoming rows apply in arrival order.
    bool version_resolution = true;
  };

  explicit ReplicaDb(int replica_count) : ReplicaDb(replica_count, Flags()) {}
  ReplicaDb(int replica_count, Flags flags);

  const Flags& flags() const noexcept { return flags_; }

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override;
  util::Result<net::PayloadPtr> make_sync(net::ReplicaId from, net::ReplicaId to,
                                          const util::Json& args) override;
  util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                          const net::Payload& payload) override;
  util::Result<net::PayloadPtr> decode_sync(const std::string& text) const override;
  /// {"history", "last_transfer", "seen": id -> version[|del], "sink",
  /// "source": live rows}.
  void write_state(net::ReplicaId replica, util::JsonWriter& out) const override;
  void do_reset() override;
  std::shared_ptr<const void> clone_replicas() const override;
  bool adopt_replicas(const void* saved) override;
  std::shared_ptr<const void> clone_replica(net::ReplicaId replica) const override;
  bool adopt_replica(net::ReplicaId replica, const void* saved) override;
  bool supports_durable_log() const override { return true; }
  bool reset_replica_state(net::ReplicaId replica) override;
  bool is_readonly_op(const std::string& op) const override;

 private:
  struct Row {
    std::string value;
    int64_t version = 0;
    bool deleted = false;
  };
  struct ReplicaCtx {
    std::map<std::string, Row> source;
    std::map<std::string, Row> sink;
    int64_t last_transfer_version = 0;
    // every (id, version, tombstone) row version ever observed here — the
    // causal-knowledge witness for conditional convergence assertions
    std::set<std::string> history;
  };

  struct SyncBody;  // state-based sync: the source table and its history

  void upsert(std::map<std::string, Row>& table, const std::string& id, Row row);
  util::Result<util::Json> transfer(ReplicaCtx& ctx, const std::string& mode,
                                    int64_t fetch_size);

  Flags flags_;
  std::vector<ReplicaCtx> replicas_;
};

}  // namespace erpi::subjects
