// The motivating example (paper §2.3): a town's issue-reporting app. Reported
// problems live in a replicated OR-Set; residents report and resolve issues
// on their own replicas, and one resident eventually transmits the current
// set to the municipality (a Query event whose outcome the test checks).
//
// Operations: report{problem}, resolve{problem}, transmit (query).
// Sync is op-based (add/remove ops with OR-Set tags).
#pragma once

#include <variant>
#include <vector>

#include "crdt/sets.hpp"
#include "subjects/subject_base.hpp"
#include "subjects/sync_codec.hpp"

namespace erpi::subjects {

class TownApp : public SubjectBase {
 public:
  explicit TownApp(int replica_count);

  /// An OR-Set op as replicas exchange it. Text form:
  /// {"element", "op": "add", "tag"} or {"element", "op": "remove", "tags"}.
  /// Public so tests can hold digest() to the text it folds.
  struct OpCodec {
    using Op = std::variant<crdt::OrSet::AddOp, crdt::OrSet::RemoveOp>;
    static constexpr const char* kSubject = "town";
    static void write(const Op& op, util::JsonWriter& out);
    static util::Result<Op> from_json(const util::Json& j);
    static uint64_t digest(const Op& op);
  };

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override;
  util::Result<net::PayloadPtr> make_sync(net::ReplicaId from, net::ReplicaId to,
                                          const util::Json& args) override;
  util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                          const net::Payload& payload) override;
  util::Result<net::PayloadPtr> decode_sync(const std::string& text) const override;
  /// {"problems": sorted live elements, "seen": OpHistory witness}.
  void write_state(net::ReplicaId replica, util::JsonWriter& out) const override;
  void do_reset() override;
  std::shared_ptr<const void> clone_replicas() const override;
  bool adopt_replicas(const void* saved) override;
  std::shared_ptr<const void> clone_replica(net::ReplicaId replica) const override;
  bool adopt_replica(net::ReplicaId replica, const void* saved) override;

 private:
  struct ReplicaCtx {
    crdt::OrSet problems;
    OpHistory<OpCodec> ops;
  };

  std::vector<ReplicaCtx> replicas_;
};

}  // namespace erpi::subjects
