// Subject 4 — Yorkie: a replicated JSON document store (paper §6, [23]).
// Each replica holds a JsonDoc CRDT; synchronization is op-based — every
// replica keeps all operations it has seen, tagged (origin, seq), and sync
// ships the ones the receiver has not applied yet (so delivery is transitive
// across replicas).
//
// Historical bugs behind flags:
//  * !move_after_fixed — issue #676: Array.MoveAfter resolves concurrent
//    moves by arrival order, so documents do not converge.
//  * !nested_set_fixed — issue #663: a Set whose value is a nested object is
//    merged (not replaced) on the remote side, diverging from the local
//    replace semantics.
#pragma once

#include <vector>

#include "crdt/json_doc.hpp"
#include "subjects/subject_base.hpp"
#include "subjects/sync_codec.hpp"

namespace erpi::subjects {

class Yorkie : public SubjectBase {
 public:
  struct Flags {
    bool move_after_fixed = true;
    bool nested_set_fixed = true;
  };

  explicit Yorkie(int replica_count) : Yorkie(replica_count, Flags()) {}
  Yorkie(int replica_count, Flags flags);

  const Flags& flags() const noexcept { return flags_; }

  /// A document op as replicas exchange it; text form JsonDoc::Op::to_json().
  /// Public so tests can hold digest() to the text it folds.
  struct OpCodec {
    using Op = crdt::JsonDoc::Op;
    static constexpr const char* kSubject = "yorkie";
    static void write(const Op& op, util::JsonWriter& out) { out.value(op.to_json()); }
    static util::Result<Op> from_json(const util::Json& j) { return Op::from_json(j); }
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
  /// {"doc": the document snapshot, "seen": OpHistory witness}.
  void write_state(net::ReplicaId replica, util::JsonWriter& out) const override;
  void do_reset() override;
  std::shared_ptr<const void> clone_replicas() const override;
  bool adopt_replicas(const void* saved) override;
  std::shared_ptr<const void> clone_replica(net::ReplicaId replica) const override;
  bool adopt_replica(net::ReplicaId replica, const void* saved) override;

 private:
  struct ReplicaCtx {
    std::unique_ptr<crdt::JsonDoc> doc;
    OpHistory<OpCodec> ops;  // everything seen, any origin

    ReplicaCtx() = default;
    /// Deep copy: JsonDoc is move-only, so the copy goes through clone().
    ReplicaCtx(const ReplicaCtx& other);
    ReplicaCtx& operator=(const ReplicaCtx& other);
    ReplicaCtx(ReplicaCtx&&) = default;
    ReplicaCtx& operator=(ReplicaCtx&&) = default;
  };

  void init_replicas();
  static crdt::DocPath parse_path(const util::Json& args);

  Flags flags_;
  std::vector<ReplicaCtx> replicas_;
};

}  // namespace erpi::subjects
