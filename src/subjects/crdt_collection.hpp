// Subject 5 — "CRDTs": a collection of replicated data structures (paper §6,
// [25]) with a thin application layer. Each replica exposes an OR-Set, a
// 2P-Set (whose constraints feed Failed-Ops pruning), a PN-Counter, an RGA
// list (with both CRDT move and the application-style naive move), a naive
// unordered list (misconception #2 seeding), an LWW register, an MV register,
// and a to-do map whose IDs are minted sequentially (misconception #4) or
// randomly (the fix).
//
// Synchronization is op-based with (origin, seq) dedup, like Yorkie: replicas
// exchange every operation they know and apply the unseen ones.
#pragma once

#include <map>
#include <vector>

#include "crdt/counters.hpp"
#include "crdt/registers.hpp"
#include "crdt/rga.hpp"
#include "crdt/sets.hpp"
#include "subjects/subject_base.hpp"
#include "subjects/sync_codec.hpp"
#include "util/rng.hpp"

namespace erpi::subjects {

class CrdtCollection : public SubjectBase {
 public:
  struct Flags {
    /// true = the fix for misconception #4 (random IDs); false = sequential
    /// max+1 IDs that clash when minted concurrently.
    bool random_todo_ids = false;
  };

  explicit CrdtCollection(int replica_count) : CrdtCollection(replica_count, Flags()) {}
  CrdtCollection(int replica_count, Flags flags);

  const Flags& flags() const noexcept { return flags_; }

  /// An op as replicas exchange it: {"args": args as the origin augmented
  /// them (minted tags, ids, clocks), "op": name}.
  /// Public so tests can hold digest() to the text it folds.
  struct OpCodec {
    using Op = util::Json;
    static constexpr const char* kSubject = "crdts";
    static void write(const Op& op, util::JsonWriter& out) { out.value(op); }
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
  /// Every structure's value under its name, plus "todo_ids" and "seen".
  void write_state(net::ReplicaId replica, util::JsonWriter& out) const override;
  void do_reset() override;
  std::shared_ptr<const void> clone_replicas() const override;
  bool adopt_replicas(const void* saved) override;
  std::shared_ptr<const void> clone_replica(net::ReplicaId replica) const override;
  bool adopt_replica(net::ReplicaId replica, const void* saved) override;

 private:
  struct ReplicaCtx {
    crdt::OrSet orset;
    crdt::TwoPSet twopset;
    crdt::PNCounter counter;
    crdt::Rga list;
    crdt::NaiveList naive_list;
    crdt::LwwRegister reg;
    crdt::MvRegister mvreg;
    std::map<int64_t, std::string> todos;
    util::Rng rng{0xfeedULL};

    OpHistory<OpCodec> ops;
  };

  void init_replicas();
  /// Execute one operation; `remote` ops reuse the embedded tags/ids instead
  /// of minting new ones. Returns the (possibly augmented) op json to relay.
  util::Result<util::Json> apply_op(ReplicaCtx& ctx, net::ReplicaId replica,
                                    const std::string& op, util::Json args, bool remote);

  Flags flags_;
  std::vector<ReplicaCtx> replicas_;
};

}  // namespace erpi::subjects
