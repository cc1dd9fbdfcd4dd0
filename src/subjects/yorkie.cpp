#include "subjects/yorkie.hpp"

#include "util/hash.hpp"

namespace erpi::subjects {

Yorkie::Yorkie(int replica_count, Flags flags)
    : SubjectBase("yorkie", replica_count), flags_(flags) {
  init_replicas();
}

void Yorkie::init_replicas() {
  replicas_.clear();
  replicas_.resize(static_cast<size_t>(replica_count()));
  crdt::JsonDoc::Flags doc_flags;
  doc_flags.lww_move = flags_.move_after_fixed;
  doc_flags.replace_nested_on_set = flags_.nested_set_fixed;
  for (int r = 0; r < replica_count(); ++r) {
    replicas_[static_cast<size_t>(r)].doc =
        std::make_unique<crdt::JsonDoc>(static_cast<crdt::ReplicaId>(r), doc_flags);
  }
}

void Yorkie::do_reset() { init_replicas(); }

Yorkie::ReplicaCtx::ReplicaCtx(const ReplicaCtx& other)
    : doc(std::make_unique<crdt::JsonDoc>(other.doc->clone())), ops(other.ops) {}

Yorkie::ReplicaCtx& Yorkie::ReplicaCtx::operator=(const ReplicaCtx& other) {
  if (this != &other) *this = ReplicaCtx(other);
  return *this;
}

std::shared_ptr<const void> Yorkie::clone_replicas() const {
  return clone_ctx_vector(replicas_);
}

bool Yorkie::adopt_replicas(const void* saved) {
  return adopt_ctx_vector(replicas_, saved);
}

std::shared_ptr<const void> Yorkie::clone_replica(net::ReplicaId replica) const {
  return clone_ctx_at(replicas_, replica);
}

bool Yorkie::adopt_replica(net::ReplicaId replica, const void* saved) {
  return adopt_ctx_at(replicas_, replica, saved);
}

crdt::DocPath Yorkie::parse_path(const util::Json& args) {
  crdt::DocPath path;
  if (args.contains("path")) {
    for (const auto& component : args["path"].as_array()) {
      path.push_back(component.as_string());
    }
  }
  return path;
}

util::Result<util::Json> Yorkie::do_invoke(net::ReplicaId replica, const std::string& op,
                                           const util::Json& args) {
  auto& ctx = replicas_[static_cast<size_t>(replica)];
  const crdt::DocPath path = parse_path(args);

  // Mutating doc ops read the document (path resolution, index checks) and
  // write both the document and the op-log record_local() appends to.
  if (op == "set" || op == "delete" || op == "list_push" || op == "list_insert" ||
      op == "list_remove" || op == "move_after") {
    note_read(replica, "doc");
    note_write(replica, "doc");
    note_write(replica, "oplog");
  } else if (op == "get" || op == "snapshot") {
    note_read(replica, "doc");
  }

  if (op == "set") {
    const auto produced = ctx.doc->set(path, args["key"].as_string(), args["value"]);
    ctx.ops.record_local(replica, produced);
    return util::Json(true);
  }
  if (op == "delete") {
    const auto produced = ctx.doc->erase(path, args["key"].as_string());
    ctx.ops.record_local(replica, produced);
    return util::Json(true);
  }
  if (op == "list_push") {
    const auto produced = ctx.doc->list_push(path, args["key"].as_string(), args["value"]);
    ctx.ops.record_local(replica, produced);
    return util::Json(true);
  }
  if (op == "list_insert") {
    const auto index = static_cast<size_t>(args["index"].as_int());
    if (index > ctx.doc->list_values(path, args["key"].as_string()).size()) {
      return util::Error{"yorkie: list_insert index out of range"};
    }
    const auto produced =
        ctx.doc->list_insert(path, args["key"].as_string(), index, args["value"]);
    ctx.ops.record_local(replica, produced);
    return util::Json(true);
  }
  if (op == "list_remove") {
    const auto produced = ctx.doc->list_remove(path, args["key"].as_string(),
                                               static_cast<size_t>(args["index"].as_int()));
    if (!produced) return util::Error{"yorkie: list_remove index out of range"};
    ctx.ops.record_local(replica, *produced);
    return util::Json(true);
  }
  if (op == "move_after") {
    const auto produced = ctx.doc->list_move(path, args["key"].as_string(),
                                             static_cast<size_t>(args["from"].as_int()),
                                             static_cast<size_t>(args["to"].as_int()));
    if (!produced) return util::Error{"yorkie: move_after index out of range"};
    ctx.ops.record_local(replica, *produced);
    return util::Json(true);
  }
  if (op == "get") {
    const auto value = ctx.doc->get(path, args["key"].as_string());
    return value ? *value : util::Json();
  }
  if (op == "snapshot") {
    return ctx.doc->snapshot();
  }
  return util::Error{"yorkie: unknown op " + op};
}

uint64_t Yorkie::OpCodec::digest(const Op& op) {
  // Over kind, key and value's text only, so two different local ops that
  // happen to receive the same (origin, seq) at replay never alias.
  const uint64_t prefix = util::fnv1a64(op.key, util::fnv1a64(Op::kind_name(op.kind)));
  return util::JsonWriter::fnv(prefix).value(op.value).digest();
}

util::Result<net::PayloadPtr> Yorkie::make_sync(net::ReplicaId from, net::ReplicaId,
                                                const util::Json&) {
  return replicas_[static_cast<size_t>(from)].ops.body();
}

util::Status Yorkie::apply_sync(net::ReplicaId, net::ReplicaId to, const net::Payload& payload) {
  auto& ctx = replicas_[static_cast<size_t>(to)];
  return ctx.ops.merge(payload, [&](const OpHistory<OpCodec>::Stamped& stamped) {
    ctx.doc->apply(stamped.op);
    return util::Status::ok();
  });
}

util::Result<net::PayloadPtr> Yorkie::decode_sync(const std::string& text) const {
  return OpHistory<OpCodec>::decode(text);
}

void Yorkie::write_state(net::ReplicaId replica, util::JsonWriter& out) const {
  const auto& ctx = replicas_[static_cast<size_t>(replica)];
  out.begin_object();
  if (out.wants("doc")) out.key("doc").value(ctx.doc->snapshot());
  if (out.wants("seen")) {
    out.key("seen");
    ctx.ops.write_seen(out);
  }
  out.end_object();
}

}  // namespace erpi::subjects
