#include "subjects/crdt_collection.hpp"

#include "util/hash.hpp"

#include <algorithm>

namespace erpi::subjects {

namespace {

util::Json dot_json(const crdt::Dot& dot) {
  util::Json j = util::Json::object();
  j["r"] = static_cast<int64_t>(dot.replica);
  j["c"] = dot.counter;
  return j;
}

crdt::Dot dot_from(const util::Json& j) {
  return crdt::Dot{static_cast<crdt::ReplicaId>(j["r"].as_int()), j["c"].as_int()};
}

}  // namespace

CrdtCollection::CrdtCollection(int replica_count, Flags flags)
    : SubjectBase("crdts", replica_count), flags_(flags) {
  init_replicas();
}

void CrdtCollection::init_replicas() {
  replicas_.clear();
  replicas_.resize(static_cast<size_t>(replica_count()));
  for (int r = 0; r < replica_count(); ++r) {
    // deterministic per-replica RNG for random to-do ids
    replicas_[static_cast<size_t>(r)].rng.reseed(0xfeedULL + static_cast<uint64_t>(r));
  }
}

void CrdtCollection::do_reset() { init_replicas(); }

std::shared_ptr<const void> CrdtCollection::clone_replicas() const {
  return clone_ctx_vector(replicas_);
}

bool CrdtCollection::adopt_replicas(const void* saved) {
  return adopt_ctx_vector(replicas_, saved);
}

std::shared_ptr<const void> CrdtCollection::clone_replica(net::ReplicaId replica) const {
  return clone_ctx_at(replicas_, replica);
}

bool CrdtCollection::adopt_replica(net::ReplicaId replica, const void* saved) {
  return adopt_ctx_at(replicas_, replica, saved);
}

util::Result<util::Json> CrdtCollection::apply_op(ReplicaCtx& ctx, net::ReplicaId replica,
                                                  const std::string& op, util::Json args,
                                                  bool remote) {
  if (op == "set_add") {
    if (remote) {
      ctx.orset.apply(crdt::OrSet::AddOp{args["element"].as_string(), dot_from(args["tag"])});
      return args;
    }
    const auto produced =
        ctx.orset.add(static_cast<crdt::ReplicaId>(replica), args["element"].as_string());
    args["tag"] = dot_json(produced.tag);
    return args;
  }
  if (op == "set_remove") {
    if (remote) {
      crdt::OrSet::RemoveOp removal;
      removal.element = args["element"].as_string();
      for (const auto& tag : args["tags"].as_array()) {
        removal.observed_tags.push_back(dot_from(tag));
      }
      ctx.orset.apply(removal);
      return args;
    }
    const auto produced = ctx.orset.remove(args["element"].as_string());
    if (!produced) return util::Error{"crdts: set_remove of absent element"};
    util::Json tags = util::Json::array();
    for (const auto& tag : produced->observed_tags) tags.push_back(dot_json(tag));
    args["tags"] = std::move(tags);
    return args;
  }
  if (op == "twopset_add") {
    if (remote) {
      ctx.twopset.merge_add(args["element"].as_string());
      return args;
    }
    if (!ctx.twopset.add(args["element"].as_string())) {
      return util::Error{"crdts: twopset_add failed (already added or removed)"};
    }
    return args;
  }
  if (op == "twopset_remove") {
    if (remote) {
      ctx.twopset.merge_remove(args["element"].as_string());
      return args;
    }
    if (!ctx.twopset.remove(args["element"].as_string())) {
      return util::Error{"crdts: twopset_remove failed (not a member)"};
    }
    return args;
  }
  if (op == "counter_inc" || op == "counter_dec") {
    const int64_t by = args.contains("by") ? args["by"].as_int() : 1;
    const auto owner = static_cast<crdt::ReplicaId>(
        remote ? args["origin"].as_int() : static_cast<int64_t>(replica));
    if (op == "counter_inc") {
      ctx.counter.increment(owner, by);
    } else {
      ctx.counter.decrement(owner, by);
    }
    if (!remote) args["origin"] = static_cast<int64_t>(replica);
    return args;
  }
  if (op == "list_insert") {
    if (remote) {
      ctx.list.apply(crdt::Rga::InsertOp{dot_from(args["id"]), dot_from(args["after"]),
                                         args["value"].as_string()});
      return args;
    }
    const auto index = static_cast<size_t>(args["index"].as_int());
    if (index > ctx.list.size()) {
      return util::Error{"crdts: list_insert index out of range"};
    }
    const auto produced =
        ctx.list.insert_at(static_cast<crdt::ReplicaId>(replica), index,
                           args["value"].as_string());
    args["id"] = dot_json(produced.id);
    args["after"] = dot_json(produced.after);
    return args;
  }
  if (op == "list_remove") {
    if (remote) {
      ctx.list.apply(crdt::Rga::RemoveOp{dot_from(args["target"])});
      return args;
    }
    const auto produced = ctx.list.remove_at(static_cast<size_t>(args["index"].as_int()));
    if (!produced) return util::Error{"crdts: list_remove index out of range"};
    args["target"] = dot_json(produced->target);
    return args;
  }
  if (op == "list_move") {
    if (remote) {
      crdt::Rga::MoveOp move;
      move.target = dot_from(args["target"]);
      move.after = dot_from(args["after"]);
      move.stamp = crdt::Timestamp::from_json(args["stamp"]);
      ctx.list.apply(move);
      return args;
    }
    const auto produced = ctx.list.move(static_cast<crdt::ReplicaId>(replica),
                                        static_cast<size_t>(args["from"].as_int()),
                                        static_cast<size_t>(args["to"].as_int()));
    if (!produced) return util::Error{"crdts: list_move index out of range"};
    args["target"] = dot_json(produced->target);
    args["after"] = dot_json(produced->after);
    args["stamp"] = produced->stamp.to_json();
    return args;
  }
  if (op == "list_naive_move") {
    // Application-style move: delete + re-insert. Concurrent naive moves of
    // the same element duplicate it — misconception #3.
    if (remote) {
      ctx.list.apply(crdt::Rga::RemoveOp{dot_from(args["target"])});
      ctx.list.apply(crdt::Rga::InsertOp{dot_from(args["id"]), dot_from(args["after"]),
                                         args["value"].as_string()});
      return args;
    }
    const auto produced = ctx.list.naive_move(static_cast<crdt::ReplicaId>(replica),
                                              static_cast<size_t>(args["from"].as_int()),
                                              static_cast<size_t>(args["to"].as_int()));
    if (!produced) return util::Error{"crdts: list_naive_move index out of range"};
    args["target"] = dot_json(produced->first.target);
    args["id"] = dot_json(produced->second.id);
    args["after"] = dot_json(produced->second.after);
    args["value"] = produced->second.value;
    return args;
  }
  if (op == "naive_append") {
    ctx.naive_list.append(args["value"].as_string());
    return args;
  }
  if (op == "reg_set") {
    const auto owner = static_cast<crdt::ReplicaId>(
        remote ? args["origin"].as_int() : static_cast<int64_t>(replica));
    ctx.reg.set(args["value"].as_string(), crdt::Timestamp{args["ts"].as_int(), owner});
    if (!remote) args["origin"] = static_cast<int64_t>(replica);
    return args;
  }
  if (op == "mv_set") {
    if (remote) {
      ctx.mvreg.apply_remote(args["value"].as_string(),
                             crdt::VectorClock::from_json(args["clock"]));
      return args;
    }
    const auto clock =
        ctx.mvreg.set(static_cast<crdt::ReplicaId>(replica), args["value"].as_string());
    args["clock"] = clock.to_json();
    return args;
  }
  if (op == "todo_create") {
    int64_t id;
    if (remote) {
      id = args["id"].as_int();
    } else if (flags_.random_todo_ids) {
      id = static_cast<int64_t>(ctx.rng.below(1'000'000'000));
    } else {
      // sequential max+1 minting — misconception #4
      id = ctx.todos.empty() ? 1 : ctx.todos.rbegin()->first + 1;
    }
    // first writer wins locally; a concurrent clash leaves replicas divergent
    ctx.todos.emplace(id, args["text"].as_string());
    if (!remote) args["id"] = id;
    return args;
  }
  return util::Error{"crdts: unknown op " + op};
}

util::Result<util::Json> CrdtCollection::do_invoke(net::ReplicaId replica,
                                                   const std::string& op,
                                                   const util::Json& args) {
  auto& ctx = replicas_[static_cast<size_t>(replica)];
  if (op == "todo_ids") {
    note_read(replica, "todos");
    util::Json ids = util::Json::array();
    for (const auto& [id, text] : ctx.todos) ids.push_back(id);
    return ids;
  }
  if (op == "list_values") {
    note_read(replica, "list");
    util::Json values = util::Json::array();
    for (const auto& v : ctx.list.values()) values.push_back(v);
    return values;
  }
  // Each mutating op touches exactly one CRDT structure plus the op-log that
  // record() appends to; unknown ops record nothing and fall back to the
  // conservative whole-replica footprint in SubjectBase::invoke.
  const auto structure_of = [](const std::string& o) -> std::string_view {
    if (o == "set_add" || o == "set_remove") return "set";
    if (o == "twopset_add" || o == "twopset_remove") return "twopset";
    if (o == "counter_inc" || o == "counter_dec") return "counter";
    if (o == "list_insert" || o == "list_remove" || o == "list_move" ||
        o == "list_naive_move") {
      return "list";
    }
    if (o == "naive_append") return "naive_list";
    if (o == "reg_set") return "reg";
    if (o == "mv_set") return "mvreg";
    if (o == "todo_create") return "todos";
    return {};
  };
  if (const auto structure = structure_of(op); !structure.empty()) {
    note_read(replica, structure);
    note_write(replica, structure);
    note_write(replica, "oplog");
  }
  auto produced = apply_op(ctx, replica, op, args, /*remote=*/false);
  if (!produced) return produced;
  util::Json op_json = util::Json::object();
  op_json["op"] = op;
  op_json["args"] = produced.value();
  ctx.ops.record_local(replica, std::move(op_json));
  return util::Json(true);
}

util::Result<util::Json> CrdtCollection::OpCodec::from_json(const util::Json& j) {
  // Strict: the op must carry every argument its remote apply reads, each of
  // its type (the origin's own arguments may ride along).
  if (!codec::object_with(j, 2) || !j["op"].is_string() || !j["args"].is_object()) {
    return util::Error{"malformed op"};
  }
  const auto& op = j["op"].as_string();
  const auto& args = j["args"];
  const auto text = [&](const char* key) { return args[key].is_string(); };
  const auto dot = [&](const char* key) { return crdt::Dot::parse(args[key]).has_value(); };
  bool ok = false;
  if (op == "set_add") {
    ok = text("element") && dot("tag");
  } else if (op == "set_remove") {
    ok = text("element") && args["tags"].is_array() &&
         std::all_of(args["tags"].as_array().begin(), args["tags"].as_array().end(),
                     [](const util::Json& tag) { return crdt::Dot::parse(tag).has_value(); });
  } else if (op == "twopset_add" || op == "twopset_remove") {
    ok = text("element");
  } else if (op == "counter_inc" || op == "counter_dec") {
    ok = crdt::is_replica_id(args["origin"]) && (!args.contains("by") || args["by"].is_int());
  } else if (op == "list_insert") {
    ok = dot("id") && dot("after") && text("value");
  } else if (op == "list_remove") {
    ok = dot("target");
  } else if (op == "list_move") {
    ok = dot("target") && dot("after") && crdt::Timestamp::parse(args["stamp"]).has_value();
  } else if (op == "list_naive_move") {
    ok = dot("target") && dot("id") && dot("after") && text("value");
  } else if (op == "naive_append") {
    ok = text("value");
  } else if (op == "reg_set") {
    ok = text("value") && args["ts"].is_int() && crdt::is_replica_id(args["origin"]);
  } else if (op == "mv_set") {
    ok = text("value") && crdt::VectorClock::parse(args["clock"]).has_value();
  } else if (op == "todo_create") {
    ok = args["id"].is_int() && text("text");
  }
  if (!ok) return util::Error{"malformed " + op + " op"};
  return j;
}

uint64_t CrdtCollection::OpCodec::digest(const Op& op) {
  return util::JsonWriter::fnv().value(op).digest();
}

util::Result<net::PayloadPtr> CrdtCollection::make_sync(net::ReplicaId from, net::ReplicaId,
                                                        const util::Json&) {
  return replicas_[static_cast<size_t>(from)].ops.body();
}

util::Status CrdtCollection::apply_sync(net::ReplicaId, net::ReplicaId to,
                                        const net::Payload& payload) {
  auto& ctx = replicas_[static_cast<size_t>(to)];
  return ctx.ops.merge(payload, [&](const OpHistory<OpCodec>::Stamped& stamped) {
    auto applied = apply_op(ctx, stamped.origin, stamped.op["op"].as_string(),
                            stamped.op["args"], /*remote=*/true);
    return applied ? util::Status::ok() : util::Status(applied.error());
  });
}

util::Result<net::PayloadPtr> CrdtCollection::decode_sync(const std::string& text) const {
  return OpHistory<OpCodec>::decode(text);
}

void CrdtCollection::write_state(net::ReplicaId replica, util::JsonWriter& out) const {
  const auto& ctx = replicas_[static_cast<size_t>(replica)];
  out.begin_object();
  out.key("counter").int64(ctx.counter.value());
  out.key("list").value(ctx.list.to_json());
  out.key("mvreg").value(ctx.mvreg.to_json());
  out.key("naive_list").value(ctx.naive_list.to_json());
  out.key("reg");
  if (ctx.reg.empty()) {
    out.null();
  } else {
    out.string(ctx.reg.value());
  }
  out.key("seen");
  ctx.ops.write_seen(out);
  out.key("set").begin_array();
  ctx.orset.for_each([&](const std::string& element) { out.string(element); });
  out.end_array();
  out.key("todo_ids").begin_array();
  for (const auto& [id, text] : ctx.todos) out.int64(id);
  out.end_array();
  // Keyed by the id's decimal text, so in string order ("10" < "9").
  std::vector<std::pair<std::string, const std::string*>> todos;
  todos.reserve(ctx.todos.size());
  for (const auto& [id, text] : ctx.todos) todos.emplace_back(std::to_string(id), &text);
  std::sort(todos.begin(), todos.end());
  out.key("todos").begin_object();
  for (const auto& [id, text] : todos) out.key(id).string(*text);
  out.end_object();
  out.key("twopset").value(ctx.twopset.to_json());
  out.end_object();
}

}  // namespace erpi::subjects
