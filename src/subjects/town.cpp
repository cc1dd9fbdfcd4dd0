#include "subjects/town.hpp"

#include "util/hash.hpp"

namespace erpi::subjects {

namespace {
void write_dot(const crdt::Dot& dot, util::JsonWriter& out) {
  out.begin_object().key("c").int64(dot.counter).key("r").int64(dot.replica).end_object();
}
}  // namespace

void TownApp::OpCodec::write(const Op& op, util::JsonWriter& out) {
  out.begin_object();
  if (const auto* add = std::get_if<crdt::OrSet::AddOp>(&op)) {
    out.key("element").string(add->element).key("op").string("add").key("tag");
    write_dot(add->tag, out);
    out.end_object();
    return;
  }
  const auto& removal = std::get<crdt::OrSet::RemoveOp>(op);
  out.key("element").string(removal.element).key("op").string("remove").key("tags");
  out.begin_array();
  for (const auto& tag : removal.observed_tags) write_dot(tag, out);
  out.end_array().end_object();
}

util::Result<TownApp::OpCodec::Op> TownApp::OpCodec::from_json(const util::Json& j) {
  if (!codec::object_with(j, 3) || !j["op"].is_string() || !j["element"].is_string()) {
    return util::Error{"malformed op"};
  }
  if (j["op"].as_string() == "add") {
    const auto tag = crdt::Dot::parse(j["tag"]);
    if (!tag) return util::Error{"malformed add op"};
    return Op{crdt::OrSet::AddOp{j["element"].as_string(), *tag}};
  }
  if (j["op"].as_string() != "remove" || !j["tags"].is_array()) {
    return util::Error{"malformed op"};
  }
  crdt::OrSet::RemoveOp removal;
  removal.element = j["element"].as_string();
  for (const auto& tag_json : j["tags"].as_array()) {
    const auto tag = crdt::Dot::parse(tag_json);
    if (!tag) return util::Error{"malformed remove op"};
    removal.observed_tags.push_back(*tag);
  }
  return Op{std::move(removal)};
}

uint64_t TownApp::OpCodec::digest(const Op& op) {
  auto out = util::JsonWriter::fnv();
  write(op, out);
  return out.digest();
}

TownApp::TownApp(int replica_count) : SubjectBase("town", replica_count) {
  replicas_.resize(static_cast<size_t>(replica_count));
}

void TownApp::do_reset() {
  replicas_.clear();
  replicas_.resize(static_cast<size_t>(replica_count()));
}

std::shared_ptr<const void> TownApp::clone_replicas() const {
  return clone_ctx_vector(replicas_);
}

bool TownApp::adopt_replicas(const void* saved) {
  return adopt_ctx_vector(replicas_, saved);
}

std::shared_ptr<const void> TownApp::clone_replica(net::ReplicaId replica) const {
  return clone_ctx_at(replicas_, replica);
}

bool TownApp::adopt_replica(net::ReplicaId replica, const void* saved) {
  return adopt_ctx_at(replicas_, replica, saved);
}

util::Result<util::Json> TownApp::do_invoke(net::ReplicaId replica, const std::string& op,
                                            const util::Json& args) {
  auto& ctx = replicas_[static_cast<size_t>(replica)];
  if (op == "report") {
    note_write(replica, "problems");
    note_write(replica, "oplog");
    auto produced =
        ctx.problems.add(static_cast<crdt::ReplicaId>(replica), args["problem"].as_string());
    ctx.ops.record_local(replica, std::move(produced));
    return util::Json(true);
  }
  if (op == "resolve") {
    note_read(replica, "problems");
    note_write(replica, "problems");
    note_write(replica, "oplog");
    auto produced = ctx.problems.remove(args["problem"].as_string());
    if (!produced) {
      // resolving an issue this replica has not (yet) seen is a no-op
      return util::Json(false);
    }
    ctx.ops.record_local(replica, std::move(*produced));
    return util::Json(true);
  }
  if (op == "transmit") {
    // the Query event: the set of problems handed to the municipality
    note_read(replica, "problems");
    util::Json out = util::Json::array();
    for (const auto& problem : ctx.problems.elements()) out.push_back(problem);
    return out;
  }
  return util::Error{"town: unknown op " + op};
}

util::Result<net::PayloadPtr> TownApp::make_sync(net::ReplicaId from, net::ReplicaId,
                                                 const util::Json&) {
  return replicas_[static_cast<size_t>(from)].ops.body();
}

util::Status TownApp::apply_sync(net::ReplicaId, net::ReplicaId to, const net::Payload& payload) {
  auto& ctx = replicas_[static_cast<size_t>(to)];
  return ctx.ops.merge(payload, [&](const OpHistory<OpCodec>::Stamped& stamped) {
    std::visit([&](const auto& op) { ctx.problems.apply(op); }, stamped.op);
    return util::Status::ok();
  });
}

util::Result<net::PayloadPtr> TownApp::decode_sync(const std::string& text) const {
  return OpHistory<OpCodec>::decode(text);
}

void TownApp::write_state(net::ReplicaId replica, util::JsonWriter& out) const {
  const auto& ctx = replicas_[static_cast<size_t>(replica)];
  out.begin_object();
  if (out.wants("problems")) {
    out.key("problems").begin_array();
    ctx.problems.for_each([&](const std::string& problem) { out.string(problem); });
    out.end_array();
  }
  if (out.wants("seen")) {
    out.key("seen");
    ctx.ops.write_seen(out);
  }
  out.end_object();
}

}  // namespace erpi::subjects
