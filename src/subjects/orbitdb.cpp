#include "subjects/orbitdb.hpp"

#include "subjects/sync_codec.hpp"

namespace erpi::subjects {

std::string OrbitDb::identity_of(net::ReplicaId replica) {
  return "id" + std::to_string(replica);
}

OrbitDb::OrbitDb(int replica_count, Flags flags)
    : SubjectBase("orbitdb", replica_count), flags_(flags) {
  init_replicas();
}

void OrbitDb::init_replicas() {
  replicas_.clear();
  replicas_.resize(static_cast<size_t>(replica_count()));
  for (int r = 0; r < replica_count(); ++r) {
    replicas_[static_cast<size_t>(r)].log.emplace(identity_of(r), flags_.log_flags);
  }
}

void OrbitDb::do_reset() { init_replicas(); }

bool OrbitDb::reset_replica_state(net::ReplicaId replica) {
  auto& ctx = replicas_[static_cast<size_t>(replica)];
  ctx = ReplicaCtx{};
  ctx.log.emplace(identity_of(replica), flags_.log_flags);
  return true;
}

bool OrbitDb::is_readonly_op(const std::string& op) const {
  return op == "get" || op == "verify" || op == "check_head";
}

std::shared_ptr<const void> OrbitDb::clone_replicas() const {
  return clone_ctx_vector(replicas_);
}

bool OrbitDb::adopt_replicas(const void* saved) {
  return adopt_ctx_vector(replicas_, saved);
}

std::shared_ptr<const void> OrbitDb::clone_replica(net::ReplicaId replica) const {
  return clone_ctx_at(replicas_, replica);
}

bool OrbitDb::adopt_replica(net::ReplicaId replica, const void* saved) {
  return adopt_ctx_at(replicas_, replica, saved);
}

util::Status OrbitDb::apply_entry(ReplicaCtx& ctx, const crdt::LogEntry& entry) {
  ctx.seen_hashes.insert(entry.hash);
  const auto st = ctx.log->apply(entry);
  if (!st && !ctx.log->can_write(entry.identity) && flags_.buffer_unauthorized) {
    // Fixed behaviour for issue #1153: park the entry until the grant that
    // authorizes its writer is executed locally.
    ctx.pending.push_back(entry);
    return util::Status::ok();
  }
  return st;
}

void OrbitDb::retry_pending(ReplicaCtx& ctx) {
  std::vector<crdt::LogEntry> still_pending;
  for (const auto& entry : ctx.pending) {
    if (!ctx.log->apply(entry)) still_pending.push_back(entry);
  }
  ctx.pending = std::move(still_pending);
}

util::Result<util::Json> OrbitDb::do_invoke(net::ReplicaId replica, const std::string& op,
                                            const util::Json& args) {
  auto& ctx = replicas_[static_cast<size_t>(replica)];
  if (op == "add") {
    note_read(replica, "oplog");
    note_write(replica, "oplog");
    auto entry = ctx.log->append(args["payload"].dump());
    if (!entry) return util::Error{entry.error()};
    ctx.seen_hashes.insert(entry.value().hash);
    return util::Json(entry.value().hash);
  }
  if (op == "add_with_clock") {
    // poisoned-clock write used to seed issue #512
    note_read(replica, "oplog");
    note_write(replica, "oplog");
    auto entry = ctx.log->append_with_clock(args["payload"].dump(), args["clock"].as_int());
    if (!entry) return util::Error{entry.error()};
    ctx.seen_hashes.insert(entry.value().hash);
    return util::Json(entry.value().hash);
  }
  if (op == "put") {
    note_read(replica, "oplog");
    note_write(replica, "oplog");
    util::Json record = util::Json::object();
    record["k"] = args["key"].as_string();
    record["v"] = args["value"];
    auto entry = ctx.log->append(record.dump());
    if (!entry) return util::Error{entry.error()};
    ctx.seen_hashes.insert(entry.value().hash);
    return util::Json(entry.value().hash);
  }
  if (op == "get") {
    // key-value view: the latest put (in the log's total order) wins
    note_read(replica, "oplog");
    const auto& key = args["key"].as_string();
    util::Json value;
    for (const auto& entry : ctx.log->traverse()) {
      auto doc = util::Json::parse(entry.payload);
      if (doc && doc.value().is_object() && doc.value().contains("k") &&
          doc.value()["k"].as_string() == key) {
        value = doc.value()["v"];
      }
    }
    return value;
  }
  if (op == "grant") {
    note_read(replica, "oplog");
    note_write(replica, "oplog");
    note_write(replica, "acl");
    ctx.log->grant(args["identity"].as_string());
    retry_pending(ctx);
    return util::Json(true);
  }
  if (op == "open") {
    note_read(replica, "repo");
    note_write(replica, "repo");
    if (ctx.is_open) return util::Json(false);  // benign re-open while open
    if (ctx.repo_locked) {
      // stale lock file left behind by a leaked close — issue #557 symptom
      return util::Error{"orbitdb: repo folder is locked (stale lock file)"};
    }
    ctx.repo_locked = true;
    ctx.is_open = true;
    ctx.synced_while_open_count = 0;
    return util::Json(true);
  }
  if (op == "close") {
    note_read(replica, "repo");
    note_write(replica, "repo");
    if (!ctx.is_open) return util::Json(false);  // benign double close
    ctx.is_open = false;
    if (!flags_.release_lock_on_sync_fixed && ctx.synced_while_open_count >= 2) {
      // Issue #557: replication re-entered the repo repeatedly while it was
      // open; the teardown path skips the unlock and the lock file stays.
      return util::Json(false);
    }
    ctx.repo_locked = false;
    return util::Json(true);
  }
  if (op == "verify") {
    note_read(replica, "oplog");
    return util::Json(ctx.log->verify());
  }
  if (op == "check_head") {
    // Resolve every head a peer has announced against the local entry set;
    // an unresolvable head is the "Head hash didn't match the contents"
    // failure of issue #583.
    note_read(replica, "oplog");
    note_read(replica, "heads");
    const auto peer = static_cast<net::ReplicaId>(args["peer"].as_int());
    const auto it = ctx.announced_heads.find(peer);
    if (it == ctx.announced_heads.end()) return util::Json(true);  // nothing announced
    const auto local = ctx.log->traverse();
    for (const auto& head : it->second) {
      bool found = false;
      for (const auto& entry : local) {
        if (entry.hash == head) {
          found = true;
          break;
        }
      }
      if (!found) {
        return util::Error{"orbitdb: head hash " + head.substr(0, 8) +
                           " didn't match the contents (entry missing)"};
      }
    }
    return util::Json(true);
  }
  return util::Error{"orbitdb: unknown op " + op};
}

/// Text form: {"entries": [LogEntry::to_json()...], "from", "heads": [...],
/// "mode"}; "heads" and "entries" are present per mode.
struct OrbitDb::SyncBody final : net::Payload {
  std::string mode;
  net::ReplicaId from = 0;
  std::optional<std::vector<std::string>> heads;
  std::optional<std::vector<crdt::LogEntry>> entries;

  std::string render() const override {
    util::Json payload = util::Json::object();
    payload["mode"] = mode;
    payload["from"] = static_cast<int64_t>(from);
    if (heads) {
      util::Json heads_json = util::Json::array();
      for (const auto& head : *heads) heads_json.push_back(head);
      payload["heads"] = std::move(heads_json);
    }
    if (entries) {
      util::Json entries_json = util::Json::array();
      for (const auto& entry : *entries) entries_json.push_back(entry.to_json());
      payload["entries"] = std::move(entries_json);
    }
    return payload.dump();
  }
};

util::Result<net::PayloadPtr> OrbitDb::make_sync(net::ReplicaId from, net::ReplicaId,
                                                 const util::Json& args) {
  auto& ctx = replicas_[static_cast<size_t>(from)];
  auto body = std::make_shared<SyncBody>();
  body->mode = args.contains("mode") ? args["mode"].as_string() : std::string("full");
  body->from = from;
  if (body->mode == "heads" || body->mode == "full") body->heads = ctx.log->heads();
  if (body->mode == "entries" || body->mode == "full") body->entries = ctx.log->traverse();
  return net::PayloadPtr(std::move(body));
}

util::Status OrbitDb::apply_sync(net::ReplicaId, net::ReplicaId to, const net::Payload& payload) {
  const auto* body = dynamic_cast<const SyncBody*>(&payload);
  if (body == nullptr) return codec::malformed("orbitdb", "foreign body");
  auto& ctx = replicas_[static_cast<size_t>(to)];
  const size_t entries_before = ctx.log->length();

  if (body->heads) ctx.announced_heads[body->from] = *body->heads;
  if (!body->entries) return util::Status::ok();  // heads-only sync

  std::string first_error;
  for (const auto& entry : *body->entries) {
    if (const auto st = apply_entry(ctx, entry); !st && first_error.empty()) {
      first_error = st.error().message;
    }
  }
  // Issue #557: only replication that actually touched the repo (delivered
  // fresh entries) re-enters the lock path while the db is open.
  if (ctx.is_open && ctx.log->length() > entries_before) ++ctx.synced_while_open_count;
  if (!first_error.empty()) return util::Status::fail(first_error);
  return util::Status::ok();
}

util::Result<net::PayloadPtr> OrbitDb::decode_sync(const std::string& text) const {
  auto doc = util::Json::parse(text);
  if (!doc) return codec::malformed("orbitdb", doc.error().message);
  const auto& payload = doc.value();
  if (!payload.is_object() || !payload["mode"].is_string() ||
      !crdt::is_replica_id(payload["from"]) ||
      payload.size() != 2u + (payload.contains("heads") ? 1u : 0u) +
                            (payload.contains("entries") ? 1u : 0u)) {
    return codec::malformed("orbitdb", "expected {mode, from[, heads][, entries]}");
  }
  auto body = std::make_shared<SyncBody>();
  body->mode = payload["mode"].as_string();
  body->from = static_cast<net::ReplicaId>(payload["from"].as_int());
  if (payload.contains("heads")) {
    body->heads = codec::strings(payload["heads"]);
    if (!body->heads) return codec::malformed("orbitdb", "heads is not an array of strings");
  }
  if (payload.contains("entries")) {
    if (!payload["entries"].is_array()) {
      return codec::malformed("orbitdb", "entries is not an array");
    }
    body->entries.emplace();
    for (const auto& entry_json : payload["entries"].as_array()) {
      if (!codec::object_with(entry_json, 5) || !entry_json["hash"].is_string() ||
          !entry_json["clock"].is_int() || !entry_json["id"].is_string() ||
          !entry_json["payload"].is_string()) {
        return codec::malformed("orbitdb", "bad log entry");
      }
      auto parents = codec::strings(entry_json["parents"]);
      if (!parents) return codec::malformed("orbitdb", "bad log entry parents");
      crdt::LogEntry entry;
      entry.hash = entry_json["hash"].as_string();
      entry.clock = entry_json["clock"].as_int();
      entry.identity = entry_json["id"].as_string();
      entry.payload = entry_json["payload"].as_string();
      entry.parents = std::move(*parents);
      body->entries->push_back(std::move(entry));
    }
  }
  return net::PayloadPtr(std::move(body));
}

void OrbitDb::write_state(net::ReplicaId replica, util::JsonWriter& out) const {
  const auto& ctx = replicas_[static_cast<size_t>(replica)];
  const auto write_strings = [&](std::string_view name, const auto& strings) {
    if (!out.wants(name)) return;
    out.key(name).begin_array();
    for (const auto& s : strings) out.string(s);
    out.end_array();
  };
  out.begin_object();
  if (out.wants("announced")) {
    // Keyed by the peer id's decimal text, so in string order ("10" < "9").
    std::vector<std::pair<std::string, const std::vector<std::string>*>> announced;
    for (const auto& [peer, heads] : ctx.announced_heads) {
      announced.emplace_back(std::to_string(peer), &heads);
    }
    std::sort(announced.begin(), announced.end());
    out.key("announced").begin_object();
    for (const auto& [peer, heads] : announced) write_strings(peer, *heads);
    out.end_object();
  }
  if (out.wants("clock")) out.key("clock").int64(ctx.log->clock());
  // One walk of the log serves "hashes" and "log".
  std::vector<crdt::LogEntry> entries;
  if (out.wants("hashes") || out.wants("log")) entries = ctx.log->traverse();
  if (out.wants("hashes")) {
    out.key("hashes").begin_array();
    for (const auto& entry : entries) out.string(entry.hash);
    out.end_array();
  }
  if (out.wants("locked")) out.key("locked").boolean(ctx.repo_locked);
  if (out.wants("log")) {
    out.key("log").begin_array();
    for (const auto& entry : entries) out.string(entry.payload);
    out.end_array();
  }
  if (out.wants("pending")) out.key("pending").int64(static_cast<int64_t>(ctx.pending.size()));
  write_strings("seen", ctx.seen_hashes);
  if (out.wants("verified")) out.key("verified").boolean(ctx.log->verify());
  out.end_object();
}

}  // namespace erpi::subjects
