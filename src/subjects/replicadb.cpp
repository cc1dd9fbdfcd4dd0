#include "subjects/replicadb.hpp"

#include "subjects/sync_codec.hpp"

namespace erpi::subjects {

ReplicaDb::ReplicaDb(int replica_count, Flags flags)
    : SubjectBase("replicadb", replica_count), flags_(flags) {
  replicas_.resize(static_cast<size_t>(replica_count));
}

void ReplicaDb::do_reset() {
  replicas_.clear();
  replicas_.resize(static_cast<size_t>(replica_count()));
}

bool ReplicaDb::reset_replica_state(net::ReplicaId replica) {
  replicas_[static_cast<size_t>(replica)] = ReplicaCtx{};
  return true;
}

bool ReplicaDb::is_readonly_op(const std::string& op) const { return op == "sink_count"; }

std::shared_ptr<const void> ReplicaDb::clone_replicas() const {
  return clone_ctx_vector(replicas_);
}

bool ReplicaDb::adopt_replicas(const void* saved) {
  return adopt_ctx_vector(replicas_, saved);
}

std::shared_ptr<const void> ReplicaDb::clone_replica(net::ReplicaId replica) const {
  return clone_ctx_at(replicas_, replica);
}

bool ReplicaDb::adopt_replica(net::ReplicaId replica, const void* saved) {
  return adopt_ctx_at(replicas_, replica, saved);
}

void ReplicaDb::upsert(std::map<std::string, Row>& table, const std::string& id, Row row) {
  const auto it = table.find(id);
  if (it == table.end() || row.version > it->second.version ||
      !flags_.version_resolution) {
    table[id] = std::move(row);
  }
}

util::Result<util::Json> ReplicaDb::transfer(ReplicaCtx& ctx, const std::string& mode,
                                             int64_t fetch_size) {
  if (mode == "complete") {
    // Complete mode truncates and reloads the sink from live source rows.
    if (!flags_.streaming_fetch_fixed &&
        static_cast<int64_t>(ctx.source.size()) > flags_.memory_budget_rows) {
      return util::Error{"replicadb: OutOfMemoryError buffering " +
                         std::to_string(ctx.source.size()) + " rows (budget " +
                         std::to_string(flags_.memory_budget_rows) + ")"};  // issue #79
    }
    ctx.sink.clear();
    int64_t transferred = 0;
    int64_t chunk = 0;
    for (const auto& [id, row] : ctx.source) {
      if (row.deleted) continue;
      ctx.sink[id] = row;
      ++transferred;
      // streaming fetch: rows move in fetch_size chunks, bounding memory
      if (flags_.streaming_fetch_fixed && ++chunk >= fetch_size) chunk = 0;
      if (row.version > ctx.last_transfer_version) ctx.last_transfer_version = row.version;
    }
    return util::Json(transferred);
  }
  if (mode == "incremental") {
    int64_t transferred = 0;
    int64_t max_version = ctx.last_transfer_version;
    for (const auto& [id, row] : ctx.source) {
      if (row.version <= ctx.last_transfer_version) continue;
      if (row.deleted) {
        if (flags_.incremental_deletes_fixed) {
          ctx.sink.erase(id);
          ++transferred;
        }
        // issue #23: the buggy incremental path ignores tombstones, so the
        // sink keeps rows that were deleted at the source
      } else {
        ctx.sink[id] = row;
        ++transferred;
      }
      if (row.version > max_version) max_version = row.version;
    }
    ctx.last_transfer_version = max_version;
    return util::Json(transferred);
  }
  return util::Error{"replicadb: unknown transfer mode " + mode};
}

util::Result<util::Json> ReplicaDb::do_invoke(net::ReplicaId replica, const std::string& op,
                                              const util::Json& args) {
  auto& ctx = replicas_[static_cast<size_t>(replica)];
  if (op == "insert_source" || op == "update_source") {
    note_read(replica, "source/" + args["id"].as_string());
    note_write(replica, "source/" + args["id"].as_string());
    note_write(replica, "history");
    Row row;
    row.value = args["value"].dump();
    row.version = args["ts"].as_int();
    ctx.history.insert(args["id"].as_string() + "|" + std::to_string(row.version));
    upsert(ctx.source, args["id"].as_string(), std::move(row));
    return util::Json(true);
  }
  if (op == "delete_source") {
    note_read(replica, "source/" + args["id"].as_string());
    note_write(replica, "source/" + args["id"].as_string());
    note_write(replica, "history");
    Row row;
    row.version = args["ts"].as_int();
    row.deleted = true;
    ctx.history.insert(args["id"].as_string() + "|" + std::to_string(row.version) + "|del");
    upsert(ctx.source, args["id"].as_string(), std::move(row));
    return util::Json(true);
  }
  if (op == "transfer") {
    note_read(replica, "source/*");
    note_read(replica, "last_transfer");
    note_write(replica, "last_transfer");
    note_write(replica, "sink");
    const std::string mode =
        args.contains("mode") ? args["mode"].as_string() : std::string("complete");
    const int64_t fetch_size = args.contains("fetch_size") ? args["fetch_size"].as_int() : 100;
    return transfer(ctx, mode, fetch_size);
  }
  if (op == "sink_count") {
    note_read(replica, "sink");
    return util::Json(static_cast<int64_t>(ctx.sink.size()));
  }
  return util::Error{"replicadb: unknown op " + op};
}

/// Text form: {"history": [...], "rows": {id: {"del", "v", "ver"}}}.
struct ReplicaDb::SyncBody final : net::Payload {
  std::vector<std::pair<std::string, Row>> rows;  // the source table, in id order
  std::vector<std::string> history;                // sorted

  std::string render() const override {
    util::Json rows_json = util::Json::object();
    for (const auto& [id, row] : rows) {
      util::Json r = util::Json::object();
      r["v"] = row.value;
      r["ver"] = row.version;
      r["del"] = row.deleted;
      rows_json[id] = std::move(r);
    }
    util::Json payload = util::Json::object();
    payload["rows"] = std::move(rows_json);
    util::Json history_json = util::Json::array();
    for (const auto& h : history) history_json.push_back(h);
    payload["history"] = std::move(history_json);
    return payload.dump();
  }
};

util::Result<net::PayloadPtr> ReplicaDb::make_sync(net::ReplicaId from, net::ReplicaId,
                                                   const util::Json&) {
  const auto& ctx = replicas_[static_cast<size_t>(from)];
  auto body = std::make_shared<SyncBody>();
  body->rows.assign(ctx.source.begin(), ctx.source.end());
  body->history.assign(ctx.history.begin(), ctx.history.end());
  return net::PayloadPtr(std::move(body));
}

util::Status ReplicaDb::apply_sync(net::ReplicaId, net::ReplicaId to,
                                   const net::Payload& payload) {
  const auto* body = dynamic_cast<const SyncBody*>(&payload);
  if (body == nullptr) return codec::malformed("replicadb", "foreign body");
  auto& ctx = replicas_[static_cast<size_t>(to)];
  for (const auto& [id, row] : body->rows) upsert(ctx.source, id, row);
  ctx.history.insert(body->history.begin(), body->history.end());
  return util::Status::ok();
}

util::Result<net::PayloadPtr> ReplicaDb::decode_sync(const std::string& text) const {
  auto doc = util::Json::parse(text);
  if (!doc) return codec::malformed("replicadb", doc.error().message);
  const auto& payload = doc.value();
  if (!codec::object_with(payload, 2) || !payload["rows"].is_object()) {
    return codec::malformed("replicadb", "expected {history, rows}");
  }
  auto history = codec::strings(payload["history"]);
  if (!history) return codec::malformed("replicadb", "history is not an array of strings");
  auto body = std::make_shared<SyncBody>();
  for (const auto& [id, r] : payload["rows"].as_object()) {
    if (!codec::object_with(r, 3) || !r["v"].is_string() || !r["ver"].is_int() ||
        !r["del"].is_bool()) {
      return codec::malformed("replicadb", "bad row " + id);
    }
    body->rows.emplace_back(id, Row{r["v"].as_string(), r["ver"].as_int(), r["del"].as_bool()});
  }
  body->history = std::move(*history);
  return net::PayloadPtr(std::move(body));
}

void ReplicaDb::write_state(net::ReplicaId replica, util::JsonWriter& out) const {
  const auto& ctx = replicas_[static_cast<size_t>(replica)];
  out.begin_object();
  // the causal-knowledge witness (all row versions ever observed) ...
  out.key("history").begin_array();
  for (const auto& h : ctx.history) out.string(h);
  out.end_array();
  out.key("last_transfer").int64(ctx.last_transfer_version);
  // ... and the versioned source table (used by the ReplicaDB-2 detector)
  out.key("seen").begin_object();
  for (const auto& [id, row] : ctx.source) {
    out.key(id).string(std::to_string(row.version) + (row.deleted ? "|del" : ""));
  }
  out.end_object();
  out.key("sink").begin_object();
  for (const auto& [id, row] : ctx.sink) out.key(id).string(row.value);
  out.end_object();
  out.key("source").begin_object();
  for (const auto& [id, row] : ctx.source) {
    if (!row.deleted) out.key(id).string(row.value);
  }
  out.end_object();
  out.end_object();
}

}  // namespace erpi::subjects
