#include "subjects/roshi.hpp"

#include <algorithm>

#include "subjects/sync_codec.hpp"
#include "util/hash.hpp"

namespace erpi::subjects {

namespace {
std::string add_set(const std::string& key) { return key + "+"; }
std::string del_set(const std::string& key) { return key + "-"; }
}  // namespace

Roshi::Roshi(int replica_count, Flags flags)
    : SubjectBase("roshi", replica_count), flags_(flags) {
  replicas_.resize(static_cast<size_t>(replica_count));
}

void Roshi::do_reset() {
  replicas_.clear();
  replicas_.resize(static_cast<size_t>(replica_count()));
}

bool Roshi::reset_replica_state(net::ReplicaId replica) {
  replicas_[static_cast<size_t>(replica)] = ReplicaCtx{};
  return true;
}

bool Roshi::is_readonly_op(const std::string& op) const {
  return op == "select" || op == "select_all";
}

std::shared_ptr<const void> Roshi::clone_replicas() const {
  return clone_ctx_vector(replicas_);
}

bool Roshi::adopt_replicas(const void* saved) {
  return adopt_ctx_vector(replicas_, saved);
}

std::shared_ptr<const void> Roshi::clone_replica(net::ReplicaId replica) const {
  return clone_ctx_at(replicas_, replica);
}

bool Roshi::adopt_replica(net::ReplicaId replica, const void* saved) {
  return adopt_ctx_at(replicas_, replica, saved);
}

bool Roshi::lww_write(ReplicaCtx& ctx, const std::string& key, const std::string& member,
                      double ts, bool is_delete, bool from_sync) {
  ctx.history.insert(key + "|" + member + "|" + std::to_string(ts) + "|" +
                     (is_delete ? "d" : "a"));
  const std::string adds = add_set(key);
  const std::string dels = del_set(key);
  if (!ctx.store.exists(adds) && !ctx.store.exists(dels) &&
      std::find(ctx.key_arrival.begin(), ctx.key_arrival.end(), key) ==
          ctx.key_arrival.end()) {
    ctx.key_arrival.push_back(key);
    // A key first written locally after this replica has already merged a
    // remote sync hashes differently in the Go-map-like response order —
    // the arrival-history sensitivity behind issue #40.
    if (!from_sync && ctx.received_any) ctx.flagged_keys.insert(key);
  }
  const auto add_score = ctx.store.zscore(adds, member);
  const auto del_score = ctx.store.zscore(dels, member);
  const double current = std::max(add_score.value_or(-1.0), del_score.value_or(-1.0));
  const bool currently_deleted = del_score.value_or(-1.0) >= add_score.value_or(-1.0) &&
                                 del_score.has_value();

  bool wins;
  if (replaying_duplicate() && !flags_.idempotent_wal_replay) {
    // Planted storage bug: WAL replay applies a duplicated segment verbatim
    // — no LWW guard — so the stale copy re-fights a battle the live run had
    // already settled and wins unconditionally.
    wins = true;
  } else if (ts > current) {
    wins = true;
  } else if (ts < current) {
    wins = false;
  } else if (!flags_.lww_tiebreak_fixed) {
    // Issue #11: an equal-timestamp write applies unconditionally, so the
    // final state depends on arrival order.
    wins = true;
  } else {
    // Fixed semantics: ties resolve with remove bias; a same-kind tie is a
    // no-op (idempotent re-delivery).
    wins = is_delete && !currently_deleted;
  }
  if (!wins) return false;

  ctx.store.zrem(adds, member);
  ctx.store.zrem(dels, member);
  ctx.store.zadd(is_delete ? dels : adds, ts, member);
  return true;
}

std::vector<std::string> Roshi::ordered_keys(const ReplicaCtx& ctx) const {
  std::vector<std::string> keys = ctx.key_arrival;
  if (flags_.stable_select_order) {
    std::sort(keys.begin(), keys.end());
  } else {
    // Issue #40: the response order mimics a Go map seeded by this
    // replica's arrival history — keys first written locally after a remote
    // merge hash into a different bucket region, so replicas whose data is
    // identical can still report different stream orders.
    std::sort(keys.begin(), keys.end(), [&](const std::string& a, const std::string& b) {
      const auto rank = [&](const std::string& k) {
        return util::fnv1a64(k) ^
               (ctx.flagged_keys.count(k) > 0 ? 0x8000000000000000ULL : 0ULL);
      };
      return rank(a) < rank(b);
    });
  }
  return keys;
}

util::Json Roshi::select(const ReplicaCtx& ctx, const std::string& key, int64_t offset,
                         int64_t limit) const {
  // Roshi's select returns members ordered by score (timestamp).
  util::Json out = util::Json::array();
  auto& store = const_cast<kv::Store&>(ctx.store);
  std::vector<std::pair<double, util::Json>> rows;
  for (const auto& member : store.zrange(add_set(key), 0, -1)) {
    util::Json row = util::Json::object();
    row["member"] = member;
    row["deleted"] = false;
    rows.emplace_back(store.zscore(add_set(key), member).value_or(0), std::move(row));
  }
  if (!flags_.deleted_field_fixed) {
    // Issue #18: deleted members leak into the response flagged as live.
    for (const auto& member : store.zrange(del_set(key), 0, -1)) {
      util::Json row = util::Json::object();
      row["member"] = member;
      row["deleted"] = false;  // the incorrect field
      rows.emplace_back(store.zscore(del_set(key), member).value_or(0), std::move(row));
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  int64_t index = 0;
  for (auto& [score, row] : rows) {
    if (index++ < offset) continue;
    if (limit >= 0 && static_cast<int64_t>(out.size()) >= limit) break;
    out.push_back(std::move(row));
  }
  return out;
}

util::Result<util::Json> Roshi::do_invoke(net::ReplicaId replica, const std::string& op,
                                          const util::Json& args) {
  auto& ctx = replicas_[static_cast<size_t>(replica)];
  if (op == "insert" || op == "delete") {
    const auto& key = args["key"].as_string();
    const auto& member = args["member"].as_string();
    const double ts = args["ts"].as_double();
    // Writes touch the per-key stream plus the replica-wide arrival history
    // (key_arrival / flagged_keys feed the issue-#40 response order).
    if (footprint_recorder() != nullptr) {
      const std::string stream = "stream/" + key;
      note_read(replica, stream);
      note_write(replica, stream);
    }
    note_read(replica, "arrival");
    note_write(replica, "arrival");
    const bool won = lww_write(ctx, key, member, ts, op == "delete", false);
    return util::Json(won);
  }
  if (op == "select") {
    const auto& key = args["key"].as_string();
    const int64_t offset = args.contains("offset") ? args["offset"].as_int() : 0;
    const int64_t limit = args.contains("limit") ? args["limit"].as_int() : -1;
    if (footprint_recorder() != nullptr) note_read(replica, "stream/" + key);
    return select(ctx, key, offset, limit);
  }
  if (op == "select_all") {
    note_read(replica, "*");
    util::Json out = util::Json::array();
    for (const auto& key : ordered_keys(ctx)) {
      util::Json entry = util::Json::object();
      entry["key"] = key;
      entry["rows"] = select(ctx, key, 0, -1);
      out.push_back(std::move(entry));
    }
    return out;
  }
  return util::Error{"roshi: unknown op " + op};
}

/// Text form: {"history": [...], "streams": {key: {"adds": [{"m", "ts"}],
/// "dels": [...]}}}, members in zrange order.
struct Roshi::SyncBody final : net::Payload {
  struct Write {
    std::string member;
    double ts = 0;
  };
  struct Stream {
    std::string key;
    std::vector<Write> adds;
    std::vector<Write> dels;
  };
  std::vector<Stream> streams;       // sorted by key
  std::vector<std::string> history;  // sorted

  std::string render() const override {
    const auto rows = [](const std::vector<Write>& writes) {
      util::Json out = util::Json::array();
      for (const auto& write : writes) {
        util::Json row = util::Json::object();
        row["m"] = write.member;
        row["ts"] = write.ts;
        out.push_back(std::move(row));
      }
      return out;
    };
    util::Json by_key = util::Json::object();
    for (const auto& stream : streams) {
      util::Json entry = util::Json::object();
      entry["adds"] = rows(stream.adds);
      entry["dels"] = rows(stream.dels);
      by_key[stream.key] = std::move(entry);
    }
    util::Json payload = util::Json::object();
    payload["streams"] = std::move(by_key);
    util::Json history_json = util::Json::array();
    for (const auto& h : history) history_json.push_back(h);
    payload["history"] = std::move(history_json);
    return payload.dump();
  }
};

util::Result<net::PayloadPtr> Roshi::make_sync(net::ReplicaId from, net::ReplicaId,
                                               const util::Json&) {
  // State-based sync: ship every key's add/delete sets.
  auto& ctx = replicas_[static_cast<size_t>(from)];
  auto body = std::make_shared<SyncBody>();
  const auto writes = [&](const std::string& set) {
    std::vector<SyncBody::Write> out;
    for (const auto& member : ctx.store.zrange(set, 0, -1)) {
      out.push_back({member, ctx.store.zscore(set, member).value_or(0)});
    }
    return out;
  };
  for (const auto& key : ctx.key_arrival) {
    body->streams.push_back({key, writes(add_set(key)), writes(del_set(key))});
  }
  // Apply order is behaviour: the receiver's lww_write appends first-seen
  // keys to its key_arrival, which drives issue #40's response order, and the
  // text form's "streams" object iterates in sorted key order. The body keeps
  // that order, not this replica's arrival order.
  std::sort(body->streams.begin(), body->streams.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  body->history.assign(ctx.history.begin(), ctx.history.end());
  return net::PayloadPtr(std::move(body));
}

util::Status Roshi::apply_sync(net::ReplicaId, net::ReplicaId to, const net::Payload& payload) {
  const auto* body = dynamic_cast<const SyncBody*>(&payload);
  if (body == nullptr) return codec::malformed("roshi", "foreign body");
  auto& ctx = replicas_[static_cast<size_t>(to)];
  ctx.received_any = true;
  for (const auto& stream : body->streams) {
    for (const auto& write : stream.adds) {
      lww_write(ctx, stream.key, write.member, write.ts, false, true);
    }
    for (const auto& write : stream.dels) {
      lww_write(ctx, stream.key, write.member, write.ts, true, true);
    }
  }
  ctx.history.insert(body->history.begin(), body->history.end());
  return util::Status::ok();
}

util::Result<net::PayloadPtr> Roshi::decode_sync(const std::string& text) const {
  auto doc = util::Json::parse(text);
  if (!doc) return codec::malformed("roshi", doc.error().message);
  const auto& payload = doc.value();
  if (!codec::object_with(payload, 2) || !payload["streams"].is_object()) {
    return codec::malformed("roshi", "expected {history, streams}");
  }
  auto history = codec::strings(payload["history"]);
  if (!history) return codec::malformed("roshi", "history is not an array of strings");
  const auto writes = [](const util::Json& rows) -> std::optional<std::vector<SyncBody::Write>> {
    if (!rows.is_array()) return std::nullopt;
    std::vector<SyncBody::Write> out;
    for (const auto& row : rows.as_array()) {
      if (!codec::object_with(row, 2) || !row["m"].is_string() || !row["ts"].is_number()) {
        return std::nullopt;
      }
      out.push_back({row["m"].as_string(), row["ts"].as_double()});
    }
    return out;
  };
  auto body = std::make_shared<SyncBody>();
  for (const auto& [key, entry] : payload["streams"].as_object()) {
    if (!codec::object_with(entry, 2)) return codec::malformed("roshi", "bad stream " + key);
    auto adds = writes(entry["adds"]);
    auto dels = writes(entry["dels"]);
    if (!adds || !dels) return codec::malformed("roshi", "bad stream " + key);
    body->streams.push_back({key, std::move(*adds), std::move(*dels)});
  }
  body->history = std::move(*history);
  return net::PayloadPtr(std::move(body));
}

void Roshi::write_state(net::ReplicaId replica, util::JsonWriter& out) const {
  const auto& ctx = replicas_[static_cast<size_t>(replica)];
  const auto write_strings = [&](std::string_view name, const auto& strings) {
    if (!out.wants(name)) return;
    out.key(name).begin_array();
    for (const auto& s : strings) out.string(s);
    out.end_array();
  };
  // A sorted set as {member: score}, in member order, not zrange's.
  const auto write_scores = [&](const std::string& set) {
    std::vector<std::pair<std::string_view, double>> rows;
    if (const auto* scores = ctx.store.zscores(set)) {
      rows.assign(scores->begin(), scores->end());
      std::sort(rows.begin(), rows.end());
    }
    out.begin_object();
    for (const auto& [member, score] : rows) out.key(member).number(score);
    out.end_object();
  };
  const auto write_stream = [&](const std::string& key) {
    if (!out.wants(key)) return;
    out.key(key).begin_object();
    out.key("adds");
    write_scores(add_set(key));
    out.key("dels");
    write_scores(del_set(key));
    out.end_object();
  };
  const auto write_member = [&](std::string_view name) {
    if (name == "history") {
      write_strings(name, ctx.history);
    } else {
      write_strings(name, ordered_keys(ctx));
    }
  };

  std::vector<const std::string*> keys;
  keys.reserve(ctx.key_arrival.size());
  for (const auto& key : ctx.key_arrival) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(), [](const auto* a, const auto* b) { return *a < *b; });
  // "history", "order" and the stream keys share the root object, in one
  // sorted order, and a stream named "history" or "order" takes that
  // member's place.
  static constexpr std::string_view kMembers[] = {"history", "order"};
  size_t next = 0;
  out.begin_object();
  for (const std::string* key : keys) {
    for (; next < std::size(kMembers) && kMembers[next] < *key; ++next) {
      write_member(kMembers[next]);
    }
    if (next < std::size(kMembers) && kMembers[next] == *key) ++next;
    write_stream(*key);
  }
  for (; next < std::size(kMembers); ++next) write_member(kMembers[next]);
  out.end_object();
}

}  // namespace erpi::subjects
