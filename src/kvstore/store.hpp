// In-memory key-value store modelled after the subset of Redis that ER-pi and
// the Roshi subject depend on: strings (GET/SET/SETNX/DEL/INCR/EXPIRE) and
// sorted sets (ZADD/ZREM/ZSCORE/ZRANGE/ZCARD), plus CAD (compare-and-delete),
// the server-side primitive a Redlock release needs to be atomic.
//
// The store itself is single-threaded state — all concurrency is handled by
// the Server that owns it (see server.hpp), exactly as in Redis.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace erpi::kv {

/// Wire-level request: a verb plus string arguments.
struct Request {
  std::string verb;
  std::vector<std::string> args;
};

/// Wire-level response.
struct Response {
  bool ok = true;           // false => protocol/command error, see `error`
  bool found = true;        // GET/ZSCORE on a missing key: ok but !found
  std::string value;        // single-value results
  std::vector<std::string> values;  // multi-value results (KEYS, ZRANGE)
  int64_t integer = 0;      // integer results (INCR, DEL count, ZCARD)
  std::string error;

  static Response err(std::string message) {
    Response r;
    r.ok = false;
    r.error = std::move(message);
    return r;
  }
};

/// Millisecond clock injected for TTL handling; tests use a fake.
using ClockFn = std::function<int64_t()>;

class Store {
 public:
  explicit Store(ClockFn clock);

  /// Dispatch a wire request. Unknown verbs produce an error response.
  Response execute(const Request& request);

  // ---- typed string commands ----
  std::optional<std::string> get(const std::string& key);
  void set(const std::string& key, std::string value,
           std::optional<int64_t> ttl_ms = std::nullopt);
  /// SET key value NX [PX ttl]; returns true if the key was absent and is now set.
  bool setnx(const std::string& key, std::string value,
             std::optional<int64_t> ttl_ms = std::nullopt);
  bool del(const std::string& key);
  /// Compare-and-delete: delete only if current value equals `expected`.
  bool compare_and_delete(const std::string& key, const std::string& expected);
  int64_t incr(const std::string& key);  // missing key counts as 0
  bool expire(const std::string& key, int64_t ttl_ms);
  bool exists(const std::string& key);
  std::vector<std::string> keys_with_prefix(const std::string& prefix);

  // ---- typed sorted-set commands ----
  /// Returns true if the member was newly added (false = score updated).
  bool zadd(const std::string& key, double score, const std::string& member);
  bool zrem(const std::string& key, const std::string& member);
  std::optional<double> zscore(const std::string& key, const std::string& member);
  /// Members ordered by (score, member), ranks [start, stop] inclusive;
  /// negative ranks count from the end, Redis-style.
  std::vector<std::string> zrange(const std::string& key, int64_t start, int64_t stop);
  int64_t zcard(const std::string& key);
  /// Every member's score, unordered; nullptr when the set does not exist.
  const std::unordered_map<std::string, double>* zscores(const std::string& key) const;

  void flush_all();
  size_t key_count();

 private:
  struct StringEntry {
    std::string value;
    std::optional<int64_t> expires_at_ms;
  };
  struct ZSetEntry {
    // member -> score, plus an ordered view for range queries
    std::unordered_map<std::string, double> scores;
    std::map<std::pair<double, std::string>, bool> ordered;
  };

  bool expired(const std::optional<int64_t>& deadline) const;
  void purge_if_expired(const std::string& key);

  ClockFn clock_;
  std::unordered_map<std::string, StringEntry> strings_;
  std::unordered_map<std::string, ZSetEntry> zsets_;
};

}  // namespace erpi::kv
