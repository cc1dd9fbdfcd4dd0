#include "kvstore/store.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/strings.hpp"

namespace erpi::kv {

Store::Store(ClockFn clock) : clock_(std::move(clock)) {}

bool Store::expired(const std::optional<int64_t>& deadline) const {
  return deadline.has_value() && clock_() >= *deadline;
}

void Store::purge_if_expired(const std::string& key) {
  const auto it = strings_.find(key);
  if (it != strings_.end() && expired(it->second.expires_at_ms)) strings_.erase(it);
}

std::optional<std::string> Store::get(const std::string& key) {
  purge_if_expired(key);
  const auto it = strings_.find(key);
  if (it == strings_.end()) return std::nullopt;
  return it->second.value;
}

void Store::set(const std::string& key, std::string value, std::optional<int64_t> ttl_ms) {
  StringEntry entry;
  entry.value = std::move(value);
  if (ttl_ms) entry.expires_at_ms = clock_() + *ttl_ms;
  strings_[key] = std::move(entry);
}

bool Store::setnx(const std::string& key, std::string value, std::optional<int64_t> ttl_ms) {
  purge_if_expired(key);
  if (strings_.count(key) > 0) return false;
  set(key, std::move(value), ttl_ms);
  return true;
}

bool Store::del(const std::string& key) {
  const bool had_string = strings_.erase(key) > 0;
  const bool had_zset = zsets_.erase(key) > 0;
  return had_string || had_zset;
}

bool Store::compare_and_delete(const std::string& key, const std::string& expected) {
  purge_if_expired(key);
  const auto it = strings_.find(key);
  if (it == strings_.end() || it->second.value != expected) return false;
  strings_.erase(it);
  return true;
}

int64_t Store::incr(const std::string& key) {
  purge_if_expired(key);
  auto it = strings_.find(key);
  int64_t current = 0;
  std::optional<int64_t> deadline;
  if (it != strings_.end()) {
    current = std::strtoll(it->second.value.c_str(), nullptr, 10);
    deadline = it->second.expires_at_ms;
  }
  ++current;
  strings_[key] = StringEntry{std::to_string(current), deadline};
  return current;
}

bool Store::expire(const std::string& key, int64_t ttl_ms) {
  purge_if_expired(key);
  const auto it = strings_.find(key);
  if (it == strings_.end()) return false;
  it->second.expires_at_ms = clock_() + ttl_ms;
  return true;
}

bool Store::exists(const std::string& key) {
  purge_if_expired(key);
  return strings_.count(key) > 0 || zsets_.count(key) > 0;
}

std::vector<std::string> Store::keys_with_prefix(const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& [key, entry] : strings_) {
    if (!expired(entry.expires_at_ms) && util::starts_with(key, prefix)) out.push_back(key);
  }
  for (const auto& [key, entry] : zsets_) {
    if (util::starts_with(key, prefix)) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Store::zadd(const std::string& key, double score, const std::string& member) {
  auto& zset = zsets_[key];
  const auto it = zset.scores.find(member);
  if (it != zset.scores.end()) {
    zset.ordered.erase({it->second, member});
    it->second = score;
    zset.ordered[{score, member}] = true;
    return false;
  }
  zset.scores.emplace(member, score);
  zset.ordered[{score, member}] = true;
  return true;
}

bool Store::zrem(const std::string& key, const std::string& member) {
  const auto zit = zsets_.find(key);
  if (zit == zsets_.end()) return false;
  auto& zset = zit->second;
  const auto it = zset.scores.find(member);
  if (it == zset.scores.end()) return false;
  zset.ordered.erase({it->second, member});
  zset.scores.erase(it);
  if (zset.scores.empty()) zsets_.erase(zit);
  return true;
}

std::optional<double> Store::zscore(const std::string& key, const std::string& member) {
  const auto zit = zsets_.find(key);
  if (zit == zsets_.end()) return std::nullopt;
  const auto it = zit->second.scores.find(member);
  if (it == zit->second.scores.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> Store::zrange(const std::string& key, int64_t start, int64_t stop) {
  std::vector<std::string> out;
  const auto zit = zsets_.find(key);
  if (zit == zsets_.end()) return out;
  const auto n = static_cast<int64_t>(zit->second.ordered.size());
  if (start < 0) start = std::max<int64_t>(0, n + start);
  if (stop < 0) stop = n + stop;
  stop = std::min(stop, n - 1);
  if (start > stop) return out;
  int64_t rank = 0;
  for (const auto& [score_member, unused] : zit->second.ordered) {
    if (rank > stop) break;
    if (rank >= start) out.push_back(score_member.second);
    ++rank;
  }
  return out;
}

int64_t Store::zcard(const std::string& key) {
  const auto zit = zsets_.find(key);
  return zit == zsets_.end() ? 0 : static_cast<int64_t>(zit->second.scores.size());
}

const std::unordered_map<std::string, double>* Store::zscores(const std::string& key) const {
  const auto zit = zsets_.find(key);
  return zit == zsets_.end() ? nullptr : &zit->second.scores;
}

void Store::flush_all() {
  strings_.clear();
  zsets_.clear();
}

size_t Store::key_count() {
  // purge lazily so the count reflects live keys
  std::vector<std::string> dead;
  for (const auto& [key, entry] : strings_) {
    if (expired(entry.expires_at_ms)) dead.push_back(key);
  }
  for (const auto& key : dead) strings_.erase(key);
  return strings_.size() + zsets_.size();
}

Response Store::execute(const Request& request) {
  const auto& verb = request.verb;
  const auto& args = request.args;
  const auto need = [&](size_t n) { return args.size() == n; };
  Response r;

  if (verb == "GET") {
    if (!need(1)) return Response::err("GET expects 1 arg");
    const auto v = get(args[0]);
    r.found = v.has_value();
    if (v) r.value = *v;
    return r;
  }
  if (verb == "SET") {
    // SET key value [NX] [PX ttl]
    if (args.size() < 2) return Response::err("SET expects at least 2 args");
    bool nx = false;
    std::optional<int64_t> ttl;
    for (size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "NX") {
        nx = true;
      } else if (args[i] == "PX") {
        if (i + 1 >= args.size()) return Response::err("PX requires a value");
        ttl = std::strtoll(args[++i].c_str(), nullptr, 10);
      } else {
        return Response::err("unknown SET option " + args[i]);
      }
    }
    if (nx) {
      r.found = setnx(args[0], args[1], ttl);
    } else {
      set(args[0], args[1], ttl);
    }
    return r;
  }
  if (verb == "DEL") {
    if (!need(1)) return Response::err("DEL expects 1 arg");
    r.integer = del(args[0]) ? 1 : 0;
    return r;
  }
  if (verb == "CAD") {
    if (!need(2)) return Response::err("CAD expects 2 args");
    r.integer = compare_and_delete(args[0], args[1]) ? 1 : 0;
    return r;
  }
  if (verb == "INCR") {
    if (!need(1)) return Response::err("INCR expects 1 arg");
    r.integer = incr(args[0]);
    return r;
  }
  if (verb == "EXPIRE") {
    if (!need(2)) return Response::err("EXPIRE expects 2 args");
    r.integer = expire(args[0], std::strtoll(args[1].c_str(), nullptr, 10)) ? 1 : 0;
    return r;
  }
  if (verb == "EXISTS") {
    if (!need(1)) return Response::err("EXISTS expects 1 arg");
    r.integer = exists(args[0]) ? 1 : 0;
    return r;
  }
  if (verb == "KEYS") {
    if (!need(1)) return Response::err("KEYS expects 1 arg (prefix)");
    r.values = keys_with_prefix(args[0]);
    return r;
  }
  if (verb == "ZADD") {
    if (!need(3)) return Response::err("ZADD expects 3 args");
    r.integer = zadd(args[0], std::strtod(args[1].c_str(), nullptr), args[2]) ? 1 : 0;
    return r;
  }
  if (verb == "ZREM") {
    if (!need(2)) return Response::err("ZREM expects 2 args");
    r.integer = zrem(args[0], args[1]) ? 1 : 0;
    return r;
  }
  if (verb == "ZSCORE") {
    if (!need(2)) return Response::err("ZSCORE expects 2 args");
    const auto score = zscore(args[0], args[1]);
    r.found = score.has_value();
    if (score) r.value = std::to_string(*score);
    return r;
  }
  if (verb == "ZRANGE") {
    if (!need(3)) return Response::err("ZRANGE expects 3 args");
    r.values = zrange(args[0], std::strtoll(args[1].c_str(), nullptr, 10),
                      std::strtoll(args[2].c_str(), nullptr, 10));
    return r;
  }
  if (verb == "ZCARD") {
    if (!need(1)) return Response::err("ZCARD expects 1 arg");
    r.integer = zcard(args[0]);
    return r;
  }
  if (verb == "FLUSHALL") {
    flush_all();
    return r;
  }
  if (verb == "DBSIZE") {
    r.integer = static_cast<int64_t>(key_count());
    return r;
  }
  if (verb == "PING") {
    r.value = "PONG";
    return r;
  }
  return Response::err("unknown command " + verb);
}

}  // namespace erpi::kv
