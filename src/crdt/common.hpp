// Shared CRDT machinery: replica identity, Lamport clocks, timestamps with
// replica tie-break, vector clocks, and dots (replica, counter) for unique
// tagging in observed-remove designs.
#pragma once

#include <charconv>
#include <compare>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "util/json.hpp"

namespace erpi::crdt {

using ReplicaId = int32_t;

/// `j` is an int that fits a ReplicaId. The strict parse() decoders below
/// use it so a hostile replica id fails instead of being truncated.
inline bool is_replica_id(const util::Json& j) {
  return j.is_int() && j.as_int() >= std::numeric_limits<ReplicaId>::min() &&
         j.as_int() <= std::numeric_limits<ReplicaId>::max();
}

/// Lamport logical clock (paper §4.2: replay order is defined by Lamport
/// timestamps assigned to each event).
class LamportClock {
 public:
  explicit LamportClock(int64_t initial = 0) noexcept : time_(initial) {}

  /// Local event: advance and return the new time.
  int64_t tick() noexcept { return ++time_; }

  /// Incorporate a received timestamp: max(local, remote) + 1.
  int64_t receive(int64_t remote) noexcept {
    time_ = (remote > time_ ? remote : time_) + 1;
    return time_;
  }

  int64_t now() const noexcept { return time_; }
  void reset(int64_t t = 0) noexcept { time_ = t; }

 private:
  int64_t time_;
};

/// Totally ordered timestamp: Lamport time with replica id as tie-break.
/// Ordering is (time, replica) lexicographic — the standard LWW arbitration.
struct Timestamp {
  int64_t time = 0;
  ReplicaId replica = 0;

  auto operator<=>(const Timestamp&) const = default;

  util::Json to_json() const {
    util::Json j = util::Json::object();
    j["t"] = time;
    j["r"] = static_cast<int64_t>(replica);
    return j;
  }
  static Timestamp from_json(const util::Json& j) {
    return Timestamp{j["t"].as_int(), static_cast<ReplicaId>(j["r"].as_int())};
  }
  /// Strict inverse of to_json(): nullopt unless `j` is exactly
  /// {"r": replica id, "t": int}. Never throws.
  static std::optional<Timestamp> parse(const util::Json& j) {
    if (!j.is_object() || j.size() != 2 || !j["t"].is_int() || !is_replica_id(j["r"])) {
      return std::nullopt;
    }
    return from_json(j);
  }

  std::string str() const {
    return std::to_string(time) + "@" + std::to_string(replica);
  }
};

/// A dot uniquely identifies one operation issued by one replica.
struct Dot {
  ReplicaId replica = 0;
  int64_t counter = 0;

  auto operator<=>(const Dot&) const = default;

  std::string str() const {
    return std::to_string(replica) + ":" + std::to_string(counter);
  }
  util::Json to_json() const {
    util::Json j = util::Json::object();
    j["r"] = static_cast<int64_t>(replica);
    j["c"] = counter;
    return j;
  }
  static Dot from_json(const util::Json& j) {
    return Dot{static_cast<ReplicaId>(j["r"].as_int()), j["c"].as_int()};
  }
  /// Strict inverse of to_json(): nullopt unless `j` is exactly
  /// {"c": int, "r": replica id}. Never throws.
  static std::optional<Dot> parse(const util::Json& j) {
    if (!j.is_object() || j.size() != 2 || !j["c"].is_int() || !is_replica_id(j["r"])) {
      return std::nullopt;
    }
    return from_json(j);
  }
};

/// Vector clock over replica ids; partial order drives MV-Register semantics.
class VectorClock {
 public:
  void tick(ReplicaId replica) { ++entries_[replica]; }
  int64_t get(ReplicaId replica) const {
    const auto it = entries_.find(replica);
    return it == entries_.end() ? 0 : it->second;
  }
  void merge(const VectorClock& other) {
    for (const auto& [replica, count] : other.entries_) {
      auto& mine = entries_[replica];
      if (count > mine) mine = count;
    }
  }

  /// this happens-before other: every component <=, at least one <.
  bool before(const VectorClock& other) const {
    bool strictly = false;
    for (const auto& [replica, count] : entries_) {
      const int64_t theirs = other.get(replica);
      if (count > theirs) return false;
      if (count < theirs) strictly = true;
    }
    for (const auto& [replica, count] : other.entries_) {
      if (get(replica) < count) strictly = true;
    }
    return strictly;
  }
  bool concurrent(const VectorClock& other) const {
    return !before(other) && !other.before(*this) && !(*this == other);
  }

  bool operator==(const VectorClock& other) const {
    // equal iff same non-zero components
    for (const auto& [replica, count] : entries_) {
      if (count != other.get(replica)) return false;
    }
    for (const auto& [replica, count] : other.entries_) {
      if (count != get(replica)) return false;
    }
    return true;
  }

  util::Json to_json() const {
    util::Json j = util::Json::object();
    for (const auto& [replica, count] : entries_) {
      if (count != 0) j[std::to_string(replica)] = count;
    }
    return j;
  }
  static VectorClock from_json(const util::Json& j) {
    VectorClock vc;
    for (const auto& [key, value] : j.as_object()) {
      vc.entries_[static_cast<ReplicaId>(std::stoi(key))] = value.as_int();
    }
    return vc;
  }
  /// Strict inverse of to_json(): nullopt unless `j` is an object mapping
  /// canonical replica-id strings to ints. Never throws.
  static std::optional<VectorClock> parse(const util::Json& j) {
    if (!j.is_object()) return std::nullopt;
    VectorClock vc;
    for (const auto& [key, value] : j.as_object()) {
      ReplicaId replica = 0;
      const auto [end, ec] = std::from_chars(key.data(), key.data() + key.size(), replica);
      if (ec != std::errc() || end != key.data() + key.size() || std::to_string(replica) != key ||
          !value.is_int()) {
        return std::nullopt;
      }
      vc.entries_[replica] = value.as_int();
    }
    return vc;
  }

 private:
  std::map<ReplicaId, int64_t> entries_;
};

}  // namespace erpi::crdt
