// What the subjects' sync codecs share.
//
// A sync_req hands the network an immutable, typed body (net::Payload) and
// the paired exec_sync applies it, so no text sits between them. A body's
// render() and its subject's decode_sync() are the subject's text codec; it
// runs only where bytes are needed: the durable log, and tests.
//
//  * Strict readers. A decoder accepts exactly the shape render() writes and
//    reports anything else as a failed Result, never an exception, before it
//    builds anything: recovery replays decoded log records, so a hostile
//    record must neither throw out of it nor half-apply.
//  * OpHistory, the sync model of the op-based subjects (town, yorkie,
//    crdts).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crdt/common.hpp"
#include "net/network.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace erpi::subjects {

namespace codec {

/// An object with exactly `members` members (callers type-check each one).
inline bool object_with(const util::Json& j, size_t members) {
  return j.is_object() && j.size() == members;
}

/// An array of strings.
inline std::optional<std::vector<std::string>> strings(const util::Json& j) {
  if (!j.is_array()) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(j.size());
  for (const auto& item : j.as_array()) {
    if (!item.is_string()) return std::nullopt;
    out.push_back(item.as_string());
  }
  return out;
}

/// The error a subject's decoder reports: "<subject> sync payload: <what>".
inline util::Error malformed(const char* subject, const std::string& what) {
  return util::Error{std::string(subject) + " sync payload: " + what};
}

}  // namespace codec

/// The op-based subjects' sync model: every replica keeps each op it has
/// seen, stamped (origin, per-origin seq), and a sync ships the sender's
/// whole log; the receiver applies the ops it has not applied yet, in log
/// order, so delivery is transitive across replicas.
///
/// A stamped op is immutable once recorded. The sender's log, every body
/// built from it and every receiver's log share one copy, so a sync copies
/// pointers, and each op's content digest and its entry in the
/// replica_state() "seen" witness are computed once, when the op is
/// recorded or decoded.
///
/// `Codec` supplies the op type and its text form:
///   using Op = ...;
///   static constexpr const char* kSubject;   // error-message prefix
///   static void write(const Op&, util::JsonWriter&);
///   static util::Result<Op> from_json(const util::Json&);  // strict
///   static uint64_t digest(const Op&);  // streamed, no tree (DESIGN.md §17)
template <typename Codec>
class OpHistory {
 public:
  using Op = typename Codec::Op;
  struct Stamped {
    net::ReplicaId origin = 0;
    int64_t seq = 0;
    Op op;
    /// "origin:seq:digest" (Codec::digest), the op's "seen" witness entry.
    char seen[56] = {};  // "-2147483648:-9223372036854775808:18446744073709551615" fits
    uint8_t seen_size = 0;

    std::string_view seen_text() const noexcept { return {seen, seen_size}; }
  };
  using StampedPtr = std::shared_ptr<const Stamped>;

  /// The sync body: the sender's log when its sync_req ran.
  class Body final : public net::Payload {
   public:
    explicit Body(std::vector<StampedPtr> ops) : ops_(std::move(ops)) {}
    const std::vector<StampedPtr>& ops() const noexcept { return ops_; }

    /// [{"op": op, "origin": origin, "seq": seq}, ...] in log order.
    std::string render() const override {
      std::string text;
      auto out = util::JsonWriter::text(text);
      out.begin_array();
      for (const auto& stamped : ops_) {
        out.begin_object().key("op");
        Codec::write(stamped->op, out);
        out.key("origin").int64(stamped->origin);
        out.key("seq").int64(stamped->seq);
        out.end_object();
      }
      out.end_array();
      return text;
    }

   private:
    std::vector<StampedPtr> ops_;
  };

  /// Record an op `replica` just executed locally, under its next seq.
  void record_local(net::ReplicaId replica, Op op) {
    known_.push_back(stamp(replica, next_local_seq_++, std::move(op)));
    applied_.insert({replica, known_.back()->seq});
  }

  /// The body a sync_req ships: every op seen so far.
  net::PayloadPtr body() const { return std::make_shared<const Body>(known_); }

  /// Apply a body's unseen ops in log order, calling `apply(const Stamped&)`
  /// (which returns a util::Status) for each and logging it. Stops at the
  /// first failed apply; that op counts as applied but is not logged.
  template <typename Apply>
  util::Status merge(const net::Payload& payload, Apply&& apply) {
    const auto* body = dynamic_cast<const Body*>(&payload);
    if (body == nullptr) return codec::malformed(Codec::kSubject, "foreign body");
    for (const auto& stamped : body->ops()) {
      if (!applied_.insert({stamped->origin, stamped->seq}).second) continue;
      if (auto st = apply(*stamped); !st) return st;
      known_.push_back(stamped);
    }
    return util::Status::ok();
  }

  /// Strict decode of Body::render()'s text.
  static util::Result<net::PayloadPtr> decode(const std::string& text) {
    auto doc = util::Json::parse(text);
    if (!doc) return codec::malformed(Codec::kSubject, doc.error().message);
    if (!doc.value().is_array()) return codec::malformed(Codec::kSubject, "not an array");
    std::vector<StampedPtr> ops;
    for (const auto& row : doc.value().as_array()) {
      if (!codec::object_with(row, 3) || !crdt::is_replica_id(row["origin"]) ||
          !row["seq"].is_int()) {
        return codec::malformed(Codec::kSubject, "bad stamped-op row");
      }
      auto op = Codec::from_json(row["op"]);
      if (!op) return codec::malformed(Codec::kSubject, op.error().message);
      ops.push_back(stamp(static_cast<net::ReplicaId>(row["origin"].as_int()),
                          row["seq"].as_int(), std::move(op).take()));
    }
    return net::PayloadPtr(std::make_shared<const Body>(std::move(ops)));
  }

  /// Which ops this replica has seen: an array of sorted
  /// "origin:seq:digest" strings. The entries are fixed-size text stored
  /// with each op, sorted in a per-thread buffer, so once warm this
  /// allocates nothing.
  void write_seen(util::JsonWriter& out) const {
    thread_local std::vector<const Stamped*> sorted;
    sorted.clear();
    for (const auto& stamped : known_) sorted.push_back(stamped.get());
    std::sort(sorted.begin(), sorted.end(), [](const Stamped* a, const Stamped* b) {
      return a->seen_text() < b->seen_text();
    });
    out.begin_array();
    for (const Stamped* stamped : sorted) out.string(stamped->seen_text());
    out.end_array();
  }

 private:
  static StampedPtr stamp(net::ReplicaId origin, int64_t seq, Op op) {
    const uint64_t digest = Codec::digest(op);
    Stamped stamped{origin, seq, std::move(op)};
    char* const end = stamped.seen + sizeof(stamped.seen);
    char* p = std::to_chars(stamped.seen, end, origin).ptr;
    *p++ = ':';
    p = std::to_chars(p, end, seq).ptr;
    *p++ = ':';
    p = std::to_chars(p, end, digest).ptr;
    stamped.seen_size = static_cast<uint8_t>(p - stamped.seen);
    return std::make_shared<const Stamped>(std::move(stamped));
  }

  std::vector<StampedPtr> known_;
  std::set<std::pair<int32_t, int64_t>> applied_;
  int64_t next_local_seq_ = 0;
};

}  // namespace erpi::subjects
