// Set CRDTs: LWW-Element-Set (Roshi's semantics), OR-Set (observed-remove),
// and 2P-Set (two-phase: removed elements can never return).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crdt/common.hpp"
#include "util/json.hpp"

namespace erpi::crdt {

/// Last-write-wins element set. Each element carries the latest (add or
/// remove) timestamp; membership = the latest operation was an add.
///
/// `strict_tiebreak` mirrors LwwRegister: when false, equal-timestamp
/// operations apply in arrival order (Roshi #11 semantics violation); when
/// true, ties resolve deterministically — remove wins over add at the same
/// instant, then replica id decides (Roshi's documented "remove bias").
class LwwSet {
 public:
  explicit LwwSet(bool strict_tiebreak = true) : strict_tiebreak_(strict_tiebreak) {}

  /// Returns true if the operation took effect (was not superseded).
  bool add(const std::string& element, Timestamp at);
  bool remove(const std::string& element, Timestamp at);

  bool contains(const std::string& element) const;
  /// The timestamp of the winning operation for this element, if any op seen.
  std::optional<Timestamp> last_op(const std::string& element) const;
  /// Was the last winning op on this element a remove? (Roshi exposes this as
  /// the "deleted" field in query responses — issue #18.)
  bool deleted(const std::string& element) const;

  std::vector<std::string> elements() const;  // sorted, members only
  size_t size() const;

  void merge(const LwwSet& other);

  util::Json to_json() const;

 private:
  struct Cell {
    Timestamp timestamp;
    bool is_add = false;
  };

  /// Does (at, incoming_is_add) win over the existing cell?
  bool wins(const Cell& current, Timestamp at, bool incoming_is_add) const;

  bool strict_tiebreak_;
  std::map<std::string, Cell> cells_;
};

/// Observed-remove set: adds are tagged with unique dots; removing an element
/// removes exactly the tags observed at the remover, so concurrent re-adds
/// survive (add-wins).
class OrSet {
 public:
  struct AddOp {
    std::string element;
    Dot tag;
  };
  struct RemoveOp {
    std::string element;
    std::vector<Dot> observed_tags;
  };

  /// Local add: mint a fresh dot for this replica.
  AddOp add(ReplicaId replica, const std::string& element);
  /// Local remove: captures the currently observed tags. Returns nullopt when
  /// the element is not present (the op would be a no-op everywhere).
  std::optional<RemoveOp> remove(const std::string& element);

  /// Apply a (possibly remote) operation.
  void apply(const AddOp& op);
  void apply(const RemoveOp& op);

  bool contains(const std::string& element) const;
  std::vector<std::string> elements() const;  // sorted
  /// Visit the live elements (those with a visible tag) in sorted order
  /// without copying them; elements() and to_json() are built on it.
  template <typename F>
  void for_each(F&& visit) const {
    for (const auto& [element, tags] : live_) {
      if (!tags.empty()) visit(element);
    }
  }
  size_t size() const;

  /// State-based merge (union of live tags, union of tombstones).
  void merge(const OrSet& other);

  util::Json to_json() const;

 private:
  std::map<std::string, std::set<Dot>> live_;   // element -> visible tags
  std::set<Dot> tombstones_;                    // removed tags
  std::map<ReplicaId, int64_t> next_counter_;
};

/// Two-phase set: membership = added && !removed. Removal is permanent, and
/// re-adding a removed element fails — the data-structure constraint that
/// drives Failed-Ops pruning examples in the paper (§3.5).
class TwoPSet {
 public:
  /// Returns false (failed op) when the element was already added or removed.
  bool add(const std::string& element);
  /// Returns false (failed op) when not currently a member.
  bool remove(const std::string& element);

  /// Downstream application of a replicated add/remove: unconditional union
  /// into the respective phase set (merge semantics for op-based sync).
  void merge_add(const std::string& element) { added_.insert(element); }
  void merge_remove(const std::string& element) { removed_.insert(element); }

  bool contains(const std::string& element) const;
  std::vector<std::string> elements() const;
  size_t size() const;

  void merge(const TwoPSet& other);

  util::Json to_json() const;

 private:
  std::set<std::string> added_;
  std::set<std::string> removed_;
};

}  // namespace erpi::crdt
