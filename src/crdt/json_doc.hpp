// JSON document CRDT, modelled on Yorkie's document type: a tree of objects
// (LWW per key), lists (RGA), and primitive registers, mutated through
// serializable operations so replicas can exchange and replay them.
//
// Two historical Yorkie defects are reproducible behind flags:
//  * replace_nested_on_set = false — a Set whose value is an object merges
//    into an existing object at the remote instead of replacing it, while
//    the local replica replaced it; replicas diverge depending on op order
//    (issue #663: "Modify the set operation to handle nested object values").
//  * lww_move = false — Array.MoveAfter repositions by arrival order instead
//    of LWW arbitration, so concurrent moves of the same element leave
//    different orders on different replicas (issue #676: "Document doesn't
//    converge when using Array.MoveAfter").
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crdt/common.hpp"
#include "crdt/rga.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace erpi::crdt {

/// Path to a container in the document: a sequence of object keys.
using DocPath = std::vector<std::string>;

class JsonDoc {
 public:
  struct Flags {
    bool replace_nested_on_set = true;
    bool lww_move = true;
  };

  /// A serializable mutation. Produced by local edits, applied remotely.
  struct Op {
    enum class Kind { Set, Delete, ListPush, ListInsert, ListRemove, ListMove };

    Kind kind = Kind::Set;
    DocPath path;          // container the op addresses
    std::string key;       // object ops
    util::Json value;      // Set / ListPush / ListInsert payload
    Timestamp stamp;       // LWW arbitration
    // list sub-ops (populated for List* kinds)
    Rga::InsertOp list_insert;
    Rga::RemoveOp list_remove;
    Rga::MoveOp list_move;

    util::Json to_json() const;
    /// Strict inverse of to_json(): fails, never throws, on any shape
    /// to_json() does not write.
    static util::Result<Op> from_json(const util::Json& j);
    /// The "kind" member's text ("set", "list_push", ...).
    static const char* kind_name(Kind kind);
  };

  explicit JsonDoc(ReplicaId replica) : JsonDoc(replica, Flags()) {}
  JsonDoc(ReplicaId replica, Flags flags);

  JsonDoc(const JsonDoc&) = delete;
  JsonDoc& operator=(const JsonDoc&) = delete;
  JsonDoc(JsonDoc&&) = default;
  JsonDoc& operator=(JsonDoc&&) = default;

  /// Deep copy of the whole document (node tree, clock, flags) — the
  /// explicit-copy escape hatch the deleted copy constructor forces callers
  /// through. Subject snapshots use it to checkpoint replica state.
  JsonDoc clone() const;

  ReplicaId replica() const noexcept { return replica_; }

  // ---- local edits; the returned op must be broadcast to peers ----
  /// Set `key` in the object at `path` to a JSON value (primitive or object).
  Op set(const DocPath& path, const std::string& key, util::Json value);
  Op erase(const DocPath& path, const std::string& key);
  /// Append to (or create) the list at path/key.
  Op list_push(const DocPath& path, const std::string& key, const util::Json& value);
  Op list_insert(const DocPath& path, const std::string& key, size_t index,
                 const util::Json& value);
  std::optional<Op> list_remove(const DocPath& path, const std::string& key, size_t index);
  /// Yorkie's Array.MoveAfter: reposition element `from` to sit at index `to`.
  std::optional<Op> list_move(const DocPath& path, const std::string& key, size_t from,
                              size_t to);

  /// Apply a remote op. Idempotence is inherited from the underlying CRDTs.
  void apply(const Op& op);

  // ---- queries ----
  /// Materialize the whole document as plain JSON (lists as arrays).
  util::Json snapshot() const;
  std::optional<util::Json> get(const DocPath& path, const std::string& key) const;
  std::vector<std::string> list_values(const DocPath& path, const std::string& key) const;

 private:
  struct Node {
    enum class Kind { Primitive, Object, List };

    Kind kind = Kind::Primitive;
    util::Json primitive;
    Timestamp stamp;  // stamp of the Set that created/overwrote this slot
    std::map<std::string, std::unique_ptr<Node>> fields;  // Object
    Rga list;                                             // List
    bool erased = false;
  };

  Timestamp next_stamp();
  Node* resolve(const DocPath& path, bool create);
  const Node* resolve(const DocPath& path) const;
  Node* resolve_list(const DocPath& path, const std::string& key, bool create);
  void set_in(Node& object, const std::string& key, const util::Json& value, Timestamp stamp,
              bool is_remote);
  static void build_from_json(Node& node, const util::Json& value, Timestamp stamp,
                              bool lww_move);
  static util::Json node_to_json(const Node& node);
  static std::unique_ptr<Node> clone_node(const Node& node);

  ReplicaId replica_;
  Flags flags_;
  LamportClock clock_;
  std::unique_ptr<Node> root_;
};

}  // namespace erpi::crdt
