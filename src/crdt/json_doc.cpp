#include "crdt/json_doc.hpp"

#include <stdexcept>

namespace erpi::crdt {

namespace {

util::Json id_to_json(const Rga::Id& id) {
  util::Json j = util::Json::object();
  j["r"] = static_cast<int64_t>(id.replica);
  j["c"] = id.counter;
  return j;
}

util::Result<JsonDoc::Op::Kind> kind_from_name(const std::string& name) {
  using Kind = JsonDoc::Op::Kind;
  if (name == "set") return Kind::Set;
  if (name == "delete") return Kind::Delete;
  if (name == "list_push") return Kind::ListPush;
  if (name == "list_insert") return Kind::ListInsert;
  if (name == "list_remove") return Kind::ListRemove;
  if (name == "list_move") return Kind::ListMove;
  return util::Error{"unknown op kind " + name};
}

}  // namespace

const char* JsonDoc::Op::kind_name(Kind kind) {
  switch (kind) {
    case JsonDoc::Op::Kind::Set: return "set";
    case JsonDoc::Op::Kind::Delete: return "delete";
    case JsonDoc::Op::Kind::ListPush: return "list_push";
    case JsonDoc::Op::Kind::ListInsert: return "list_insert";
    case JsonDoc::Op::Kind::ListRemove: return "list_remove";
    case JsonDoc::Op::Kind::ListMove: return "list_move";
  }
  return "?";
}

util::Json JsonDoc::Op::to_json() const {
  util::Json j = util::Json::object();
  j["kind"] = kind_name(kind);
  util::Json path_json = util::Json::array();
  for (const auto& component : path) path_json.push_back(component);
  j["path"] = std::move(path_json);
  j["key"] = key;
  j["value"] = value;
  j["stamp"] = stamp.to_json();
  switch (kind) {
    case Kind::ListPush:
    case Kind::ListInsert: {
      util::Json li = util::Json::object();
      li["id"] = id_to_json(list_insert.id);
      li["after"] = id_to_json(list_insert.after);
      li["value"] = list_insert.value;
      j["list_insert"] = std::move(li);
      break;
    }
    case Kind::ListRemove:
      j["list_remove_target"] = id_to_json(list_remove.target);
      break;
    case Kind::ListMove: {
      util::Json lm = util::Json::object();
      lm["target"] = id_to_json(list_move.target);
      lm["after"] = id_to_json(list_move.after);
      lm["stamp"] = list_move.stamp.to_json();
      j["list_move"] = std::move(lm);
      break;
    }
    default: break;
  }
  return j;
}

util::Result<JsonDoc::Op> JsonDoc::Op::from_json(const util::Json& j) {
  // Strict: exactly the members to_json() writes, each of its type, checked
  // before anything is read, so a malformed op fails instead of throwing.
  const auto malformed = [] { return util::Error{"malformed json-doc op"}; };
  if (!j.is_object() || !j["kind"].is_string()) return malformed();
  Op op;
  auto kind = kind_from_name(j["kind"].as_string());
  if (!kind) return util::Error{kind.error()};
  op.kind = kind.value();
  const bool has_list_member = op.kind != Kind::Set && op.kind != Kind::Delete;
  const auto stamp = Timestamp::parse(j["stamp"]);
  if (j.size() != (has_list_member ? 6u : 5u) || !j["path"].is_array() ||
      !j["key"].is_string() || !j.contains("value") || !stamp) {
    return malformed();
  }
  for (const auto& component : j["path"].as_array()) {
    if (!component.is_string()) return malformed();
    op.path.push_back(component.as_string());
  }
  op.key = j["key"].as_string();
  op.value = j["value"];
  op.stamp = *stamp;
  switch (op.kind) {
    case Kind::ListPush:
    case Kind::ListInsert: {
      const auto& li = j["list_insert"];
      if (!li.is_object() || li.size() != 3 || !li["value"].is_string()) return malformed();
      const auto id = Rga::Id::parse(li["id"]);
      const auto after = Rga::Id::parse(li["after"]);
      if (!id || !after) return malformed();
      op.list_insert = Rga::InsertOp{*id, *after, li["value"].as_string()};
      break;
    }
    case Kind::ListRemove: {
      const auto target = Rga::Id::parse(j["list_remove_target"]);
      if (!target) return malformed();
      op.list_remove.target = *target;
      break;
    }
    case Kind::ListMove: {
      const auto& lm = j["list_move"];
      if (!lm.is_object() || lm.size() != 3) return malformed();
      const auto target = Rga::Id::parse(lm["target"]);
      const auto after = Rga::Id::parse(lm["after"]);
      const auto move_stamp = Timestamp::parse(lm["stamp"]);
      if (!target || !after || !move_stamp) return malformed();
      op.list_move = Rga::MoveOp{*target, *after, *move_stamp};
      break;
    }
    default: break;
  }
  return op;
}

JsonDoc::JsonDoc(ReplicaId replica, Flags flags)
    : replica_(replica), flags_(flags), root_(std::make_unique<Node>()) {
  root_->kind = Node::Kind::Object;
}

JsonDoc JsonDoc::clone() const {
  JsonDoc copy(replica_, flags_);
  copy.clock_ = clock_;
  copy.root_ = clone_node(*root_);
  return copy;
}

std::unique_ptr<JsonDoc::Node> JsonDoc::clone_node(const Node& node) {
  auto copy = std::make_unique<Node>();
  copy->kind = node.kind;
  copy->primitive = node.primitive;
  copy->stamp = node.stamp;
  copy->list = node.list;  // Rga is value-semantic
  copy->erased = node.erased;
  for (const auto& [key, child] : node.fields) {
    copy->fields.emplace(key, clone_node(*child));
  }
  return copy;
}

Timestamp JsonDoc::next_stamp() { return Timestamp{clock_.tick(), replica_}; }

JsonDoc::Node* JsonDoc::resolve(const DocPath& path, bool create) {
  Node* node = root_.get();
  for (const auto& component : path) {
    if (node->kind != Node::Kind::Object) return nullptr;
    auto it = node->fields.find(component);
    if (it == node->fields.end() || it->second->erased) {
      if (!create) return nullptr;
      auto child = std::make_unique<Node>();
      child->kind = Node::Kind::Object;
      it = node->fields.insert_or_assign(component, std::move(child)).first;
    } else if (it->second->kind != Node::Kind::Object) {
      if (!create) return nullptr;
      it->second->kind = Node::Kind::Object;
      it->second->fields.clear();
    }
    node = it->second.get();
  }
  return node;
}

const JsonDoc::Node* JsonDoc::resolve(const DocPath& path) const {
  return const_cast<JsonDoc*>(this)->resolve(path, false);
}

JsonDoc::Node* JsonDoc::resolve_list(const DocPath& path, const std::string& key,
                                     bool create) {
  Node* object = resolve(path, create);
  if (object == nullptr || object->kind != Node::Kind::Object) return nullptr;
  auto it = object->fields.find(key);
  if (it == object->fields.end() || it->second->erased ||
      it->second->kind != Node::Kind::List) {
    if (!create) return nullptr;
    auto list_node = std::make_unique<Node>();
    list_node->kind = Node::Kind::List;
    list_node->list.set_lww_moves(flags_.lww_move);
    it = object->fields.insert_or_assign(key, std::move(list_node)).first;
  }
  return it->second.get();
}

void JsonDoc::build_from_json(Node& node, const util::Json& value, Timestamp stamp,
                              bool lww_move) {
  node.stamp = stamp;
  node.erased = false;
  if (value.is_object()) {
    node.kind = Node::Kind::Object;
    node.fields.clear();
    for (const auto& [k, v] : value.as_object()) {
      auto child = std::make_unique<Node>();
      build_from_json(*child, v, stamp, lww_move);
      node.fields.insert_or_assign(k, std::move(child));
    }
  } else if (value.is_array()) {
    node.kind = Node::Kind::List;
    node.list = Rga();
    node.list.set_lww_moves(lww_move);
    for (size_t i = 0; i < value.size(); ++i) {
      node.list.insert_at(stamp.replica, i, value.at(i).dump());
    }
  } else {
    node.kind = Node::Kind::Primitive;
    node.primitive = value;
    node.fields.clear();
  }
}

void JsonDoc::set_in(Node& object, const std::string& key, const util::Json& value,
                     Timestamp stamp, bool is_remote) {
  auto it = object.fields.find(key);
  if (it != object.fields.end()) {
    Node& existing = *it->second;
    if (!(stamp > existing.stamp)) return;  // LWW: older op loses
    if (is_remote && !flags_.replace_nested_on_set && value.is_object() &&
        existing.kind == Node::Kind::Object && !existing.erased) {
      // Issue #663 behaviour: the remote side *merges* the object instead of
      // replacing the subtree, unlike the originating replica.
      existing.stamp = stamp;
      for (const auto& [k, v] : value.as_object()) {
        set_in(existing, k, v, stamp, is_remote);
      }
      return;
    }
    build_from_json(existing, value, stamp, flags_.lww_move);
    return;
  }
  auto child = std::make_unique<Node>();
  build_from_json(*child, value, stamp, flags_.lww_move);
  object.fields.insert_or_assign(key, std::move(child));
}

JsonDoc::Op JsonDoc::set(const DocPath& path, const std::string& key, util::Json value) {
  Op op;
  op.kind = Op::Kind::Set;
  op.path = path;
  op.key = key;
  op.value = std::move(value);
  op.stamp = next_stamp();
  Node* object = resolve(path, true);
  set_in(*object, key, op.value, op.stamp, /*is_remote=*/false);
  return op;
}

JsonDoc::Op JsonDoc::erase(const DocPath& path, const std::string& key) {
  Op op;
  op.kind = Op::Kind::Delete;
  op.path = path;
  op.key = key;
  op.stamp = next_stamp();
  if (Node* object = resolve(path, false); object != nullptr) {
    const auto it = object->fields.find(key);
    if (it != object->fields.end() && op.stamp > it->second->stamp) {
      it->second->erased = true;
      it->second->stamp = op.stamp;
    }
  }
  return op;
}

JsonDoc::Op JsonDoc::list_push(const DocPath& path, const std::string& key,
                               const util::Json& value) {
  Node* list_node = resolve_list(path, key, true);
  Op op;
  op.kind = Op::Kind::ListPush;
  op.path = path;
  op.key = key;
  op.value = value;
  op.stamp = next_stamp();
  op.list_insert = list_node->list.insert_at(replica_, list_node->list.size(), value.dump());
  return op;
}

JsonDoc::Op JsonDoc::list_insert(const DocPath& path, const std::string& key, size_t index,
                                 const util::Json& value) {
  Node* list_node = resolve_list(path, key, true);
  Op op;
  op.kind = Op::Kind::ListInsert;
  op.path = path;
  op.key = key;
  op.value = value;
  op.stamp = next_stamp();
  op.list_insert = list_node->list.insert_at(replica_, index, value.dump());
  return op;
}

std::optional<JsonDoc::Op> JsonDoc::list_remove(const DocPath& path, const std::string& key,
                                                size_t index) {
  Node* list_node = resolve_list(path, key, false);
  if (list_node == nullptr) return std::nullopt;
  const auto removed = list_node->list.remove_at(index);
  if (!removed) return std::nullopt;
  Op op;
  op.kind = Op::Kind::ListRemove;
  op.path = path;
  op.key = key;
  op.stamp = next_stamp();
  op.list_remove = *removed;
  return op;
}

std::optional<JsonDoc::Op> JsonDoc::list_move(const DocPath& path, const std::string& key,
                                              size_t from, size_t to) {
  Node* list_node = resolve_list(path, key, false);
  if (list_node == nullptr) return std::nullopt;
  const auto moved = list_node->list.move(replica_, from, to);
  if (!moved) return std::nullopt;
  Op op;
  op.kind = Op::Kind::ListMove;
  op.path = path;
  op.key = key;
  op.stamp = next_stamp();
  op.list_move = *moved;
  return op;
}

void JsonDoc::apply(const Op& op) {
  clock_.receive(op.stamp.time);
  switch (op.kind) {
    case Op::Kind::Set: {
      Node* object = resolve(op.path, true);
      set_in(*object, op.key, op.value, op.stamp, /*is_remote=*/true);
      break;
    }
    case Op::Kind::Delete: {
      Node* object = resolve(op.path, false);
      if (object == nullptr) break;
      const auto it = object->fields.find(op.key);
      if (it != object->fields.end() && op.stamp > it->second->stamp) {
        it->second->erased = true;
        it->second->stamp = op.stamp;
      }
      break;
    }
    case Op::Kind::ListPush:
    case Op::Kind::ListInsert: {
      Node* list_node = resolve_list(op.path, op.key, true);
      list_node->list.apply(op.list_insert);
      break;
    }
    case Op::Kind::ListRemove: {
      Node* list_node = resolve_list(op.path, op.key, true);
      list_node->list.apply(op.list_remove);
      break;
    }
    case Op::Kind::ListMove: {
      Node* list_node = resolve_list(op.path, op.key, true);
      list_node->list.apply(op.list_move);
      break;
    }
  }
}

util::Json JsonDoc::node_to_json(const Node& node) {
  switch (node.kind) {
    case Node::Kind::Primitive: return node.primitive;
    case Node::Kind::Object: {
      util::Json j = util::Json::object();
      for (const auto& [key, child] : node.fields) {
        if (!child->erased) j[key] = node_to_json(*child);
      }
      return j;
    }
    case Node::Kind::List: {
      util::Json arr = util::Json::array();
      for (const auto& item : node.list.values()) {
        auto parsed = util::Json::parse(item);
        arr.push_back(parsed ? std::move(parsed).take() : util::Json(item));
      }
      return arr;
    }
  }
  return util::Json();
}

util::Json JsonDoc::snapshot() const { return node_to_json(*root_); }

std::optional<util::Json> JsonDoc::get(const DocPath& path, const std::string& key) const {
  const Node* object = resolve(path);
  if (object == nullptr || object->kind != Node::Kind::Object) return std::nullopt;
  const auto it = object->fields.find(key);
  if (it == object->fields.end() || it->second->erased) return std::nullopt;
  return node_to_json(*it->second);
}

std::vector<std::string> JsonDoc::list_values(const DocPath& path,
                                              const std::string& key) const {
  const Node* object = resolve(path);
  if (object == nullptr) return {};
  const auto it = object->fields.find(key);
  if (it == object->fields.end() || it->second->erased ||
      it->second->kind != Node::Kind::List) {
    return {};
  }
  return it->second->list.values();
}

}  // namespace erpi::crdt
