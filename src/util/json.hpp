// Minimal self-contained JSON value / parser / serializer.
//
// ER-pi consumes developer-provided runtime constraints from JSON files in a
// watched directory (paper §5.2) and persists experiment reports as JSON.
// No third-party JSON library is assumed in the target environment, so the
// middleware carries its own implementation. The dialect is strict RFC 8259
// JSON with one extension: integers are kept exact as int64 when possible.
//
// JsonWriter streams the same text without a tree: subjects describe their
// state through it once, and replay folds that text into a 64-bit digest
// instead of building and comparing trees (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"
#include "util/result.hpp"

namespace erpi::util {

/// A JSON document node. Value-semantic; copies are deep.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  using Array = std::vector<Json>;
  // std::map keeps keys ordered, which gives deterministic serialization —
  // important because serialized states are compared across interleavings.
  using Object = std::map<std::string, Json>;

  Json() noexcept : type_(Type::Null) {}
  Json(std::nullptr_t) noexcept : type_(Type::Null) {}              // NOLINT
  Json(bool b) noexcept : type_(Type::Bool), bool_(b) {}            // NOLINT
  Json(int v) noexcept : type_(Type::Int), int_(v) {}               // NOLINT
  Json(int64_t v) noexcept : type_(Type::Int), int_(v) {}           // NOLINT
  Json(uint64_t v) noexcept : type_(Type::Int), int_(static_cast<int64_t>(v)) {}  // NOLINT
  Json(double v) noexcept : type_(Type::Double), double_(v) {}      // NOLINT
  Json(const char* s) : type_(Type::String), string_(s) {}          // NOLINT
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}  // NOLINT
  Json(Array a) : type_(Type::Array), array_(std::move(a)) {}       // NOLINT
  Json(Object o) : type_(Type::Object), object_(std::move(o)) {}    // NOLINT

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::Null; }
  bool is_bool() const noexcept { return type_ == Type::Bool; }
  bool is_int() const noexcept { return type_ == Type::Int; }
  bool is_double() const noexcept { return type_ == Type::Double; }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_array() const noexcept { return type_ == Type::Array; }
  bool is_object() const noexcept { return type_ == Type::Object; }

  bool as_bool() const { ensure(Type::Bool); return bool_; }
  int64_t as_int() const { ensure(Type::Int); return int_; }
  double as_double() const {
    if (type_ == Type::Int) return static_cast<double>(int_);
    ensure(Type::Double);
    return double_;
  }
  const std::string& as_string() const { ensure(Type::String); return string_; }
  const Array& as_array() const { ensure(Type::Array); return array_; }
  Array& as_array() { ensure(Type::Array); return array_; }
  const Object& as_object() const { ensure(Type::Object); return object_; }
  Object& as_object() { ensure(Type::Object); return object_; }

  /// Object member access. Non-const inserts a null member if missing.
  Json& operator[](const std::string& key);
  /// Const lookup; returns a shared null node if absent.
  const Json& operator[](const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Array element access (bounds-checked).
  Json& at(size_t index);
  const Json& at(size_t index) const;
  size_t size() const noexcept;

  void push_back(Json v);

  bool operator==(const Json& other) const;

  /// Compact single-line serialization.
  std::string dump() const;

  /// Parse a complete JSON document. Trailing garbage is an error.
  static Result<Json> parse(std::string_view text);

 private:
  void ensure(Type t) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Streams JSON tokens into one of three sinks:
///
///  * text: appends exactly what Json::dump() writes to a string;
///  * fnv: folds that compact text into FNV-1a 64, so digest() equals
///    util::fnv1a64(text) without the text ever existing;
///  * tree: builds the util::Json the same calls describe.
///
/// Object keys must come in strictly increasing order: a tree's std::map
/// sorts them and keeps the last duplicate, so a key out of order or
/// repeated is the one way streamed text could disagree with the rendered
/// tree. key() throws std::logic_error on one, as on any call out of place
/// (a value where a key is due, an unbalanced end). The fnv sink allocates
/// nothing while the keys of the open objects total at most 15 bytes and
/// nesting stays within kInlineDepth.
class JsonWriter {
 public:
  static JsonWriter text(std::string& out) {
    return JsonWriter(Sink::Text, &out, nullptr, kFnv1aBasis);
  }
  /// `seed` continues a digest: fnv(fnv1a64(a)) folds a's bytes first.
  static JsonWriter fnv(uint64_t seed = kFnv1aBasis) {
    return JsonWriter(Sink::Fnv, nullptr, nullptr, seed);
  }
  static JsonWriter tree(Json& root) {
    return JsonWriter(Sink::Tree, nullptr, &root, kFnv1aBasis);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Fold only the root object's member `field` (its value's text, or
  /// "null" when the root has no such member), whether the root is written
  /// call by call or as one value(). Call on an fnv sink before writing.
  /// `field` must outlive the writer.
  JsonWriter& only(std::string_view field);
  /// False when only() filters `key` out: a writer may then skip the work
  /// of describing that root member.
  bool wants(std::string_view key) const noexcept {
    return !filtering_ || depth_ != 1 || key == field_;
  }

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& key(std::string_view k);
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& null();
  JsonWriter& boolean(bool b);
  JsonWriter& int64(int64_t v);
  JsonWriter& number(double v);
  JsonWriter& string(std::string_view s);
  /// Stream an existing tree as one value.
  JsonWriter& value(const Json& v);

  /// The fnv sink's digest (with only(): of the member, or of "null").
  uint64_t digest() const noexcept;

  static constexpr size_t kInlineDepth = 8;

 private:
  enum class Sink : uint8_t { Text, Fnv, Tree };
  /// Where bytes go now: the sink's text or hash, or nowhere (the tree sink
  /// always; only() outside its member).
  enum class Out : uint8_t { Text, Fnv, None };
  struct Frame {             // assigned whole when its container opens
    Json* node;              // tree sink: the container being built
    uint32_t count;          // members or elements so far
    uint32_t key_at;         // where this object's last key starts in keys_
    bool object;
    bool key_pending;        // object: key() ran, its value has not
  };

  JsonWriter(Sink sink, std::string* out, Json* root, uint64_t seed)
      : sink_(sink),
        out_(sink == Sink::Text ? Out::Text : sink == Sink::Fnv ? Out::Fnv : Out::None),
        text_(out),
        root_(root),
        hash_(seed) {}

  void raw(std::string_view bytes) {
    if (out_ == Out::Text) {
      text_->append(bytes);
    } else if (out_ == Out::Fnv) {
      hash_ = fnv1a64(bytes, hash_);
    }
  }
  void raw(char c) {
    if (out_ == Out::Text) {
      text_->push_back(c);
    } else if (out_ == Out::Fnv) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * kFnv1aPrime;
    }
  }
  void escaped(std::string_view s);
  void double_text(double v);
  /// Separator before a value; the tree sink's slot for it.
  Json* begin_value();
  void open(bool object);
  void close(bool object);
  Frame* frame(size_t depth);
  void tree_text(const Json& v);

  Sink sink_;
  Out out_;
  std::string* text_;
  Json* root_;
  uint64_t hash_;
  size_t depth_ = 0;
  Frame* top_ = nullptr;  // the innermost open container's frame
  bool root_written_ = false;
  // only(): the member folded and whether it was met.
  std::string_view field_;
  bool filtering_ = false;
  bool found_ = false;
  // The last key of every open object, outermost first.
  std::string keys_;
  Frame inline_[kInlineDepth];
  std::vector<Frame> deep_;
};

}  // namespace erpi::util
