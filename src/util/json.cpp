#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace erpi::util {

namespace {
const Json kNullJson{};
}  // namespace

void Json::ensure(Type t) const {
  if (type_ != t) {
    static constexpr const char* kNames[] = {"null",   "bool",  "int",   "double",
                                             "string", "array", "object"};
    throw std::logic_error(std::string("Json type mismatch: expected ") +
                           kNames[static_cast<int>(t)] + ", have " +
                           kNames[static_cast<int>(type_)]);
  }
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;  // convenient building
  ensure(Type::Object);
  return object_[key];
}

const Json& Json::operator[](const std::string& key) const {
  ensure(Type::Object);
  const auto it = object_.find(key);
  return it == object_.end() ? kNullJson : it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::Object && object_.count(key) > 0;
}

Json& Json::at(size_t index) {
  ensure(Type::Array);
  return array_.at(index);
}

const Json& Json::at(size_t index) const {
  ensure(Type::Array);
  return array_.at(index);
}

size_t Json::size() const noexcept {
  switch (type_) {
    case Type::Array: return array_.size();
    case Type::Object: return object_.size();
    default: return 0;
  }
}

void Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  ensure(Type::Array);
  array_.push_back(std::move(v));
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) {
    // ints and doubles compare numerically across representation
    if (is_number() && other.is_number()) return as_double() == other.as_double();
    return false;
  }
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Int: return int_ == other.int_;
    case Type::Double: return double_ == other.double_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
  }
  return false;
}

std::string Json::dump() const {
  std::string out;
  JsonWriter::text(out).value(*this);
  return out;
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

JsonWriter& JsonWriter::only(std::string_view field) {
  if (sink_ != Sink::Fnv || depth_ != 0 || root_written_) {
    throw std::logic_error("JsonWriter::only: an fnv sink, before anything is written");
  }
  field_ = field;
  filtering_ = true;
  out_ = Out::None;
  return *this;
}

JsonWriter::Frame* JsonWriter::frame(size_t depth) {
  return depth <= kInlineDepth ? &inline_[depth - 1] : &deep_[depth - 1 - kInlineDepth];
}

namespace {

bool plain(unsigned char c) { return c >= 0x20 && c != '"' && c != '\\'; }

/// The escape sequence standing for a byte that is not plain().
std::string_view escape(unsigned char c, char (&buf)[6]) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\b': return "\\b";
    case '\f': return "\\f";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      buf[0] = '\\';
      buf[1] = 'u';
      buf[2] = '0';
      buf[3] = '0';
      buf[4] = kHex[c >> 4];
      buf[5] = kHex[c & 0xf];
      return {buf, sizeof(buf)};
    }
  }
}

}  // namespace

void JsonWriter::escaped(std::string_view s) {
  char buf[6];
  if (out_ == Out::Fnv) {
    // One pass: fold each byte, or its escape sequence.
    uint64_t h = (hash_ ^ '"') * kFnv1aPrime;
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      h = plain(c) ? (h ^ c) * kFnv1aPrime : fnv1a64(escape(c, buf), h);
    }
    hash_ = (h ^ '"') * kFnv1aPrime;
    return;
  }
  if (out_ == Out::None) return;
  text_->push_back('"');
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (plain(c)) continue;
    text_->append(s.substr(run, i - run)).append(escape(c, buf));
    run = i + 1;
  }
  text_->append(s.substr(run)).push_back('"');
}

void JsonWriter::double_text(double v) {
  if (!std::isfinite(v)) {
    raw("null");  // RFC 8259 has no NaN/Inf
    return;
  }
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  raw(std::string_view(buf, static_cast<size_t>(n)));
}

Json* JsonWriter::begin_value() {
  if (top_ == nullptr) {
    if (root_written_) throw std::logic_error("JsonWriter: a second root value");
    root_written_ = true;
    return root_;
  }
  Frame& top = *top_;
  if (top.object) {
    if (!top.key_pending) throw std::logic_error("JsonWriter: an object member without a key");
    top.key_pending = false;
    return top.node == nullptr ? nullptr : &top.node->as_object()[keys_.substr(top.key_at)];
  }
  if (top.count++ > 0) raw(',');
  if (top.node == nullptr) return nullptr;
  top.node->push_back(Json());
  return &top.node->as_array().back();
}

void JsonWriter::open(bool object) {
  Json* slot = begin_value();
  if (slot != nullptr) *slot = object ? Json::object() : Json::array();
  raw(object ? '{' : '[');
  ++depth_;
  if (depth_ > kInlineDepth && deep_.size() < depth_ - kInlineDepth) deep_.emplace_back();
  top_ = frame(depth_);
  *top_ = Frame{slot, 0, static_cast<uint32_t>(keys_.size()), object, false};
}

void JsonWriter::close(bool object) {
  if (top_ == nullptr || top_->object != object || top_->key_pending) {
    throw std::logic_error("JsonWriter: an end without its begin");
  }
  if (filtering_ && depth_ == 1) out_ = Out::None;
  raw(object ? '}' : ']');
  keys_.resize(top_->key_at);
  --depth_;
  top_ = depth_ == 0 ? nullptr : frame(depth_);
}

JsonWriter& JsonWriter::begin_object() {
  open(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close(true);
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(false);
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (top_ == nullptr || !top_->object || top_->key_pending) {
    throw std::logic_error("JsonWriter: a key outside an object");
  }
  Frame& top = *top_;
  const std::string_view last = std::string_view(keys_).substr(top.key_at);
  if (top.count > 0 && !(last < k)) {
    throw std::logic_error("JsonWriter: key \"" + std::string(k) + "\" after \"" +
                           std::string(last) + "\"");
  }
  const bool root_member = filtering_ && depth_ == 1;
  if (root_member) out_ = Out::None;
  if (top.count++ > 0) raw(',');
  escaped(k);
  raw(':');
  keys_.replace(top.key_at, std::string::npos, k);
  top.key_pending = true;
  if (root_member && k == field_) {
    out_ = Out::Fnv;
    found_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::null() {
  if (Json* slot = begin_value()) {
    *slot = Json();
    return *this;
  }
  raw("null");
  return *this;
}

JsonWriter& JsonWriter::boolean(bool b) {
  if (Json* slot = begin_value()) {
    *slot = Json(b);
    return *this;
  }
  raw(b ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::int64(int64_t v) {
  if (Json* slot = begin_value()) {
    *slot = Json(v);
    return *this;
  }
  if (out_ == Out::None) return *this;
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  raw(std::string_view(buf, static_cast<size_t>(end - buf)));
  return *this;
}

JsonWriter& JsonWriter::number(double v) {
  if (Json* slot = begin_value()) {
    *slot = Json(v);
    return *this;
  }
  if (out_ != Out::None) double_text(v);
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view s) {
  if (Json* slot = begin_value()) {
    *slot = Json(std::string(s));
    return *this;
  }
  escaped(s);
  return *this;
}

JsonWriter& JsonWriter::value(const Json& v) {
  if (Json* slot = begin_value()) {
    *slot = v;
    return *this;
  }
  if (filtering_ && depth_ == 0) {
    // only() on a root written whole: fold its member from the tree.
    if (!v.is_object()) return *this;
    const auto& members = v.as_object();
    const auto it = members.find(std::string(field_));
    if (it == members.end()) return *this;
    out_ = Out::Fnv;
    found_ = true;
    tree_text(it->second);
    out_ = Out::None;
    return *this;
  }
  if (out_ != Out::None) tree_text(v);
  return *this;
}

void JsonWriter::tree_text(const Json& v) {
  switch (v.type()) {
    case Json::Type::Null: raw("null"); break;
    case Json::Type::Bool: raw(v.as_bool() ? "true" : "false"); break;
    case Json::Type::Int: {
      char buf[24];
      const auto end = std::to_chars(buf, buf + sizeof(buf), v.as_int()).ptr;
      raw(std::string_view(buf, static_cast<size_t>(end - buf)));
      break;
    }
    case Json::Type::Double: double_text(v.as_double()); break;
    case Json::Type::String: escaped(v.as_string()); break;
    case Json::Type::Array: {
      const auto& items = v.as_array();
      raw('[');
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) raw(',');
        tree_text(items[i]);
      }
      raw(']');
      break;
    }
    case Json::Type::Object: {
      raw('{');
      bool first = true;
      for (const auto& [k, member] : v.as_object()) {
        if (!first) raw(',');
        first = false;
        escaped(k);
        raw(':');
        tree_text(member);
      }
      raw('}');
      break;
    }
  }
}

uint64_t JsonWriter::digest() const noexcept {
  return filtering_ && !found_ ? fnv1a64("null", hash_) : hash_;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse_document() {
    skip_ws();
    Json value;
    if (auto st = parse_value(value); !st) return Error{st.error()};
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return value;
  }

 private:
  Error fail(const std::string& what) const {
    size_t line = 1;
    size_t col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Error{"json parse error at line " + std::to_string(line) + ", col " +
                 std::to_string(col) + ": " + what};
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume(char c) {
    if (!eof() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status parse_value(Json& out) {
    if (eof()) return Status::fail(fail("unexpected end of input").message);
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': return parse_string_value(out);
      case 't':
        if (consume_literal("true")) {
          out = Json(true);
          return Status::ok();
        }
        return Status::fail(fail("invalid literal").message);
      case 'f':
        if (consume_literal("false")) {
          out = Json(false);
          return Status::ok();
        }
        return Status::fail(fail("invalid literal").message);
      case 'n':
        if (consume_literal("null")) {
          out = Json(nullptr);
          return Status::ok();
        }
        return Status::fail(fail("invalid literal").message);
      default: return parse_number(out);
    }
  }

  Status parse_object(Json& out) {
    ++pos_;  // '{'
    Json::Object obj;
    skip_ws();
    if (consume('}')) {
      out = Json(std::move(obj));
      return Status::ok();
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return Status::fail(fail("expected object key").message);
      std::string key;
      if (auto st = parse_raw_string(key); !st) return st;
      skip_ws();
      if (!consume(':')) return Status::fail(fail("expected ':' after key").message);
      skip_ws();
      Json value;
      if (auto st = parse_value(value); !st) return st;
      obj[std::move(key)] = std::move(value);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return Status::fail(fail("expected ',' or '}' in object").message);
    }
    out = Json(std::move(obj));
    return Status::ok();
  }

  Status parse_array(Json& out) {
    ++pos_;  // '['
    Json::Array arr;
    skip_ws();
    if (consume(']')) {
      out = Json(std::move(arr));
      return Status::ok();
    }
    while (true) {
      skip_ws();
      Json value;
      if (auto st = parse_value(value); !st) return st;
      arr.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return Status::fail(fail("expected ',' or ']' in array").message);
    }
    out = Json(std::move(arr));
    return Status::ok();
  }

  Status parse_string_value(Json& out) {
    std::string s;
    if (auto st = parse_raw_string(s); !st) return st;
    out = Json(std::move(s));
    return Status::ok();
  }

  Status parse_raw_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (eof()) return Status::fail(fail("unterminated string").message);
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Status::fail(fail("raw control character in string").message);
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return Status::fail(fail("unterminated escape").message);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (auto st = parse_hex4(cp); !st) return st;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // surrogate pair
            if (!consume_literal("\\u")) {
              return Status::fail(fail("lone high surrogate").message);
            }
            uint32_t low = 0;
            if (auto st = parse_hex4(low); !st) return st;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Status::fail(fail("invalid low surrogate").message);
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default: return Status::fail(fail("invalid escape character").message);
      }
    }
  }

  Status parse_hex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) return Status::fail(fail("truncated \\u escape").message);
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Status::fail(fail("invalid hex digit in \\u escape").message);
      }
    }
    return Status::ok();
  }

  static void append_utf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status parse_number(Json& out) {
    const size_t start = pos_;
    if (consume('-')) {
      // sign consumed
    }
    if (eof() || peek() < '0' || peek() > '9') {
      return Status::fail(fail("invalid number").message);
    }
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    bool is_double = false;
    if (!eof() && peek() == '.') {
      is_double = true;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        return Status::fail(fail("digits required after decimal point").message);
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      is_double = true;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        return Status::fail(fail("digits required in exponent").message);
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out = Json(static_cast<int64_t>(v));
        return Status::ok();
      }
      // fall through to double on overflow
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::fail(fail("malformed number").message);
    }
    out = Json(d);
    return Status::ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  Parser p(text);
  return p.parse_document();
}

}  // namespace erpi::util
