#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/hash.hpp"

namespace erpi::util {
namespace {

TEST(JsonValue, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(JsonValue, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(int64_t{42}).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(JsonValue, ObjectBuildingAndLookup) {
  Json j = Json::object();
  j["b"] = 2;
  j["a"] = 1;
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zz"));
  EXPECT_EQ(j["a"].as_int(), 1);
  // deterministic (sorted) serialization
  EXPECT_EQ(j.dump(), "{\"a\":1,\"b\":2}");
  const Json& cj = j;
  EXPECT_TRUE(cj["missing"].is_null());
}

TEST(JsonValue, NullAutoVivifiesToObject) {
  Json j;
  j["x"] = "y";
  EXPECT_TRUE(j.is_object());
}

TEST(JsonValue, ArrayOperations) {
  Json j = Json::array();
  j.push_back(1);
  j.push_back("two");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at(0).as_int(), 1);
  EXPECT_EQ(j.at(1).as_string(), "two");
  EXPECT_THROW(j.at(5), std::out_of_range);
}

TEST(JsonValue, TypeMismatchThrows) {
  Json j(42);
  EXPECT_THROW(j.as_string(), std::logic_error);
  EXPECT_THROW(j.as_array(), std::logic_error);
  EXPECT_NO_THROW(j.as_double());  // int widens to double
}

TEST(JsonValue, EqualityIsDeep) {
  auto a = Json::parse(R"({"x":[1,2,{"y":null}],"z":true})").take();
  auto b = Json::parse(R"({"z":true,"x":[1,2,{"y":null}]})").take();
  EXPECT_TRUE(a == b);
  auto c = Json::parse(R"({"z":false,"x":[1,2,{"y":null}]})").take();
  EXPECT_FALSE(a == c);
}

TEST(JsonValue, NumericCrossRepresentationEquality) {
  EXPECT_TRUE(Json(2) == Json(2.0));
  EXPECT_FALSE(Json(2) == Json(2.5));
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_FALSE(Json::parse("{} x"));
  EXPECT_FALSE(Json::parse("1 2"));
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "nul",
                          "\"unterminated", "01x", "[1 2]", "{\"a\":1,}",
                          "\"bad \\q escape\""}) {
    EXPECT_FALSE(Json::parse(bad)) << bad;
  }
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  const auto result = Json::parse("{\n  \"a\": ?\n}");
  ASSERT_FALSE(result);
  EXPECT_NE(result.error().message.find("line 2"), std::string::npos);
}

TEST(JsonParse, StringEscapes) {
  const auto j = Json::parse(R"("a\"b\\c\nd\teA")").take();
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParse, UnicodeSurrogatePairs) {
  const auto j = Json::parse(R"("😀")").take();  // emoji
  EXPECT_EQ(j.as_string(), "\xF0\x9F\x98\x80");
  EXPECT_FALSE(Json::parse(R"("\ud83d")"));    // lone high surrogate
  EXPECT_FALSE(Json::parse(R"("\ud83dxx")"));  // not followed by \u
}

TEST(JsonParse, Numbers) {
  EXPECT_EQ(Json::parse("0").take().as_int(), 0);
  EXPECT_EQ(Json::parse("-12345").take().as_int(), -12345);
  EXPECT_DOUBLE_EQ(Json::parse("0.25").take().as_double(), 0.25);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").take().as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5E-2").take().as_double(), -0.025);
  // int64 overflow falls back to double
  EXPECT_TRUE(Json::parse("99999999999999999999999").take().is_double());
}

TEST(JsonParse, NestedStructures) {
  const auto j = Json::parse(R"({"a":{"b":{"c":[1,[2,[3]]]}}})").take();
  EXPECT_EQ(j["a"]["b"]["c"].at(1).at(1).at(0).as_int(), 3);
}

// Round-trip property: dump(parse(dump(x))) == dump(x) across a corpus.
class JsonRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, DumpParseDumpIsStable) {
  const auto first = Json::parse(GetParam());
  ASSERT_TRUE(first) << first.error().message;
  const std::string once = first.value().dump();
  const auto second = Json::parse(once);
  ASSERT_TRUE(second);
  EXPECT_EQ(second.value().dump(), once);
  EXPECT_TRUE(second.value() == first.value());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, JsonRoundTrip,
    ::testing::Values(R"(null)", R"(true)", R"(-3)", R"(3.25)", R"("")",
                      R"("x\ny")", R"([])", R"([[],[[]]])", R"({})",
                      R"({"k":"v"})", R"({"a":[1,2,3],"b":{"c":null}})",
                      R"([{"deep":{"er":[true,false,null,0.5]}}])"));

TEST(JsonDump, ControlCharactersEscaped) {
  Json j(std::string("\x01 bell\x07"));
  EXPECT_EQ(j.dump(), "\"\\u0001 bell\\u0007\"");
}

// ---------------------------------------------------------------------------
// JsonWriter: the same calls give dump()'s text, its FNV-1a digest, or the
// tree itself.
// ---------------------------------------------------------------------------

/// Replays `v` through the writer's structural calls (value() is not used,
/// so every token goes through its own call).
void emit(const Json& v, JsonWriter& out) {
  switch (v.type()) {
    case Json::Type::Null: out.null(); break;
    case Json::Type::Bool: out.boolean(v.as_bool()); break;
    case Json::Type::Int: out.int64(v.as_int()); break;
    case Json::Type::Double: out.number(v.as_double()); break;
    case Json::Type::String: out.string(v.as_string()); break;
    case Json::Type::Array:
      out.begin_array();
      for (const auto& item : v.as_array()) emit(item, out);
      out.end_array();
      break;
    case Json::Type::Object:
      out.begin_object();
      for (const auto& [key, member] : v.as_object()) {
        out.key(key);
        emit(member, out);
      }
      out.end_object();
      break;
  }
}

/// Same shape, same types and bit-identical doubles (so -0.0 and NaN count).
bool identical(const Json& a, const Json& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Json::Type::Double: {
      const double x = a.as_double();
      const double y = b.as_double();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case Json::Type::Array:
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!identical(a.at(i), b.at(i))) return false;
      }
      return true;
    case Json::Type::Object: {
      if (a.size() != b.size()) return false;
      auto it = b.as_object().begin();
      for (const auto& [key, member] : a.as_object()) {
        if (key != it->first || !identical(member, it->second)) return false;
        ++it;
      }
      return true;
    }
    default: return a == b;
  }
}

Json nested(int depth) {
  Json v = "leaf";
  for (int d = 0; d < depth; ++d) {
    Json wrap = (d % 2 == 0) ? Json::array() : Json::object();
    if (wrap.is_array()) {
      wrap.push_back(std::move(v));
      wrap.push_back(d);
    } else {
      wrap["k"] = std::move(v);
      wrap["n"] = d;
    }
    v = std::move(wrap);
  }
  return v;
}

struct WriterCase {
  const char* name;
  Json tree;
  const char* text;  // dump(), as the tree renderer this writer replaced wrote it
};

std::vector<WriterCase> writer_cases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Json escapes = Json::object();
  escapes[std::string("a\"b\\c")] = "\"\\\b\f\n\r\t\x01\x1f\x7f/";
  escapes[""] = "";
  escapes["\xc3\xa9"] = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
  Json empties = Json::object();
  empties["a"] = Json::array();
  empties["b"] = Json::object();
  empties["c"] = Json(Json::Array{Json::array(), Json::object()});
  return {
      {"null", Json(), "null"},
      {"bools", Json(Json::Array{true, false}), "[true,false]"},
      {"ints",
       Json(Json::Array{std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
                        0, -1}),
       "[-9223372036854775808,9223372036854775807,0,-1]"},
      {"doubles", Json(Json::Array{0.1, 1e-300, -0.0, 1.5, 1e17, 2.0}),
       "[0.10000000000000001,1e-300,-0,1.5,1e+17,2]"},
      {"non-finite", Json(Json::Array{nan, inf, -inf}), "[null,null,null]"},
      {"escapes", escapes,
       "{\"\":\"\",\"a\\\"b\\\\c\":\"\\\"\\\\\\b\\f\\n\\r\\t\\u0001\\u001f\x7f/\","
       "\"\xc3\xa9\":\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"}"},
      {"empty containers", empties, "{\"a\":[],\"b\":{},\"c\":[[],{}]}"},
      {"empty array", Json::array(), "[]"},
      {"empty object", Json::object(), "{}"},
      {"nested past the inline depth", nested(20), nullptr},
  };
}

TEST(JsonWriter, TextMatchesDump) {
  for (const auto& c : writer_cases()) {
    SCOPED_TRACE(c.name);
    const std::string dumped = c.tree.dump();
    if (c.text != nullptr) {
      EXPECT_EQ(dumped, c.text);
    }

    std::string text;
    auto to_text = JsonWriter::text(text);
    emit(c.tree, to_text);
    EXPECT_EQ(text, dumped);

    std::string streamed;
    JsonWriter::text(streamed).value(c.tree);
    EXPECT_EQ(streamed, dumped);

    auto to_fnv = JsonWriter::fnv();
    emit(c.tree, to_fnv);
    EXPECT_EQ(to_fnv.digest(), fnv1a64(dumped));
    EXPECT_EQ(JsonWriter::fnv().value(c.tree).digest(), fnv1a64(dumped));

    Json rebuilt;
    auto to_tree = JsonWriter::tree(rebuilt);
    emit(c.tree, to_tree);
    EXPECT_TRUE(identical(rebuilt, c.tree)) << rebuilt.dump();
  }
}

TEST(JsonWriter, FieldDigestFoldsOneMember) {
  Json doc = Json::object();
  doc["a"] = Json(Json::Array{1, "x"});
  doc["b"] = Json::object();
  doc["c"] = 2.5;
  for (const char* field : {"a", "b", "c", "absent", "0"}) {
    SCOPED_TRACE(field);
    const uint64_t expected = fnv1a64(doc.contains(field) ? doc[field].dump() : "null");
    auto out = JsonWriter::fnv();
    out.only(field);
    emit(doc, out);
    EXPECT_EQ(out.digest(), expected);
    // The same root written whole through value().
    auto whole = JsonWriter::fnv();
    whole.only(field);
    whole.value(doc);
    EXPECT_EQ(whole.digest(), expected);
  }
  auto from_array = JsonWriter::fnv();
  from_array.only("a");
  from_array.value(Json(Json::Array{doc}));
  EXPECT_EQ(from_array.digest(), fnv1a64("null"));  // a root that is not an object

  std::string text;
  EXPECT_THROW(JsonWriter::text(text).only("a"), std::logic_error);
  Json tree;
  EXPECT_THROW(JsonWriter::tree(tree).only("a"), std::logic_error);
  auto started = JsonWriter::fnv();
  started.begin_object();
  EXPECT_THROW(started.only("a"), std::logic_error);
}

/// Runs `body` on a fresh writer of each sink.
template <typename F>
void for_each_sink(F&& body) {
  std::string text;
  Json tree;
  {
    auto out = JsonWriter::text(text);
    body(out);
  }
  {
    auto out = JsonWriter::fnv();
    body(out);
  }
  {
    auto out = JsonWriter::tree(tree);
    body(out);
  }
}

TEST(JsonWriter, KeysOutOfOrderOrRepeatedThrow) {
  for_each_sink([](JsonWriter& out) {
    out.begin_object().key("b").int64(1);
    EXPECT_THROW(out.key("a"), std::logic_error);
  });
  for_each_sink([](JsonWriter& out) {
    out.begin_object().key("b").int64(1);
    EXPECT_THROW(out.key("b"), std::logic_error);
  });
  for_each_sink([](JsonWriter& out) {
    // Order is per object: a nested object starts over.
    out.begin_object().key("b").begin_object().key("a").int64(1).end_object();
    EXPECT_NO_THROW(out.key("c").int64(2).end_object());
  });
  for_each_sink([](JsonWriter& out) {
    out.begin_object();
    EXPECT_THROW(out.int64(1), std::logic_error);  // a member without a key
  });
  for_each_sink([](JsonWriter& out) {
    out.begin_array();
    EXPECT_THROW(out.end_object(), std::logic_error);
  });
}

}  // namespace
}  // namespace erpi::util
