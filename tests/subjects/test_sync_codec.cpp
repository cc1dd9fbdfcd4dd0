// The subjects' sync codecs (subjects/sync_codec.hpp): every text decoder
// is strict, a typed apply matches the render -> decode round trip over the
// bug scenarios' interleavings, rendered bodies are byte-stable against
// golden lines, and a town sync allocates the same whatever its size.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "proxy/proxy.hpp"
#include "subjects/crdt_collection.hpp"
#include "subjects/orbitdb.hpp"
#include "subjects/replicadb.hpp"
#include "subjects/roshi.hpp"
#include "subjects/town.hpp"
#include "subjects/yorkie.hpp"
#include "support/alloc_counter.hpp"
#include "support/scenarios.hpp"

namespace erpi::subjects {
namespace {

/// The protected text hooks of a subject, reachable from a test.
class CodecProbe {
 public:
  virtual ~CodecProbe() = default;
  virtual SubjectBase& subject() = 0;
  virtual util::Result<std::string> make_text(net::ReplicaId from, net::ReplicaId to,
                                              const util::Json& args) = 0;
  virtual util::Status apply_text(net::ReplicaId from, net::ReplicaId to,
                                  const std::string& text) = 0;
  virtual util::Result<net::PayloadPtr> decode(const std::string& text) const = 0;
};

template <typename S>
class Probe final : public S, public CodecProbe {
 public:
  using S::S;
  SubjectBase& subject() override { return *this; }
  util::Result<std::string> make_text(net::ReplicaId from, net::ReplicaId to,
                                      const util::Json& args) override {
    return this->make_sync_payload(from, to, args);
  }
  util::Status apply_text(net::ReplicaId from, net::ReplicaId to,
                          const std::string& text) override {
    return this->apply_sync_payload(from, to, text);
  }
  util::Result<net::PayloadPtr> decode(const std::string& text) const override {
    return this->decode_sync(text);
  }
};

std::unique_ptr<CodecProbe> make_probe(const std::string& subject) {
  if (subject == "town") return std::make_unique<Probe<TownApp>>(2);
  if (subject == "roshi") return std::make_unique<Probe<Roshi>>(2);
  if (subject == "orbitdb") return std::make_unique<Probe<OrbitDb>>(2);
  if (subject == "replicadb") return std::make_unique<Probe<ReplicaDb>>(2);
  if (subject == "yorkie") return std::make_unique<Probe<Yorkie>>(2);
  if (subject == "crdts") return std::make_unique<Probe<CrdtCollection>>(2);
  return nullptr;
}

util::Json json(const char* text) { return util::Json::parse(text).value(); }

std::string states(const proxy::Rdl& subject) {
  std::string out;
  for (int r = 0; r < subject.replica_count(); ++r) out += subject.replica_state(r).dump() + "\n";
  return out;
}

void sync(proxy::Rdl& subject, net::ReplicaId from, net::ReplicaId to) {
  util::Json req = util::Json::object();
  req["peer"] = static_cast<int64_t>(to);
  ASSERT_TRUE(subject.invoke(from, proxy::kSyncReqOp, req));
  util::Json exec = util::Json::object();
  exec["peer"] = static_cast<int64_t>(from);
  ASSERT_TRUE(subject.invoke(to, proxy::kExecSyncOp, exec));
}

// ---------------------------------------------------------------------------
// Strict decoders: a wrong shape fails, never throws, and mutates nothing.
// ---------------------------------------------------------------------------

struct MalformedRow {
  const char* subject;
  const char* text;
};

const MalformedRow kMalformed[] = {
    {"town", "[1,"},
    {"town", R"({})"},
    {"town", R"([{"origin":0,"seq":0,"op":{"op":"add"}}])"},
    // A good row before a bad one: the decode fails before anything applies.
    {"town",
     R"([{"op":{"element":"a","op":"add","tag":{"c":1,"r":0}},"origin":0,"seq":0},)"
     R"({"op":{"element":"b","op":"add","tag":{"c":"1","r":0}},"origin":0,"seq":1}])"},
    {"town",
     R"([{"op":{"element":"a","op":"add","tag":{"c":1,"r":0}},)"
     R"("origin":4294967296,"seq":0}])"},
    {"roshi", R"({"streams":5})"},
    {"roshi", R"({"history":[],"streams":{"k":{"adds":[{"m":1,"ts":1}],"dels":[]}}})"},
    {"roshi", R"({"history":[7],"streams":{}})"},
    {"orbitdb", R"({"entries":[{"hash":1}],"from":0,"mode":"full"})"},
    {"orbitdb", R"({"from":"zero","heads":[],"mode":"heads"})"},
    {"orbitdb", R"({"from":0,"heads":"h","mode":"heads"})"},
    {"replicadb", R"({"history":[],"rows":{"a":{"del":false,"v":"x","ver":"1"}}})"},
    {"replicadb", R"({"rows":[]})"},
    {"yorkie", R"([{"origin":0,"seq":0,"op":{"kind":"set"}}])"},
    {"yorkie",
     R"([{"origin":0,"seq":0,"op":{"key":"k","kind":"bogus","path":[],)"
     R"("stamp":{"r":0,"t":1},"value":1}}])"},
    {"yorkie",
     R"([{"origin":0,"seq":0,"op":{"key":"k","kind":"list_remove","path":[],)"
     R"("stamp":{"r":0,"t":1},"value":null}}])"},
    {"crdts", R"([{"origin":0,"seq":0,"op":{"args":{"element":1},"op":"set_add"}}])"},
    {"crdts",
     R"([{"origin":0,"seq":0,"op":{"args":{"clock":{"x":1},"value":"v"},"op":"mv_set"}}])"},
    {"crdts", R"([{"origin":0,"seq":0,"op":{"args":{},"op":"explode"}}])"},
};

TEST(SyncCodec, RejectsMalformedPayloads) {
  for (const auto& row : kMalformed) {
    SCOPED_TRACE(std::string(row.subject) + " " + row.text);
    const auto probe = make_probe(row.subject);
    ASSERT_NE(probe, nullptr);
    const std::string before = states(probe->subject());
    util::Status applied;
    EXPECT_NO_THROW(applied = probe->apply_text(0, 1, row.text));
    EXPECT_FALSE(applied);
    EXPECT_NO_THROW(EXPECT_FALSE(probe->decode(row.text)));
    EXPECT_EQ(states(probe->subject()), before);
  }
}

// ---------------------------------------------------------------------------
// Typed apply == render -> decode -> apply, after every event.
// ---------------------------------------------------------------------------

/// Subject S with every sync applied through its text form.
template <typename S>
class TextSync final : public S {
 public:
  using S::S;

 protected:
  util::Status apply_sync(net::ReplicaId from, net::ReplicaId to,
                          const net::Payload& payload) override {
    auto decoded = this->decode_sync(payload.render());
    if (!decoded) return util::Status(decoded.error());
    return S::apply_sync(from, to, *decoded.value());
  }
};

/// The same subject, configured alike, syncing through text.
std::unique_ptr<proxy::Rdl> text_twin(const proxy::Rdl& subject) {
  const int n = subject.replica_count();
  if (dynamic_cast<const TownApp*>(&subject)) return std::make_unique<TextSync<TownApp>>(n);
  if (const auto* s = dynamic_cast<const Roshi*>(&subject)) {
    return std::make_unique<TextSync<Roshi>>(n, s->flags());
  }
  if (const auto* s = dynamic_cast<const OrbitDb*>(&subject)) {
    return std::make_unique<TextSync<OrbitDb>>(n, s->flags());
  }
  if (const auto* s = dynamic_cast<const ReplicaDb*>(&subject)) {
    return std::make_unique<TextSync<ReplicaDb>>(n, s->flags());
  }
  if (const auto* s = dynamic_cast<const Yorkie*>(&subject)) {
    return std::make_unique<TextSync<Yorkie>>(n, s->flags());
  }
  if (const auto* s = dynamic_cast<const CrdtCollection*>(&subject)) {
    return std::make_unique<TextSync<CrdtCollection>>(n, s->flags());
  }
  return nullptr;
}

std::string outcome(const util::Result<util::Json>& result) {
  return result ? result.value().dump() : "error: " + result.error().message;
}

/// Replays `orders` unit orders of the scenario's captured events on the
/// typed subject and its text twin.
void expect_text_parity(const bugs::BugScenario& bug, size_t orders) {
  SCOPED_TRACE(bug.name);
  const auto events = test_support::capture_events(bug);
  const auto typed = bug.make_subject();
  const auto text = text_twin(*typed);
  ASSERT_NE(text, nullptr);
  for (const auto& interleaving : test_support::unit_orders(events, orders)) {
    typed->reset();
    text->reset();
    for (size_t pos = 0; pos < interleaving.size(); ++pos) {
      const auto& event = events[static_cast<size_t>(interleaving.order[pos])];
      const auto a = typed->invoke(event.replica, event.op, event.args);
      const auto b = text->invoke(event.replica, event.op, event.args);
      ASSERT_EQ(outcome(a), outcome(b)) << interleaving.key() << " at " << pos;
      ASSERT_EQ(states(*typed), states(*text)) << interleaving.key() << " at " << pos;
    }
  }
}

TEST(SyncCodec, TypedApplyMatchesTextRoundTrip) {
  constexpr size_t kOrders = 40;
  for (const auto& scenario : test_support::every_scenario()) {
    expect_text_parity(scenario, kOrders);
  }
}

// ---------------------------------------------------------------------------
// Rendered bodies are byte-stable: golden lines from the string-payload
// implementation this codec replaced, one state per subject (the Roshi state
// has streams whose arrival order is not sorted).
// ---------------------------------------------------------------------------

struct GoldenCase {
  const char* name;
  const char* subject;
  std::vector<std::pair<int, const char*>> ops;  // (replica, {"op": ..., args})
  const char* sync_args;
  const char* golden;
};

void run_ops(proxy::Rdl& subject, const std::vector<std::pair<int, const char*>>& ops) {
  for (const auto& [replica, spec] : ops) {
    const auto doc = json(spec);
    if (doc["op"].as_string() == "sync") {
      sync(subject, replica, static_cast<net::ReplicaId>(doc["to"].as_int()));
      continue;
    }
    ASSERT_TRUE(subject.invoke(replica, doc["op"].as_string(), doc["args"])) << spec;
  }
}

TEST(SyncCodec, RenderIsByteStable) {
  const std::vector<std::pair<int, const char*>> orbit_ops = {
      {0, R"({"op":"add","args":{"payload":"p1"}})"},
      {0, R"({"op":"put","args":{"key":"k","value":5}})"}};
  const std::vector<GoldenCase> cases = {
      {"town", "town",
       {{0, R"({"op":"report","args":{"problem":"lamp"}})"},
        {0, R"({"op":"report","args":{"problem":"otb"}})"},
        {1, R"({"op":"report","args":{"problem":"ph"}})"},
        {1, R"({"op":"sync","to":0})"},
        {0, R"({"op":"resolve","args":{"problem":"ph"}})"}},
       "{}",
       R"([{"op":{"element":"lamp","op":"add","tag":{"c":1,"r":0}},"origin":0,"seq":0},{"op":{"e)"
       R"(lement":"otb","op":"add","tag":{"c":2,"r":0}},"origin":0,"seq":1},{"op":{"element":"ph)"
       R"(","op":"add","tag":{"c":1,"r":1}},"origin":1,"seq":0},{"op":{"element":"ph","op":"remo)"
       R"(ve","tags":[{"c":1,"r":1}]},"origin":0,"seq":2}])"},
      {"roshi", "roshi",
       {{0, R"({"op":"insert","args":{"key":"zeta","member":"a","ts":2.5}})"},
        {0, R"({"op":"insert","args":{"key":"alpha","member":"b","ts":1}})"},
        {0, R"({"op":"delete","args":{"key":"zeta","member":"c","ts":3}})"},
        {0, R"({"op":"insert","args":{"key":"mid","member":"m","ts":0.1}})"}},
       "{}",
       R"({"history":["alpha|b|1.000000|a","mid|m|0.100000|a","zeta|a|2.500000|a","zeta|c|3.0000)"
       R"(00|d"],"streams":{"alpha":{"adds":[{"m":"b","ts":1}],"dels":[]},"mid":{"adds":[{"m":"m)"
       R"(","ts":0.10000000000000001}],"dels":[]},"zeta":{"adds":[{"m":"a","ts":2.5}],"dels":[{")"
       R"(m":"c","ts":3}]}}})"},
      {"orbitdb full", "orbitdb", orbit_ops, "{}",
       R"({"entries":[{"clock":1,"hash":"89a12610539a6d8bc62a0d84b45f1f59d12c8784","id":"id0","p)"
       R"(arents":[],"payload":"\"p1\""},{"clock":2,"hash":"c73e9230f585dc63ca0e467a35ac96058fab)"
       R"(9019","id":"id0","parents":["89a12610539a6d8bc62a0d84b45f1f59d12c8784"],"payload":"{\")"
       R"(k\":\"k\",\"v\":5}"}],"from":0,"heads":["c73e9230f585dc63ca0e467a35ac96058fab9019"],"m)"
       R"(ode":"full"})"},
      {"orbitdb heads", "orbitdb", orbit_ops,
       R"({"mode":"heads"})", R"({"from":0,"heads":["c73e9230f585dc63ca0e467a35ac96058fab9019"],)"
       R"("mode":"heads"})"},
      {"orbitdb entries", "orbitdb", orbit_ops,
       R"({"mode":"entries"})", R"({"entries":[{"clock":1,"hash":"89a12610539a6d8bc62a0d84b45f1f)"
       R"(59d12c8784","id":"id0","parents":[],"payload":"\"p1\""},{"clock":2,"hash":"c73e9230f58)"
       R"(5dc63ca0e467a35ac96058fab9019","id":"id0","parents":["89a12610539a6d8bc62a0d84b45f1f59)"
       R"(d12c8784"],"payload":"{\"k\":\"k\",\"v\":5}"}],"from":0,"mode":"entries"})"},
      {"replicadb", "replicadb",
       {{0, R"({"op":"insert_source","args":{"id":"b","value":"x","ts":2}})"},
        {0, R"({"op":"insert_source","args":{"id":"a","value":{"n":1},"ts":1}})"},
        {0, R"({"op":"delete_source","args":{"id":"c","ts":3}})"}},
       "{}",
       R"({"history":["a|1","b|2","c|3|del"],"rows":{"a":{"del":false,"v":"{\"n\":1}","ver":1},")"
       R"(b":{"del":false,"v":"\"x\"","ver":2},"c":{"del":true,"v":"","ver":3}}})"},
      {"yorkie", "yorkie",
       {{0, R"({"op":"set","args":{"key":"title","value":"hi"}})"},
        {0, R"({"op":"list_push","args":{"key":"items","value":"a"}})"},
        {0, R"({"op":"list_push","args":{"key":"items","value":"b"}})"},
        {0, R"({"op":"move_after","args":{"key":"items","from":0,"to":1}})"},
        {0, R"({"op":"list_remove","args":{"key":"items","index":0}})"},
        {0, R"({"op":"delete","args":{"key":"title"}})"},
        {0, R"({"op":"set","args":{"path":["doc"],"key":"obj","value":{"x":1.5}}})"}},
       "{}",
       R"([{"op":{"key":"title","kind":"set","path":[],"stamp":{"r":0,"t":1},"value":"hi"},"orig)"
       R"(in":0,"seq":0},{"op":{"key":"items","kind":"list_push","list_insert":{"after":{"c":0,")"
       R"(r":0},"id":{"c":1,"r":0},"value":"\"a\""},"path":[],"stamp":{"r":0,"t":2},"value":"a"})"
       R"(,"origin":0,"seq":1},{"op":{"key":"items","kind":"list_push","list_insert":{"after":{")"
       R"(c":1,"r":0},"id":{"c":2,"r":0},"value":"\"b\""},"path":[],"stamp":{"r":0,"t":3},"value)"
       R"(":"b"},"origin":0,"seq":2},{"op":{"key":"items","kind":"list_move","list_move":{"after)"
       R"(":{"c":2,"r":0},"stamp":{"r":0,"t":3},"target":{"c":1,"r":0}},"path":[],"stamp":{"r":0)"
       R"(,"t":4},"value":null},"origin":0,"seq":3},{"op":{"key":"items","kind":"list_remove","l)"
       R"(ist_remove_target":{"c":2,"r":0},"path":[],"stamp":{"r":0,"t":5},"value":null},"origin)"
       R"(":0,"seq":4},{"op":{"key":"title","kind":"delete","path":[],"stamp":{"r":0,"t":6},"val)"
       R"(ue":null},"origin":0,"seq":5},{"op":{"key":"obj","kind":"set","path":["doc"],"stamp":{)"
       R"("r":0,"t":7},"value":{"x":1.5}},"origin":0,"seq":6}])"},
      {"crdts", "crdts",
       {{0, R"({"op":"set_add","args":{"element":"e"}})"},
        {0, R"({"op":"counter_inc","args":{"by":2}})"},
        {0, R"({"op":"list_insert","args":{"index":0,"value":"v"}})"},
        {0, R"({"op":"list_insert","args":{"index":1,"value":"w"}})"},
        {0, R"({"op":"list_move","args":{"from":0,"to":1}})"},
        {0, R"({"op":"list_naive_move","args":{"from":0,"to":1}})"},
        {0, R"({"op":"mv_set","args":{"value":"m"}})"},
        {0, R"({"op":"reg_set","args":{"value":"r","ts":5}})"},
        {0, R"({"op":"todo_create","args":{"text":"t"}})"},
        {0, R"({"op":"set_remove","args":{"element":"e"}})"},
        {0, R"({"op":"naive_append","args":{"value":"n"}})"},
        {0, R"({"op":"twopset_add","args":{"element":"t2"}})"}},
       "{}",
       R"([{"op":{"args":{"element":"e","tag":{"c":1,"r":0}},"op":"set_add"},"origin":0,"seq":0})"
       R"(,{"op":{"args":{"by":2,"origin":0},"op":"counter_inc"},"origin":0,"seq":1},{"op":{"arg)"
       R"(s":{"after":{"c":0,"r":0},"id":{"c":1,"r":0},"index":0,"value":"v"},"op":"list_insert")"
       R"(},"origin":0,"seq":2},{"op":{"args":{"after":{"c":1,"r":0},"id":{"c":2,"r":0},"index":)"
       R"(1,"value":"w"},"op":"list_insert"},"origin":0,"seq":3},{"op":{"args":{"after":{"c":2,")"
       R"(r":0},"from":0,"stamp":{"r":0,"t":3},"target":{"c":1,"r":0},"to":1},"op":"list_move"},)"
       R"("origin":0,"seq":4},{"op":{"args":{"after":{"c":0,"r":0},"from":0,"id":{"c":4,"r":0},")"
       R"(target":{"c":2,"r":0},"to":1,"value":"w"},"op":"list_naive_move"},"origin":0,"seq":5},)"
       R"({"op":{"args":{"clock":{"0":1},"value":"m"},"op":"mv_set"},"origin":0,"seq":6},{"op":{)"
       R"("args":{"origin":0,"ts":5,"value":"r"},"op":"reg_set"},"origin":0,"seq":7},{"op":{"arg)"
       R"(s":{"id":1,"text":"t"},"op":"todo_create"},"origin":0,"seq":8},{"op":{"args":{"element)"
       R"(":"e","tags":[{"c":1,"r":0}]},"op":"set_remove"},"origin":0,"seq":9},{"op":{"args":{"v)"
       R"(alue":"n"},"op":"naive_append"},"origin":0,"seq":10},{"op":{"args":{"element":"t2"},"o)"
       R"(p":"twopset_add"},"origin":0,"seq":11}])"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto probe = make_probe(c.subject);
    run_ops(probe->subject(), c.ops);
    const auto rendered = probe->make_text(0, 1, json(c.sync_args));
    ASSERT_TRUE(rendered);
    EXPECT_EQ(rendered.value(), c.golden);
    // The golden text decodes, and renders back to itself.
    const auto decoded = probe->decode(c.golden);
    ASSERT_TRUE(decoded) << decoded.error().message;
    EXPECT_EQ(decoded.value()->render(), c.golden);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Allocation budget: a town sync copies pointers, so one sync_req + exec_sync
// allocates the same number of times whatever the number of known ops.
// ---------------------------------------------------------------------------

TEST(TownSync, AllocationsDoNotGrowWithPayload) {
#if !ERPI_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  // Measured at 2: the typed body and its pointer vector. The network keeps
  // a drained channel's map node, deque map and block, which cost 3 more
  // when each send re-created them; the string payload the typed body
  // replaced allocated 27 at 1 known op and 1,179 at 64.
  constexpr uint64_t kBudget = 2;
  const auto sync_allocations = [](int known_ops) {
    TownApp town(2);
    for (int i = 0; i < known_ops; ++i) {
      util::Json args = util::Json::object();
      args["problem"] = "problem-number-" + std::to_string(i);
      EXPECT_TRUE(town.invoke(0, "report", args));
    }
    sync(town, 0, 1);  // replica 1 learns every op; the measured sync re-ships them
    util::Json req = util::Json::object();
    req["peer"] = int64_t{1};
    util::Json exec = util::Json::object();
    exec["peer"] = int64_t{0};
    const uint64_t before = test_support::allocations();
    const bool sent = static_cast<bool>(town.invoke(0, proxy::kSyncReqOp, req));
    const bool applied = static_cast<bool>(town.invoke(1, proxy::kExecSyncOp, exec));
    const uint64_t used = test_support::allocations() - before;
    EXPECT_TRUE(sent && applied);
    return used;
  };
  const uint64_t one = sync_allocations(1);
  const uint64_t many = sync_allocations(64);
  EXPECT_EQ(one, many) << "a town sync allocates per known op";
  EXPECT_LE(many, kBudget);
#endif
}

}  // namespace erpi::subjects
