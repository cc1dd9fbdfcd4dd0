// State and op digests (DESIGN.md §17): every digest a subject streams equals
// util::fnv1a64 of the text it stands for, the assertions that compare
// digests keep their verdicts on the edge cases the text and the tree
// disagree on, and the digests allocate nothing once warm.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/assertions.hpp"
#include "subjects/crdt_collection.hpp"
#include "subjects/orbitdb.hpp"
#include "subjects/roshi.hpp"
#include "subjects/town.hpp"
#include "subjects/yorkie.hpp"
#include "support/alloc_counter.hpp"
#include "support/scenarios.hpp"
#include "util/hash.hpp"

namespace erpi::subjects {
namespace {

// ---------------------------------------------------------------------------
// Subject state digests equal the rendered state's, whole and per member.
// ---------------------------------------------------------------------------

void expect_digests_match(const proxy::Rdl& subject, const std::string& where) {
  for (int r = 0; r < subject.replica_count(); ++r) {
    const util::Json state = subject.replica_state(r);
    ASSERT_EQ(subject.state_digest(r, {}), util::fnv1a64(state.dump())) << where << " r" << r;
    for (const auto& [field, member] : state.as_object()) {
      ASSERT_EQ(subject.state_digest(r, field), util::fnv1a64(member.dump()))
          << where << " r" << r << " ." << field;
    }
    ASSERT_EQ(subject.state_digest(r, "no-such-member"), util::fnv1a64("null"))
        << where << " r" << r;
  }
}

TEST(StateDigest, MatchesRenderedState) {
  constexpr size_t kOrders = 40;
  for (const auto& scenario : test_support::every_scenario()) {
    SCOPED_TRACE(scenario.name);
    const auto events = test_support::capture_events(scenario);
    const auto subject = scenario.make_subject();
    for (const auto& interleaving : test_support::unit_orders(events, kOrders)) {
      subject->reset();
      expect_digests_match(*subject, interleaving.key() + " at reset");
      for (size_t pos = 0; pos < interleaving.size(); ++pos) {
        const auto& event = events[static_cast<size_t>(interleaving.order[pos])];
        (void)subject->invoke(event.replica, event.op, event.args);
        expect_digests_match(*subject, interleaving.key() + " at " + std::to_string(pos));
      }
    }
  }
}

util::Json args(const char* text) { return util::Json::parse(text).value(); }

TEST(StateDigest, ShadowedMembersAndNumericKeysFollowTheTree) {
  // Roshi: streams named like the "history" and "order" members take
  // their place.
  Roshi roshi(2);
  for (const char* key : {"history", "order", "a", "n", "zz"}) {
    util::Json insert = util::Json::object();
    insert["key"] = key;
    insert["member"] = "m";
    insert["ts"] = 1.5;
    ASSERT_TRUE(roshi.invoke(0, "insert", insert));
  }
  const util::Json roshi_state = roshi.replica_state(0);
  EXPECT_TRUE(roshi_state["history"].contains("adds"));
  EXPECT_TRUE(roshi_state["order"].contains("adds"));
  expect_digests_match(roshi, "roshi");

  // OrbitDB: heads announced by peers 9 and 10 are keyed "10" < "9".
  OrbitDb orbit(11);
  ASSERT_TRUE(orbit.invoke(9, "add", args(R"({"payload":"p9"})")));
  ASSERT_TRUE(orbit.invoke(10, "add", args(R"({"payload":"p10"})")));
  for (const int64_t peer : {9, 10}) {
    util::Json req = util::Json::object();
    req["peer"] = int64_t{0};
    req["mode"] = "heads";
    ASSERT_TRUE(orbit.invoke(static_cast<net::ReplicaId>(peer), proxy::kSyncReqOp, req));
    util::Json exec = util::Json::object();
    exec["peer"] = peer;
    ASSERT_TRUE(orbit.invoke(0, proxy::kExecSyncOp, exec));
  }
  EXPECT_EQ(orbit.replica_state(0)["announced"].size(), 2u);
  expect_digests_match(orbit, "orbitdb");

  // CRDT to-dos: ids 1..11 are keyed "1" < "10" < "11" < "2".
  CrdtCollection crdts(2);
  for (int i = 0; i < 11; ++i) ASSERT_TRUE(crdts.invoke(0, "todo_create", args(R"({"text":"t"})")));
  EXPECT_EQ(crdts.replica_state(0)["todos"].size(), 11u);
  expect_digests_match(crdts, "crdts");
}

// ---------------------------------------------------------------------------
// Op digests equal the formulas the "seen" witnesses have always used.
// ---------------------------------------------------------------------------

const std::vector<std::string>& awkward_strings() {
  static const std::vector<std::string> strings = {
      "",  "plain", "quote\"d", "back\\slash", "new\nline", std::string("ctl\x01\x1f", 5),
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"};
  return strings;
}

util::Json dot_json(const crdt::Dot& dot) {
  util::Json j = util::Json::object();
  j["r"] = static_cast<int64_t>(dot.replica);
  j["c"] = dot.counter;
  return j;
}

TEST(OpDigest, MatchesRenderedOp) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<crdt::Dot> dots = {{0, 1},
                                       {std::numeric_limits<crdt::ReplicaId>::min(), kMin},
                                       {std::numeric_limits<crdt::ReplicaId>::max(), kMax}};
  const std::vector<util::Json> values = {
      util::Json(),        util::Json(true),  util::Json(kMin), util::Json(kMax),
      util::Json(0.1),     util::Json(-0.0),  util::Json(1e-300),
      util::Json(std::numeric_limits<double>::infinity()),
      util::Json(util::Json::Array{util::Json(1), util::Json("x")})};
  for (const auto& text : awkward_strings()) {
    SCOPED_TRACE(util::Json(text).dump());
    // town: fnv1a64(to_json(op).dump())
    for (const auto& dot : dots) {
      util::Json add = util::Json::object();
      add["op"] = "add";
      add["element"] = text;
      add["tag"] = dot_json(dot);
      EXPECT_EQ(TownApp::OpCodec::digest(crdt::OrSet::AddOp{text, dot}),
                util::fnv1a64(add.dump()));
    }
    util::Json remove = util::Json::object();
    remove["op"] = "remove";
    remove["element"] = text;
    remove["tags"] = util::Json::array();
    for (const auto& dot : dots) remove["tags"].push_back(dot_json(dot));
    EXPECT_EQ(TownApp::OpCodec::digest(crdt::OrSet::RemoveOp{text, dots}),
              util::fnv1a64(remove.dump()));

    // Yorkie: fnv1a64(kind + key + value.dump())
    for (const auto& value : values) {
      crdt::JsonDoc::Op op;
      op.kind = crdt::JsonDoc::Op::Kind::ListPush;
      op.key = text;
      op.value = value;
      EXPECT_EQ(Yorkie::OpCodec::digest(op),
                util::fnv1a64(std::string("list_push") + text + value.dump()));
      op.kind = crdt::JsonDoc::Op::Kind::Set;
      op.value = util::Json(text);
      EXPECT_EQ(Yorkie::OpCodec::digest(op), util::fnv1a64("set" + text + op.value.dump()));
    }

    // CRDTs: fnv1a64(op.dump())
    for (const auto& value : values) {
      util::Json op = util::Json::object();
      op["op"] = "reg_set";
      op["args"]["value"] = text;
      op["args"]["ts"] = value;
      op["args"][text] = value;
      EXPECT_EQ(CrdtCollection::OpCodec::digest(op), util::fnv1a64(op.dump()));
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases where text equality and Json::operator== disagree (§17).
// ---------------------------------------------------------------------------

/// A two-replica subject whose states are set directly; it has no
/// state_digest() of its own, so it exercises the Rdl default.
class FixedStates : public proxy::Rdl {
 public:
  explicit FixedStates(std::vector<util::Json> states) : states_(std::move(states)) {}
  std::string name() const override { return "fixed"; }
  int replica_count() const override { return static_cast<int>(states_.size()); }
  util::Result<util::Json> invoke(net::ReplicaId, const std::string&,
                                  const util::Json&) override {
    return util::Json();
  }
  util::Json replica_state(net::ReplicaId replica) const override {
    return states_.at(static_cast<size_t>(replica));
  }
  void reset() override {}

 private:
  std::vector<util::Json> states_;
};

util::Json with(const char* witness, util::Json witness_value, util::Json value) {
  util::Json state = util::Json::object();
  state[witness] = std::move(witness_value);
  state["value"] = std::move(value);
  return state;
}

bool converges(const util::Json& a, const util::Json& b) {
  FixedStates subject({a, b});
  const core::Interleaving il;
  const core::EventSet events;
  const std::vector<util::Result<util::Json>> results;
  const core::TestContext ctx{subject, il, events, results};
  return static_cast<bool>(core::replicas_converge({0, 1})->check(ctx));
}

bool converges_given_witness(const util::Json& a, const util::Json& b,
                             std::vector<std::string> witness = {"seen"},
                             std::vector<std::string> compared = {"value"}) {
  FixedStates subject({a, b});
  const core::Interleaving il;
  const core::EventSet events;
  const std::vector<util::Result<util::Json>> results;
  const core::TestContext ctx{subject, il, events, results};
  return static_cast<bool>(
      core::converge_if_same_witness({0, 1}, std::move(witness), std::move(compared))
          ->check(ctx));
}

bool orders_agree(const util::Json& a, const util::Json& b, std::vector<std::string> path) {
  FixedStates subject({a, b});
  const core::Interleaving il;
  const core::EventSet events;
  const std::vector<util::Result<util::Json>> results;
  const core::TestContext ctx{subject, il, events, results};
  return static_cast<bool>(core::list_order_consistent({0, 1}, std::move(path))->check(ctx));
}

/// `state` one level down, so its members sit on two-key paths.
util::Json nested_in_doc(util::Json state) {
  util::Json doc = util::Json::object();
  doc["doc"] = std::move(state);
  return doc;
}

TEST(StateDigest, EdgeCasesFollowText) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN prints null: NaN states compare equal to each other and to null,
  // although NaN != NaN as a tree.
  EXPECT_TRUE(converges(with("seen", 1, nan), with("seen", 1, nan)));
  EXPECT_TRUE(converges(with("seen", 1, nan), with("seen", 1, util::Json())));
  EXPECT_TRUE(converges_given_witness(with("seen", 1, nan), with("seen", 1, nan)));
  EXPECT_TRUE(converges_given_witness(with("seen", 1, nan), with("seen", 1, util::Json())));
  // -0.0 and 0.0 print differently. As compared values the tree check
  // confirms them equal, so the verdict holds; as witnesses they now differ.
  EXPECT_TRUE(converges(with("seen", 1, -0.0), with("seen", 1, 0.0)));
  EXPECT_TRUE(converges_given_witness(with("seen", 1, -0.0), with("seen", 1, 0.0)));
  EXPECT_FALSE(converges_given_witness(with("seen", 0.0, "a"), with("seen", 0.0, "b")));
  EXPECT_TRUE(converges_given_witness(with("seen", -0.0, "a"), with("seen", 0.0, "b")));
  // An int and a double that are numerically equal but print differently:
  // equal as compared values, different as witnesses.
  const int64_t big = 100'000'000'000'000'000;
  EXPECT_TRUE(converges(with("seen", 1, big), with("seen", 1, 1e17)));
  EXPECT_TRUE(converges_given_witness(with("seen", 1, big), with("seen", 1, 1e17)));
  EXPECT_TRUE(converges_given_witness(with("seen", big, "a"), with("seen", 1e17, "b")));
  // Still a violation when the text differs and the trees do too.
  EXPECT_FALSE(converges(with("seen", 1, "a"), with("seen", 1, "b")));
  EXPECT_FALSE(converges_given_witness(with("seen", 1, "a"), with("seen", 1, "b")));
  EXPECT_FALSE(orders_agree(with("seen", 1, "a"), with("seen", 1, "b"), {"value"}));

  // Paths state_digest() cannot name as one member follow the same text.
  const std::vector<std::string> seen{"doc", "seen"};
  const std::vector<std::string> value{"doc", "value"};
  EXPECT_TRUE(converges_given_witness(nested_in_doc(with("seen", -0.0, "a")),
                                      nested_in_doc(with("seen", 0.0, "b")), seen, value));
  EXPECT_FALSE(converges_given_witness(nested_in_doc(with("seen", 0.0, "a")),
                                       nested_in_doc(with("seen", 0.0, "b")), seen, value));
  EXPECT_TRUE(converges_given_witness(nested_in_doc(with("seen", 1, nan)),
                                      nested_in_doc(with("seen", 1, util::Json())), seen,
                                      value));
  EXPECT_TRUE(orders_agree(nested_in_doc(with("seen", 1, nan)),
                           nested_in_doc(with("seen", 1, nan)), value));
  EXPECT_TRUE(orders_agree(nested_in_doc(with("seen", 1, -0.0)),
                           nested_in_doc(with("seen", 1, 0.0)), value));
  EXPECT_FALSE(orders_agree(nested_in_doc(with("seen", 1, "a")),
                            nested_in_doc(with("seen", 1, "b")), value));
}

// ---------------------------------------------------------------------------
// Allocation budget: once warm, digests and a converged check allocate
// nothing.
// ---------------------------------------------------------------------------

TEST(DigestAllocations, ZeroOnceWarm) {
#if !ERPI_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const auto allocations_of = [](const auto& body) {
    body();  // warm-up
    const uint64_t before = test_support::allocations();
    body();
    return test_support::allocations() - before;
  };

  const TownApp::OpCodec::Op op = crdt::OrSet::AddOp{"problem-number-12", {1, 64}};
  uint64_t sink = 0;
  EXPECT_EQ(allocations_of([&] { sink += TownApp::OpCodec::digest(op); }), 0u)
      << "town op digest";

  TownApp town(2);
  for (int i = 0; i < 64; ++i) {
    util::Json args = util::Json::object();
    args["problem"] = "problem-number-" + std::to_string(i);
    ASSERT_TRUE(town.invoke(i % 2, "report", args));
  }
  for (const auto& [from, to] : {std::pair{0, 1}, std::pair{1, 0}}) {
    util::Json req = util::Json::object();
    req["peer"] = int64_t{to};
    util::Json exec = util::Json::object();
    exec["peer"] = int64_t{from};
    ASSERT_TRUE(town.invoke(from, proxy::kSyncReqOp, req));
    ASSERT_TRUE(town.invoke(to, proxy::kExecSyncOp, exec));
  }
  ASSERT_EQ(town.replica_state(0)["seen"].size(), 64u);
  EXPECT_EQ(allocations_of([&] { sink += town.state_digest(0, {}); }), 0u)
      << "state_digest of a town replica holding 64 ops";

  const auto converge = core::replicas_converge({0, 1});
  const core::Interleaving il;
  const core::EventSet events;
  const std::vector<util::Result<util::Json>> results;
  const core::TestContext ctx{town, il, events, results};
  bool converged = false;
  EXPECT_EQ(allocations_of([&] { converged = static_cast<bool>(converge->check(ctx)); }), 0u)
      << "replicas_converge on a converged town pair";
  EXPECT_TRUE(converged);
  EXPECT_NE(sink, 0u);
#endif
}

}  // namespace
}  // namespace erpi::subjects
