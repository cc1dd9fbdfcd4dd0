// Subject snapshot/restore round-trips (the subject checkpoint API).
//
// Every subject in src/subjects/ overrides clone_replicas/adopt_replicas, so
// snapshot() must checkpoint replica state AND the simulated network
// (in-flight sync traffic) such that restore() reproduces both exactly — and
// reproduces them repeatedly, since one snapshot may be restored many
// times.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "proxy/proxy.hpp"
#include "subjects/crdt_collection.hpp"
#include "subjects/orbitdb.hpp"
#include "subjects/replicadb.hpp"
#include "subjects/roshi.hpp"
#include "subjects/town.hpp"
#include "subjects/yorkie.hpp"

namespace erpi::subjects {
namespace {

util::Json jobj(std::initializer_list<std::pair<const char*, util::Json>> kv) {
  util::Json j = util::Json::object();
  for (auto& [key, value] : kv) j[key] = value;
  return j;
}

struct SnapshotCase {
  const char* name;
  std::function<std::unique_ptr<SubjectBase>()> make;
  /// First workload phase; must leave at least one sync_req pending on the
  /// network so the checkpoint covers in-flight traffic.
  std::function<void(SubjectBase&)> phase1;
  /// Second phase: consumes the pending sync and mutates further.
  std::function<void(SubjectBase&)> phase2;
};

/// gtest prints a parameter without a printer as its raw bytes, which embed
/// pointers and change between builds; the subject name is stable.
void PrintTo(const SnapshotCase& snapshot_case, std::ostream* os) { *os << snapshot_case.name; }

void must(util::Result<util::Json> r) { ASSERT_TRUE(r.has_value()) << r.error().message; }

std::vector<SnapshotCase> snapshot_cases() {
  std::vector<SnapshotCase> cases;
  cases.push_back({"town",
                   [] { return std::make_unique<TownApp>(2); },
                   [](SubjectBase& s) {
                     must(s.invoke(0, "report", jobj({{"problem", "otb"}})));
                     must(s.invoke(0, proxy::kSyncReqOp, jobj({{"peer", 1}})));
                   },
                   [](SubjectBase& s) {
                     must(s.invoke(1, proxy::kExecSyncOp, jobj({{"peer", 0}})));
                     must(s.invoke(1, "report", jobj({{"problem", "ph"}})));
                   }});
  cases.push_back({"roshi",
                   [] { return std::make_unique<Roshi>(2); },
                   [](SubjectBase& s) {
                     must(s.invoke(0, "insert",
                                   jobj({{"key", "k"}, {"member", "m"}, {"ts", 1.0}})));
                     must(s.invoke(0, proxy::kSyncReqOp, jobj({{"peer", 1}})));
                   },
                   [](SubjectBase& s) {
                     must(s.invoke(1, proxy::kExecSyncOp, jobj({{"peer", 0}})));
                     must(s.invoke(1, "delete",
                                   jobj({{"key", "k"}, {"member", "m"}, {"ts", 2.0}})));
                   }});
  cases.push_back({"orbitdb",
                   [] { return std::make_unique<OrbitDb>(2); },
                   [](SubjectBase& s) {
                     must(s.invoke(0, "add", jobj({{"payload", "p0"}})));
                     must(s.invoke(0, proxy::kSyncReqOp, jobj({{"peer", 1}})));
                   },
                   [](SubjectBase& s) {
                     must(s.invoke(1, proxy::kExecSyncOp, jobj({{"peer", 0}})));
                     must(s.invoke(1, "add", jobj({{"payload", "p1"}})));
                   }});
  cases.push_back({"replicadb",
                   [] { return std::make_unique<ReplicaDb>(2); },
                   [](SubjectBase& s) {
                     must(s.invoke(0, "insert_source",
                                   jobj({{"id", "r1"}, {"value", "v"}, {"ts", 1}})));
                     must(s.invoke(0, proxy::kSyncReqOp, jobj({{"peer", 1}})));
                   },
                   [](SubjectBase& s) {
                     must(s.invoke(1, proxy::kExecSyncOp, jobj({{"peer", 0}})));
                     must(s.invoke(0, "delete_source", jobj({{"id", "r1"}, {"ts", 2}})));
                   }});
  cases.push_back({"yorkie",
                   [] { return std::make_unique<Yorkie>(2); },
                   [](SubjectBase& s) {
                     must(s.invoke(0, "set", jobj({{"key", "a"}, {"value", 1}})));
                     must(s.invoke(0, "list_push", jobj({{"key", "l"}, {"value", "x"}})));
                     must(s.invoke(0, proxy::kSyncReqOp, jobj({{"peer", 1}})));
                   },
                   [](SubjectBase& s) {
                     must(s.invoke(1, proxy::kExecSyncOp, jobj({{"peer", 0}})));
                     must(s.invoke(1, "set", jobj({{"key", "a"}, {"value", 2}})));
                   }});
  cases.push_back({"crdt_collection",
                   [] { return std::make_unique<CrdtCollection>(2); },
                   [](SubjectBase& s) {
                     must(s.invoke(0, "set_add", jobj({{"element", "s1"}})));
                     must(s.invoke(0, "counter_inc", jobj({{"by", 3}})));
                     must(s.invoke(0, proxy::kSyncReqOp, jobj({{"peer", 1}})));
                   },
                   [](SubjectBase& s) {
                     must(s.invoke(1, proxy::kExecSyncOp, jobj({{"peer", 0}})));
                     must(s.invoke(1, "set_remove", jobj({{"element", "s1"}})));
                   }});
  return cases;
}

std::vector<std::string> states(SubjectBase& subject) {
  std::vector<std::string> out;
  for (int r = 0; r < subject.replica_count(); ++r) {
    out.push_back(subject.replica_state(static_cast<net::ReplicaId>(r)).dump());
  }
  return out;
}

class SubjectSnapshot : public ::testing::TestWithParam<SnapshotCase> {};

TEST_P(SubjectSnapshot, RoundTripsReplicaStateAndNetwork) {
  const auto& c = GetParam();
  auto subject = c.make();
  c.phase1(*subject);

  const auto checkpoint_states = states(*subject);
  const size_t checkpoint_pending = subject->network().total_pending();
  ASSERT_GT(checkpoint_pending, 0u) << "phase1 must leave a sync in flight";

  const proxy::Snapshot snap = subject->snapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_GT(snap.bytes, 0u);

  c.phase2(*subject);
  EXPECT_EQ(subject->network().total_pending(), checkpoint_pending - 1);
  const auto mutated_states = states(*subject);

  ASSERT_TRUE(subject->restore(snap));
  EXPECT_EQ(states(*subject), checkpoint_states);
  EXPECT_EQ(subject->network().total_pending(), checkpoint_pending);

  // The same snapshot must be restorable repeatedly with identical results —
  // re-running phase2 from the restored state reproduces the mutated states.
  c.phase2(*subject);
  EXPECT_EQ(states(*subject), mutated_states);
  ASSERT_TRUE(subject->restore(snap));
  EXPECT_EQ(states(*subject), checkpoint_states);
  EXPECT_EQ(subject->network().total_pending(), checkpoint_pending);
}

TEST_P(SubjectSnapshot, RejectsForeignAndInvalidSnapshots) {
  const auto& c = GetParam();
  auto subject = c.make();
  auto other = c.make();
  c.phase1(*subject);
  const proxy::Snapshot snap = subject->snapshot();
  ASSERT_TRUE(snap.valid());

  // A snapshot only restores into the instance that produced it.
  EXPECT_FALSE(other->restore(snap));
  EXPECT_FALSE(subject->restore(proxy::Snapshot{}));
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, SubjectSnapshot,
                         ::testing::ValuesIn(snapshot_cases()),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(SnapshotSurface, BaseRdlReportsUnsupported) {
  // The Rdl default keeps snapshots opt-in; SubjectBase without overridden
  // clone hooks would return an invalid snapshot, which the replay engine
  // treats as "fall back to full resets".
  proxy::Snapshot empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.bytes, 0u);
}

}  // namespace
}  // namespace erpi::subjects
