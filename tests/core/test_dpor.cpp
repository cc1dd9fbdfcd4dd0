// Dynamic partial-order reduction (DESIGN.md §15): footprint grammar and
// conflict rules, the independence learner's decline-when-unsure gates, the
// sleep-set oracle's exact universe accounting, byte-parity with the static
// chain on commuting-free workloads, the cold/warm candidate-reduction gates,
// fingerprint sensitivity to the DPOR options, the paranoid
// replay-and-compare verifier against a planted false independence, and an
// allocation regression on the oracle hot path.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dpor.hpp"
#include "core/enumerate.hpp"
#include "core/pruning.hpp"
#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "proxy/proxy.hpp"
#include "subjects/town.hpp"
#include "support/alloc_counter.hpp"
#include "support/verdict.hpp"
#include "util/rng.hpp"

namespace erpi::core {
namespace {

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

Footprint fp_writes(std::initializer_list<const char*> keys) {
  Footprint fp;
  for (const char* key : keys) Footprint::insert_key(fp.writes, key);
  return fp;
}

Footprint fp_reads(std::initializer_list<const char*> keys) {
  Footprint fp;
  for (const char* key : keys) Footprint::insert_key(fp.reads, key);
  return fp;
}

proxy::Event update_event(int id, int replica, std::string op) {
  proxy::Event event;
  event.id = id;
  event.kind = proxy::EventKind::Update;
  event.replica = replica;
  event.op = std::move(op);
  event.args = util::Json::object();
  return event;
}

void seed_from_export(const IndependenceLearner::Export& exported,
                      IndependenceLearner& learner) {
  for (const auto& entry : exported.footprints) {
    learner.seed(entry.context, entry.event, entry.fp, entry.runs);
  }
  for (const auto& verdict : exported.verdicts) {
    learner.seed_verdict(verdict.a, verdict.b, verdict.independent);
  }
}

// ---------------------------------------------------------------------------
// Footprint grammar
// ---------------------------------------------------------------------------

TEST(Dpor, KeyConflictGrammar) {
  EXPECT_TRUE(footprint_keys_conflict("r0/problems", "r0/problems"));
  EXPECT_FALSE(footprint_keys_conflict("r0/problems", "r1/problems"));
  EXPECT_FALSE(footprint_keys_conflict("r0/problems", "r0/oplog"));
  // Trailing '*' is a prefix wildcard.
  EXPECT_TRUE(footprint_keys_conflict("r0/*", "r0/problems"));
  EXPECT_TRUE(footprint_keys_conflict("r0/problems", "r0/*"));
  EXPECT_FALSE(footprint_keys_conflict("r0/*", "r1/problems"));
  EXPECT_TRUE(footprint_keys_conflict("r0/*", "r0/*"));
  EXPECT_TRUE(footprint_keys_conflict("*", "chan/0->1"));
  EXPECT_FALSE(footprint_keys_conflict("chan/0->1", "chan/1->0"));
}

TEST(Dpor, FootprintMergeUnionsAndReportsWidening) {
  Footprint a = fp_writes({"r0/x"});
  EXPECT_FALSE(a.merge(fp_writes({"r0/x"})));  // no-op merge
  EXPECT_TRUE(a.merge(fp_writes({"r0/y"})));
  EXPECT_EQ(a.writes.size(), 2u);
  EXPECT_TRUE(std::is_sorted(a.writes.begin(), a.writes.end()));
  Footprint s;
  s.sync = true;
  EXPECT_TRUE(a.merge(s));
  EXPECT_TRUE(a.sync);
  EXPECT_FALSE(a.merge(s));  // sync already set
}

TEST(Dpor, FootprintsConflictOnlyThroughWrites) {
  const Footprint ra = fp_reads({"r0/x"});
  const Footprint rb = fp_reads({"r0/x"});
  EXPECT_FALSE(footprints_conflict(ra, rb));  // read/read commutes
  EXPECT_TRUE(footprints_conflict(ra, fp_writes({"r0/x"})));
  EXPECT_TRUE(footprints_conflict(fp_writes({"r0/x"}), fp_writes({"r0/x"})));
  EXPECT_FALSE(footprints_conflict(fp_writes({"r0/x"}), fp_writes({"r0/y"})));
}

TEST(Dpor, RecorderFlushesPerEventAndIgnoresStrayNotes) {
  std::map<int, Footprint> seen;
  FootprintRecorder recorder(
      [&](int id, Footprint&& fp) { seen[id] = std::move(fp); });
  recorder.note_write(0, "ghost");  // outside any event: dropped
  recorder.begin_event(7);
  recorder.note_read(0, "problems");
  recorder.note_write(0, "problems");
  recorder.note_write(0, "problems");  // deduplicated
  recorder.note_channel_write(0, 1);
  recorder.note_sync();
  EXPECT_EQ(recorder.note_count(), 4u);
  recorder.end_event();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[7].reads, (std::vector<std::string>{"r0/problems"}));
  EXPECT_EQ(seen[7].writes, (std::vector<std::string>{"chan/0->1", "r0/problems"}));
  EXPECT_TRUE(seen[7].sync);
}

// ---------------------------------------------------------------------------
// IndependenceLearner gates
// ---------------------------------------------------------------------------

TEST(Dpor, LearnerDeclinesUnobservedPairs) {
  IndependenceLearner learner;
  learner.observe("none", 0, fp_writes({"r0/x"}));
  // Event 1 was never observed: decline even though nothing is known to
  // conflict.
  EXPECT_FALSE(learner.independent(0, 1));
  EXPECT_FALSE(learner.independent(0, 0));  // an event never commutes with itself
  learner.observe("none", 1, fp_writes({"r1/x"}));
  EXPECT_TRUE(learner.independent(0, 1));
  EXPECT_TRUE(learner.independent(1, 0));  // symmetric
}

TEST(Dpor, LearnerHappensBeforeOnSharedSyncChannel) {
  proxy::EventSet events;
  proxy::Event req = update_event(0, 0, proxy::kSyncReqOp);
  req.kind = proxy::EventKind::SyncReq;
  req.from = 0;
  req.to = 1;
  proxy::Event exec = update_event(1, 1, proxy::kExecSyncOp);
  exec.kind = proxy::EventKind::ExecSync;
  exec.from = 0;
  exec.to = 1;
  events.push_back(req);
  events.push_back(exec);
  IndependenceLearner learner;
  learner.set_events(events);
  // Even with disjoint (lying) footprints the channel edge wins.
  learner.observe("none", 0, fp_writes({"a"}));
  learner.observe("none", 1, fp_writes({"b"}));
  EXPECT_FALSE(learner.independent(0, 1));
}

TEST(Dpor, SyncTrustGateOpensAtTwoRuns) {
  Footprint synced = fp_writes({"chan/0->1"});
  synced.sync = true;
  IndependenceLearner cold;
  cold.observe("none", 0, synced);
  cold.observe("none", 1, fp_writes({"r1/x"}));
  cold.note_training_run();
  // Disjoint, but one side is sync-flavoured and only 1 run confirmed it.
  ASSERT_EQ(cold.runs_observed(0), 1u);
  EXPECT_FALSE(cold.independent(0, 1));
  // Non-sync pairs do not need the gate.
  cold.observe("none", 2, fp_writes({"r0/x"}));
  EXPECT_TRUE(cold.independent(1, 2));

  IndependenceLearner warm;
  seed_from_export(cold.export_state(), warm);
  warm.observe("none", 0, synced);
  warm.observe("none", 1, fp_writes({"r1/x"}));
  warm.note_training_run();
  ASSERT_GE(warm.runs_observed(0), kSyncTrustRuns);
  EXPECT_TRUE(warm.independent(0, 1));
}

TEST(Dpor, ContextsUnionConservatively) {
  IndependenceLearner learner;
  learner.observe("none", 0, fp_writes({"r0/x"}));
  learner.observe("none", 1, fp_writes({"r1/x"}));
  EXPECT_TRUE(learner.independent(0, 1));
  // Under a fault plan the same event touched the other replica too: the
  // combined view must widen and the pair must flip to dependent.
  learner.observe("drop", 0, fp_writes({"r1/x"}));
  EXPECT_FALSE(learner.independent(0, 1));
}

TEST(Dpor, ParanoidRequiresVerdictAndRefutationIsPermanent) {
  DporOptions options;
  options.paranoid = true;
  IndependenceLearner learner(options);
  learner.observe("none", 0, fp_writes({"r0/x"}));
  learner.observe("none", 1, fp_writes({"r1/x"}));
  EXPECT_FALSE(learner.independent(0, 1));  // no verdict yet
  EXPECT_EQ(learner.unverified_candidate_pairs(),
            (std::vector<std::pair<int, int>>{{0, 1}}));
  learner.record_verdict(0, 1, true);
  EXPECT_TRUE(learner.independent(0, 1));
  learner.record_verdict(0, 1, false);  // refutation wins...
  EXPECT_FALSE(learner.independent(0, 1));
  learner.record_verdict(0, 1, true);  // ...and can never be upgraded back
  EXPECT_FALSE(learner.independent(0, 1));
  EXPECT_TRUE(learner.unverified_candidate_pairs().empty());
}

TEST(Dpor, ExportSeedRoundTripPreservesTheRelation) {
  IndependenceLearner original;
  Footprint synced = fp_writes({"r0/x"});
  synced.sync = true;
  original.observe("none", 0, synced);
  original.observe("drop", 1, fp_reads({"r1/y"}));
  original.note_training_run();
  original.record_verdict(0, 1, true);

  IndependenceLearner restored;
  seed_from_export(original.export_state(), restored);
  EXPECT_EQ(original.relation_digest(), restored.relation_digest());
  EXPECT_EQ(original.runs_observed(0), restored.runs_observed(0));
}

TEST(Dpor, RelationDigestIsSensitive) {
  IndependenceLearner learner;
  learner.observe("none", 0, fp_writes({"r0/x"}));
  const uint64_t base = learner.relation_digest();
  learner.observe("none", 0, fp_writes({"r0/y"}));
  const uint64_t widened = learner.relation_digest();
  EXPECT_NE(base, widened);
  learner.record_verdict(0, 1, true);
  EXPECT_NE(widened, learner.relation_digest());
  DporOptions paranoid;
  paranoid.paranoid = true;
  EXPECT_NE(IndependenceLearner(DporOptions{}).relation_digest(),
            IndependenceLearner(paranoid).relation_digest());
}

// ---------------------------------------------------------------------------
// Sleep-set oracle: exact cuts and universe accounting
// ---------------------------------------------------------------------------

struct ExhaustTrace {
  std::vector<std::string> admitted;
  PruningPipeline::Stats stats;
};

ExhaustTrace exhaust_dfs_with_learner(int n, const std::shared_ptr<IndependenceLearner>& learner,
                                      uint64_t branch_seed = 0) {
  std::vector<int> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  PruningPipeline pipeline;
  pipeline.set_dynamic_oracle_factory([learner](const OracleDomain& domain) {
    return make_dpor_oracle(domain, learner);
  });
  PrunedEnumerator pruned(std::make_unique<DfsEnumerator>(std::move(ids), branch_seed),
                          std::move(pipeline));
  ExhaustTrace trace;
  while (auto il = pruned.next()) trace.admitted.push_back(il->key());
  trace.stats = pruned.pipeline().stats();
  return trace;
}

TEST(Dpor, SleepSetCutsOneRepresentativePerTraceClass) {
  // Events 0 and 1 commute; 2 conflicts with both. Trace classes of S_3:
  // {012,102} {021} {120} {201,210} — 4 classes out of 6 words.
  auto learner = std::make_shared<IndependenceLearner>();
  learner->observe("none", 0, fp_writes({"r0/x"}));
  learner->observe("none", 1, fp_writes({"r1/x"}));
  learner->observe("none", 2, fp_writes({"r0/x", "r1/x"}));
  const ExhaustTrace trace = exhaust_dfs_with_learner(3, learner);
  EXPECT_EQ(trace.admitted.size(), 4u);
  EXPECT_EQ(trace.stats.admitted + trace.stats.pruned, 6u);
  EXPECT_EQ(trace.stats.pruned_by.at(kDporOracleName), 2u);
}

TEST(Dpor, UntrainedLearnerYieldsNoOracleAndFullUniverse) {
  auto learner = std::make_shared<IndependenceLearner>();
  const ExhaustTrace trace = exhaust_dfs_with_learner(3, learner);
  EXPECT_EQ(trace.admitted.size(), 6u);
  EXPECT_EQ(trace.stats.pruned, 0u);
}

/// Number of Mazurkiewicz trace classes, by union-find over all n!
/// permutations connected by one adjacent independent swap.
size_t count_trace_classes(int n, const IndependenceLearner& learner) {
  std::vector<std::vector<int>> perms;
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::map<std::vector<int>, size_t> index;
  do {
    index[perm] = perms.size();
    perms.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  std::vector<size_t> parent(perms.size());
  std::iota(parent.begin(), parent.end(), size_t{0});
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t p = 0; p < perms.size(); ++p) {
    for (int i = 0; i + 1 < n; ++i) {
      if (!learner.independent(perms[p][static_cast<size_t>(i)],
                               perms[p][static_cast<size_t>(i) + 1])) {
        continue;
      }
      std::vector<int> swapped = perms[p];
      std::swap(swapped[static_cast<size_t>(i)], swapped[static_cast<size_t>(i) + 1]);
      parent[find(p)] = find(index.at(swapped));
    }
  }
  std::set<size_t> roots;
  for (size_t p = 0; p < perms.size(); ++p) roots.insert(find(p));
  return roots.size();
}

TEST(Dpor, UniverseAccountingFuzz) {
  // Random footprints over a small key pool; for every relation the oracle
  // must (a) account the universe exactly, (b) admit no duplicates, and
  // (c) admit exactly one representative per trace class — soundness AND
  // optimality of the sleep-set cut.
  util::Rng rng(0xd90a11ceULL);
  const char* pool[] = {"r0/a", "r0/b", "r1/a", "r1/b", "chan/0->1"};
  uint64_t total_cut = 0;
  for (int round = 0; round < 40; ++round) {
    const int n = 3 + static_cast<int>(rng() % 4);  // 3..6 events
    auto learner = std::make_shared<IndependenceLearner>();
    for (int id = 0; id < n; ++id) {
      Footprint fp;
      const int keys = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < keys; ++k) {
        const char* key = pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
        if (rng() % 2 == 0) {
          Footprint::insert_key(fp.writes, key);
        } else {
          Footprint::insert_key(fp.reads, key);
        }
      }
      fp.sync = rng() % 4 == 0;
      // Seed 2 runs so sync-flavoured footprints are sometimes trusted.
      learner->seed("none", id, fp, rng() % 2 == 0 ? 2u : 1u);
    }
    const uint64_t branch_seed = rng();
    const ExhaustTrace trace = exhaust_dfs_with_learner(n, learner, branch_seed);
    uint64_t universe = 1;
    for (int i = 2; i <= n; ++i) universe *= static_cast<uint64_t>(i);
    EXPECT_EQ(trace.stats.admitted + trace.stats.pruned, universe)
        << "round " << round << " n=" << n << " seed=" << branch_seed;
    const std::set<std::string> unique(trace.admitted.begin(), trace.admitted.end());
    EXPECT_EQ(unique.size(), trace.admitted.size()) << "round " << round;
    EXPECT_EQ(trace.admitted.size(), count_trace_classes(n, *learner))
        << "round " << round << " n=" << n << " seed=" << branch_seed;
    total_cut += trace.stats.pruned;
  }
  EXPECT_GT(total_cut, 0u);  // the fuzz actually exercised cuts
}

// ---------------------------------------------------------------------------
// Allocation regression: the oracle hot path is allocation-free after warmup
// ---------------------------------------------------------------------------

TEST(Dpor, OracleHotPathDoesNotAllocateAfterWarmup) {
#if !ERPI_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  auto learner = std::make_shared<IndependenceLearner>();
  const int n = 6;
  for (int id = 0; id < n; ++id) {
    learner->observe("none", id, fp_writes({id % 2 == 0 ? "r0/x" : "r1/x"}));
  }
  OracleDomain domain;
  domain.unit_generation = false;
  domain.slot_count = static_cast<size_t>(n);
  domain.event_count = static_cast<size_t>(n);
  domain.rank_of_event.resize(static_cast<size_t>(n));
  std::iota(domain.rank_of_event.begin(), domain.rank_of_event.end(), 0);
  auto oracle = make_dpor_oracle(domain, learner);
  ASSERT_NE(oracle, nullptr);

  std::vector<bool> used(static_cast<size_t>(n), false);
  const std::function<void(int)> walk = [&](int depth) {
    for (int id = 0; id < n; ++id) {
      if (used[static_cast<size_t>(id)]) continue;
      used[static_cast<size_t>(id)] = true;
      const bool viable = oracle->push(id);
      if (viable && depth + 1 < n) walk(depth + 1);
      oracle->pop();
      used[static_cast<size_t>(id)] = false;
    }
  };
  oracle->reset();
  walk(0);  // warmup: frames and marker storage reach steady state
  oracle->reset();
  const uint64_t before = test_support::allocations();
  walk(0);
  const uint64_t after = test_support::allocations();
  EXPECT_EQ(after, before) << "oracle push/pop allocated on the hot path";
#endif
}

// ---------------------------------------------------------------------------
// Byte parity with the static chain on a commuting-free workload
// ---------------------------------------------------------------------------

/// One replica, every event touching r0/problems: nothing commutes, so the
/// dynamic oracle must change nothing — byte-identical verdicts.
ReplayReport run_commuting_free(bool dynamic, int parallelism,
                                PruningPipeline::Stats* stats_out) {
  subjects::TownApp town(1);
  proxy::RdlProxy proxy(town);
  Session::Config config;
  config.generation_order = GroupedEnumerator::Order::Lexicographic;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.dynamic_pruning.enabled = dynamic;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(1); };
  Session session(proxy, config);
  session.start();
  (void)proxy.update(0, "report", problem("a"));   // e0
  (void)proxy.update(0, "resolve", problem("a"));  // e1
  (void)proxy.update(0, "report", problem("b"));   // e2
  (void)proxy.query(0, "transmit");                // e3
  util::Json expected = util::Json::array();
  expected.push_back("b");
  auto report = session.end([expected](proxy::Rdl&) -> AssertionList {
    return {query_result_equals(3, expected)};
  });
  if (stats_out != nullptr) *stats_out = session.pruning_report().pipeline;
  return report;
}

TEST(DporParity, ByteIdenticalReportsOnCommutingFreeWorkload) {
  for (const int parallelism : {1, 4}) {
    PruningPipeline::Stats static_stats;
    PruningPipeline::Stats dynamic_stats;
    const ReplayReport off = run_commuting_free(false, parallelism, &static_stats);
    const ReplayReport on = run_commuting_free(true, parallelism, &dynamic_stats);
    EXPECT_EQ(off.verdict(), on.verdict()) << "parallelism=" << parallelism;
    EXPECT_EQ(static_stats.admitted, dynamic_stats.admitted);
    EXPECT_EQ(static_stats.pruned, dynamic_stats.pruned);
    EXPECT_EQ(dynamic_stats.pruned_by.count(kDporOracleName), 0u)
        << "a commuting-free workload must yield zero dynamic cuts";
    EXPECT_GT(off.explored, 0u);
    EXPECT_TRUE(off.reproduced);  // the parity is over a meaningful report
  }
}

// ---------------------------------------------------------------------------
// Orders without a generation tree reject dynamic pruning, and every run
// rejects before its first side effect
// ---------------------------------------------------------------------------

enum class Entry { MakeEnumerator, End, FaultSweep };

/// What `entry` throws for a DPOR session under `config` ("" when it runs).
/// Runs set a journal and a corpus path; a rejected one never primes the
/// learner, writes no journal and creates no corpus directory.
std::string dpor_rejection(Session::Config config, Entry entry = Entry::MakeEnumerator) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("erpi-dpor-rejection-") +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto journal = dir / "run.jsonl";
  const auto corpus = dir / "corpus";
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  config.dynamic_pruning.enabled = true;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  if (entry != Entry::MakeEnumerator) {
    config.resume_journal = journal.string();
    config.corpus_path = corpus.string();
  }
  Session session(proxy, std::move(config));
  session.start();
  (void)proxy.update(0, "report", problem("x"));
  (void)proxy.sync_req(0, 1);
  (void)proxy.exec_sync(0, 1);
  const auto assertions = [](proxy::Rdl&) { return AssertionList{all_ops_succeed()}; };
  std::string message;
  try {
    switch (entry) {
      case Entry::MakeEnumerator:
        session.finish_capture();
        (void)session.make_enumerator();
        break;
      case Entry::End:
        (void)session.end(assertions);
        break;
      case Entry::FaultSweep:
        (void)faults::explore_with_faults(session, assertions);
        break;
    }
  } catch (const std::invalid_argument& error) {
    message = error.what();
  }
  EXPECT_EQ(session.dpor_learner(), nullptr);
  EXPECT_FALSE(std::filesystem::exists(journal));
  EXPECT_FALSE(std::filesystem::exists(corpus));
  std::filesystem::remove_all(dir);
  return message;
}

TEST(Dpor, RejectsShuffledOrder) {
  for (const Entry entry : {Entry::MakeEnumerator, Entry::End, Entry::FaultSweep}) {
    const std::string message = dpor_rejection({}, entry);  // ER-pi's default order
    EXPECT_NE(message.find("ErPi with Shuffled order"), std::string::npos) << message;
  }
}

TEST(Dpor, RejectsRandMode) {
  for (const Entry entry : {Entry::MakeEnumerator, Entry::End, Entry::FaultSweep}) {
    Session::Config config;
    config.mode = ExplorationMode::Rand;
    const std::string message = dpor_rejection(std::move(config), entry);
    EXPECT_NE(message.find("mode Rand"), std::string::npos) << message;
  }
}

TEST(Dpor, RunRejectionsPrecedeEverySideEffect) {
  // A DPOR run with a generation tree: only the row's setting is refused.
  struct Row {
    const char* name;
    Entry entry;
    std::function<void(Session::Config&)> set;
    const char* message;
  };
  const std::vector<Row> rows = {
      {"ranked end() with a journal", Entry::End,
       [](Session::Config& c) { c.search.strategy = SearchStrategy::RandomPath; },
       "guided search cannot resume from a journal"},
      {"fault sweep with persist", Entry::FaultSweep,
       [](Session::Config& c) { c.persist = true; }, "persist"},
      {"fault sweep with constraints_dir", Entry::FaultSweep,
       [](Session::Config& c) {
         c.constraints_dir =
             (std::filesystem::temp_directory_path() / "erpi-dpor-constraints").string();
       },
       "constraints_dir"},
  };
  for (const Row& row : rows) {
    Session::Config config;
    config.generation_order = GroupedEnumerator::Order::Lexicographic;
    row.set(config);
    const std::string message = dpor_rejection(std::move(config), row.entry);
    EXPECT_NE(message.find(row.message), std::string::npos) << row.name << ": " << message;
  }
}

// ---------------------------------------------------------------------------
// Commuting-heavy sweep: the cold/warm reduction gates
// ---------------------------------------------------------------------------

struct SweepSession {
  subjects::TownApp town{2};
  proxy::RdlProxy proxy{town};
  std::unique_ptr<Session> session;

  explicit SweepSession(bool dynamic) {
    Session::Config config;
    config.mode = ExplorationMode::Dfs;
    config.dynamic_pruning.enabled = dynamic;
    session = std::make_unique<Session>(proxy, config);
    session->start();
    (void)proxy.update(0, "report", problem("a0"));
    (void)proxy.update(0, "report", problem("a1"));
    (void)proxy.update(0, "report", problem("a2"));
    (void)proxy.update(1, "report", problem("b0"));
    (void)proxy.update(1, "report", problem("b1"));
    (void)proxy.update(1, "report", problem("b2"));
    (void)proxy.sync_req(0, 1);
    (void)proxy.exec_sync(0, 1);
    session->finish_capture();
  }

  PruningPipeline::Stats last_stats;

  uint64_t exhaust() {
    auto enumerator = session->make_enumerator();
    uint64_t admitted = 0;
    while (enumerator->next()) ++admitted;
    if (auto* pruned = dynamic_cast<PrunedEnumerator*>(enumerator.get())) {
      last_stats = pruned->pipeline().stats();
    }
    return admitted;
  }
};

TEST(DporSweep, ColdCutsFiveFoldWarmTenFold) {
  constexpr uint64_t kUniverse = 40320;  // 8!

  SweepSession baseline(/*dynamic=*/false);
  const uint64_t static_admitted = baseline.exhaust();
  EXPECT_EQ(static_admitted, kUniverse);

  // Cold: the priming replay alone — non-sync cross-replica pairs commute,
  // sync-flavoured pairs stay dependent behind the kSyncTrustRuns gate.
  SweepSession cold(/*dynamic=*/true);
  const uint64_t cold_admitted = cold.exhaust();
  ASSERT_NE(cold.session->dpor_learner(), nullptr);
  EXPECT_GE(static_admitted, 5 * cold_admitted)
      << "cold reduction below the 5x gate: " << cold_admitted;

  // Warm: seeded from the cold run's exported footprints, the sync pairs
  // reach kSyncTrustRuns and unlock.
  const auto exported = cold.session->dpor_learner()->export_state();
  SweepSession warm(/*dynamic=*/true);
  warm.session->prepare_dynamic_pruning([&](IndependenceLearner& learner) {
    seed_from_export(exported, learner);
  });
  const uint64_t warm_admitted = warm.exhaust();
  EXPECT_GE(static_admitted, 10 * warm_admitted)
      << "warm reduction below the 10x gate: " << warm_admitted;
  EXPECT_LT(warm_admitted, cold_admitted);

  // Exact universe accounting holds for both dynamic runs.
  EXPECT_EQ(cold.last_stats.admitted + cold.last_stats.pruned, kUniverse);
  EXPECT_EQ(warm.last_stats.admitted + warm.last_stats.pruned, kUniverse);
  EXPECT_GT(cold.last_stats.pruned_by.at(kDporOracleName), 0u);
}

// ---------------------------------------------------------------------------
// Fingerprints hash the DPOR options (journal + corpus namespaces)
// ---------------------------------------------------------------------------

struct FingerprintFixture {
  subjects::TownApp town{2};
  proxy::RdlProxy proxy{town};
  std::unique_ptr<Session> session;

  explicit FingerprintFixture(const DporOptions& options) {
    Session::Config config;
    config.dynamic_pruning = options;
    session = std::make_unique<Session>(proxy, config);
    session->start();
    (void)proxy.update(0, "report", problem("x"));
    (void)proxy.sync_req(0, 1);
    (void)proxy.exec_sync(0, 1);
    session->finish_capture();
    session->prepare_dynamic_pruning();
  }

  std::pair<uint64_t, uint64_t> fingerprints() const {
    const core::ReplayOptions replay;
    return {faults::run_fingerprint(*session, {}, {}, replay,
                                    faults::FingerprintPurpose::Journal),
            faults::run_fingerprint(*session, {}, {}, replay,
                                    faults::FingerprintPurpose::Corpus)};
  }
};

TEST(Dpor, FingerprintsHashEveryDporOption) {
  const auto base = FingerprintFixture(DporOptions{}).fingerprints();

  DporOptions enabled;
  enabled.enabled = true;
  const auto with_enabled = FingerprintFixture(enabled).fingerprints();
  EXPECT_NE(base.first, with_enabled.first);
  EXPECT_NE(base.second, with_enabled.second);

  DporOptions paranoid;
  paranoid.paranoid = true;
  const auto with_paranoid = FingerprintFixture(paranoid).fingerprints();
  EXPECT_NE(base.first, with_paranoid.first);
  EXPECT_NE(base.second, with_paranoid.second);
  EXPECT_NE(with_enabled.first, with_paranoid.first);

  DporOptions schema;
  schema.footprint_schema = kFootprintSchemaVersion + 1;
  const auto with_schema = FingerprintFixture(schema).fingerprints();
  EXPECT_NE(base.first, with_schema.first);
  EXPECT_NE(base.second, with_schema.second);
}

TEST(Dpor, LearnedRelationPinsJournalButNotCorpusFingerprint) {
  DporOptions enabled;
  enabled.enabled = true;
  FingerprintFixture a(enabled);
  FingerprintFixture b(enabled);
  EXPECT_EQ(a.fingerprints(), b.fingerprints());  // priming is deterministic
  // Widen b's relation: the journal namespace must move (a resumed run would
  // regenerate a different stream), the corpus namespace must not (outcomes
  // remain valid under any relation — cuts only skip duplicates).
  b.session->dpor_learner()->observe("test", 0, fp_writes({"zz"}));
  EXPECT_NE(a.fingerprints().first, b.fingerprints().first);
  EXPECT_EQ(a.fingerprints().second, b.fingerprints().second);
}

// ---------------------------------------------------------------------------
// Paranoid replay-and-compare against a planted false independence
// ---------------------------------------------------------------------------

/// The planted lie: ops "a" and "b" claim disjoint footprint registers but
/// actually append to one shared order-sensitive tape. Ops "x" and "y" are
/// honestly disjoint counters.
class LyingPad final : public proxy::Rdl {
 public:
  std::string name() const override { return "lying_pad"; }
  int replica_count() const override { return 1; }

  util::Result<util::Json> invoke(net::ReplicaId, const std::string& op,
                                  const util::Json&) override {
    if (recorder_ != nullptr) recorder_->note_write(0, op);
    if (op == "a" || op == "b") {
      tape_ += op;
    } else if (op == "x") {
      ++x_;
    } else if (op == "y") {
      ++y_;
    }
    return util::Json(true);
  }

  util::Json replica_state(net::ReplicaId) const override {
    util::Json j = util::Json::object();
    j["tape"] = tape_;
    j["x"] = static_cast<int64_t>(x_);
    j["y"] = static_cast<int64_t>(y_);
    return j;
  }

  void reset() override {
    tape_.clear();
    x_ = 0;
    y_ = 0;
  }

  void set_footprint_recorder(core::FootprintRecorder* recorder) override {
    recorder_ = recorder;
  }

 private:
  core::FootprintRecorder* recorder_ = nullptr;
  std::string tape_;
  int x_ = 0;
  int y_ = 0;
};

TEST(DporParanoid, PlantedFalseIndependenceIsRefutedByReplayAndCompare) {
  proxy::EventSet events;
  events.push_back(update_event(0, 0, "a"));
  events.push_back(update_event(1, 0, "b"));
  events.push_back(update_event(2, 0, "x"));
  events.push_back(update_event(3, 0, "y"));

  DporOptions options;
  options.paranoid = true;
  IndependenceLearner learner(options);
  learner.set_events(events);

  // Train from one priming execution of the lying subject.
  LyingPad pad;
  FootprintRecorder recorder(
      [&](int id, Footprint&& fp) { learner.observe("none", id, std::move(fp)); });
  pad.set_footprint_recorder(&recorder);
  for (const auto& event : events) {
    recorder.begin_event(event.id);
    (void)pad.invoke(event.replica, event.op, event.args);
    recorder.end_event();
  }
  pad.set_footprint_recorder(nullptr);
  learner.note_training_run();

  // The footprints alone would cut on the lie — this is exactly what
  // paranoid mode exists to catch.
  IndependenceLearner credulous;
  seed_from_export(learner.export_state(), credulous);
  EXPECT_TRUE(credulous.independent(0, 1));

  const auto factory = [] { return std::unique_ptr<proxy::Rdl>(new LyingPad()); };
  const uint64_t refuted = verify_candidate_pairs(learner, events, factory);
  EXPECT_EQ(refuted, 1u);  // (a, b) — the tape order differs
  EXPECT_FALSE(learner.independent(0, 1));
  EXPECT_TRUE(learner.independent(2, 3));  // (x, y) verified commuting
  const DporStats stats = learner.stats();
  EXPECT_EQ(stats.pairs_refuted, 1u);
  EXPECT_GE(stats.pairs_verified, 1u);
  // No factory: nothing is verified and paranoid mode cuts nothing.
  IndependenceLearner unverified(options);
  seed_from_export(learner.export_state(), unverified);
  EXPECT_EQ(verify_candidate_pairs(unverified, events, nullptr), 0u);
}

}  // namespace
}  // namespace erpi::core
