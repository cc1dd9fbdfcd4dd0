// Parallel exploration scheduler tests: deterministic result semantics
// across worker counts (parallelism ∈ {1, 4, 8}), lowest-index violation
// under stop_on_violation, serialized callback delivery, persisted-log
// equality, shared budget accounting, distributed-lock threaded mode under a
// parallel outer loop, profiler shard merging, the determinism contract
// across the run driver's modes (journal resume, corpus warmth), and the
// BoundedQueue primitive itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/persist.hpp"
#include "core/profile.hpp"
#include "core/session.hpp"
#include "faults/explorer.hpp"
#include "sched/explorer.hpp"
#include "sched/queue.hpp"
#include "subjects/town.hpp"
#include "support/verdict.hpp"

namespace erpi::sched {
namespace {

using core::AssertionList;
using core::ReplayReport;
using core::Session;

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

// Two replicas reporting and resolving with syncs, ending in the transmit
// query. With the two spec groups below plus the auto-paired (e7,e8) sync,
// this builds 6 units -> a 720-interleaving universe.
void stress_workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(0, "report", problem("otb"));   // e0
  (void)proxy.sync_req(0, 1);                        // e1
  (void)proxy.exec_sync(0, 1);                       // e2
  (void)proxy.update(1, "report", problem("ph"));    // e3
  (void)proxy.sync_req(1, 0);                        // e4
  (void)proxy.exec_sync(1, 0);                       // e5
  (void)proxy.update(1, "resolve", problem("otb"));  // e6
  (void)proxy.sync_req(1, 0);                        // e7
  (void)proxy.exec_sync(1, 0);                       // e8
  (void)proxy.update(0, "report", problem("lamp"));  // e9
  (void)proxy.query(0, "transmit");                  // e10
}

Session::Config stress_config(int parallelism) {
  Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  return config;
}

core::AssertionFactory transmit_assertions() {
  return [](proxy::Rdl&) -> AssertionList {
    // what the identity interleaving transmits (OrSet elements are sorted);
    // reorderings that skip the resolve or a sync violate this
    util::Json expected = util::Json::array();
    expected.push_back("lamp");
    expected.push_back("ph");
    return {core::query_result_equals(10, expected)};
  };
}

ReplayReport run_stress(int parallelism, Session::Config config = {}) {
  if (config.subject_factory == nullptr) config = stress_config(parallelism);
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  stress_workload(proxy);
  return session.end(transmit_assertions());
}

/// The stress workload as a fault sweep over `catalog` (the default catalog
/// sweeps several plans).
ReplayReport run_stress_faults(Session::Config config, const faults::CatalogOptions& catalog = {}) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  stress_workload(proxy);
  return faults::explore_with_faults(session, transmit_assertions(), catalog);
}

faults::CatalogOptions baseline_only() {
  faults::CatalogOptions catalog;
  catalog.max_drops = 0;
  catalog.max_duplicates = 0;
  catalog.max_partition_windows = 0;
  catalog.max_crash_restarts = 0;
  return catalog;
}

// ---------------------------------------------------------------------------
// Deterministic result semantics across worker counts
// ---------------------------------------------------------------------------

TEST(ParallelExplorer, IdenticalReportsAtParallelism148) {
  const ReplayReport sequential = run_stress(1);
  ASSERT_GT(sequential.explored, 100u);  // a real universe, not a toy
  ASSERT_GT(sequential.violations, 0u);
  ASSERT_TRUE(sequential.reproduced);

  for (const int parallelism : {4, 8}) {
    const ReplayReport parallel = run_stress(parallelism);
    EXPECT_EQ(parallel.verdict(), sequential.verdict()) << "p=" << parallelism;
  }
}

TEST(ParallelExplorer, IdenticalReportsUnderSeededShuffledOrder) {
  auto seeded_config = [](int parallelism) {
    Session::Config config = stress_config(parallelism);
    config.generation_order = core::GroupedEnumerator::Order::Shuffled;
    config.random_seed = 1234;
    return config;
  };
  const ReplayReport sequential = run_stress(1, seeded_config(1));
  for (const int parallelism : {4, 8}) {
    const ReplayReport parallel = run_stress(parallelism, seeded_config(parallelism));
    EXPECT_EQ(parallel.verdict(), sequential.verdict()) << "p=" << parallelism;
  }
}

TEST(ParallelExplorer, StopOnViolationReportsLowestIndexViolation) {
  for (const int parallelism : {1, 4, 8}) {
    Session::Config config = stress_config(parallelism);
    config.replay.stop_on_violation = true;
    const ReplayReport report = run_stress(parallelism, std::move(config));
    const ReplayReport baseline = [] {
      Session::Config c = stress_config(1);
      c.replay.stop_on_violation = true;
      return run_stress(1, std::move(c));
    }();
    ASSERT_TRUE(report.reproduced) << "p=" << parallelism;
    EXPECT_EQ(report.verdict(), baseline.verdict()) << "p=" << parallelism;
    EXPECT_FALSE(report.exhausted) << "p=" << parallelism;
  }
}

TEST(ParallelExplorer, CallbacksAreSerializedInAscendingIndexOrder) {
  // A plain run, then a fault sweep, whose index runs on across its plans.
  for (const bool fault_sweep : {false, true}) {
    SCOPED_TRACE(fault_sweep ? "fault sweep" : "plain run");
    Session::Config config = stress_config(8);
    if (fault_sweep) config.replay.max_interleavings = 60;  // per plan
    std::vector<uint64_t> indices;
    std::atomic<int> concurrent{0};
    std::atomic<bool> overlapped{false};
    config.replay.on_outcome = [&](uint64_t index, const core::Interleaving&,
                                   const core::InterleavingOutcome&) {
      if (concurrent.fetch_add(1) != 0) overlapped.store(true);
      indices.push_back(index);
      concurrent.fetch_sub(1);
    };
    const ReplayReport report =
        fault_sweep ? run_stress_faults(std::move(config)) : run_stress(8, std::move(config));
    if (fault_sweep) {
      EXPECT_GT(report.plans_explored, 1u);
    }
    EXPECT_FALSE(overlapped.load());
    ASSERT_EQ(indices.size(), report.explored);
    for (size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(indices[i], static_cast<uint64_t>(i) + 1);
    }
  }
}

TEST(ParallelExplorer, PersistedLogIdenticalAcrossParallelism) {
  auto persisted_keys = [](int parallelism) {
    Session::Config config = stress_config(parallelism);
    config.persist = true;
    config.replay.max_interleavings = 150;  // keep the Datalog store small
    subjects::TownApp town(2);
    proxy::RdlProxy proxy(town);
    Session session(proxy, std::move(config));
    session.start();
    stress_workload(proxy);
    (void)session.end(transmit_assertions());
    std::vector<std::string> keys;
    for (size_t i = 0; i < session.store().interleaving_count(); ++i) {
      keys.push_back(session.store().load(i).key());
    }
    return keys;
  };
  const auto sequential = persisted_keys(1);
  const auto parallel = persisted_keys(4);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelExplorer, HonorsInterleavingCap) {
  Session::Config config = stress_config(4);
  config.replay.max_interleavings = 17;
  const ReplayReport report = run_stress(4, std::move(config));
  EXPECT_EQ(report.explored, 17u);
  EXPECT_TRUE(report.hit_cap);
  EXPECT_FALSE(report.exhausted);

  // A stop-on-violation run whose violation is its cap-th pair stopped at
  // the violation: it neither hit its cap nor ran dry, as a plain run and as
  // a baseline-only fault sweep alike.
  Session::Config stopping = stress_config(1);
  stopping.replay.stop_on_violation = true;
  const ReplayReport uncapped = run_stress(1, stopping);
  ASSERT_TRUE(uncapped.reproduced);
  for (const int parallelism : {1, 4}) {
    Session::Config capped = stress_config(parallelism);
    capped.replay.stop_on_violation = true;
    capped.replay.max_interleavings = uncapped.first_violation_index;
    const ReplayReport plain = run_stress(parallelism, capped);
    const ReplayReport sweep = run_stress_faults(capped, baseline_only());
    for (const ReplayReport* capped_report : {&plain, &sweep}) {
      const char* entry = capped_report == &plain ? "end()" : "fault sweep";
      EXPECT_EQ(capped_report->explored, uncapped.first_violation_index) << entry;
      EXPECT_TRUE(capped_report->reproduced) << entry;
      EXPECT_FALSE(capped_report->hit_cap) << entry << " p=" << parallelism;
      EXPECT_FALSE(capped_report->exhausted) << entry << " p=" << parallelism;
    }
  }
}

TEST(ParallelExplorer, SharedBudgetCrashesDeterministically) {
  auto budgeted = [](int parallelism) {
    Session::Config config = stress_config(parallelism);
    config.replay.resource_budget_bytes = 4'000;  // a few dozen log entries
    // The budget counts the explored log and the enumerator caches, both
    // functions of the committed stream alone, so the default config crashes
    // at the same point at every worker count.
    return run_stress(parallelism, std::move(config));
  };
  const ReplayReport sequential = budgeted(1);
  ASSERT_TRUE(sequential.crashed);
  ASSERT_TRUE(sequential.budget_exhausted);
  for (const int parallelism : {4, 8}) {
    const ReplayReport parallel = budgeted(parallelism);
    EXPECT_EQ(parallel.verdict(), sequential.verdict()) << "p=" << parallelism;
  }
  // A baseline-only fault sweep charges the same stream the same way, so it
  // crashes after the same number of pairs.
  for (const int parallelism : {1, 4}) {
    Session::Config config = stress_config(parallelism);
    config.replay.resource_budget_bytes = 4'000;
    const ReplayReport sweep = run_stress_faults(std::move(config), baseline_only());
    EXPECT_TRUE(sweep.crashed) << "p=" << parallelism;
    EXPECT_EQ(sweep.explored, sequential.explored) << "p=" << parallelism;
  }
}

TEST(ParallelExplorer, ThrowingCallbackJoinsThePoolAndRethrows) {
  // The committer delivers callbacks while the dispatcher and workers run;
  // a throw there must drain and join them, then surface to the caller.
  for (const int parallelism : {1, 4}) {
    Session::Config config = stress_config(parallelism);
    config.replay.on_outcome = [](uint64_t index, const core::Interleaving&,
                                  const core::InterleavingOutcome&) {
      if (index == 3) throw std::runtime_error("callback failed");
    };
    EXPECT_THROW(run_stress(parallelism, std::move(config)), std::runtime_error)
        << "p=" << parallelism;
  }
}

// ---------------------------------------------------------------------------
// Distributed-lock threaded mode under the parallel outer loop
// ---------------------------------------------------------------------------

TEST(ParallelExplorer, ThreadedLockModeValidatesUnderParallelOuterLoop) {
  auto threaded_config = [](int parallelism) {
    Session::Config config = stress_config(parallelism);
    config.replay.threaded = true;  // every engine hosts a private kv::Server
    config.replay.max_interleavings = 24;
    return config;
  };
  const ReplayReport sequential = run_stress(1, threaded_config(1));
  const ReplayReport parallel = run_stress(4, threaded_config(4));
  EXPECT_EQ(parallel.verdict(), sequential.verdict());
}

// ---------------------------------------------------------------------------
// Profiler shard merging
// ---------------------------------------------------------------------------

TEST(ParallelExplorer, ProfilerSamplesMergeAcrossWorkers) {
  Session::Config config = stress_config(4);
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  stress_workload(proxy);
  const ReplayReport report = session.end([](proxy::Rdl& subject) -> AssertionList {
    auto* base = dynamic_cast<subjects::SubjectBase*>(&subject);
    return {std::make_shared<core::ResourceProfiler>(base ? &base->network() : nullptr)};
  });

  ASSERT_EQ(session.worker_assertions().size(), 4u);
  const auto merged = core::collect_profiles(session.worker_assertions());
  EXPECT_EQ(merged.size(), report.explored);
  const auto summary = core::summarize_profiles(merged);
  EXPECT_EQ(summary.interleavings, report.explored);
  EXPECT_EQ(summary.total_ops, report.explored * 11);  // 11 events per interleaving
  EXPECT_GT(summary.max_state_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Config surface
// ---------------------------------------------------------------------------

TEST(ParallelExplorer, ParallelEndRequiresSubjectFactory) {
  Session::Config config = stress_config(4);
  config.subject_factory = nullptr;
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  stress_workload(proxy);
  EXPECT_THROW((void)session.end(transmit_assertions()), std::invalid_argument);
}

TEST(ParallelExplorer, SharedAssertionListRejectedWhenParallel) {
  Session::Config config = stress_config(4);
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  stress_workload(proxy);
  EXPECT_THROW((void)session.end(AssertionList{}), std::invalid_argument);
}

TEST(ParallelExplorer, StartOverloadRegistersTheFactory) {
  Session::Config config = stress_config(4);
  config.subject_factory = nullptr;
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start([] { return std::make_unique<subjects::TownApp>(2); });
  stress_workload(proxy);
  const ReplayReport report = session.end(transmit_assertions());
  EXPECT_GT(report.explored, 0u);
}

// ---------------------------------------------------------------------------
// The determinism contract across the one loop's consumers
// ---------------------------------------------------------------------------

// Any schedule that runs the final unit (leader e10) first "violates": the
// lex-last 120 of the 720 interleavings.
core::AssertionFactory planted_tail_block() {
  return [](proxy::Rdl&) -> AssertionList {
    return {core::custom("planted-tail-block", [](const core::TestContext& ctx) {
      if (!ctx.interleaving.order.empty() && ctx.interleaving.order.front() == 10) {
        return util::Status::fail("planted: last unit scheduled first");
      }
      return util::Status::ok();
    })};
  };
}

/// One run's report. `borrowed` replays through end(AssertionList) on the
/// session's own fixture. Every run here is crash-free, so a sandboxed one
/// must leave the sandbox counters at zero. `corpus_hits`, when set,
/// receives the run's corpus hit count.
ReplayReport parity_report(Session::Config config, bool borrowed,
                           uint64_t* corpus_hits = nullptr) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  Session session(proxy, std::move(config));
  session.start();
  stress_workload(proxy);
  const ReplayReport report = borrowed ? session.end(planted_tail_block()(town))
                                       : session.end(planted_tail_block());
  EXPECT_FALSE(report.sandbox.any());
  if (corpus_hits != nullptr) *corpus_hits = session.corpus_stats().hits;
  return report;
}

core::RunVerdict parity_verdict(Session::Config config, bool borrowed) {
  return parity_report(std::move(config), borrowed).verdict();
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Keep the journal's header and its first `records` records.
void cut_journal(const std::filesystem::path& path, size_t records) {
  std::ifstream in(path);
  std::string kept;
  std::string line;
  for (size_t i = 0; i <= records && std::getline(in, line); ++i) kept += line + "\n";
  in.close();
  std::ofstream(path, std::ios::trunc) << kept;
}

/// The journal and corpus cells of the contract: journal `config`'s run,
/// resume it from the journal cut after 0, 1 and half its records, and rerun
/// it warm from the corpus the first run filled. Each run must reach
/// `reference`, serve the kept records from the journal and, warm, every
/// pair from the corpus. A resume whose static pruners changed since the
/// journal was written must reach the changed run's own verdict.
void expect_resumed_and_warm_runs_agree(Session::Config config,
                                        const core::RunVerdict& reference,
                                        const std::string& cell) {
  const auto dir = std::filesystem::temp_directory_path() / "erpi-parity-persist";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto journal = dir / "run.jsonl";
  config.resume_journal = journal.string();
  config.corpus_path = (dir / "corpus").string();

  const ReplayReport cold = parity_report(config, false);
  EXPECT_EQ(cold.verdict(), reference) << cell << " journaled";
  EXPECT_EQ(cold.pairs_skipped_from_journal, 0u) << cell;
  const auto full = dir / "full.jsonl";
  std::filesystem::copy_file(journal, full);
  Session::Config resumed_config = config;
  resumed_config.corpus_path.clear();
  for (const size_t kept : {size_t{0}, size_t{1}, static_cast<size_t>(cold.explored / 2)}) {
    std::filesystem::copy_file(full, journal, std::filesystem::copy_options::overwrite_existing);
    cut_journal(journal, kept);
    const ReplayReport resumed = parity_report(resumed_config, false);
    EXPECT_EQ(resumed.verdict(), reference) << cell << " resumed after " << kept;
    EXPECT_EQ(resumed.pairs_skipped_from_journal, kept) << cell;
  }

  // The journal fingerprint does not pin the static pruners, so this resume
  // regenerates another stream: journaled records are served only while
  // their keys match its pulls. Before its first new record it rewrites the
  // journal to the records it served, so the journal it leaves is the one an
  // uninterrupted run of the changed stream writes, and resuming again
  // serves every pair.
  Session::Config pruned = resumed_config;
  pruned.independence = {{{6, 9}, {10}}};
  Session::Config uninterrupted = pruned;
  const auto uninterrupted_journal = dir / "pruned.jsonl";
  uninterrupted.resume_journal = uninterrupted_journal.string();
  std::vector<std::string> pruned_keys;
  uninterrupted.replay.on_outcome = [&](uint64_t, const core::Interleaving& il,
                                        const core::InterleavingOutcome&) {
    pruned_keys.push_back(il.key());
  };
  const ReplayReport pruned_reference = parity_report(uninterrupted, false);
  const auto journaled = core::RunJournal::load(full.string());
  ASSERT_TRUE(journaled.has_value()) << cell;
  size_t common = 0;
  while (common < pruned_keys.size() && common < journaled->records.size() &&
         pruned_keys[common] == journaled->records[common].key) {
    ++common;
  }
  EXPECT_LT(common, journaled->records.size()) << cell << " streams must diverge";
  std::filesystem::copy_file(full, journal, std::filesystem::copy_options::overwrite_existing);
  for (const char* pass : {"resumed", "resumed again"}) {
    const ReplayReport diverged = parity_report(pruned, false);
    EXPECT_EQ(diverged.verdict(), pruned_reference.verdict()) << cell << " pruned " << pass;
    const uint64_t skipped = std::string(pass) == "resumed" ? common : pruned_reference.explored;
    EXPECT_EQ(diverged.pairs_skipped_from_journal, skipped) << cell << " pruned " << pass;
    EXPECT_EQ(file_bytes(journal), file_bytes(uninterrupted_journal)) << cell << " pruned " << pass;
  }

  Session::Config warm_config = config;
  warm_config.resume_journal.clear();
  uint64_t hits = 0;
  const ReplayReport warm = parity_report(warm_config, false, &hits);
  EXPECT_EQ(warm.verdict(), reference) << cell << " warm";
  EXPECT_EQ(hits, warm.explored) << cell << " warm";
  std::filesystem::remove_all(dir);
}

TEST(ExplorationParity, ReportDependsOnlyOnWorkloadAndConfig) {
  // Crashes mid-sweep (explored log plus the pruning pipeline's dedup
  // cache), a few dozen interleavings into the planted block in lex order.
  constexpr uint64_t kCrashBudget = 90'000;
  for (const core::SearchStrategy strategy :
       {core::SearchStrategy::LexOrder, core::SearchStrategy::RandomPath,
        core::SearchStrategy::ViolationFirst}) {
    for (const bool stop_on_violation : {false, true}) {
      for (const uint64_t budget : {UINT64_MAX, kCrashBudget}) {
        const auto config_for = [&](int parallelism) {
          Session::Config config = stress_config(parallelism);
          config.replay.stop_on_violation = stop_on_violation;
          config.replay.resource_budget_bytes = budget;
          config.search.strategy = strategy;
          config.search.seed = 99;
          if (strategy == core::SearchStrategy::ViolationFirst) {
            config.violation_priors = {core::Interleaving{{10, 9, 7, 8, 6, 3, 4, 5, 0, 1, 2}}};
          }
          return config;
        };
        const std::string cell = std::string(core::search_strategy_name(strategy)) +
                                 (stop_on_violation ? " stop" : " sweep") +
                                 (budget == UINT64_MAX ? "" : " budget");
        const core::RunVerdict reference = parity_verdict(config_for(1), /*borrowed=*/true);
        EXPECT_EQ(parity_verdict(config_for(1), false), reference) << cell << " p=1 factory";
        for (const int parallelism : {2, 4}) {
          EXPECT_EQ(parity_verdict(config_for(parallelism), false), reference)
              << cell << " p=" << parallelism;
        }
        if (strategy == core::SearchStrategy::LexOrder && budget == UINT64_MAX) {
          for (const int parallelism : {1, 2}) {
            Session::Config sandboxed = config_for(parallelism);
            sandboxed.isolation = core::Isolation::Process;
            EXPECT_EQ(parity_verdict(std::move(sandboxed), false), reference)
                << cell << " process p=" << parallelism;
          }
        }
        if (strategy == core::SearchStrategy::LexOrder) {
          expect_resumed_and_warm_runs_agree(config_for(2), reference, cell);
        }
        // The matrix exercises what it claims: every sweep finds the planted
        // block, and the budget cuts every full sweep short.
        EXPECT_TRUE(reference.reproduced) << cell;
        if (budget != UINT64_MAX && !stop_on_violation) {
          EXPECT_TRUE(reference.crashed) << cell;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BoundedQueue primitive
// ---------------------------------------------------------------------------

TEST(BoundedQueue, FifoAndDrainAfterClose) {
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.push(1), QueuePush::Pushed);
  EXPECT_EQ(queue.push(2), QueuePush::Pushed);
  queue.close();
  EXPECT_EQ(queue.push(3), QueuePush::Closed);  // closed: refused, item dropped
  EXPECT_EQ(queue.pop(), 1);                    // remaining items still drain
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseWhileFullWakesBlockedPushAsClosed) {
  // Regression: a push blocked on a full queue must observe a concurrent
  // close() as QueuePush::Closed — under the old bool return the drop was
  // indistinguishable from a successful push, so the dispatcher could
  // silently lose a batch on stop_on_violation shutdown.
  BoundedQueue<int> queue(1);
  ASSERT_EQ(queue.push(1), QueuePush::Pushed);  // queue now full
  std::atomic<bool> blocked_result_ready{false};
  QueuePush blocked_result = QueuePush::Pushed;
  std::thread pusher([&] {
    blocked_result = queue.push(2);  // blocks: capacity 1, nothing popped
    blocked_result_ready.store(true);
  });
  // Give the pusher time to block, then close while the queue is still full.
  while (queue.size() != 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(blocked_result_ready.load());
  queue.close();
  pusher.join();
  EXPECT_EQ(blocked_result, QueuePush::Closed);
  EXPECT_EQ(queue.pop(), 1);  // the accepted item drains; the dropped one doesn't
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, BlockingProducersAndConsumersSeeEveryItem) {
  BoundedQueue<int> queue(2);  // tiny bound forces producer blocking
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto item = queue.pop()) {
        sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(queue.push(p * kPerProducer + i), QueuePush::Pushed);
      }
    });
  }
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();  // producers
  queue.close();
  for (size_t t = 0; t < 3; ++t) threads[t].join();  // consumers
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

}  // namespace
}  // namespace erpi::sched
