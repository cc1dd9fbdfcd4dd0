// The ER-pi developer-facing API (paper §4, §5.2): the higher-order
// Start()/End() pair that brackets the application-logic segment under test.
//
//   erpi::core::Session session(proxy, config);
//   session.start();
//   ... application workload calling the RDL through `proxy` ...
//   auto report = session.end({assertion, ...});
//
// end() runs the full workflow of Procedure "Workflow": extract the captured
// events, build units (Event Grouping + spec groups), generate interleavings
// in the configured exploration mode, prune (Replica-Specific up front;
// Event-Independence / Failed-Ops from config and from runtime constraint
// files), persist to the Datalog store, replay every surviving interleaving,
// and evaluate the test assertions after each one.
//
// One run driver serves end() and faults::FaultExplorer::run, so every
// Config field means the same in both. A run is a list of segments, each one
// sweep of the interleaving stream through sched::ParallelExplorer, the one
// exploration loop: end() is one untagged segment, a fault sweep one tagged
// segment per catalog plan. end(AssertionList) replays inline on the
// captured proxy's own fixture, with one worker. For parallel exploration,
// set config.parallelism > 1, hand start() a replica-set factory that clones
// the subject fixture, and call the end(AssertionFactory) overload so every
// worker gets its own fixture and assertion state:
//
//   Session session(proxy, config);              // config.parallelism = 8
//   session.start([] { return std::make_unique<subjects::TownApp>(2); });
//   ... workload ...
//   auto report = session.end([](proxy::Rdl&) -> AssertionList {
//     return {query_result_equals(9, expected)};
//   });
//
// With a factory, workers are built from it at every parallelism, 1
// included; the report is the same at any worker count (same explored
// count, same first_violation_index, same persisted log).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "core/constraints.hpp"
#include "core/dpor.hpp"
#include "core/persist.hpp"
#include "core/pruning.hpp"
#include "core/replay.hpp"
#include "corpus/diff.hpp"
#include "corpus/store.hpp"
#include "util/hash.hpp"

namespace erpi::core {

/// Exploration modes of the evaluation (§6.3).
enum class ExplorationMode { ErPi, Dfs, Rand };

const char* exploration_mode_name(ExplorationMode mode) noexcept;

/// What a cross-run outcome corpus (Config::corpus_path) is used for.
///   Reuse — skip replaying (interleaving, plan) classes already proven
///           under a compatible fingerprint; the merged report stays
///           byte-identical to an uncached run.
///   Diff  — replay everything and compare each live outcome against the
///           stored record, surfacing regressions as a corpus::OutcomeDiff.
enum class CorpusMode { Reuse, Diff };

const char* corpus_mode_name(CorpusMode mode) noexcept;

/// What a run-configuration fingerprint guards. Both hash everything that
/// shapes the (interleaving, plan) stream and its outcomes — events, units,
/// enumerator configuration, caps, the fault catalog — and neither hashes
/// parallelism or the watchdog deadline. They differ on the learned
/// dynamic-pruning relation:
///   Journal — includes its digest (a resumed run must regenerate the exact
///             stream to merge the journaled prefix soundly).
///   Corpus  — excludes it: a record proves one (plan, interleaving) outcome
///             whatever relation generated the stream that reached it.
enum class FingerprintPurpose { Journal, Corpus };

class Session;

/// The fingerprint namespacing journal resumes and corpus records (DESIGN.md
/// §11.2); `session` must have finished capture. `hash_catalog` hashes a
/// fault sweep's catalog; null hashes end()'s own namespace, apart from a
/// baseline-only sweep's, whose verdicts carry plan tags.
uint64_t run_fingerprint(const Session& session, const ReplayOptions& replay,
                         FingerprintPurpose purpose,
                         const std::function<void(util::Fnv1aHasher&)>& hash_catalog);

class Session {
 public:
  struct Config {
    ExplorationMode mode = ExplorationMode::ErPi;
    /// Enables Replica-Specific pruning for these options (ER-pi mode only).
    std::optional<ReplicaSpecificPruner::Options> replica_specific;
    /// Developer-specified event groups (Algorithm 1's spec_group input).
    SpecGroups spec_groups;
    /// Statically known independence / failed-ops constraints.
    std::vector<IndependencePruner::Spec> independence;
    std::vector<FailedOpsPruner::Spec> failed_ops;
    /// Directory polled for runtime constraint JSON files ("" = disabled).
    /// Fault sweeps reject it: a constraint would reach only the live plan's
    /// pipeline.
    std::string constraints_dir;
    ReplayOptions replay;
    uint64_t random_seed = 42;  // Rand-mode and shuffled-ER-pi seeding
    /// DFS child-order seed (0 = ascending event ids); see DfsEnumerator.
    uint64_t dfs_branch_seed = 0;
    /// ER-pi generation order (see GroupedEnumerator::Order). Shuffled is the
    /// experimental default; Lexicographic gives deterministic exhaustive
    /// sweeps for counting.
    GroupedEnumerator::Order generation_order = GroupedEnumerator::Order::Shuffled;
    /// Persist events/units and every replayed interleaving into Datalog.
    /// Fault sweeps reject it: persisting every pair would multiply the
    /// store by the catalog size.
    bool persist = false;
    /// Worker count for sched::ParallelExplorer. 1 (default) replays inline
    /// on the calling thread; > 1 requires a subject factory and the
    /// end(AssertionFactory) overload.
    int parallelism = 1;
    /// Clones the subject-system fixture for each worker (also settable
    /// through start(SubjectFactory)). end(AssertionFactory) builds its
    /// workers from it at every parallelism; the replay watchdog needs it.
    SubjectFactory subject_factory;
    /// Crash isolation (DESIGN.md §9): Isolation::Process replays every
    /// interleaving inside per-worker sandbox children behind fork servers,
    /// so a subject that segfaults/aborts, allocates without bound
    /// (replay.sandbox_memory_limit_bytes) or hangs
    /// (replay.watchdog_timeout_ms) is quarantined as a structured
    /// crashed/oom/timed_out outcome instead of killing the exploration.
    /// Requires a subject factory and the end(AssertionFactory) overload —
    /// the children rebuild the fixture from the factory — and works at any
    /// parallelism, 1 included. Crash-free runs report identically to
    /// Isolation::None.
    Isolation isolation = Isolation::None;
    /// Crash-safe resume journal path (DESIGN.md §8), for end() and fault
    /// sweeps alike. "" disables journaling. When the file already exists
    /// and its fingerprint matches the run configuration, the journaled
    /// (interleaving, plan) pairs are not replayed while the regenerated
    /// stream meets them in journal order: their recorded outcomes are
    /// committed in their place — so a SIGKILLed run picks up where it left
    /// off; otherwise a fresh journal is started at this path. A ranked
    /// search rejects it.
    std::string resume_journal;
    /// Directory of the cross-run persistent outcome corpus
    /// (corpus::Store; DESIGN.md §11). "" disables the corpus. Unlike
    /// resume_journal (one run's crash-safety), the corpus accumulates
    /// proven outcomes across runs and machines under per-configuration
    /// fingerprints.
    std::string corpus_path;
    /// How the corpus is consulted (ignored unless corpus_path is set).
    CorpusMode corpus_mode = CorpusMode::Reuse;
    /// Exploration order (DESIGN.md §12). The default LexOrder streams the
    /// enumerator; any other strategy drains the capped stream, ranks its
    /// subtrees and replays in the searcher's order, at any parallelism and
    /// through either end() overload.
    SearchOptions search;
    /// Previously violating interleavings fed to the ViolationFirst
    /// searcher as priors, in addition to the corpus's violation records
    /// (corpus::violation_priors loads them from a store directory).
    std::vector<Interleaving> violation_priors;
    /// Dynamic partial-order reduction (DESIGN.md §15): learn per-event state
    /// footprints from replays and cut commuting subtrees at generation time
    /// via a sleep-set oracle appended to the static chain. Default off — an
    /// A/B toggle; commuting-free workloads report the same verdict either
    /// way. Needs a generation tree: mode Dfs, or ErPi with Lexicographic
    /// order (runs and make_enumerator() reject the rest).
    DporOptions dynamic_pruning;
  };

  Session(proxy::RdlProxy& proxy, Config config);

  /// Begin capturing RDL calls.
  void start();

  /// Begin capturing and register the replica-set factory used to clone the
  /// subject fixture per worker (overrides Config::subject_factory).
  void start(SubjectFactory subject_factory);

  /// Stop capturing, generate + prune + replay, check assertions — inline,
  /// on the captured proxy's own fixture. Requires parallelism == 1 (shared
  /// assertion instances cannot be handed to concurrent workers),
  /// Isolation::None and no replay watchdog (the session's fixture cannot be
  /// abandoned to a hung replay and rebuilt). Every rejection throws
  /// std::invalid_argument before any side effect (DESIGN.md §6).
  ReplayReport end(const AssertionList& assertions);

  /// Parallelism-aware end(): builds every worker's fixture from the subject
  /// factory and one assertion set per worker via `assertion_factory`, at
  /// any parallelism. Without a subject factory (parallelism 1 only) it calls
  /// the factory once against the captured proxy's subject and behaves
  /// exactly like end(AssertionList).
  /// (Constrained template so end({}) still resolves to the list overload.)
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<AssertionList, F&, proxy::Rdl&>>>
  ReplayReport end(F&& assertion_factory) {
    return end_with_factory(AssertionFactory(std::forward<F>(assertion_factory)));
  }
  ReplayReport end_with_factory(const AssertionFactory& assertion_factory);

  /// One sweep of the captured interleaving stream within a run. end() is
  /// one default segment; a fault sweep is one segment per catalog plan.
  struct Segment {
    /// FaultPlan::key(), tagging every committed pair (core::PlanTag) and
    /// counted in plans_explored. "" for end()'s segment: its pairs carry no
    /// tag, and the journal and the corpus file them under the baseline key
    /// "none".
    std::string plan;
    /// Its engine hooks: the plan's fault runtime as observer, and the
    /// context its replays train the DPOR learner under (the driver adds the
    /// learner). Learned cuts apply only to a "none" context: they model
    /// unfaulted executions.
    ReplayHooks hooks;
  };

  /// A fault sweep, as faults::FaultExplorer hands it to the run driver.
  struct FaultSweep {
    /// Called once, after every up-front check and the capture and before
    /// any side effect: the segments, in plan order.
    std::function<std::vector<Segment>()> segments;
    /// Hashes the plan catalog into the journal and corpus fingerprints.
    std::function<void(util::Fnv1aHasher&)> hash_catalog;
  };

  /// Run `sweep`'s segments through the driver end() uses, with workers
  /// built from the subject factory (which a fault sweep requires). Besides
  /// end()'s checks it rejects `persist` and `constraints_dir`.
  ReplayReport explore_faults(const FaultSweep& sweep,
                              const AssertionFactory& assertion_factory) {
    return drive(sweep, assertion_factory, nullptr);
  }

  /// Stop capturing and run the grouping/persist half of end() — events and
  /// units become available, make_enumerator() works — without replaying
  /// anything. Idempotent until the next start().
  void finish_capture();

  const Config& config() const noexcept { return config_; }

  // ---- post-run introspection ----
  const EventSet& events() const noexcept { return events_; }
  const std::vector<EventUnit>& units() const noexcept { return units_; }

  /// After a run: each worker's assertion instances across its segments, for
  /// merging observer state (e.g. collect_profiles over ResourceProfiler
  /// samples). Empty under Isolation::Process, whose fixtures live in the
  /// sandbox children; workers abandoned to hung replays are not included.
  const std::vector<AssertionList>& worker_assertions() const noexcept {
    return worker_assertions_;
  }

  /// Corpus reuse accounting for the last run (zeroes when no corpus is
  /// configured). Kept out of the ReplayReport on purpose: a warm run's
  /// verdict stays identical to a cold run's.
  const corpus::ReuseStats& corpus_stats() const noexcept { return corpus_stats_; }

  /// Diff-mode result of the last run (empty in reuse mode / no corpus):
  /// every (interleaving, plan) class whose live outcome differs from the
  /// corpus record, plus compared/unchanged/missing totals.
  const corpus::OutcomeDiff& outcome_diff() const noexcept { return outcome_diff_; }

  /// Write-fault injection seams (tests only): substitute the stream the run
  /// journal / corpus store writes through, to drive the graceful
  /// ENOSPC/EIO degradation (report.journal_degraded / corpus_degraded).
  void set_journal_stream_factory(RunJournal::StreamFactory factory) {
    journal_stream_factory_ = std::move(factory);
  }
  void set_corpus_stream_factory(corpus::Store::StreamFactory factory) {
    corpus_stream_factory_ = std::move(factory);
  }

  struct PruningReport {
    uint64_t event_count = 0;
    uint64_t unit_count = 0;
    uint64_t event_universe = 0;  // event_count! (saturated)
    uint64_t unit_universe = 0;   // unit_count!  (saturated)
    PruningPipeline::Stats pipeline;
  };
  PruningReport pruning_report() const;

  /// The Datalog store (populated when config.persist is set).
  InterleavingStore& store() noexcept { return store_; }

  /// Build a fresh enumerator for the configured mode over the captured
  /// events — exposed so benchmarks and parity tests can drive exploration
  /// directly. Throws std::invalid_argument when dynamic pruning is enabled
  /// for an order with no generation tree (ErPi with Shuffled order, or
  /// Rand).
  std::unique_ptr<Enumerator> make_enumerator();

  /// Idempotent per capture; a no-op unless Config::dynamic_pruning.enabled.
  /// Creates the independence learner, runs `seed` (a warm start; a run with
  /// a corpus seeds it from the corpus::FootprintBank), trains the learner
  /// with one deterministic capture-order priming replay, and in paranoid
  /// mode verifies candidate pairs on fresh fixtures. make_enumerator() calls
  /// this automatically; a warm start must come before the relation freezes
  /// at the first enumerator build.
  void prepare_dynamic_pruning(
      const std::function<void(IndependenceLearner&)>& seed = {});

  /// The dynamic-pruning learner (null until prepare_dynamic_pruning() ran
  /// with dynamic pruning enabled). The run driver reads it for journal
  /// digests (IndependenceLearner::relation_digest) and corpus export.
  const std::shared_ptr<IndependenceLearner>& dpor_learner() const noexcept {
    return dpor_learner_;
  }

 private:
  /// The run driver: `sweep`'s segments, or end()'s one segment when the
  /// sweep is empty, on workers built from the factories — or inline on the
  /// session's fixture with `borrowed` assertions when that is non-null.
  ReplayReport drive(const FaultSweep& sweep, const AssertionFactory& assertion_factory,
                     const AssertionList* borrowed);
  /// Every rejection a run can raise, thrown before any side effect.
  void check_run(bool fault_sweep, bool borrowed) const;
  /// Dynamic pruning needs a generation tree to cut.
  void check_generation_tree() const;
  PruningPipeline build_pipeline() const;

  proxy::RdlProxy* proxy_;
  Config config_;
  EventSet events_;
  std::vector<EventUnit> units_;
  datalog::Database db_;
  InterleavingStore store_;
  ConstraintWatcher watcher_;
  std::shared_ptr<IndependenceLearner> dpor_learner_;
  PruningPipeline::Stats last_stats_;
  std::vector<AssertionList> worker_assertions_;
  corpus::ReuseStats corpus_stats_;
  corpus::OutcomeDiff outcome_diff_;
  RunJournal::StreamFactory journal_stream_factory_;
  corpus::Store::StreamFactory corpus_stream_factory_;
  bool captured_ = false;  // finish_capture() ran since the last start()
};

}  // namespace erpi::core
