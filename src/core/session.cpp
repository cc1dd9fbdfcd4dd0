#include "core/session.hpp"

#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "corpus/footprints.hpp"
#include "sched/explorer.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace erpi::core {

const char* exploration_mode_name(ExplorationMode mode) noexcept {
  switch (mode) {
    case ExplorationMode::ErPi: return "er-pi";
    case ExplorationMode::Dfs: return "dfs";
    case ExplorationMode::Rand: return "rand";
  }
  return "?";
}

const char* corpus_mode_name(CorpusMode mode) noexcept {
  switch (mode) {
    case CorpusMode::Reuse: return "reuse";
    case CorpusMode::Diff: return "diff";
  }
  return "?";
}

uint64_t run_fingerprint(const Session& session, const ReplayOptions& replay,
                         FingerprintPurpose purpose,
                         const std::function<void(util::Fnv1aHasher&)>& hash_catalog) {
  util::Fnv1aHasher hasher;
  const auto& config = session.config();
  hasher.bytes(exploration_mode_name(config.mode));
  hasher.u64(static_cast<uint64_t>(config.generation_order));
  hasher.u64(config.random_seed);
  hasher.u64(config.dfs_branch_seed);
  hasher.u64(replay.max_interleavings);
  hasher.u64(replay.stop_on_violation ? 1 : 0);
  hasher.u64(replay.threaded ? 1 : 0);
  for (const auto& event : session.events()) hasher.bytes(event.to_json().dump());
  for (const auto& unit : session.units()) {
    for (const int id : unit.events) hasher.i64(id);
    hasher.bytes("/");
  }
  if (hash_catalog) {
    hash_catalog(hasher);
  } else {
    hasher.bytes("plain-run");
  }
  // Dynamic pruning reshapes which interleavings are generated at all, so
  // both namespaces hash its options; the journal additionally pins the
  // learned relation itself, so a resumed run regenerates the journaled
  // stream rather than serving only its prefix up to the first new cut.
  hasher.u64(config.dynamic_pruning.enabled ? 1 : 0);
  hasher.u64(config.dynamic_pruning.paranoid ? 1 : 0);
  hasher.u64(config.dynamic_pruning.footprint_schema);
  if (purpose == FingerprintPurpose::Journal && session.dpor_learner() != nullptr) {
    hasher.u64(session.dpor_learner()->relation_digest());
  }
  return hasher.digest();
}

Session::Session(proxy::RdlProxy& proxy, Config config)
    : proxy_(&proxy),
      config_(std::move(config)),
      store_(db_),
      watcher_(config_.constraints_dir) {}

void Session::start() {
  captured_ = false;
  dpor_learner_.reset();  // footprints are per-capture: new events, new ids
  proxy_->start_capture();
}

void Session::start(SubjectFactory subject_factory) {
  config_.subject_factory = std::move(subject_factory);
  start();
}

PruningPipeline Session::build_pipeline() const {
  PruningPipeline pipeline;
  if (config_.replica_specific) {
    pipeline.add(
        std::make_unique<ReplicaSpecificPruner>(events_, *config_.replica_specific));
  }
  for (const auto& spec : config_.independence) {
    pipeline.add(std::make_unique<IndependencePruner>(spec));
  }
  for (const auto& spec : config_.failed_ops) {
    pipeline.add(std::make_unique<FailedOpsPruner>(spec));
  }
  if (dpor_learner_ != nullptr) {
    pipeline.set_dynamic_oracle_factory(
        [learner = dpor_learner_](const OracleDomain& domain) {
          return make_dpor_oracle(domain, learner);
        });
  }
  return pipeline;
}

void Session::check_generation_tree() const {
  // The dynamic oracle cuts subtrees of a generation tree. Shuffled and Rand
  // sample orders without one, so a DPOR run there would prime, record and
  // salt fingerprints for cuts that never happen.
  if (!config_.dynamic_pruning.enabled) return;
  const char* treeless =
      config_.mode == ExplorationMode::Rand ? "mode Rand"
      : config_.mode == ExplorationMode::ErPi &&
              config_.generation_order != GroupedEnumerator::Order::Lexicographic
          ? "mode ErPi with Shuffled order"
          : nullptr;
  if (treeless != nullptr) {
    throw std::invalid_argument(std::string("dynamic pruning needs a generation tree: ") +
                                treeless +
                                " has none (use mode Dfs, or ErPi with Lexicographic order)");
  }
}

std::unique_ptr<Enumerator> Session::make_enumerator() {
  check_generation_tree();
  prepare_dynamic_pruning();
  switch (config_.mode) {
    case ExplorationMode::ErPi: {
      auto inner = std::make_unique<GroupedEnumerator>(units_, config_.generation_order,
                                                       config_.random_seed);
      return std::make_unique<PrunedEnumerator>(std::move(inner), build_pipeline());
    }
    case ExplorationMode::Dfs: {
      std::vector<int> ids(events_.size());
      std::iota(ids.begin(), ids.end(), 0);
      auto dfs = std::make_unique<DfsEnumerator>(std::move(ids), config_.dfs_branch_seed);
      if (dpor_learner_ == nullptr) return dfs;
      // Dynamic pruning only: DFS has no static pruners, so the wrapping
      // pipeline carries just the learned-independence oracle factory.
      PruningPipeline pipeline;
      pipeline.set_dynamic_oracle_factory(
          [learner = dpor_learner_](const OracleDomain& domain) {
            return make_dpor_oracle(domain, learner);
          });
      return std::make_unique<PrunedEnumerator>(std::move(dfs), std::move(pipeline));
    }
    case ExplorationMode::Rand: {
      std::vector<int> ids(events_.size());
      std::iota(ids.begin(), ids.end(), 0);
      return std::make_unique<RandomEnumerator>(std::move(ids), config_.random_seed);
    }
  }
  return nullptr;
}

void Session::finish_capture() {
  if (captured_) return;
  captured_ = true;
  events_ = proxy_->end_capture();
  worker_assertions_.clear();

  // State 1-2: extract events, apply grouping (plus any groups already
  // waiting in the constraints directory) and generate interleavings.
  SpecGroups groups = config_.spec_groups;
  Constraints initial = watcher_.poll();
  groups.insert(groups.end(), initial.groups.begin(), initial.groups.end());
  config_.independence.insert(config_.independence.end(), initial.independence.begin(),
                              initial.independence.end());
  config_.failed_ops.insert(config_.failed_ops.end(), initial.failed_ops.begin(),
                            initial.failed_ops.end());
  units_ = build_units(events_, groups);

  if (config_.persist) {
    store_.persist_events(events_);
    store_.persist_units(units_);
  }
}

void Session::prepare_dynamic_pruning(
    const std::function<void(IndependenceLearner&)>& seed) {
  if (!config_.dynamic_pruning.enabled || dpor_learner_ != nullptr) return;
  finish_capture();
  dpor_learner_ = std::make_shared<IndependenceLearner>(config_.dynamic_pruning);
  dpor_learner_->set_events(events_);
  if (seed) seed(*dpor_learner_);

  // Priming replay: one deterministic capture-order execution on the live
  // fixture, so footprints exist before the relation freezes at the first
  // enumerator build and even a cold run can cut non-sync pairs. The fixture
  // is reset afterwards, and replay engines reset again before every
  // interleaving — priming leaves no trace in reports.
  FootprintRecorder recorder([this](int event_id, Footprint&& fp) {
    dpor_learner_->observe("none", event_id, std::move(fp));
  });
  proxy::Rdl& subject = proxy_->target();
  subject.reset();
  subject.set_footprint_recorder(&recorder);
  for (const proxy::Event& event : events_) {
    recorder.begin_event(event.id);
    (void)proxy_->invoke(event);
    recorder.end_event();
  }
  subject.set_footprint_recorder(nullptr);
  subject.reset();
  dpor_learner_->note_training_run();

  if (config_.dynamic_pruning.paranoid && config_.subject_factory) {
    verify_candidate_pairs(*dpor_learner_, events_, config_.subject_factory);
  }
}

ReplayReport Session::end(const AssertionList& assertions) { return drive({}, {}, &assertions); }

ReplayReport Session::end_with_factory(const AssertionFactory& assertion_factory) {
  return drive({}, assertion_factory, nullptr);
}

void Session::check_run(bool fault_sweep, bool borrowed) const {
  const bool sandboxed = config_.isolation == Isolation::Process;
  if (borrowed) {
    if (config_.parallelism > 1) {
      throw std::invalid_argument(
          "parallelism > 1 needs end(AssertionFactory) so each worker owns its "
          "assertion state");
    }
    if (sandboxed) {
      throw std::invalid_argument(
          "process isolation needs end(AssertionFactory) and a subject factory: "
          "the sandbox children rebuild the fixture and its assertions from the "
          "factories");
    }
  } else if (!config_.subject_factory && (fault_sweep || config_.parallelism > 1 || sandboxed)) {
    throw std::invalid_argument(
        std::string(fault_sweep ? "fault-schedule" : "parallel") +
        " exploration requires a subject factory "
        "(Session::start(factory) or Config::subject_factory)");
  }
  if ((borrowed || !config_.subject_factory) && config_.replay.watchdog_timeout_ms > 0) {
    throw std::invalid_argument(
        "the replay watchdog needs a subject factory: a timed-out replay abandons "
        "its fixture, and a borrowed fixture cannot be rebuilt");
  }
  check_generation_tree();
  if (config_.search.strategy != SearchStrategy::LexOrder && !config_.resume_journal.empty()) {
    throw std::invalid_argument(
        "guided search cannot resume from a journal: journaled records are "
        "served in the enumerator's stream order, which a searcher reorders");
  }
  if (fault_sweep && (config_.persist || !config_.constraints_dir.empty())) {
    throw std::invalid_argument(
        "fault sweeps take neither persist nor constraints_dir: persisting every "
        "pair would multiply the store by the catalog size, and a polled "
        "constraint would reach only the live plan's pipeline");
  }
}

ReplayReport Session::drive(const FaultSweep& sweep, const AssertionFactory& assertion_factory,
                            const AssertionList* borrowed) {
  const bool fault_sweep = static_cast<bool>(sweep.segments);
  check_run(fault_sweep, borrowed != nullptr);
  // end(AssertionFactory) without a subject factory replays on the session's
  // own fixture, with the factory's assertions for it.
  AssertionList own_assertions;
  if (borrowed == nullptr && !config_.subject_factory) {
    if (assertion_factory) own_assertions = assertion_factory(proxy_->target());
    borrowed = &own_assertions;
  }
  finish_capture();
  const std::vector<Segment> segments = fault_sweep ? sweep.segments() : std::vector<Segment>(1);
  util::Stopwatch watch;
  worker_assertions_.clear();

  // ---- dynamic pruning: warm-start and prime before fingerprinting --------
  // The journal fingerprint pins the learned relation, so the learner must
  // reach its frozen-input state — footprint bank seed plus the priming
  // replay — before fingerprints are computed.
  std::optional<corpus::FootprintBank> footprint_bank;
  uint64_t footprint_fp = 0;
  if (config_.dynamic_pruning.enabled && !config_.corpus_path.empty()) {
    footprint_bank.emplace(corpus::FootprintBank::load(config_.corpus_path));
    footprint_fp = dpor_context_fingerprint(events_, config_.dynamic_pruning.footprint_schema);
  }
  prepare_dynamic_pruning([&](IndependenceLearner& learner) {  // no-op unless enabled
    if (footprint_bank) footprint_bank->seed_learner(learner, footprint_fp);
  });

  // ---- crash-safe journal: resume what a killed run already explored ------
  // The loaded records in file order, and each plan's: an ascending 1..m
  // prefix of its sweep (indices into `prefix`), because the committer
  // journals in commit order. `served[plan]` counts the records served so
  // far; `unserved` those still waiting, in every plan.
  std::vector<RunJournal::Record> prefix;
  std::map<std::string, std::vector<size_t>> journaled;
  std::map<std::string, size_t> served;
  size_t unserved = 0;
  uint64_t journal_fingerprint = 0;
  std::optional<RunJournal> journal;
  if (!config_.resume_journal.empty()) {
    journal_fingerprint =
        run_fingerprint(*this, config_.replay, FingerprintPurpose::Journal, sweep.hash_catalog);
    if (auto loaded = RunJournal::load(config_.resume_journal)) {
      if (loaded->fingerprint == journal_fingerprint) {
        prefix = std::move(loaded->records);
      } else {
        ERPI_INFO("session") << "resume journal fingerprint mismatch, starting fresh: "
                             << config_.resume_journal;
      }
    }
    // The fresh journal starts with the resumed prefix, so a second kill
    // resumes from at least this far.
    journal = RunJournal::create(config_.resume_journal, journal_fingerprint, prefix,
                                 journal_stream_factory_);
    for (size_t i = 0; i < prefix.size(); ++i) journaled[prefix[i].plan].push_back(i);
    unserved = prefix.size();
  }
  // Before the first new record, a journal some of whose records will never
  // be served (the regenerated stream left the journaled one) is rewritten
  // once to the records served so far, and the rest are dropped: the new
  // records then continue a journal an uninterrupted run would have written,
  // and a later resume serves all of them.
  const auto prune_unserved = [&] {
    std::vector<RunJournal::Record> kept;
    for (const auto& record : prefix) {
      if (record.interleaving <= served[record.plan]) kept.push_back(record);
    }
    journal = RunJournal::create(config_.resume_journal, journal_fingerprint, kept,
                                 journal_stream_factory_);
    for (auto& [plan, records] : journaled) records.resize(served[plan]);
    unserved = 0;
  };

  // ---- cross-run outcome corpus (DESIGN.md §11) ---------------------------
  corpus_stats_ = {};
  outcome_diff_ = {};
  std::optional<corpus::Store> corpus;
  uint64_t corpus_fp = 0;
  if (!config_.corpus_path.empty()) {
    corpus.emplace(corpus::Store::open(config_.corpus_path, {}, corpus_stream_factory_));
    corpus->begin_run();
    corpus_fp =
        run_fingerprint(*this, config_.replay, FingerprintPurpose::Corpus, sweep.hash_catalog);
  }
  const bool reuse = corpus && config_.corpus_mode == CorpusMode::Reuse;

  // ---- ranked-search inputs, shared across every segment ------------------
  // ViolationFirst priors: explicit config priors plus every distinct
  // violating interleaving the corpus has recorded under ANY fingerprint or
  // plan — a violation's neighborhood transfers across configurations even
  // when outcome reuse must not (the violation/4 relation's corpus-side view).
  std::shared_ptr<const std::vector<Interleaving>> priors;
  std::shared_ptr<sched::CoverageState> coverage;
  if (config_.search.strategy != SearchStrategy::LexOrder) {
    auto combined = std::make_shared<std::vector<Interleaving>>(config_.violation_priors);
    if (corpus) {
      std::unordered_set<std::string> seen;
      for (const auto& prior : *combined) seen.insert(prior.key());
      corpus->for_each_sorted([&](const corpus::Record& record) {
        if (record.outcome.violations.empty()) return;
        if (!seen.insert(record.il).second) return;
        combined->push_back(Interleaving::from_key(record.il));
      });
    }
    if (!combined->empty()) priors = std::move(combined);
    // One CoverageState across every segment: later plans' searchers rank
    // still-uncovered fault-plan × operation pairs first.
    coverage = std::make_shared<sched::CoverageState>();
  }

  // Offer one committed outcome to the corpus — live replays, corpus hits and
  // journaled pairs all pass through here (on the control threads, under the
  // explorer's enumerator mutex while a segment runs). Reuse mode proves new
  // classes; diff mode compares against the stored outcome and persists
  // last-wins so the corpus tracks the current library behavior.
  const auto offer_to_corpus = [&](const std::string& plan_key, const std::string& il_key,
                                   const InterleavingOutcome& outcome) {
    const corpus::Record* prior = corpus->lookup(corpus_fp, plan_key, il_key);
    if (reuse) {
      if (prior != nullptr) return;  // already proven (a cache hit lands here)
      corpus->append({corpus_fp, plan_key, il_key, outcome});
      ++corpus_stats_.appended;
      return;
    }
    if (prior == nullptr) {
      ++outcome_diff_.missing;
      corpus->append({corpus_fp, plan_key, il_key, outcome});
      return;
    }
    ++outcome_diff_.compared;
    if (prior->outcome == outcome) {
      ++outcome_diff_.unchanged;  // the lookup above refreshed its recency
      return;
    }
    outcome_diff_.changed.push_back({plan_key, il_key, prior->outcome, outcome});
    corpus->append({corpus_fp, plan_key, il_key, outcome});
  };

  // ---- the segments, in order ---------------------------------------------
  ReplayReport report;
  // One budget spans every segment, as if the sweep were one stream.
  BudgetAccount local_budget(config_.replay.resource_budget_bytes);
  BudgetAccount* budget = config_.replay.budget != nullptr ? config_.replay.budget : &local_budget;
  uint64_t skipped = 0;
  bool all_exhausted = true;
  bool any_hit_cap = false;
  for (const Segment& segment : segments) {
    if (config_.replay.stop_on_violation && report.reproduced) break;
    // Cooperative cancel between segments (the explorer checks the same
    // token between interleavings).
    if (config_.replay.cancel && config_.replay.cancel->load(std::memory_order_relaxed)) {
      report.cancelled = true;
      break;
    }
    if (!segment.plan.empty()) ++report.plans_explored;
    const std::string plan_key = segment.plan.empty() ? "none" : segment.plan;
    // Ranked runs reject a journal, so pull k of this segment's regenerated
    // stream meets journaled record k. It is served only while their keys
    // agree: the fingerprint does not pin the static pruners or constraint
    // files, and a stream that left the journaled one replays from the first
    // pair that differs.
    std::vector<size_t>& resumed = journaled[plan_key];
    size_t& served_here = served[plan_key];

    std::unique_ptr<Enumerator> enumerator = make_enumerator();
    auto* pruned = dynamic_cast<PrunedEnumerator*>(enumerator.get());
    // Learned cuts model the unfaulted ("none") context only, so a faulted
    // segment's replays train its own context instead (DESIGN.md §15.3).
    if (pruned != nullptr && segment.hooks.footprint_context != "none") {
      pruned->set_dynamic_pruning(false);
    }

    sched::ExplorerOptions options;
    options.parallelism = config_.parallelism;
    options.isolation = config_.isolation;
    options.replay = config_.replay;
    options.replay.budget = budget;
    options.hooks = segment.hooks;
    // Keep observing during enumeration: late widenings are telemetry for
    // this run and training data for the next one (corpus export).
    options.hooks.footprint_learner = dpor_learner_;
    // The commit hook, after the explorer folded the pair into the report: a
    // journaled pair is already on disk; every pair is offered to the
    // corpus, persisted, polled for runtime constraints and handed to the
    // caller, in that order.
    options.replay.on_outcome = [&, pruned, base = report.explored](
                                    uint64_t index, const Interleaving& il,
                                    const InterleavingOutcome& outcome) {
      const uint64_t ordinal = index - base;
      // Pull `ordinal` came before its commit, so `served_here` already
      // decided it.
      const bool from_journal = ordinal <= served_here;
      if (from_journal) ++skipped;
      if (journal || corpus) {
        std::string il_key;
        il.append_key(il_key);
        if (journal && !from_journal) {
          if (unserved > 0) prune_unserved();
          journal->append({plan_key, ordinal, il_key, outcome});
        }
        if (corpus) offer_to_corpus(plan_key, il_key, outcome);
      }
      if (config_.persist) store_.persist(il);
      if (pruned != nullptr && !config_.constraints_dir.empty()) {
        Constraints fresh = watcher_.poll();
        if (!fresh.empty()) {
          ERPI_INFO("session") << "applying runtime constraints after interleaving " << index;
          for (const auto& spec : fresh.independence) {
            pruned->pipeline().add(std::make_unique<IndependencePruner>(spec));
          }
          for (const auto& spec : fresh.failed_ops) {
            pruned->pipeline().add(std::make_unique<FailedOpsPruner>(spec));
          }
        }
      }
      if (config_.replay.on_outcome) config_.replay.on_outcome(index, il, outcome);
    };
    if (pruned != nullptr) {
      options.extra_cache_bytes = [pruned] { return pruned->pipeline().cache_bytes(); };
    } else if (auto* random = dynamic_cast<RandomEnumerator*>(enumerator.get())) {
      // Rand's dedup cache is its dominant memory cost (Fig. 10).
      options.extra_cache_bytes = [random] { return random->cache_bytes(); };
    }
    options.subject_factory = config_.subject_factory;
    options.assertion_factory = assertion_factory;
    options.search = config_.search;
    options.violation_priors = priors;
    options.coverage = coverage;
    options.plan = segment.plan;
    options.pull_after_commit = pruned != nullptr && !config_.constraints_dir.empty();
    if (!resumed.empty() || reuse) {
      // The source resolves journaled pairs first — a journaled crash is
      // quarantined again without re-executing it — then already-proven
      // classes straight from the corpus; misses replay normally and are
      // appended via offer_to_corpus.
      options.outcome_cache = [&](const Interleaving& il) -> std::optional<InterleavingOutcome> {
        const bool journal_left = served_here < resumed.size();
        if (!journal_left && !reuse) return std::nullopt;
        std::string il_key;
        il.append_key(il_key);
        if (journal_left) {
          const RunJournal::Record& record = prefix[resumed[served_here]];
          if (record.key == il_key) {
            ++served_here;
            --unserved;
            return record.outcome;
          }
          ERPI_INFO("session") << "journaled stream of plan " << plan_key << " differs at pair "
                               << served_here + 1 << ", replaying from there";
          resumed.resize(served_here);
        }
        if (!reuse) return std::nullopt;
        if (const corpus::Record* record = corpus->lookup(corpus_fp, plan_key, il_key)) {
          ++corpus_stats_.hits;
          return record->outcome;
        }
        ++corpus_stats_.misses;
        return std::nullopt;
      };
    }

    sched::ParallelExplorer explorer(std::move(options));
    report = borrowed != nullptr
                 ? explorer.run(*enumerator, events_, *proxy_, *borrowed, std::move(report))
                 : explorer.run(*enumerator, events_, std::move(report));
    worker_assertions_.insert(worker_assertions_.end(), explorer.worker_assertions().begin(),
                              explorer.worker_assertions().end());
    if (pruned != nullptr) last_stats_ = pruned->pipeline().stats();
    all_exhausted = all_exhausted && report.exhausted;
    any_hit_cap = any_hit_cap || report.hit_cap;
    if (report.crashed || report.cancelled) break;
  }

  // Fold this run's segments into the sorted index when they have piled up
  // (persisting recency refreshes along the way); cheap runs skip the rewrite.
  if (corpus) corpus->maybe_compact();
  // Persist what this run learned about event footprints so the next run
  // starts warm (and the kSyncTrustRuns gate can open).
  if (footprint_bank && dpor_learner_ != nullptr &&
      footprint_bank->absorb(*dpor_learner_, footprint_fp) &&
      !footprint_bank->save(config_.corpus_path)) {
    report.corpus_degraded = true;
  }
  // Mid-run write failures degrade instead of throwing: the run completed,
  // the flags tell the caller that resume / reuse coverage is partial.
  if (journal && journal->degraded()) report.journal_degraded = true;
  if (corpus && corpus->degraded()) report.corpus_degraded = true;

  // Terminal flags: the stream ran dry or hit its cap only if no segment
  // stopped at a violation, crashed or was cancelled first.
  const bool ran_out = !(config_.replay.stop_on_violation && report.reproduced) &&
                       !report.crashed && !report.cancelled;
  report.exhausted = ran_out && all_exhausted;
  report.hit_cap = ran_out && any_hit_cap;
  report.pairs_skipped_from_journal = skipped;
  report.elapsed_seconds = watch.elapsed_seconds();
  return report;
}

Session::PruningReport Session::pruning_report() const {
  PruningReport out;
  out.event_count = events_.size();
  out.unit_count = units_.size();
  out.event_universe = factorial_saturated(events_.size());
  out.unit_universe = factorial_saturated(units_.size());
  out.pipeline = last_stats_;
  return out;
}

}  // namespace erpi::core
