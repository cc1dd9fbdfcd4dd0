// ParallelExplorer — the one exploration loop (paper §4.3's replay loop,
// sharded across cores the way stateless model checkers shard their search).
//
// One *source* hands out (ordinal, interleaving, cached outcome) items under
// a single protocol: the interleaving cap, the violation floor, the cancel
// token, the budget check before each pull and the charge after it, and the
// outcome cache. For LexOrder it pulls lazily from the enumerator; for
// a ranked searcher it drains that same pull once, splits the stream into
// subtrees, ranks them (DESIGN.md §12) and serves ordinals in rank order.
// Two consumers, chosen by the worker count:
//
//   * one worker — the calling thread pulls a window of items, replays it and
//     commits it in ordinal order, with no threads of its own. In process
//     (and under the watchdog) the window is one item. A sandboxed worker
//     pulls the pool's batch size (at most 32) and its runner replays the
//     window in one round trip (DESIGN.md §9); it stops committing where the
//     one-item loop would stop (a stop_on_violation violation, a cancel
//     token flipped by a commit) and discards the rest of the window. The
//     runner replays nothing past a violation that stops the run; past a
//     cancel it has already replayed the window, whose overrun the sandbox
//     counters include;
//   * N workers —
//
//       dispatcher thread ──batches──▶ BoundedQueue ──▶ N worker threads
//            │  pulls from the source under a mutex                 │
//            ▼                                                      ▼
//       control thread ◀──(ordinal, outcome)── results channel ◀────┘
//            commits outcomes in ascending ordinal order and delivers
//            on_outcome callbacks serialized, in order.
//
//     An in-process worker replays its batch one item at a time; a sandboxed
//     worker sends the whole batch to its runner as one window.
//
// Both commit through core::commit_outcome, in ordinal order, so the report
// is a pure function of (stream, SearchOptions): identical for every worker
// count and every thread schedule — including stop_on_violation runs, where
// the first committed violation is provably the lowest-ordinal one:
//
//   * workers that find a violation at ordinal v lower an atomic "violation
//     floor" (monotone min); workers early-cancel any ordinal > floor, but
//     every ordinal < floor is still replayed and reported, so a lower
//     violation can never be lost;
//   * commits ascend, so the first committed violation is the stream's
//     first violation; committing stops there and explored == that ordinal.
//
// Which fixture a run replays on: run(enumerator, events) builds every
// worker from the subject factory (or, under Isolation::Process, a sandbox
// fork server per worker); the overload taking a proxy and an assertion list
// replays inline on that caller-owned fixture, and needs one worker and
// Isolation::None.
// A run folds its pairs into a report the caller may hand in: a fault sweep
// is one explorer run per plan over one carried report (core::Session).
//
// Caveat (documented in DESIGN.md): assertions are instantiated per worker,
// so *cross-interleaving* assertions compare state within one worker's shard
// only. Per-interleaving assertions are bit-for-bit identical at any worker
// count.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "sched/searcher.hpp"

namespace erpi::sched {

struct ExplorerOptions {
  /// Worker count. Values < 1 are clamped to 1. One worker runs inline on
  /// the calling thread; more run the dispatcher / pool / committer
  /// pipeline.
  int parallelism = 2;
  /// Run-wide replay options (cap, stop_on_violation, threaded, budget,
  /// on_outcome).
  core::ReplayOptions replay;
  /// The segment's engine hooks (its fault observer and DPOR footprint
  /// learning), installed on every worker's engine.
  core::ReplayHooks hooks;
  /// Where replays execute (DESIGN.md §9). Under Isolation::Process each
  /// worker drives a sandbox::ForkServer: child deaths surface as structured
  /// crashed/oom/timed_out outcomes instead of taking the run down.
  core::Isolation isolation = core::Isolation::None;
  /// The live enumerator's dedup-cache bytes, charged against the budget
  /// with the explored log before each pull (DESIGN.md §7).
  std::function<uint64_t()> extra_cache_bytes;
  /// Builds one isolated subject fixture per worker. Required by
  /// run(enumerator, events).
  core::SubjectFactory subject_factory;
  /// Builds one assertion set per worker (may be empty).
  core::AssertionFactory assertion_factory;
  /// Outcome cache consulted by the source before handing an interleaving to
  /// a worker: a Session run serves a resumed run's journaled pairs and
  /// corpus hits through it (DESIGN.md §8, §11.3). Called once per pull, in
  /// pull order, under the enumerator mutex, after the budget is charged
  /// exactly as for a replayed pair. Returning an outcome resolves the pair without
  /// replaying it: the outcome is committed at its stream position through
  /// the same in-order path as worker results, so explored counts,
  /// first_violation_index, stop_on_violation semantics and callback order
  /// are identical to an uncached run.
  std::function<std::optional<core::InterleavingOutcome>(const core::Interleaving&)>
      outcome_cache;
  /// Exploration order (DESIGN.md §12). LexOrder (the default) streams the
  /// enumerator; any other strategy ranks the drained stream first.
  core::SearchOptions search;
  /// ViolationFirst priors: previously violating interleavings (explicit
  /// session config plus the outcome corpus's violation records).
  std::shared_ptr<const std::vector<core::Interleaving>> violation_priors;
  /// CoverageWeighted feature memory, shared across explorations — a fault
  /// sweep shares one instance across its per-plan runs so later plans steer
  /// toward still-uncovered fault-plan × operation pairs.
  std::shared_ptr<CoverageState> coverage;
  /// The fault plan (FaultPlan::key(); "" outside fault sweeps): tags each
  /// committed pair (core::PlanTag) and is mixed into coverage features.
  std::string plan;
  /// A commit may change what the next pull returns (a runtime constraint
  /// polled in on_outcome extends the pruning pipeline). A sandboxed
  /// one-worker run then keeps one item in flight instead of a window, so
  /// the change applies to the very next pull, as it does in process.
  bool pull_after_commit = false;
};

class ParallelExplorer {
 public:
  explicit ParallelExplorer(ExplorerOptions options);

  /// Explore `enumerator`'s stream on workers built from the subject and
  /// assertion factories. The enumerator is only ever touched by one thread
  /// at a time (enumerators stay single-threaded); with several workers the
  /// dispatcher holds a mutex while pulling and the committer holds it while
  /// on_outcome runs, so callbacks may extend the pruning pipeline mid-run.
  /// Pairs fold into `report` (the run's so far), returned with this stream's
  /// terminal flags and telemetry merged in.
  core::ReplayReport run(core::Enumerator& enumerator, const core::EventSet& events,
                         core::ReplayReport report = {});

  /// Explore inline on a caller-owned fixture: `fixture` and `assertions`
  /// are borrowed for the run. Requires one worker and Isolation::None, and
  /// no watchdog (a borrowed fixture cannot be abandoned to a hung replay and
  /// rebuilt); throws std::invalid_argument otherwise.
  core::ReplayReport run(core::Enumerator& enumerator, const core::EventSet& events,
                         proxy::RdlProxy& fixture, const core::AssertionList& assertions,
                         core::ReplayReport report = {});

  /// Post-run: every worker's assertion instances, for merging observer
  /// state (e.g. core::collect_profiles over ResourceProfiler samples).
  /// Empty under Isolation::Process — the fixtures (and their assertion
  /// instances) live and die inside the sandbox children, so observer state
  /// cannot be harvested across the process boundary (documented limitation,
  /// DESIGN.md §9).
  const std::vector<core::AssertionList>& worker_assertions() const noexcept {
    return worker_assertions_;
  }

 private:
  ExplorerOptions options_;
  std::vector<core::AssertionList> worker_assertions_;
};

}  // namespace erpi::sched
