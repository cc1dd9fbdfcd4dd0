#include "sched/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/profile.hpp"
#include "sandbox/supervisor.hpp"
#include "sched/queue.hpp"
#include "sched/worker.hpp"
#include "util/stopwatch.hpp"

namespace erpi::sched {
namespace {

constexpr uint64_t kNoFloor = std::numeric_limits<uint64_t>::max();

/// One unit of work: an interleaving at its commit ordinal, and its outcome
/// once known. A cached outcome leaves the source resolved and a replay
/// resolves the rest; an item early-cancelled past the violation floor (or on
/// abort) stays unresolved and is never committed.
struct Item {
  uint64_t ordinal = 0;  // 1-based commit position (stream order or searcher rank)
  core::Interleaving interleaving;
  core::InterleavingOutcome outcome;
  bool resolved = false;
};

/// One worker's replays of a window of items, in order, each setting its
/// item's outcome and marking it resolved: an in-process WorkerContext
/// replays them one by one, a sandbox ships the whole window to its runner
/// (DESIGN.md §9), which under stop_on_violation replays nothing past a
/// violation and leaves those items unresolved.
using Replayer = std::function<void(std::span<Item* const>)>;

/// Monotone atomic min.
void lower_floor(std::atomic<uint64_t>& floor, uint64_t ordinal) {
  uint64_t current = floor.load(std::memory_order_relaxed);
  while (ordinal < current &&
         !floor.compare_exchange_weak(current, ordinal, std::memory_order_relaxed)) {
  }
}

/// Pool dispatch sizing: enough batches that a straggler never leaves
/// siblings idle (≥ 4 batches per worker across the cap), capped so queue
/// traffic stays negligible next to replay cost.
size_t auto_batch_size(uint64_t cap, size_t workers) {
  const uint64_t per_worker = cap / (static_cast<uint64_t>(workers) * 4 + 1);
  return static_cast<size_t>(std::clamp<uint64_t>(per_worker, 1, 32));
}

bool flipped(const std::shared_ptr<std::atomic<bool>>& token) {
  return token && token->load(std::memory_order_relaxed);
}

/// An in-process worker's replayer: one item after another on `context`.
Replayer one_at_a_time(WorkerContext& context, const core::EventSet& events) {
  return [&context, &events](std::span<Item* const> items) {
    for (Item* item : items) {
      item->outcome = context.replay_one(item->interleaving, events);
      item->resolved = true;
    }
  };
}

/// Replay `pending` in one call to `replayer`; returns the seconds it took.
double replay_all(const Replayer& replayer, std::span<Item* const> pending) {
  if (pending.empty()) return 0;
  util::Stopwatch watch;
  replayer(pending);
  return watch.elapsed_seconds();
}

/// The one place interleavings enter a run. Not thread-safe: the inline loop
/// or the dispatcher (under the enumerator mutex) is its only caller.
class Source {
 public:
  Source(core::Enumerator& enumerator, const core::EventSet& events,
         const ExplorerOptions& options, core::BudgetAccount& budget)
      : enumerator_(enumerator), events_(events), options_(options), budget_(budget) {}

  /// The next item in commit order, or nullopt once the run must stop
  /// pulling: past the cap or the violation `floor`, cancelled, out of
  /// budget or out of stream (the last three set the flags below).
  std::optional<Item> next(uint64_t floor) {
    if (options_.search.strategy == core::SearchStrategy::LexOrder) return pull(floor);
    if (!ranked_) rank();
    if (served_ == order_.size()) return std::nullopt;
    const uint64_t ordinal = served_ + 1;
    if (options_.replay.stop_on_violation && ordinal > floor) return std::nullopt;
    if (flipped(options_.replay.cancel)) {
      flags.cancelled = true;
      return std::nullopt;
    }
    const size_t index = order_[served_++];
    Item item = std::move(drained_[index]);
    item.ordinal = ordinal;
    item.interleaving = std::move(stream_[index]);
    return item;
  }

  /// Whether a pull after the item at `ordinal` would get as far as the
  /// cancel check; the cap, or the end of a ranked order, stops it first.
  bool pulls_after(uint64_t ordinal) const {
    if (options_.search.strategy == core::SearchStrategy::LexOrder) {
      return ordinal < options_.replay.max_interleavings;
    }
    return ordinal < order_.size();
  }

  /// Why the source stopped handing out items. A ranked source's drain may
  /// set crashed or exhausted before it serves its first item.
  struct Flags {
    bool crashed = false;
    bool exhausted = false;
    bool cancelled = false;
  };
  Flags flags;
  size_t subtrees = 0;  // ranked subtree spans (ranked searchers only)

 private:
  /// The enumerator pull: cap and floor, then cancel and budget before
  /// next(), the charge after it, then the outcome cache. The budget counts
  /// the explored log so far plus the dedup caches; both depend only on the
  /// stream pulled so far, so the crash point is the same at any worker
  /// count.
  std::optional<Item> pull(uint64_t floor) {
    const core::ReplayOptions& replay = options_.replay;
    if (next_ordinal_ > replay.max_interleavings ||
        (replay.stop_on_violation && next_ordinal_ > floor)) {
      return std::nullopt;
    }
    // Cooperative cancel sits where the budget check does: between pulls,
    // so the committed stream stays a deterministic prefix.
    if (flipped(replay.cancel)) {
      flags.cancelled = true;
      return std::nullopt;
    }
    const uint64_t extra = options_.extra_cache_bytes ? options_.extra_cache_bytes() : 0;
    if (budget_.crash_if_exceeded(extra)) {
      flags.crashed = true;
      return std::nullopt;
    }
    auto il = enumerator_.next();
    if (!il) {
      flags.exhausted = true;
      return std::nullopt;
    }
    budget_.charge(core::explored_log_entry_bytes(*il));
    Item item;
    item.ordinal = next_ordinal_++;
    item.interleaving = std::move(*il);
    // A cached outcome (a journaled pair or a corpus hit) resolves the item
    // without a replay. The budget was charged above exactly as for a
    // replayed pair.
    if (options_.outcome_cache) {
      if (auto cached = options_.outcome_cache(item.interleaving)) {
        item.outcome = std::move(*cached);
        item.resolved = true;
      }
    }
    return item;
  }

  /// Drain the capped stream through pull() — so a ranked run charges every
  /// generated item, even past a violation lex order would stop at — then
  /// partition it into subtrees and rank them. The commit ordinal of an item
  /// is its position in the ranked concatenation. The auto granularity must
  /// be a pure function of the stream, never of the worker count, or the
  /// partition (and with it the ranking) would change with parallelism.
  void rank() {
    ranked_ = true;
    while (auto item = pull(kNoFloor)) {
      stream_.push_back(std::move(item->interleaving));
      drained_.push_back(std::move(*item));
    }
    const size_t max_subtree = options_.search.max_subtree_items != 0
                                   ? options_.search.max_subtree_items
                                   : std::max<size_t>(1, stream_.size() / 64);
    const std::vector<core::SubtreeSpan> spans = core::split_tree_order(stream_, max_subtree);
    SearcherDeps deps;
    deps.events = &events_;
    deps.violation_priors = options_.violation_priors;
    deps.coverage = options_.coverage;
    deps.context_key = options_.plan;
    order_.reserve(stream_.size());
    for (const size_t r : make_searcher(options_.search, std::move(deps))->select(stream_, spans)) {
      for (size_t i = spans[r].begin; i < spans[r].end; ++i) order_.push_back(i);
    }
    subtrees = spans.size();
  }

  core::Enumerator& enumerator_;
  const core::EventSet& events_;
  const ExplorerOptions& options_;
  core::BudgetAccount& budget_;
  uint64_t next_ordinal_ = 1;
  // Ranked searchers: the drained stream (interleavings apart, for the
  // searcher), its items, and the serve order.
  bool ranked_ = false;
  std::vector<core::Interleaving> stream_;
  std::vector<Item> drained_;
  std::vector<size_t> order_;  // ordinal - 1 → stream index
  size_t served_ = 0;
};

/// The one exploration loop: drain `source` through `workers` and commit
/// every outcome into `report` in ordinal order.
void explore(const ExplorerOptions& options, core::Enumerator& enumerator,
             const core::EventSet& events, const std::vector<Replayer>& workers,
             core::ReplayReport& report) {
  const core::ReplayOptions& replay = options.replay;
  const bool stop_on_violation = replay.stop_on_violation;
  const bool sandboxed = options.isolation == core::Isolation::Process;
  core::BudgetAccount local_budget(replay.resource_budget_bytes);
  Source source(enumerator, events, options,
                replay.budget != nullptr ? *replay.budget : local_budget);
  core::ExplorerStats stats;
  uint64_t committed = 0;  // this stream's pairs (the report may carry more)
  bool violated = false;

  // Commit one outcome and deliver its callback. Returns true when a
  // stop_on_violation run must stop committing here.
  const auto commit = [&](const Item& item) {
    std::optional<core::PlanTag> tag;
    if (!options.plan.empty()) tag = core::PlanTag{options.plan, item.ordinal};
    core::commit_outcome(report, item.interleaving, item.outcome, tag);
    ++committed;
    if (!item.outcome.violations.empty()) violated = true;
    if (replay.on_outcome) replay.on_outcome(report.explored, item.interleaving, item.outcome);
    return stop_on_violation && !item.outcome.violations.empty();
  };

  std::vector<double> busy(workers.size(), 0.0);  // replay time per worker
  std::vector<double> wait(workers.size(), 0.0);  // queue wait per worker
  util::Stopwatch section;
  const size_t window_size = sandboxed && !options.pull_after_commit
                                 ? auto_batch_size(replay.max_interleavings, 1)
                                 : 1;
  if (workers.size() == 1 && window_size == 1) {
    // ---- inline: pull, replay and commit one item at a time on this
    // thread, so a runtime constraint a callback delivers applies to the
    // very next pull ----
    stats.batch_size = 1;
    while (auto item = source.next(kNoFloor)) {
      if (!item->resolved) {
        Item* const one[] = {&*item};
        busy[0] += replay_all(workers[0], one);
      }
      if (commit(*item)) break;
    }
  } else if (workers.size() == 1) {
    // ---- inline, sandboxed: pull a window, replay it in one round trip to
    // the runner, then commit it in ordinal order, stopping where the loop
    // above would stop ----
    stats.batch_size = window_size;
    std::vector<Item> window;
    std::vector<Item*> pending;  // the window's items still to replay
    // The source's flags after the window's last successful pull. Only a
    // failed pull (or a ranked drain, on the first pull) changes them, so
    // every successful pull of a window leaves the same flags.
    Source::Flags served;
    bool more = true;
    while (more) {
      window.clear();
      while (window.size() < window_size) {
        auto item = source.next(kNoFloor);
        if (!item) {
          more = false;
          break;
        }
        window.push_back(std::move(*item));
        served = source.flags;
        // One item at a time, nothing is pulled past a cached violation
        // that stops the run.
        const Item& last = window.back();
        if (stop_on_violation && last.resolved && !last.outcome.violations.empty()) break;
      }
      pending.clear();
      for (Item& item : window) {
        if (!item.resolved) pending.push_back(&item);
      }
      busy[0] += replay_all(workers[0], pending);
      for (size_t i = 0; i < window.size(); ++i) {
        if (commit(window[i])) {
          more = false;
          break;
        }
        // One item at a time, the pull after this commit would meet a token
        // the commit flipped before it pulled anything: the pulls that ran
        // ahead never happened.
        if (flipped(replay.cancel)) {
          source.flags = served;
          source.flags.cancelled = source.pulls_after(window[i].ordinal);
          more = false;
          break;
        }
      }
    }
  } else {
    // ---- pool: dispatcher → workers → in-order committer ----
    const size_t batch_size = auto_batch_size(replay.max_interleavings, workers.size());
    const size_t pool_window = sandboxed ? batch_size : 1;
    stats.batch_size = batch_size;
    BoundedQueue<std::vector<Item>> work(workers.size() * 2);
    BoundedQueue<Item> done(std::numeric_limits<size_t>::max());
    std::mutex enum_mu;  // the source + callback-side pipeline mutation
    std::atomic<uint64_t> floor{kNoFloor};
    std::atomic<bool> abort{false};
    std::atomic<size_t> active_workers{workers.size()};
    std::mutex error_mu;
    std::exception_ptr first_error;
    const auto record_error = [&](std::exception_ptr error) {
      {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = error;
      }
      abort.store(true);
      work.close();
    };

    // The dispatcher is the only thread that pulls from the source.
    std::thread dispatcher([&] {
      try {
        bool more = true;
        while (more && !abort.load()) {
          std::vector<Item> batch;
          {
            std::lock_guard lock(enum_mu);
            while (batch.size() < batch_size) {
              auto item = source.next(floor.load());
              if (!item) {
                more = false;
                break;
              }
              if (item->resolved) {
                // A cached outcome bypasses the pool and is committed at its
                // ordinal like any worker result; a cached violation lowers
                // the floor just as a worker would.
                if (stop_on_violation && !item->outcome.violations.empty()) {
                  lower_floor(floor, item->ordinal);
                }
                (void)done.push(std::move(*item));
                continue;
              }
              batch.push_back(std::move(*item));
            }
          }
          if (!batch.empty() && work.push(std::move(batch)) == QueuePush::Closed) break;
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      work.close();
    });

    // Workers replay in isolation, sharing only thread-safe state.
    const auto worker_fn = [&](size_t w) {
      try {
        std::vector<Item*> window;
        while (true) {
          util::Stopwatch pop_watch;
          auto batch = work.pop();
          wait[w] += pop_watch.elapsed_seconds();
          if (!batch) break;
          // Replay the batch a window at a time — one item in process, the
          // whole batch in a sandbox — skipping items past the floor or after
          // an abort or cancel; skipped items stay unresolved.
          for (size_t begin = 0, end = 0; begin < batch->size(); begin = end) {
            window.clear();
            for (; end < batch->size() && window.size() < pool_window; ++end) {
              Item& item = (*batch)[end];
              const bool skip = abort.load() || flipped(replay.cancel) ||
                                (stop_on_violation && item.ordinal > floor.load());
              if (!skip) window.push_back(&item);
            }
            busy[w] += replay_all(workers[w], window);
            for (size_t i = begin; i < end; ++i) {
              Item& item = (*batch)[i];
              if (stop_on_violation && !item.outcome.violations.empty()) {
                lower_floor(floor, item.ordinal);
              }
              (void)done.push(std::move(item));
            }
          }
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      if (active_workers.fetch_sub(1) == 1) done.close();
    };
    std::vector<std::thread> pool;
    pool.reserve(workers.size());
    for (size_t w = 0; w < workers.size(); ++w) pool.emplace_back(worker_fn, w);

    // The committer (this thread) merges in ascending ordinal order, under
    // the enumerator mutex: callbacks may mutate the pruning pipeline the
    // dispatcher reads concurrently. A throwing callback aborts the run like
    // a throwing replay, so every thread is joined before the rethrow.
    std::map<uint64_t, Item> reorder;
    uint64_t next_commit = 1;
    bool stopped = false;
    while (auto item = done.pop()) {
      if (stopped || abort.load()) continue;  // drain only
      reorder.emplace(item->ordinal, std::move(*item));
      for (auto it = reorder.find(next_commit); it != reorder.end() && !stopped;
           it = reorder.find(next_commit)) {
        // A skipped item can only sit past a committed violation; reaching
        // one here means commit already stopped (or an abort raced).
        if (!it->second.resolved) break;
        const Item ready = std::move(it->second);
        reorder.erase(it);
        ++next_commit;
        std::lock_guard lock(enum_mu);
        try {
          stopped = commit(ready);
        } catch (...) {
          record_error(std::current_exception());
          stopped = true;
        }
      }
    }

    dispatcher.join();
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
    // A token that flipped after dispatch ended still marks the run: workers
    // may have skipped the tail, so the report is a cancelled prefix.
    if (flipped(replay.cancel)) source.flags.cancelled = true;
  }
  const double section_seconds = section.elapsed_seconds();

  // A stop_on_violation run that reproduced never reaches the crash,
  // exhaustion or cancel the source may have overrun into.
  const bool stopped_at_violation = stop_on_violation && violated;
  report.crashed = source.flags.crashed && !stopped_at_violation;
  // Budget overrun never throws out of a worker: the source latches it on
  // the shared account, workers drain, and the report carries partial
  // results with the structured flag set.
  report.budget_exhausted = report.crashed;
  report.exhausted = source.flags.exhausted && !stopped_at_violation;
  report.cancelled = source.flags.cancelled && !stopped_at_violation;
  report.hit_cap = committed >= replay.max_interleavings;

  stats.subtrees = source.subtrees;
  // Idle is measured against the pool's shared wall clock: a worker that
  // drains early while a straggler keeps replaying counts as idle for the
  // difference.
  for (size_t w = 0; w < workers.size(); ++w) {
    stats.queue_wait_seconds += wait[w];
    const double idle =
        section_seconds > 0 ? std::max(0.0, section_seconds - busy[w]) / section_seconds : 0;
    stats.max_idle_fraction = std::max(stats.max_idle_fraction, idle);
  }
  report.explorer.merge(stats);
}

}  // namespace

ParallelExplorer::ParallelExplorer(ExplorerOptions options) : options_(std::move(options)) {}

core::ReplayReport ParallelExplorer::run(core::Enumerator& enumerator,
                                         const core::EventSet& events,
                                         core::ReplayReport report) {
  if (!options_.subject_factory) {
    throw std::invalid_argument("ParallelExplorer requires a subject factory");
  }
  util::Stopwatch watch;
  const int workers = std::max(1, options_.parallelism);

  // Worker contexts (or their sandbox fork servers) are built up front on
  // this thread so factory failures throw before any thread exists — and, in
  // Process isolation, so every fork happens while this process is still
  // single-threaded (see src/sandbox/supervisor.hpp).
  const bool sandboxed = options_.isolation == core::Isolation::Process;
  std::vector<std::unique_ptr<WorkerContext>> contexts;
  std::vector<std::unique_ptr<sandbox::ForkServer>> sandboxes;
  std::vector<Replayer> replayers;
  for (int w = 0; w < workers; ++w) {
    if (sandboxed) {
      sandbox::ForkServer* server =
          sandboxes
              .emplace_back(std::make_unique<sandbox::ForkServer>(
                  options_.subject_factory, options_.assertion_factory, options_.replay,
                  options_.hooks, events))
              .get();
      replayers.emplace_back([server](std::span<Item* const> items) {
        std::vector<const core::Interleaving*> window;
        window.reserve(items.size());
        for (const Item* item : items) window.push_back(&item->interleaving);
        std::vector<core::InterleavingOutcome> outcomes = server->replay(window);
        for (size_t i = 0; i < outcomes.size(); ++i) {
          items[i]->outcome = std::move(outcomes[i]);
          items[i]->resolved = true;
        }
      });
    } else {
      WorkerContext* context =
          contexts
              .emplace_back(std::make_unique<WorkerContext>(
                  options_.subject_factory, options_.assertion_factory, options_.replay,
                  options_.hooks))
              .get();
      replayers.emplace_back(one_at_a_time(*context, events));
    }
  }

  explore(options_, enumerator, events, replayers, report);

  worker_assertions_.clear();
  for (const auto& context : contexts) worker_assertions_.push_back(context->assertions());
  // Sandboxed fixtures live in the children, so there are no parent-side
  // assertion instances to expose (worker_assertions() stays empty); anomaly
  // counters are what the supervisors accumulated over IPC.
  std::vector<core::SandboxStats> sandbox_shards;
  for (const auto& server : sandboxes) sandbox_shards.push_back(server->stats());
  report.sandbox.merge(core::merge_sandbox_stats(sandbox_shards));
  report.elapsed_seconds += watch.elapsed_seconds();
  return report;
}

core::ReplayReport ParallelExplorer::run(core::Enumerator& enumerator,
                                         const core::EventSet& events,
                                         proxy::RdlProxy& fixture,
                                         const core::AssertionList& assertions,
                                         core::ReplayReport report) {
  if (options_.parallelism > 1 || options_.isolation != core::Isolation::None) {
    throw std::invalid_argument(
        "a borrowed fixture replays inline: it needs one worker and Isolation::None");
  }
  util::Stopwatch watch;
  WorkerContext context(fixture, assertions, options_.replay, options_.hooks);
  explore(options_, enumerator, events, {one_at_a_time(context, events)}, report);
  worker_assertions_ = {context.assertions()};
  report.elapsed_seconds += watch.elapsed_seconds();
  return report;
}

}  // namespace erpi::sched
