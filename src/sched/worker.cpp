#include "sched/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace erpi::sched {

WorkerContext::WorkerContext(const core::SubjectFactory& subject_factory,
                             const core::AssertionFactory& assertion_factory,
                             core::ReplayOptions base, core::ReplayHooks hooks)
    : subject_factory_(subject_factory),
      assertion_factory_(assertion_factory),
      options_(std::move(base)),
      hooks_(std::move(hooks)) {
  if (!subject_factory_) {
    throw std::invalid_argument("parallel exploration requires a subject factory");
  }
  fixture_ = build_fixture();
}

WorkerContext::WorkerContext(proxy::RdlProxy& proxy, const core::AssertionList& assertions,
                             core::ReplayOptions base, const core::ReplayHooks& hooks)
    : options_(std::move(base)) {
  if (options_.watchdog_timeout_ms > 0) {
    throw std::invalid_argument(
        "the replay watchdog needs a subject factory: a timed-out replay abandons "
        "its fixture, and a borrowed fixture cannot be rebuilt");
  }
  fixture_ = std::make_shared<Fixture>();
  fixture_->assertions = assertions;
  fixture_->engine = std::make_unique<core::ReplayEngine>(proxy, options_, hooks);
  for (const auto& assertion : fixture_->assertions) assertion->on_run_start();
}

std::shared_ptr<WorkerContext::Fixture> WorkerContext::build_fixture() const {
  auto fixture = std::make_shared<Fixture>();
  fixture->subject = subject_factory_();
  if (fixture->subject == nullptr) {
    throw std::invalid_argument("subject factory returned a null fixture");
  }
  fixture->proxy = std::make_unique<proxy::RdlProxy>(*fixture->subject);
  if (assertion_factory_) fixture->assertions = assertion_factory_(*fixture->subject);
  fixture->engine = std::make_unique<core::ReplayEngine>(*fixture->proxy, options_, hooks_);

  for (const auto& assertion : fixture->assertions) assertion->on_run_start();
  return fixture;
}

core::InterleavingOutcome WorkerContext::replay_one(const core::Interleaving& il,
                                                    const core::EventSet& events) {
  if (options_.watchdog_timeout_ms == 0) {
    return fixture_->engine->replay_one(il, events, fixture_->assertions);
  }
  return replay_with_watchdog(il, events);
}

namespace {

/// Shared between the watchdog (this worker) and the replay thread. The
/// replay thread holds shared ownership of everything it touches, so a hung
/// replay can outlive the WorkerContext without dangling.
struct WatchState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  core::InterleavingOutcome outcome;
  std::exception_ptr error;
};

}  // namespace

core::InterleavingOutcome WorkerContext::replay_with_watchdog(const core::Interleaving& il,
                                                              const core::EventSet& events) {
  auto state = std::make_shared<WatchState>();
  auto fixture = fixture_;
  auto il_copy = std::make_shared<core::Interleaving>(il);
  auto events_copy = std::make_shared<core::EventSet>(events);

  std::thread runner([state, fixture, il_copy, events_copy] {
    core::InterleavingOutcome outcome;
    std::exception_ptr error;
    try {
      outcome = fixture->engine->replay_one(*il_copy, *events_copy, fixture->assertions);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(state->mu);
    state->outcome = std::move(outcome);
    state->error = error;
    state->done = true;
    state->cv.notify_all();
  });

  std::unique_lock lock(state->mu);
  const bool finished =
      state->cv.wait_for(lock, std::chrono::milliseconds(options_.watchdog_timeout_ms),
                         [&] { return state->done; });
  lock.unlock();

  if (finished) {
    runner.join();
    if (state->error) std::rethrow_exception(state->error);
    return std::move(state->outcome);
  }

  // Deadline blown. Cancel cooperatively — the engine's execute loops poll
  // the flag, so lock-protocol spins unwind promptly — then abandon this
  // fixture to the (possibly still running) replay thread and rebuild. A
  // thread truly blocked *inside* the subject cannot be reclaimed; it keeps
  // the abandoned fixture alive via shared ownership and leaks with it
  // (documented in DESIGN.md §8).
  fixture->engine->request_cancel();
  runner.detach();
  fixture_ = build_fixture();

  core::InterleavingOutcome timed_out;
  timed_out.timed_out = true;
  return timed_out;
}

}  // namespace erpi::sched
