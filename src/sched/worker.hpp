// WorkerContext — one explorer worker's replay universe.
//
// The invariant the explorer depends on: workers never share mutable subject
// state. A factory-built context therefore owns a private copy of everything
// a replay touches:
//
//   * its own subject fixture (replica set + simulated network), built by the
//     caller-supplied SubjectFactory;
//   * its own RdlProxy over that fixture;
//   * its own assertion instances (AssertionFactory) — so cross-interleaving
//     assertion state is per-worker, see DESIGN.md "Parallel exploration";
//   * its own ReplayEngine over all of the above (in threaded mode the engine
//     hosts its distributed lock on a private kv::Server).
//
// A borrowed context replays on a caller-owned proxy and assertion list
// instead: the single inline worker of a one-worker run on the session's own
// fixture (Session::end(AssertionList)).
//
// Replay watchdog (ReplayOptions::watchdog_timeout_ms > 0): each replay runs
// on a short-lived thread; if it misses the deadline the engine is cancelled
// cooperatively, the whole fixture is abandoned to the hung thread (shared
// ownership, so nothing dangles) and rebuilt fresh from the factory, and the
// interleaving is reported as a structured timed_out outcome. A borrowed
// fixture cannot be abandoned and rebuilt, so a borrowed context rejects the
// watchdog. See DESIGN.md §8 for what can and cannot be reclaimed from a
// hung replay.
#pragma once

#include <memory>

#include "core/replay.hpp"

namespace erpi::sched {

class WorkerContext {
 public:
  /// `base` carries the run-wide replay options, `hooks` the segment's
  /// engine hooks (reinstalled on every rebuilt fixture).
  WorkerContext(const core::SubjectFactory& subject_factory,
                const core::AssertionFactory& assertion_factory, core::ReplayOptions base,
                core::ReplayHooks hooks);

  /// Replays on `proxy` and `assertions`, which must outlive the context.
  /// Throws std::invalid_argument when `base` sets a watchdog.
  WorkerContext(proxy::RdlProxy& proxy, const core::AssertionList& assertions,
                core::ReplayOptions base, const core::ReplayHooks& hooks);

  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  /// Replay one interleaving against this worker's fixture. With a watchdog
  /// configured, a replay that exceeds the deadline returns
  /// outcome.timed_out == true and this context transparently rebuilds its
  /// fixture before the next call.
  core::InterleavingOutcome replay_one(const core::Interleaving& il,
                                       const core::EventSet& events);

  const core::AssertionList& assertions() const noexcept { return fixture_->assertions; }

 private:
  /// Everything a replay touches, bundled so a hung replay thread can keep a
  /// shared reference while the worker moves on to a fresh instance. The
  /// subject and proxy are null for a borrowed fixture.
  struct Fixture {
    std::unique_ptr<proxy::Rdl> subject;
    std::unique_ptr<proxy::RdlProxy> proxy;
    core::AssertionList assertions;
    std::unique_ptr<core::ReplayEngine> engine;
  };

  std::shared_ptr<Fixture> build_fixture() const;
  core::InterleavingOutcome replay_with_watchdog(const core::Interleaving& il,
                                                 const core::EventSet& events);

  core::SubjectFactory subject_factory_;
  core::AssertionFactory assertion_factory_;
  core::ReplayOptions options_;
  core::ReplayHooks hooks_;
  std::shared_ptr<Fixture> fixture_;
};

}  // namespace erpi::sched
