// Crash-isolated replay sandbox: an AFL-style fork server per parallel
// worker (DESIGN.md §9).
//
// Process layout (one ForkServer per worker):
//
//   explorer process ──control socket──> fork server S (single-threaded)
//          │    ▲                             │ fork-per-respawn
//          │    └──────wake-up eventfd─────── │
//          └───────data socket───────> runner R (builds the subject fixture,
//                                      loops: read a window of work items →
//                                      replay each → write its outcome)
//
// Why two levels: fork() from a multi-threaded process is only safe for
// async-signal-safe code, and respawns happen while the worker pool is
// running. So the explorer forks each server S exactly once, on the control
// thread, *before* any pool thread exists; S stays single-threaded forever
// and performs every runner fork on command. Respawning after a crash is
// therefore always a fork from a single-threaded process, no matter how many
// worker threads the parent runs.
//
// The wire is pipelined: replay() sends a window of items as one frame, R
// writes each outcome to the data socket as its item finishes and signals
// the wake-up eventfd once, when its input runs dry (and whenever a response
// finds the socket full). The supervisor waits on control + wake-up, so it
// wakes once per window, not once per item; it reads the data socket only
// without blocking and parses whole frames, so a runner that dies mid-frame
// can never wedge it. Under stop_on_violation a violation ends the window on
// both sides, so nothing past it is replayed.
//
// Outcome taxonomy, charged to the first unanswered item of the window (the
// items answered before it are committed first):
//   * crashed   — R died on a signal (SIGSEGV, SIGABRT, SIGKILL...). The item
//                 is retried once, alone, in a fresh child; a second death
//                 means the crash is deterministic and the item is
//                 quarantined with the signal number. A retry that comes back
//                 clean is collateral damage from an earlier item and is only
//                 counted.
//   * oom       — R tripped RLIMIT_AS: the child catches std::bad_alloc,
//                 best-effort writes a structured "oom" response, and exits
//                 with kOomExitCode so the reason survives even if the write
//                 loses the race. Same retry-once policy as crashes.
//   * timed_out — the head of the window made no progress for the watchdog
//                 deadline; the supervisor SIGKILLs R. Matches the in-process
//                 watchdog semantics (DESIGN.md §8): no retry, quarantined
//                 immediately.
// The rest of the window goes to a fresh runner.
//
// The supervisor never reads the data socket for liveness: S keeps the runner
// end open for future runners, so runner death is detected via S's framed
// {"exited", status} notice on the control socket (S sits in waitpid while a
// runner lives).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "sandbox/protocol.hpp"

namespace erpi::sandbox {

/// One worker's fork server + current runner. Not thread-safe: owned and
/// driven by exactly one worker thread (construction and destruction happen
/// on the explorer's control thread while the pool is quiescent — that is
/// what keeps every fork single-threaded).
class ForkServer {
 public:
  /// Forks the server process and spawns the first runner (which builds its
  /// fixture from `subject_factory`/`assertion_factory` inside the child).
  /// `base` carries the run-wide replay options; the supervisor owns the
  /// watchdog (base.watchdog_timeout_ms) and the retry-once policy, the
  /// child gets a scrubbed copy (no callbacks, no budget, Isolation::None)
  /// and `hooks`, so fault-schedule hooks fire inside the child, where the
  /// subject lives. `events` must outlive this object. MUST be constructed
  /// while the calling process is single-threaded.
  ForkServer(core::SubjectFactory subject_factory,
             core::AssertionFactory assertion_factory, core::ReplayOptions base,
             core::ReplayHooks hooks, const core::EventSet& events);

  /// Kills the current runner, shuts the server down and reaps it.
  ~ForkServer();

  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  /// Replay `window` in order and return the outcomes of its answered
  /// prefix, in order: every item, or under stop_on_violation the items up
  /// to the first violation, which ends the window. Enforces the watchdog
  /// deadline on the head of the window and the crash/oom
  /// respawn-and-retry-once policy. Throws on supervisor-level failures
  /// (fork server died, child reported a structured error) — mirroring how
  /// an in-process replay exception aborts the run.
  std::vector<core::InterleavingOutcome> replay(
      std::span<const core::Interleaving* const> window);

  /// Anomaly counters for this worker's sandbox (read after the pool joins).
  const core::SandboxStats& stats() const noexcept { return stats_; }

 private:
  struct Failure {
    enum class Kind { Crashed, Oom, TimedOut };
    Kind kind = Kind::Crashed;
    int signal = 0;  // Crashed only
  };
  using Outcomes = std::vector<core::InterleavingOutcome>;

  void spawn_runner();
  /// Exponential-backoff sleep for the current spawn-failure streak: 10 ms
  /// doubled per consecutive failure, capped at 1 s (supervisor.cpp). Keeps
  /// fork-EAGAIN storms from hot-looping.
  void spawn_backoff_sleep(int streak) const;
  /// Whether window[head, end) still has items to answer: under
  /// stop_on_violation an answered violation ends the window, as it ends
  /// the runner's.
  bool open(const Outcomes& outcomes, size_t head, size_t end) const;
  /// Answer window[head, end) on the current runner (spawning one first when
  /// there is none), advancing `head` past every answered item. Returns
  /// nullopt once all are answered, or the failure charged to window[head].
  std::optional<Failure> run(std::span<const core::Interleaving* const> window,
                             Outcomes& outcomes, size_t& head, size_t end);
  /// The outcome of window[head] after `failure`: the timeout, the clean
  /// retry or the quarantine.
  core::InterleavingOutcome settle(std::span<const core::Interleaving* const> window,
                                   Outcomes& outcomes, size_t head, Failure failure);
  /// Read what the data socket holds and decode every whole response into
  /// outcomes[head, end), advancing `head`. True when the head's answer is
  /// the oom response (the runner is exiting).
  bool collect(Outcomes& outcomes, size_t& head, size_t end);
  /// Move every queued data-socket byte into reader_, without blocking.
  void read_queued();
  /// Consume the runner's ready handshake (nullopt) or its build-time
  /// failure.
  std::optional<Failure> await_ready();
  /// Consume the server's {"exited"} notice for the current runner. Returns
  /// the waitpid status. The dead runner's frames stay queued until
  /// clear_data().
  int reap_runner();
  /// Drop what a dead runner left behind: buffered and queued bytes, and a
  /// pending wake-up.
  void clear_data();
  static Failure classify_exit(int wait_status);
  [[noreturn]] void throw_server_lost(const char* where) const;

  int deadline_ms_ = -1;  // the watchdog deadline, -1 for none
  bool stop_on_violation_ = false;
  int control_fd_ = -1;   // to the fork server
  int data_fd_ = -1;      // to the current runner
  int wake_fd_ = -1;      // eventfd the runner signals
  pid_t server_pid_ = -1;
  pid_t runner_pid_ = -1;
  bool spawned_once_ = false;  // distinguishes first spawn from respawns
  bool ready_pending_ = true;  // handshake not yet consumed for this runner
  /// Consecutive failed spawn attempts (fork failure or fixture-build error)
  /// since the last healthy runner; drives the exponential backoff and the
  /// give-up threshold (4 retries, supervisor.cpp).
  int spawn_failure_streak_ = 0;
  /// Request bytes one send may carry: a quarter of the data socket's send
  /// buffer, so a window's send never blocks, even on a runner that died
  /// without reading it.
  size_t max_request_bytes_ = 0;
  util::FrameReader reader_;  // responses read so far
  std::string keys_;          // the request frame's payload

  core::SandboxStats stats_;
};

}  // namespace erpi::sandbox
