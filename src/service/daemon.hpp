// Exploration-as-a-service daemon (DESIGN.md §14).
//
// A long-lived process accepting exploration jobs over an AF_UNIX socket,
// speaking the 4-byte length-prefixed JSON framing shared with the sandbox
// protocol (util/frame.hpp). Thread layout:
//
//   accept thread ──> per-connection reader thread (parses ops, admits jobs)
//                 ──> per-connection writer thread (drains a bounded
//                     FrameQueue; slow readers stall only their own pushes)
//   executor pool ──> runs accepted jobs through faults::explore_with_faults
//   deadline monitor ──> flips cancel tokens of over-deadline running jobs
//
// Robustness contract (tested in tests/service, drilled in bench_service):
//   * admission control — max_concurrent_jobs cap plus a shared
//     BudgetAccount::try_reserve; past either, submit gets
//     {"status":"rejected","reason":"overloaded","retry_after_ms":N}.
//   * backpressure — per-client bounded send queues; a reader that stops
//     draining throttles only the executor streaming its job.
//   * disconnect=cancel — a closed connection flips the cancel token of
//     every job it submitted; other clients' jobs are untouched.
//   * retry w/ backoff — a throwing attempt is retried up to max_retries
//     with capped exponential backoff; exhausted retries fail the job.
//   * per-tenant circuit breaker — consecutive exhausted-retry failures
//     quarantine the tenant for a cooldown; healthy tenants keep running
//     and their reports match solo runs exactly.
//   * crash-safe lifecycle — accepted jobs are journaled (QueueJournal) and
//     each run resumes from its per-job RunJournal, so a kill -9'd daemon
//     restarted over the same journal_dir finishes every accepted job with
//     a verdict JSON (core::RunVerdict) identical to an uninterrupted run's.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/replay.hpp"
#include "service/config.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "service/registry.hpp"
#include "util/json.hpp"

namespace erpi::service {

/// Lifecycle counters + per-tenant accounting, snapshotted by the "stats"
/// op. to_json omits zero fields (SandboxStats-style) so a quiet daemon
/// serializes small.
struct ServiceStats {
  uint64_t accepted = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t rejected_quarantined = 0;
  uint64_t rejected_invalid = 0;
  uint64_t retried = 0;          // individual retry attempts
  uint64_t quarantine_trips = 0; // breaker open events
  uint64_t resumed = 0;          // jobs re-enqueued from the queue journal
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t timed_out = 0;
  uint64_t queued = 0;   // current queue depth
  uint64_t running = 0;  // currently executing

  struct Tenant {
    uint64_t jobs = 0;              // finished jobs
    uint64_t budget_burn_bytes = 0; // sum of finished jobs' budget_bytes
    uint64_t failures = 0;          // exhausted-retry failures
    bool quarantined = false;       // breaker open right now
  };
  std::map<std::string, Tenant> tenants;

  util::Json to_json() const;
};

class Daemon {
 public:
  explicit Daemon(ServiceConfig config, Registry registry = Registry::with_builtins());
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket, re-enqueues journaled unfinished jobs, and spins the
  /// accept/executor/monitor threads. Throws on socket errors.
  void start();

  /// Blocks until a client's {"op":"shutdown"} (or another thread's stop()),
  /// then tears the daemon down. The daemon-as-a-process entry point.
  void wait();

  /// Stops accepting, cancels running jobs, joins every thread. Unfinished
  /// queued jobs stay journaled for the next start(). Idempotent; must not
  /// be called from a daemon thread (wait()/shutdown handles that case).
  void stop();

  ServiceStats stats() const;

 private:
  struct FrameQueue;
  struct ClientConn;
  struct Job;

  /// Breaker + accounting state per tenant (value type: std::map needs it
  /// complete here, unlike the shared_ptr-held Job/ClientConn).
  struct TenantState {
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point open_until{};  // breaker open while now < this
    uint64_t jobs = 0;
    uint64_t budget_burn_bytes = 0;
    uint64_t failures = 0;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<ClientConn> conn);
  void writer_loop(std::shared_ptr<ClientConn> conn);
  void executor_loop();
  void monitor_loop();

  void handle_request(const std::shared_ptr<ClientConn>& conn, const std::string& frame);
  void handle_submit(const std::shared_ptr<ClientConn>& conn, const util::Json& job_json);
  void disconnect(const std::shared_ptr<ClientConn>& conn);
  void reap_dead_clients();
  static void send(const std::shared_ptr<ClientConn>& conn, const util::Json& frame);

  void run_job(const std::shared_ptr<Job>& job);
  core::ReplayReport run_attempt(Job& job);
  void finish_job(const std::shared_ptr<Job>& job, const std::string& status,
                  util::Json report_json, const std::string& error);
  void resume_pending();

  ServiceConfig config_;
  Registry registry_;
  std::unique_ptr<QueueJournal> journal_;
  core::BudgetAccount budget_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex mu_;  // guards queue_, in_flight_, tenants_, stats_, clients_
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::string, std::shared_ptr<Job>> in_flight_;  // queued + running
  std::map<std::string, TenantState> tenants_;
  ServiceStats stats_;
  std::vector<std::shared_ptr<ClientConn>> clients_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;

  std::thread accept_thread_;
  std::thread monitor_thread_;
  std::vector<std::thread> executors_;
};

}  // namespace erpi::service
