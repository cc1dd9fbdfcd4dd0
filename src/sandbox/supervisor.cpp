#include "sandbox/supervisor.hpp"

#include <errno.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "proxy/proxy.hpp"
#include "util/json.hpp"

namespace erpi::sandbox {

namespace {

/// How often a crashed or oomed item is retried in a fresh child before it
/// is quarantined as deterministic. One retry separates a deterministic
/// crash from collateral damage a previous item left in the child.
constexpr int kMaxRetries = 1;

/// Runner-spawn failures (fork EAGAIN, ready-handshake timeout, fixture-build
/// error) absorbed in a row before the supervisor gives up on the sandbox.
/// Each failed attempt bumps SandboxStats::respawn_failures and sleeps first
/// kSpawnBackoffMs, doubled per consecutive failure and capped at
/// kSpawnBackoffCapMs: 10 + 20 + 40 + 80 = 150 ms before giving up.
constexpr int kSpawnMaxRetries = 4;
constexpr uint64_t kSpawnBackoffMs = 10;
constexpr uint64_t kSpawnBackoffCapMs = 1000;

/// Parent-side fds of every live ForkServer. A newly forked server child
/// closes the *siblings'* fds so it never holds their sockets open (which
/// would defeat peer-death detection and leak descriptors into long-lived
/// children). Guarded by a mutex only for registry bookkeeping — forks
/// themselves always happen while the process is single-threaded.
std::mutex registry_mu;
std::vector<int>& fd_registry() {
  static std::vector<int> fds;
  return fds;
}

std::vector<int> registry_snapshot() {
  std::lock_guard lock(registry_mu);
  return fd_registry();
}

void registry_add(int fd) {
  std::lock_guard lock(registry_mu);
  fd_registry().push_back(fd);
}

void registry_remove(int fd) {
  std::lock_guard lock(registry_mu);
  auto& fds = fd_registry();
  fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
}

/// Everything a runner needs to serve replays. Lives in the server process's
/// (copy-on-write) address space; each forked runner uses its own copy.
struct RunnerConfig {
  core::SubjectFactory subject_factory;
  core::AssertionFactory assertion_factory;
  core::ReplayOptions options;  // scrubbed: no callbacks/budget, no recursion
  core::ReplayHooks hooks;
  uint64_t memory_limit_bytes = 0;
  core::EventSet events;
};

std::string ready_payload() {
  util::Json j = util::Json::object();
  j["ready"] = true;
  return j.dump();
}

bool is_ready_payload(const std::string& payload) {
  const auto parsed = util::Json::parse(payload);
  return parsed && parsed.value().is_object() && parsed.value().contains("ready");
}

/// The per-worker sandbox child: builds a private subject fixture exactly
/// like sched::WorkerContext does in-process, then serves work items until
/// the supervisor goes away. Never returns.
[[noreturn]] void run_runner_loop(int data_fd, const RunnerConfig& config) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the exploration
  if (config.memory_limit_bytes > 0) {
    struct rlimit limit;
    limit.rlim_cur = config.memory_limit_bytes;
    limit.rlim_max = config.memory_limit_bytes;
    ::setrlimit(RLIMIT_AS, &limit);
  }

  // Pre-encoded so the oom path can still report after allocation starts
  // failing.
  WorkResponse oom_template;
  oom_template.status = WorkResponse::Status::Oom;
  const std::string oom_payload = encode_response(oom_template);

  std::unique_ptr<proxy::Rdl> subject;
  std::unique_ptr<proxy::RdlProxy> rdl_proxy;
  core::AssertionList assertions;
  std::unique_ptr<core::ReplayEngine> engine;
  try {
    subject = config.subject_factory();
    if (subject == nullptr) {
      throw std::invalid_argument("subject factory returned a null fixture");
    }
    rdl_proxy = std::make_unique<proxy::RdlProxy>(*subject);
    if (config.assertion_factory) assertions = config.assertion_factory(*subject);
    engine = std::make_unique<core::ReplayEngine>(*rdl_proxy, config.options, config.hooks);
    for (const auto& assertion : assertions) assertion->on_run_start();
  } catch (const std::bad_alloc&) {
    write_frame(data_fd, oom_payload);
    ::_exit(kOomExitCode);
  } catch (const std::exception& e) {
    WorkResponse response;
    response.status = WorkResponse::Status::Error;
    response.error = std::string("sandbox fixture build failed: ") + e.what();
    write_frame(data_fd, encode_response(response));
    ::_exit(1);
  }

  // Handshake: the supervisor only ships work to a runner that reached here,
  // so a consumed request always produces either a response or a death — no
  // stale request can linger in the socket for the next runner.
  if (!write_frame(data_fd, ready_payload())) ::_exit(0);

  for (;;) {
    const auto frame = read_frame(data_fd);
    if (!frame) ::_exit(0);  // supervisor gone
    const auto il = core::Interleaving::parse_key(*frame);
    if (!il) ::_exit(1);

    WorkResponse response;
    try {
      response.outcome = engine->replay_one(*il, config.events, assertions);
    } catch (const std::bad_alloc&) {
      write_frame(data_fd, oom_payload);
      ::_exit(kOomExitCode);
    } catch (const std::exception& e) {
      response = WorkResponse{};
      response.status = WorkResponse::Status::Error;
      response.error = e.what();
    }
    if (!write_frame(data_fd, encode_response(response))) ::_exit(0);
  }
}

/// The fork server: a single-threaded child that forks runners on command
/// and reports their deaths. All runner forks happen here, so they are safe
/// no matter how many threads the exploring process runs.
[[noreturn]] void run_server_loop(int control_fd, int data_fd,
                                  const RunnerConfig& config) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ::signal(SIGPIPE, SIG_IGN);
  for (;;) {
    char command = 0;
    ssize_t n;
    do {
      n = ::recv(control_fd, &command, 1, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0 || command == kQuitCommand) ::_exit(0);
    if (command != kSpawnCommand) ::_exit(1);

    const pid_t pid = ::fork();
    if (pid < 0) {
      // Transient fork failure (EAGAIN under pid/memory pressure): report it
      // and keep serving — the supervisor owns the backoff-and-retry policy.
      // Exiting here would take the whole channel down over a blip.
      if (!write_frame(control_fd, encode_spawn_failed_notice({errno}))) ::_exit(0);
      continue;
    }
    if (pid == 0) {
      ::close(control_fd);
      run_runner_loop(data_fd, config);
    }
    if (!write_frame(control_fd, encode_spawn_notice({pid}))) {
      ::kill(pid, SIGKILL);
      ::_exit(0);
    }
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    if (reaped < 0) status = 0;
    if (!write_frame(control_fd, encode_exit_notice({pid, status}))) ::_exit(0);
  }
}

}  // namespace

ForkServer::ForkServer(core::SubjectFactory subject_factory,
                       core::AssertionFactory assertion_factory,
                       core::ReplayOptions base, core::ReplayHooks hooks,
                       const core::EventSet& events)
    : options_(base) {
  if (!subject_factory) {
    throw std::invalid_argument("process isolation requires a subject factory");
  }

  RunnerConfig config;
  config.subject_factory = std::move(subject_factory);
  config.assertion_factory = std::move(assertion_factory);
  config.memory_limit_bytes = base.sandbox_memory_limit_bytes;
  config.events = events;
  // The child replays on its own thread with no watchdog (the supervisor
  // enforces deadlines externally), no shared budget (the dispatcher accounts
  // for everything parent-side) and no callbacks (delivery is the explorer's
  // job); the hooks go along (see the header).
  config.options = std::move(base);
  config.hooks = std::move(hooks);
  config.options.budget = nullptr;
  config.options.resource_budget_bytes = UINT64_MAX;
  config.options.on_outcome = nullptr;
  config.options.watchdog_timeout_ms = 0;

  int control[2];
  int data[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, control) != 0) {
    throw std::runtime_error("sandbox: control socketpair failed");
  }
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, data) != 0) {
    ::close(control[0]);
    ::close(control[1]);
    throw std::runtime_error("sandbox: data socketpair failed");
  }

  const std::vector<int> sibling_fds = registry_snapshot();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(control[0]);
    ::close(control[1]);
    ::close(data[0]);
    ::close(data[1]);
    throw std::runtime_error("sandbox: fork server fork failed");
  }
  if (pid == 0) {
    ::close(control[0]);
    ::close(data[0]);
    for (const int fd : sibling_fds) ::close(fd);
    run_server_loop(control[1], data[1], config);
  }
  ::close(control[1]);
  ::close(data[1]);
  control_fd_ = control[0];
  data_fd_ = data[0];
  server_pid_ = pid;
  registry_add(control_fd_);
  registry_add(data_fd_);

  // Eager first spawn so every worker's fixture starts building right away;
  // the ready handshake is consumed by the first replay_one.
  spawn_runner();
}

ForkServer::~ForkServer() {
  if (server_pid_ > 0) {
    if (runner_pid_ > 0) {
      ::kill(runner_pid_, SIGKILL);
      try {
        reap_runner();
      } catch (...) {
        // Shutdown is best-effort; the server dies with us via PDEATHSIG.
      }
    }
    const char command = kQuitCommand;
    ::send(control_fd_, &command, 1, MSG_NOSIGNAL);
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(server_pid_, &status, 0);
    } while (reaped < 0 && errno == EINTR);
  }
  if (control_fd_ >= 0) {
    registry_remove(control_fd_);
    ::close(control_fd_);
  }
  if (data_fd_ >= 0) {
    registry_remove(data_fd_);
    ::close(data_fd_);
  }
}

void ForkServer::throw_server_lost(const char* where) const {
  throw std::runtime_error(std::string("sandbox fork server lost (") + where + ")");
}

void ForkServer::spawn_backoff_sleep(int streak) const {
  uint64_t delay = kSpawnBackoffMs;
  for (int i = 1; i < streak && delay < kSpawnBackoffCapMs; ++i) delay *= 2;
  delay = std::min(delay, kSpawnBackoffCapMs);
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

void ForkServer::spawn_runner() {
  // fork() failures inside the server come back as structured spawn_failed
  // notices; back off exponentially and retry instead of hot-looping the
  // spawn command against a box that just ran out of pids.
  for (;;) {
    const char command = kSpawnCommand;
    if (::send(control_fd_, &command, 1, MSG_NOSIGNAL) != 1) {
      throw_server_lost("spawn command");
    }
    const auto frame = read_frame(control_fd_);
    if (!frame) throw_server_lost("spawn notice");
    const auto notice = decode_notice(*frame);
    if (!notice) throw_server_lost("spawn notice decode");
    if (notice->spawn_failed) {
      ++stats_.respawn_failures;
      if (++spawn_failure_streak_ > kSpawnMaxRetries) {
        throw std::runtime_error("sandbox: runner spawn failed after " +
                                 std::to_string(spawn_failure_streak_) + " attempts (errno " +
                                 std::to_string(notice->spawn_failed->err) + ")");
      }
      spawn_backoff_sleep(spawn_failure_streak_);
      continue;
    }
    if (!notice->spawned) throw_server_lost("spawn notice decode");
    runner_pid_ = notice->spawned->pid;
    ready_pending_ = true;
    if (spawned_once_) ++stats_.respawns;
    spawned_once_ = true;
    return;
  }
}

int ForkServer::reap_runner() {
  const auto frame = read_frame(control_fd_);
  if (!frame) throw_server_lost("exit notice");
  const auto notice = decode_notice(*frame);
  if (!notice || !notice->exited) throw_server_lost("exit notice decode");
  // Clear any torn response bytes the dead runner left behind so the next
  // runner starts on a clean socket.
  drain_nonblocking(data_fd_);
  runner_pid_ = -1;
  ready_pending_ = false;
  return notice->exited->wait_status;
}

/// waitpid-status → attempt classification for a dead runner.
ForkServer::AttemptKind ForkServer::classify_exit(int wait_status, int& signal) {
  if (WIFSIGNALED(wait_status)) {
    signal = WTERMSIG(wait_status);
    return AttemptKind::Crashed;
  }
  if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == kOomExitCode) {
    return AttemptKind::Oom;
  }
  // Unexpected clean exit (e.g. the runner hit a socket error): treat as a
  // crash with no signal so the retry/quarantine machinery still applies.
  signal = 0;
  return AttemptKind::Crashed;
}

std::optional<ForkServer::Attempt> ForkServer::await_ready(int deadline_ms) {
  for (;;) {
    bool data_ready = false;
    bool control_ready = false;
    const int rc =
        wait_readable2(data_fd_, control_fd_, deadline_ms, data_ready, control_ready);
    if (rc < 0) throw_server_lost("await ready");
    if (rc == 0) {
      ::kill(runner_pid_, SIGKILL);
      reap_runner();
      Attempt attempt;
      attempt.kind = AttemptKind::TimedOut;
      return attempt;
    }
    if (data_ready) {
      const auto frame = read_frame(data_fd_);
      if (!frame) throw_server_lost("read ready");
      if (is_ready_payload(*frame)) {
        ready_pending_ = false;
        spawn_failure_streak_ = 0;  // a healthy runner ends the streak
        return std::nullopt;  // runner is live and idle
      }
      const auto response = decode_response(*frame);
      if (!response) throw_server_lost("decode ready");
      if (response->status == WorkResponse::Status::Error) {
        // Fixture build failed and the runner is exiting. Transient factory
        // failures (resource spikes, dependency warm-up) heal under the same
        // backoff-and-respawn policy as fork failures; a deterministic one
        // exhausts the retries and surfaces as the original error.
        reap_runner();
        ++stats_.respawn_failures;
        if (++spawn_failure_streak_ > kSpawnMaxRetries) {
          throw std::runtime_error("sandbox child error: " + response->error);
        }
        spawn_backoff_sleep(spawn_failure_streak_);
        spawn_runner();
        continue;
      }
      // Fixture build blew the memory cap: the runner is exiting.
      reap_runner();
      Attempt attempt;
      attempt.kind = AttemptKind::Oom;
      return attempt;
    }
    if (control_ready) {
      const int status = reap_runner();
      Attempt attempt;
      attempt.kind = classify_exit(status, attempt.signal);
      return attempt;
    }
  }
}

ForkServer::Attempt ForkServer::attempt_once(const core::Interleaving& il) {
  const int deadline_ms =
      options_.watchdog_timeout_ms > 0 ? static_cast<int>(options_.watchdog_timeout_ms) : -1;

  if (runner_pid_ < 0) spawn_runner();
  if (ready_pending_) {
    // Fixture building gets its own deadline, mirroring the in-process
    // watchdog (which times the replay, not WorkerContext::build_fixture).
    if (auto failed = await_ready(deadline_ms)) return *failed;
  }

  if (!write_frame(data_fd_, il.key())) throw_server_lost("send work item");

  for (;;) {
    bool data_ready = false;
    bool control_ready = false;
    const int rc =
        wait_readable2(data_fd_, control_fd_, deadline_ms, data_ready, control_ready);
    if (rc < 0) throw_server_lost("await outcome");
    if (rc == 0) {
      // Deadline blown: escalate to SIGKILL. Unlike the in-process watchdog's
      // cooperative cancel, this reclaims a replay stuck inside subject code.
      ::kill(runner_pid_, SIGKILL);
      reap_runner();
      Attempt attempt;
      attempt.kind = AttemptKind::TimedOut;
      return attempt;
    }
    if (data_ready) {
      const auto frame = read_frame(data_fd_);
      if (!frame) throw_server_lost("read outcome");
      const auto response = decode_response(*frame);
      if (!response) throw_server_lost("decode outcome");
      switch (response->status) {
        case WorkResponse::Status::Ok: {
          Attempt attempt;
          attempt.kind = AttemptKind::Ok;
          attempt.response = std::move(*response);
          return attempt;
        }
        case WorkResponse::Status::Oom: {
          reap_runner();  // the runner exits right after reporting
          Attempt attempt;
          attempt.kind = AttemptKind::Oom;
          return attempt;
        }
        case WorkResponse::Status::Error:
          throw std::runtime_error("sandbox child error: " + response->error);
      }
    }
    if (control_ready) {
      const int status = reap_runner();
      Attempt attempt;
      attempt.kind = classify_exit(status, attempt.signal);
      return attempt;
    }
  }
}

core::InterleavingOutcome ForkServer::replay_one(const core::Interleaving& il) {
  Attempt last;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    last = attempt_once(il);
    switch (last.kind) {
      case AttemptKind::Ok: {
        if (attempt > 0) ++stats_.retry_successes;  // collateral, not deterministic
        return std::move(last.response.outcome);
      }
      case AttemptKind::TimedOut: {
        // No retry: watchdog timeouts quarantine immediately, matching the
        // in-process watchdog semantics.
        ++stats_.timeouts;
        core::InterleavingOutcome outcome;
        outcome.timed_out = true;
        return outcome;
      }
      case AttemptKind::Crashed:
        ++stats_.crashes;
        break;  // respawn happens lazily on the next attempt
      case AttemptKind::Oom:
        ++stats_.oom_kills;
        break;
    }
  }
  // Every attempt ran in a fresh child and failed the same way: the failure
  // is deterministic for this (plan, interleaving); quarantine it.
  core::InterleavingOutcome outcome;
  if (last.kind == AttemptKind::Crashed) {
    outcome.crashed = true;
    outcome.term_signal = last.signal;
  } else {
    outcome.oom = true;
  }
  return outcome;
}

}  // namespace erpi::sandbox
