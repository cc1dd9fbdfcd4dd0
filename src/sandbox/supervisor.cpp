#include "sandbox/supervisor.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
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

/// Wake the supervisor (the wake-up eventfd).
void wake_supervisor(int wake_fd) {
  const uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(wake_fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

/// Send one response frame whole. The supervisor waits on the wake-up
/// eventfd, not on the data socket, so whenever the socket is full the
/// runner wakes it and waits for room: a response of any size gets through
/// without either side waiting on the other.
bool send_response(int data_fd, int wake_fd, std::string_view frame) {
  if (frame.size() > 4 + util::kMaxFrameBytes) return false;  // as write_frame refuses it
  while (!frame.empty()) {
    const ssize_t n = ::send(data_fd, frame.data(), frame.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      frame.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    wake_supervisor(wake_fd);
    struct pollfd room = {data_fd, POLLOUT, 0};
    if (::poll(&room, 1, -1) < 0 && errno != EINTR) return false;
  }
  return true;
}

/// The per-worker sandbox child: builds a private subject fixture exactly
/// like sched::WorkerContext does in-process, then serves windows of work
/// items until the supervisor goes away. Never returns.
[[noreturn]] void run_runner_loop(int data_fd, int wake_fd, const RunnerConfig& config) {
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
  std::string oom_frame;
  append_frame(oom_frame, encode_response(oom_template));

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
    send_response(data_fd, wake_fd, oom_frame);
    ::_exit(kOomExitCode);
  } catch (const std::exception& e) {
    WorkResponse response;
    response.status = WorkResponse::Status::Error;
    response.error = std::string("sandbox fixture build failed: ") + e.what();
    write_frame(data_fd, encode_response(response));
    ::_exit(1);
  }

  // Handshake. A dead predecessor may have left part of its window unread;
  // the supervisor sends nothing until it has read the ready frame, so every
  // byte queued now is stale and is discarded first.
  drain_nonblocking(data_fd);
  if (!write_frame(data_fd, kReadyPayload)) ::_exit(0);

  FrameReader requests;
  std::string frame;      // one response frame
  bool answered = false;  // windows answered since the last wake-up
  for (;;) {
    const auto window = requests.next();
    if (!window) {
      if (requests.bad()) ::_exit(1);
      auto fill = requests.fill(data_fd, /*block=*/false);
      if (fill == FrameReader::Fill::Empty) {
        // Input ran dry: wake the supervisor once for everything answered
        // since the last wake-up, then wait for the next window.
        if (answered) wake_supervisor(wake_fd);
        answered = false;
        fill = requests.fill(data_fd, /*block=*/true);
      }
      if (fill != FrameReader::Fill::Data) ::_exit(0);  // supervisor gone
      continue;
    }
    // Answer the window's keys in order. Under stop_on_violation a
    // violation ends the window; the supervisor, applying the same rule,
    // expects no answer past it.
    for (std::string_view keys = *window; !keys.empty();) {
      const size_t cut = std::min(keys.find(kKeySeparator), keys.size());
      const auto il = core::Interleaving::parse_key(keys.substr(0, cut));
      if (!il) ::_exit(1);
      keys.remove_prefix(std::min(cut + 1, keys.size()));

      WorkResponse response;
      try {
        response.outcome = engine->replay_one(*il, config.events, assertions);
      } catch (const std::bad_alloc&) {
        send_response(data_fd, wake_fd, oom_frame);
        ::_exit(kOomExitCode);
      } catch (const std::exception& e) {
        response = WorkResponse{};
        response.status = WorkResponse::Status::Error;
        response.error = e.what();
      }
      frame.clear();
      append_frame(frame, encode_response(response));
      if (!send_response(data_fd, wake_fd, frame)) ::_exit(0);
      if (config.options.stop_on_violation && !response.outcome.violations.empty()) break;
    }
    answered = true;
  }
}

/// The fork server: a single-threaded child that forks runners on command
/// and reports their deaths. All runner forks happen here, so they are safe
/// no matter how many threads the exploring process runs.
[[noreturn]] void run_server_loop(int control_fd, int data_fd, int wake_fd,
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
      run_runner_loop(data_fd, wake_fd, config);
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
                       const core::EventSet& events) {
  if (!subject_factory) {
    throw std::invalid_argument("process isolation requires a subject factory");
  }
  if (base.watchdog_timeout_ms > 0) {
    deadline_ms_ = static_cast<int>(
        std::min<uint64_t>(base.watchdog_timeout_ms, std::numeric_limits<int>::max()));
  }
  stop_on_violation_ = base.stop_on_violation;

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
  const int wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake < 0) {
    for (const int fd : {control[0], control[1], data[0], data[1]}) ::close(fd);
    throw std::runtime_error("sandbox: wake-up eventfd failed");
  }

  const std::vector<int> sibling_fds = registry_snapshot();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {control[0], control[1], data[0], data[1], wake}) ::close(fd);
    throw std::runtime_error("sandbox: fork server fork failed");
  }
  if (pid == 0) {
    ::close(control[0]);
    ::close(data[0]);
    for (const int fd : sibling_fds) ::close(fd);
    run_server_loop(control[1], data[1], wake, config);
  }
  ::close(control[1]);
  ::close(data[1]);
  control_fd_ = control[0];
  data_fd_ = data[0];
  wake_fd_ = wake;
  server_pid_ = pid;
  registry_add(control_fd_);
  registry_add(data_fd_);
  registry_add(wake_fd_);

  int send_buffer = 0;
  socklen_t len = sizeof(send_buffer);
  if (::getsockopt(data_fd_, SOL_SOCKET, SO_SNDBUF, &send_buffer, &len) != 0 || send_buffer <= 0) {
    send_buffer = 64 * 1024;
  }
  max_request_bytes_ = static_cast<size_t>(send_buffer) / 4;

  // Eager first spawn so every worker's fixture starts building right away;
  // the ready handshake is consumed by the first replay().
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
  for (const int fd : {control_fd_, data_fd_, wake_fd_}) {
    if (fd < 0) continue;
    registry_remove(fd);
    ::close(fd);
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
  runner_pid_ = -1;
  ready_pending_ = false;
  return notice->exited->wait_status;
}

void ForkServer::clear_data() {
  reader_.clear();
  drain_nonblocking(data_fd_);
  uint64_t wakes = 0;
  (void)!::read(wake_fd_, &wakes, sizeof(wakes));
}

void ForkServer::read_queued() {
  for (;;) {
    switch (reader_.fill(data_fd_, /*block=*/false)) {
      case FrameReader::Fill::Data: continue;
      case FrameReader::Fill::Empty: return;
      case FrameReader::Fill::Eof:
      case FrameReader::Fill::Error: throw_server_lost("read data socket");
    }
  }
}

/// waitpid-status → failure classification for a dead runner.
ForkServer::Failure ForkServer::classify_exit(int wait_status) {
  Failure failure;
  if (WIFSIGNALED(wait_status)) {
    failure.signal = WTERMSIG(wait_status);
  } else if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == kOomExitCode) {
    failure.kind = Failure::Kind::Oom;
  }
  // Anything else is an unexpected clean exit (e.g. the runner hit a socket
  // error): a crash with no signal, so the retry/quarantine machinery still
  // applies.
  return failure;
}

std::optional<ForkServer::Failure> ForkServer::await_ready() {
  for (;;) {
    bool data_ready = false;
    bool control_ready = false;
    // Fixture building gets its own deadline, mirroring the in-process
    // watchdog (which times the replay, not WorkerContext::build_fixture).
    const int rc =
        wait_readable2(data_fd_, control_fd_, deadline_ms_, data_ready, control_ready);
    if (rc < 0) throw_server_lost("await ready");
    if (rc == 0) {
      ::kill(runner_pid_, SIGKILL);
      reap_runner();
      clear_data();
      return Failure{Failure::Kind::TimedOut};
    }
    if (data_ready) {
      read_queued();
      const auto frame = reader_.next();
      if (reader_.bad()) throw_server_lost("read ready");
      if (frame && *frame == kReadyPayload) {
        ready_pending_ = false;
        spawn_failure_streak_ = 0;  // a healthy runner ends the streak
        return std::nullopt;        // runner is live and idle
      }
      if (frame) {
        const auto response = decode_response(*frame);
        if (!response || response->status == WorkResponse::Status::Ok) {
          throw_server_lost("decode ready");
        }
        // The fixture build failed or blew the memory cap: the runner is
        // exiting.
        reap_runner();
        clear_data();
        if (response->status == WorkResponse::Status::Oom) return Failure{Failure::Kind::Oom};
        // Transient factory failures (resource spikes, dependency warm-up)
        // heal under the same backoff-and-respawn policy as fork failures; a
        // deterministic one exhausts the retries and surfaces as the
        // original error.
        ++stats_.respawn_failures;
        if (++spawn_failure_streak_ > kSpawnMaxRetries) {
          throw std::runtime_error("sandbox child error: " + response->error);
        }
        spawn_backoff_sleep(spawn_failure_streak_);
        spawn_runner();
        continue;
      }
    }
    if (control_ready) {
      const int status = reap_runner();
      clear_data();
      return classify_exit(status);
    }
  }
}

bool ForkServer::open(const Outcomes& outcomes, size_t head, size_t end) const {
  return head < end &&
         !(stop_on_violation_ && head > 0 && !outcomes[head - 1].violations.empty());
}

bool ForkServer::collect(Outcomes& outcomes, size_t& head, size_t end) {
  read_queued();
  while (open(outcomes, head, end)) {
    const auto frame = reader_.next();
    if (!frame) {
      if (reader_.bad()) throw_server_lost("read outcome");
      return false;
    }
    auto response = decode_response(*frame);
    if (!response) throw_server_lost("decode outcome");
    switch (response->status) {
      case WorkResponse::Status::Ok:
        outcomes[head++] = std::move(response->outcome);
        break;
      case WorkResponse::Status::Oom:
        return true;
      case WorkResponse::Status::Error:
        throw std::runtime_error("sandbox child error: " + response->error);
    }
  }
  return false;
}

std::optional<ForkServer::Failure> ForkServer::run(
    std::span<const core::Interleaving* const> window, Outcomes& outcomes, size_t& head,
    size_t end) {
  using Clock = std::chrono::steady_clock;
  while (open(outcomes, head, end)) {
    if (runner_pid_ < 0) spawn_runner();
    if (ready_pending_) {
      if (auto failed = await_ready()) return failed;
    }

    // One request frame carries the keys of as many items as fit
    // max_request_bytes_ (always at least one). The runner's queue is empty
    // here: it read the last window whole before answering it, or it is
    // fresh and discarded what a dead runner left.
    keys_.clear();
    size_t sent = head;
    while (sent < end) {
      const size_t mark = keys_.size();
      if (sent > head) keys_ += kKeySeparator;
      window[sent]->append_key(keys_);
      if (sent > head && keys_.size() > max_request_bytes_) {
        keys_.resize(mark);
        break;
      }
      ++sent;
    }
    if (!write_frame(data_fd_, keys_)) throw_server_lost("send work items");

    // The watchdog times the head of the window: the clock restarts whenever
    // the head has advanced, so a hung item dies within two deadlines of its
    // start, and never before one.
    auto head_since = Clock::now();
    while (open(outcomes, head, sent)) {
      int timeout_ms = -1;
      if (deadline_ms_ > 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 Clock::now() - head_since)
                                 .count();
        timeout_ms = static_cast<int>(std::max<int64_t>(0, deadline_ms_ - elapsed));
      }
      bool control_ready = false;
      bool wake_ready = false;
      const int rc =
          wait_readable2(control_fd_, wake_fd_, timeout_ms, control_ready, wake_ready);
      if (rc < 0) throw_server_lost("await outcomes");
      if (wake_ready) {
        uint64_t wakes = 0;
        (void)!::read(wake_fd_, &wakes, sizeof(wakes));
      }
      const size_t before = head;
      if (collect(outcomes, head, sent)) {
        reap_runner();  // the runner exits right after reporting
        clear_data();
        return Failure{Failure::Kind::Oom};
      }
      if (!open(outcomes, head, sent)) break;
      if (!control_ready) {
        // Progress restarts the clock for the new head; a wake-up without
        // progress waits on.
        if (head != before) {
          head_since = Clock::now();
          continue;
        }
        if (rc != 0) continue;
      }

      // The runner died, or the head blew its deadline and is SIGKILLed
      // (unlike the in-process watchdog's cooperative cancel, this reclaims
      // a replay stuck inside subject code). Either way the frames it wrote
      // first stay queued: commit their items before clearing the socket,
      // then charge the first unanswered item.
      const bool killed = !control_ready;
      if (killed) ::kill(runner_pid_, SIGKILL);
      const size_t unanswered = head;
      const int status = reap_runner();
      const bool oom = collect(outcomes, head, sent);
      clear_data();
      if (oom) return Failure{Failure::Kind::Oom};
      // A runner that answered the head in its race with the kill, or every
      // item before dying, leaves nothing to charge: the rest go to a fresh
      // runner.
      if (!open(outcomes, head, sent) || (killed && head != unanswered)) break;
      if (killed) return Failure{Failure::Kind::TimedOut};
      return classify_exit(status);
    }
  }
  return std::nullopt;
}

core::InterleavingOutcome ForkServer::settle(std::span<const core::Interleaving* const> window,
                                             Outcomes& outcomes, size_t head,
                                             Failure failure) {
  for (int attempt = 0;; ++attempt) {
    if (failure.kind == Failure::Kind::TimedOut) {
      // No retry: watchdog timeouts quarantine immediately, matching the
      // in-process watchdog semantics.
      ++stats_.timeouts;
      core::InterleavingOutcome outcome;
      outcome.timed_out = true;
      return outcome;
    }
    ++(failure.kind == Failure::Kind::Crashed ? stats_.crashes : stats_.oom_kills);
    if (attempt == kMaxRetries) break;
    // The retry runs alone in a fresh child (the failed runner is gone).
    ++stats_.retries;
    size_t retried = head;
    const auto again = run(window, outcomes, retried, head + 1);
    if (!again) {
      ++stats_.retry_successes;  // collateral, not deterministic
      return std::move(outcomes[head]);
    }
    failure = *again;
  }
  // Every attempt ran in a fresh child and failed the same way: the failure
  // is deterministic for this (plan, interleaving); quarantine it.
  core::InterleavingOutcome outcome;
  if (failure.kind == Failure::Kind::Crashed) {
    outcome.crashed = true;
    outcome.term_signal = failure.signal;
  } else {
    outcome.oom = true;
  }
  return outcome;
}

std::vector<core::InterleavingOutcome> ForkServer::replay(
    std::span<const core::Interleaving* const> window) {
  Outcomes outcomes(window.size());
  size_t head = 0;
  while (open(outcomes, head, window.size())) {
    if (const auto failure = run(window, outcomes, head, window.size())) {
      outcomes[head] = settle(window, outcomes, head, *failure);
      ++head;
    }
  }
  outcomes.resize(head);
  return outcomes;
}

}  // namespace erpi::sandbox
