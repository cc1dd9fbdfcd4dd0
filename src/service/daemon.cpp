#include "service/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "faults/explorer.hpp"
#include "util/frame.hpp"

namespace erpi::service {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Connection plumbing
// ---------------------------------------------------------------------------

/// Bounded MPSC frame buffer between job executors / the reader thread
/// (producers) and the connection's writer thread (consumer). push blocks
/// while full — that block IS the backpressure: it stalls exactly the thread
/// streaming to this client. close() unblocks everyone; pushes then fail and
/// pops drain the residue before reporting end-of-stream.
struct Daemon::FrameQueue {
  explicit FrameQueue(size_t cap) : cap_(cap == 0 ? 1 : cap) {}

  bool push(std::string frame) {
    std::unique_lock lock(mu_);
    space_cv_.wait(lock, [&] { return closed_ || frames_.size() < cap_; });
    if (closed_) return false;
    frames_.push_back(std::move(frame));
    items_cv_.notify_one();
    return true;
  }

  std::optional<std::string> pop() {
    std::unique_lock lock(mu_);
    items_cv_.wait(lock, [&] { return closed_ || !frames_.empty(); });
    if (frames_.empty()) return std::nullopt;
    std::string frame = std::move(frames_.front());
    frames_.pop_front();
    space_cv_.notify_one();
    return frame;
  }

  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    space_cv_.notify_all();
    items_cv_.notify_all();
  }

 private:
  const size_t cap_;
  std::mutex mu_;
  std::condition_variable space_cv_;
  std::condition_variable items_cv_;
  std::deque<std::string> frames_;
  bool closed_ = false;
};

struct Daemon::ClientConn {
  ClientConn(int fd, size_t queue_cap) : fd(fd), queue(queue_cap) {}

  const int fd;
  FrameQueue queue;
  std::atomic<bool> closed{false};
  std::atomic<bool> reader_done{false};
  std::atomic<bool> writer_done{false};
  std::thread reader;
  std::thread writer;
};

struct Daemon::Job {
  JobSpec spec;
  std::shared_ptr<std::atomic<bool>> cancel = std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<ClientConn> client;  // null for journal-resumed jobs
  bool resumed = false;
  bool budget_reserved = false;
  int attempts = 0;
  // Deadline bookkeeping (the monitor thread reads these under mu_; the
  // executor writes running/deadline under mu_ before the attempt starts).
  bool running = false;
  bool has_deadline = false;
  Clock::time_point deadline{};
  std::atomic<bool> deadline_hit{false};
};

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

namespace {
void put_nonzero(util::Json& j, const char* key, uint64_t v) {
  if (v != 0) j[key] = v;
}
}  // namespace

util::Json ServiceStats::to_json() const {
  util::Json j = util::Json::object();
  put_nonzero(j, "accepted", accepted);
  put_nonzero(j, "rejected_overloaded", rejected_overloaded);
  put_nonzero(j, "rejected_quarantined", rejected_quarantined);
  put_nonzero(j, "rejected_invalid", rejected_invalid);
  put_nonzero(j, "retried", retried);
  put_nonzero(j, "quarantine_trips", quarantine_trips);
  put_nonzero(j, "resumed", resumed);
  put_nonzero(j, "completed", completed);
  put_nonzero(j, "failed", failed);
  put_nonzero(j, "cancelled", cancelled);
  put_nonzero(j, "timed_out", timed_out);
  put_nonzero(j, "queued", queued);
  put_nonzero(j, "running", running);
  if (!tenants.empty()) {
    util::Json t = util::Json::object();
    for (const auto& [name, tenant] : tenants) {
      util::Json row = util::Json::object();
      put_nonzero(row, "jobs", tenant.jobs);
      put_nonzero(row, "budget_burn_bytes", tenant.budget_burn_bytes);
      put_nonzero(row, "failures", tenant.failures);
      if (tenant.quarantined) row["quarantined"] = true;
      t[name] = std::move(row);
    }
    j["tenants"] = std::move(t);
  }
  return j;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Daemon::Daemon(ServiceConfig config, Registry registry)
    : config_(std::move(config)),
      registry_(std::move(registry)),
      budget_(config_.budget_bytes) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (started_) throw std::logic_error("service: daemon already started");
  started_ = true;

  journal_ = std::make_unique<QueueJournal>(config_.journal_dir);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("service: socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("service: socket path too long: " + config_.socket_path);
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(), config_.socket_path.size() + 1);
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("service: cannot listen on " + config_.socket_path);
  }

  resume_pending();

  const int executors =
      config_.executor_threads > 0 ? config_.executor_threads
                                   : std::max(1, config_.max_concurrent_jobs);
  for (int i = 0; i < executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  monitor_thread_ = std::thread([this] { monitor_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::wait() {
  {
    std::unique_lock lock(stop_mu_);
    stop_cv_.wait(lock, [&] { return stop_requested_; });
  }
  stop();
}

void Daemon::stop() {
  {
    std::lock_guard lock(stop_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
    // Set under stop_mu_ so monitor_loop's wait predicate (which reads stop_
    // while holding stop_mu_) cannot miss the notify below.
    stop_.store(true);
  }
  stop_cv_.notify_all();

  // Wind running jobs down and unblock any executor stuck on a full client
  // queue before joining the pool.
  {
    std::lock_guard lock(mu_);
    for (auto& [id, job] : in_flight_) job->cancel->store(true);
    for (auto& conn : clients_) {
      conn->queue.close();
      // SHUT_RD (not RDWR): unblocks a reader stuck mid-frame but lets the
      // writer flush residual frames — e.g. the "stopping" reply that
      // triggered this teardown. Writer exit is still bounded by the
      // SO_SNDTIMEO set at accept time.
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  queue_cv_.notify_all();

  if (accept_thread_.joinable()) accept_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();

  std::vector<std::shared_ptr<ClientConn>> clients;
  {
    std::lock_guard lock(mu_);
    clients.swap(clients_);
  }
  for (auto& conn : clients) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    ::close(conn->fd);
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
}

ServiceStats Daemon::stats() const {
  std::lock_guard lock(mu_);
  ServiceStats snapshot = stats_;
  const auto now = Clock::now();
  for (const auto& [name, tenant] : tenants_) {
    auto& row = snapshot.tenants[name];
    row.jobs = tenant.jobs;
    row.budget_burn_bytes = tenant.budget_burn_bytes;
    row.failures = tenant.failures;
    row.quarantined = now < tenant.open_until;
  }
  return snapshot;
}

void Daemon::resume_pending() {
  for (auto& spec : QueueJournal::load_pending(config_.journal_dir)) {
    if (registry_.find(spec.scenario) == nullptr) {
      // The journal outlived the scenario registration; fail it terminally
      // rather than resurrect it forever.
      journal_->record_finished(spec.id, "failed");
      continue;
    }
    auto job = std::make_shared<Job>();
    job->spec = std::move(spec);
    job->resumed = true;
    job->budget_reserved = budget_.try_reserve(job->spec.budget_bytes);
    std::lock_guard lock(mu_);
    in_flight_[job->spec.id] = job;
    queue_.push_back(job);
    ++stats_.resumed;
    ++stats_.queued;
  }
  queue_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Socket threads
// ---------------------------------------------------------------------------

void Daemon::accept_loop() {
  while (!stop_.load()) {
    reap_dead_clients();
    if (util::wait_readable(listen_fd_, 200) <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Bound every blocking send: a client that stops reading while its
    // socket buffer is full must not pin a writer thread forever (the frame
    // queue, not the kernel buffer, is the intended backpressure surface).
    timeval send_timeout{};
    send_timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof(send_timeout));
    auto conn = std::make_shared<ClientConn>(fd, config_.max_client_queue_frames);
    {
      std::lock_guard lock(mu_);
      if (stop_.load()) {
        ::close(fd);
        return;
      }
      clients_.push_back(conn);
    }
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Daemon::reap_dead_clients() {
  std::vector<std::shared_ptr<ClientConn>> dead;
  {
    std::lock_guard lock(mu_);
    for (auto it = clients_.begin(); it != clients_.end();) {
      if ((*it)->reader_done.load() && (*it)->writer_done.load()) {
        dead.push_back(*it);
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : dead) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    ::close(conn->fd);
  }
}

void Daemon::reader_loop(std::shared_ptr<ClientConn> conn) {
  while (!stop_.load() && !conn->closed.load()) {
    const int readable = util::wait_readable(conn->fd, 200);
    if (readable == 0) continue;
    if (readable < 0) break;
    auto frame = util::read_frame(conn->fd);
    if (!frame) break;  // EOF or malformed frame: drop the connection
    try {
      handle_request(conn, *frame);
    } catch (const std::exception&) {
      // A hostile/buggy frame must never escape a reader thread (that would
      // std::terminate the whole multi-tenant daemon). Ops type-check their
      // inputs, so this is a backstop, not the normal rejection path.
      util::Json reply = util::Json::object();
      reply["status"] = "rejected";
      reply["reason"] = "bad_request";
      send(conn, reply);
    }
  }
  disconnect(conn);
  conn->reader_done.store(true);
}

void Daemon::writer_loop(std::shared_ptr<ClientConn> conn) {
  while (auto frame = conn->queue.pop()) {
    if (!util::write_frame(conn->fd, *frame)) {
      conn->queue.close();
      break;
    }
  }
  conn->writer_done.store(true);
}

void Daemon::disconnect(const std::shared_ptr<ClientConn>& conn) {
  if (conn->closed.exchange(true)) return;
  conn->queue.close();
  std::lock_guard lock(mu_);
  for (auto& [id, job] : in_flight_) {
    if (job->client == conn) job->cancel->store(true);
  }
}

void Daemon::send(const std::shared_ptr<ClientConn>& conn, const util::Json& frame) {
  conn->queue.push(frame.dump());
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

void Daemon::handle_request(const std::shared_ptr<ClientConn>& conn,
                            const std::string& frame) {
  auto parsed = util::Json::parse(frame);
  util::Json reply = util::Json::object();
  if (!parsed || !parsed.value().is_object() || !parsed.value().contains("op") ||
      !parsed.value()["op"].is_string()) {
    reply["status"] = "rejected";
    reply["reason"] = "bad_request";
    send(conn, reply);
    return;
  }
  const util::Json& request = parsed.value();
  const std::string& op = request["op"].as_string();
  // Wrong-typed "id" is a malformed request, not a lookup miss.
  if ((op == "cancel" || op == "fetch") &&
      (!request.contains("id") || !request["id"].is_string())) {
    reply["status"] = "rejected";
    reply["reason"] = "bad_request";
    send(conn, reply);
    return;
  }

  if (op == "ping") {
    reply["status"] = "ok";
    send(conn, reply);
  } else if (op == "stats") {
    reply["status"] = "ok";
    reply["stats"] = stats().to_json();
    send(conn, reply);
  } else if (op == "shutdown") {
    reply["status"] = "stopping";
    send(conn, reply);
    {
      std::lock_guard lock(stop_mu_);
      stop_requested_ = true;
    }
    stop_cv_.notify_all();  // wait() performs the actual teardown
  } else if (op == "submit") {
    handle_submit(conn, request["job"]);
  } else if (op == "cancel") {
    const std::string& id = request["id"].as_string();
    std::shared_ptr<Job> job;
    {
      std::lock_guard lock(mu_);
      const auto it = in_flight_.find(id);
      if (it != in_flight_.end()) job = it->second;
    }
    if (job) {
      job->cancel->store(true);
      reply["id"] = id;
      reply["status"] = "cancel_requested";
    } else {
      reply["id"] = id;
      reply["status"] = "not_found";
    }
    send(conn, reply);
  } else if (op == "fetch") {
    const std::string& id = request["id"].as_string();
    // Check in_flight_ BEFORE the report file: finish_job writes the report
    // and then erases the id, both under mu_, so observing the id absent
    // guarantees any finished job's report is already on disk. The opposite
    // order could answer not_found for a job finishing in between.
    bool pending = false;
    {
      std::lock_guard lock(mu_);
      pending = in_flight_.count(id) > 0;
    }
    if (pending) {
      reply["id"] = id;
      reply["status"] = "in_flight";
      send(conn, reply);
    } else if (auto stored = QueueJournal::read_report(config_.journal_dir, id)) {
      send(conn, *stored);
    } else {
      reply["id"] = id;
      reply["status"] = "not_found";
      send(conn, reply);
    }
  } else {
    reply["status"] = "rejected";
    reply["reason"] = "unknown_op";
    reply["op"] = op;
    send(conn, reply);
  }
}

void Daemon::handle_submit(const std::shared_ptr<ClientConn>& conn,
                           const util::Json& job_json) {
  util::Json reply = util::Json::object();
  auto parsed = JobSpec::from_json(job_json);
  if (!parsed) {
    std::lock_guard lock(mu_);
    ++stats_.rejected_invalid;
    reply["status"] = "rejected";
    reply["reason"] = "bad_request";
    reply["error"] = parsed.error().message;
    send(conn, reply);
    return;
  }
  JobSpec spec = std::move(parsed).take();
  reply["id"] = spec.id;

  if (registry_.find(spec.scenario) == nullptr) {
    std::lock_guard lock(mu_);
    ++stats_.rejected_invalid;
    reply["status"] = "rejected";
    reply["reason"] = "unknown_scenario";
    reply["scenario"] = spec.scenario;
    send(conn, reply);
    return;
  }

  auto job = std::make_shared<Job>();
  bool accepted = false;
  std::optional<util::Json> stored;
  {
    // Build the reply under the lock, push it after: queue.push can block on
    // a full client queue, and blocking with mu_ held would let one slow
    // reader stall every tenant.
    std::lock_guard lock(mu_);
    const auto now = Clock::now();
    TenantState& tenant = tenants_[spec.tenant];
    if (in_flight_.count(spec.id) != 0) {
      ++stats_.rejected_invalid;
      reply["status"] = "rejected";
      reply["reason"] = "duplicate";
    } else if ((stored = QueueJournal::read_report(config_.journal_dir, spec.id))) {
      // Idempotent resubmission: a finished id replays its persisted final
      // frame instead of re-running. Checked under mu_ AFTER the in_flight_
      // lookup — finish_job writes the report then erases the id under this
      // same mutex, so an unlocked check could miss both and re-accept a
      // just-finished job.
    } else if (config_.breaker_threshold > 0 && now < tenant.open_until) {
      ++stats_.rejected_quarantined;
      reply["status"] = "rejected";
      reply["reason"] = "quarantined";
      reply["retry_after_ms"] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(tenant.open_until - now)
              .count());
    } else if (in_flight_.size() >=
               static_cast<size_t>(std::max(1, config_.max_concurrent_jobs))) {
      ++stats_.rejected_overloaded;
      reply["status"] = "rejected";
      reply["reason"] = "overloaded";
      reply["retry_after_ms"] = config_.retry_after_ms;
    } else if (!budget_.try_reserve(spec.budget_bytes)) {
      ++stats_.rejected_overloaded;
      reply["status"] = "rejected";
      reply["reason"] = "overloaded";
      reply["detail"] = "budget";
      reply["retry_after_ms"] = config_.retry_after_ms;
    } else {
      job->spec = std::move(spec);
      job->client = conn;
      job->budget_reserved = true;
      journal_->record_accepted(job->spec);
      in_flight_[job->spec.id] = job;  // reserves the id; queued below
      ++stats_.accepted;
      ++stats_.queued;
      reply["status"] = "accepted";
      accepted = true;
    }
  }
  if (stored) {
    send(conn, *stored);
    return;
  }
  // The reply must reach the client's frame queue BEFORE the job becomes
  // runnable: a fast job could otherwise stream its retrying/terminal frames
  // ahead of the "accepted" frame. in_flight_ already holds the id, so a
  // racing duplicate submit still bounces.
  send(conn, reply);
  if (accepted) {
    {
      std::lock_guard lock(mu_);
      queue_.push_back(job);
    }
    queue_cv_.notify_one();
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Daemon::executor_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mu_);
      queue_cv_.wait(lock, [&] { return stop_.load() || !queue_.empty(); });
      if (stop_.load()) return;  // unfinished jobs stay journaled for restart
      job = queue_.front();
      queue_.pop_front();
      --stats_.queued;
      ++stats_.running;
      job->running = true;
      const uint64_t timeout_ms =
          job->spec.timeout_ms != 0 ? job->spec.timeout_ms : config_.job_timeout_ms;
      if (timeout_ms != 0) {
        job->has_deadline = true;
        job->deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
      }
    }
    run_job(job);
  }
}

void Daemon::monitor_loop() {
  while (!stop_.load()) {
    {
      std::unique_lock lock(stop_mu_);
      // Predicate on stop_, not stop_requested_: after a client shutdown op
      // the latter is already true while wait() runs the actual teardown, and
      // waiting on it would turn every wait_for into an immediate return
      // (a 100%-CPU spin — forever, if the embedder never calls wait()).
      stop_cv_.wait_for(lock, std::chrono::milliseconds(50),
                        [&] { return stop_.load(); });
    }
    if (stop_.load()) return;
    std::lock_guard lock(mu_);
    const auto now = Clock::now();
    for (auto& [id, job] : in_flight_) {
      if (job->running && job->has_deadline && now >= job->deadline &&
          !job->cancel->load()) {
        job->deadline_hit.store(true);
        job->cancel->store(true);
      }
    }
  }
}

void Daemon::run_job(const std::shared_ptr<Job>& job) {
  std::string status;
  std::string error;
  util::Json report_json;
  while (true) {
    try {
      core::ReplayReport report = run_attempt(*job);
      if (report.cancelled) {
        status = job->deadline_hit.load() ? "timed_out" : "cancelled";
      } else {
        status = "done";
      }
      report_json = report.verdict().to_json();
      break;
    } catch (const std::exception& ex) {
      if (job->cancel->load()) {
        status = job->deadline_hit.load() ? "timed_out" : "cancelled";
        break;
      }
      if (job->attempts >= config_.max_retries) {
        status = "failed";
        error = ex.what();
        break;
      }
      ++job->attempts;
      {
        std::lock_guard lock(mu_);
        ++stats_.retried;
      }
      if (job->client && !job->client->closed.load()) {
        util::Json frame = util::Json::object();
        frame["id"] = job->spec.id;
        frame["status"] = "retrying";
        frame["attempt"] = job->attempts;
        frame["error"] = ex.what();
        send(job->client, frame);
      }
      // Capped exponential backoff, polled so a cancel lands promptly.
      uint64_t delay = config_.retry_backoff_ms;
      for (int i = 1; i < job->attempts; ++i) {
        delay = std::min(delay * 2, config_.retry_backoff_cap_ms);
      }
      const auto until = Clock::now() + std::chrono::milliseconds(delay);
      while (Clock::now() < until && !job->cancel->load() && !stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  finish_job(job, status, std::move(report_json), error);
}

core::ReplayReport Daemon::run_attempt(Job& job) {
  const Scenario& scenario = *registry_.find(job.spec.scenario);
  auto subject = scenario.make_subject();
  proxy::RdlProxy proxy(*subject);

  core::Session::Config config;
  config.mode = *job.spec.exploration_mode();
  config.replay.max_interleavings = job.spec.max_interleavings;
  config.replay.stop_on_violation = job.spec.stop_on_violation;
  config.random_seed = job.spec.seed;
  config.parallelism = job.spec.parallelism;
  if (scenario.configure) scenario.configure(config);
  config.subject_factory = scenario.make_subject;
  config.resume_journal =
      QueueJournal::job_journal_path(config_.journal_dir, job.spec.id);
  config.replay.cancel = job.cancel;
  if (config_.progress_every != 0 && job.client) {
    auto client = job.client;
    const std::string id = job.spec.id;
    const uint64_t every = config_.progress_every;
    config.replay.on_outcome = [client, id, every](uint64_t index,
                                                   const core::Interleaving&,
                                                   const core::InterleavingOutcome&) {
      if (index == 0 || index % every != 0) return;
      if (client->closed.load()) return;
      util::Json frame = util::Json::object();
      frame["id"] = id;
      util::Json progress = util::Json::object();
      progress["explored"] = index;
      frame["progress"] = std::move(progress);
      client->queue.push(frame.dump());  // blocking push = per-client throttle
    };
  }

  core::Session session(proxy, std::move(config));
  session.start();
  scenario.workload(proxy);

  const auto assertions = scenario.assertions;
  return faults::explore_with_faults(
      session,
      [assertions](proxy::Rdl&) {
        return assertions ? assertions() : core::AssertionList{};
      },
      job.spec.apply_catalog(scenario.catalog));
}

void Daemon::finish_job(const std::shared_ptr<Job>& job, const std::string& status,
                        util::Json report_json, const std::string& error) {
  util::Json frame = util::Json::object();
  frame["id"] = job->spec.id;
  frame["status"] = status;
  if (!report_json.is_null()) frame["report"] = std::move(report_json);
  if (!error.empty()) frame["error"] = error;

  {
    std::lock_guard lock(mu_);
    // Persist the report BEFORE marking the job finished, and skip the
    // finished record when the report can't be written (ENOSPC/EIO): a
    // finished-but-reportless job would make fetch answer not_found forever
    // while a restart skips the re-run. Leaving it "accepted" keeps the
    // durability contract — the next start() runs it again. The in-process
    // client still gets the final frame, flagged as unpersisted.
    if (QueueJournal::write_report(config_.journal_dir, job->spec.id, frame)) {
      journal_->record_finished(job->spec.id, status);
    } else {
      frame["report_degraded"] = true;
    }

    TenantState& tenant = tenants_[job->spec.tenant];
    ++tenant.jobs;
    tenant.budget_burn_bytes += job->spec.budget_bytes;
    if (status == "failed") {
      ++tenant.failures;
      ++stats_.failed;
      if (config_.breaker_threshold > 0 &&
          ++tenant.consecutive_failures >= config_.breaker_threshold) {
        tenant.open_until =
            Clock::now() + std::chrono::milliseconds(config_.breaker_cooldown_ms);
        tenant.consecutive_failures = 0;  // half-open after the cooldown
        ++stats_.quarantine_trips;
      }
    } else {
      tenant.consecutive_failures = 0;
      if (status == "done") ++stats_.completed;
      else if (status == "cancelled") ++stats_.cancelled;
      else if (status == "timed_out") ++stats_.timed_out;
    }

    if (job->budget_reserved) budget_.release(job->spec.budget_bytes);
    in_flight_.erase(job->spec.id);
    --stats_.running;
  }

  if (job->client && !job->client->closed.load()) send(job->client, frame);
}

}  // namespace erpi::service
