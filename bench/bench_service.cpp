// Exploration-service chaos drills + load sweep (DESIGN.md §14).
//
// --smoke runs the ISSUE acceptance drills against a real daemon process:
//   1. kill -9 a forked daemon mid-job; restart over the same journal dir;
//      every accepted job must finish with a final report byte-identical to
//      an uninterrupted run's.
//   2. sustained overload against a 1-slot daemon: every non-accepted
//      submission must be a structured {rejected, overloaded, retry_after_ms}
//      frame — no dropped connections, no malformed frames.
//   3. a crashy tenant trips its circuit breaker while a healthy tenant's
//      report stays byte-identical to a solo-daemon run.
// Any drill failure exits non-zero (ctest runs this as bench_service_smoke).
//
// Without --smoke, sweeps concurrent small jobs across job parallelism and
// emits throughput rows to BENCH_service.json (CI uploads the artifact).
//
// Usage: bench_service [--smoke] [--jobs N] [--out BENCH_service.json]
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/daemon.hpp"

using namespace erpi;
using service::Client;
using service::Daemon;
using service::JobSpec;
using service::ServiceConfig;

namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const char* name) {
  const std::string dir = fs::temp_directory_path().string() + "/erpi_bench_svc_" + name;
  fs::remove_all(dir);
  return dir;
}

ServiceConfig base_config(const std::string& dir) {
  ServiceConfig config;
  config.journal_dir = dir;
  config.socket_path = dir + ".sock";
  config.retry_backoff_ms = 1;
  config.retry_backoff_cap_ms = 8;
  return config;
}

JobSpec drill_job(const std::string& id) {
  JobSpec spec;
  spec.id = id;
  spec.scenario = "town-demo";
  // A few fault plans per job: enough journaled work that a SIGKILL lands
  // mid-exploration instead of between jobs.
  spec.max_drops = 2;
  spec.max_duplicates = 1;
  return spec;
}

/// Submit and return this job's admission reply, skipping stream frames
/// (progress / terminal) that earlier jobs on the same connection may
/// interleave ahead of it.
std::optional<util::Json> admission_reply(Client& client, const JobSpec& spec) {
  auto frame = client.submit(spec);
  while (frame) {
    if (frame->is_object()) {
      const std::string status =
          frame->contains("status") ? (*frame)["status"].as_string() : "";
      const std::string id = frame->contains("id") ? (*frame)["id"].as_string() : "";
      if (id.empty() || (id == spec.id && (status == "accepted" || status == "rejected"))) {
        return frame;
      }
    }
    frame = client.next_frame(10'000);
  }
  return frame;
}

bool wait_connectable(const std::string& socket_path, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    Client probe;
    if (probe.connect(socket_path)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

int fail(const char* drill, const std::string& detail) {
  std::fprintf(stderr, "bench_service: drill '%s' FAILED: %s\n", drill, detail.c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// Drill 1: SIGKILL mid-job, restart, byte-identical resume
// ---------------------------------------------------------------------------

int drill_sigkill_resume() {
  constexpr int kJobs = 4;

  // Uninterrupted reference: same specs on a daemon of their own.
  std::vector<std::string> reference(kJobs);
  {
    const std::string dir = scratch_dir("ref");
    Daemon daemon(base_config(dir));
    daemon.start();
    Client client;
    if (!client.connect(dir + ".sock")) return fail("sigkill", "reference connect");
    for (int i = 0; i < kJobs; ++i) {
      const auto frame = client.run(drill_job("job-" + std::to_string(i)));
      if (!frame || (*frame)["status"].as_string() != "done") {
        return fail("sigkill", "reference job did not finish");
      }
      reference[i] = frame->dump();
    }
    daemon.stop();
  }  // daemon threads joined: the process is single-threaded again, fork-safe

  const std::string dir = scratch_dir("kill");
  const pid_t child = ::fork();
  if (child < 0) return fail("sigkill", "fork failed");
  if (child == 0) {
    // Daemon process: serve until killed. wait() never returns here.
    try {
      Daemon daemon(base_config(dir));
      daemon.start();
      daemon.wait();
    } catch (...) {
    }
    ::_exit(0);
  }

  if (!wait_connectable(dir + ".sock", 10'000)) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    return fail("sigkill", "daemon child never came up");
  }
  {
    Client client;
    if (!client.connect(dir + ".sock")) return fail("sigkill", "connect");
    for (int i = 0; i < kJobs; ++i) {
      const auto reply = admission_reply(client, drill_job("job-" + std::to_string(i)));
      if (!reply || (*reply)["status"].as_string() != "accepted") {
        ::kill(child, SIGKILL);
        ::waitpid(child, nullptr, 0);
        return fail("sigkill", "job not accepted before kill");
      }
    }
  }
  // Every job is durably journaled (accepted replies are sent after the
  // fsync'd journal append); most are mid-exploration right now. Kill -9.
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);

  // Restart over the same journal dir, in-process this time.
  ServiceConfig config = base_config(dir);
  config.journal_dir = dir;  // scratch_dir would wipe it; reuse as-is
  Daemon daemon(config);
  daemon.start();
  if (daemon.stats().resumed + daemon.stats().completed == 0) {
    // At least one job must still have been pending; all four finishing
    // sub-millisecond before SIGKILL would make the drill vacuous.
    std::fprintf(stderr, "bench_service: note: no jobs pending at kill time\n");
  }
  Client client;
  if (!client.connect(config.socket_path)) return fail("sigkill", "reconnect");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (int i = 0; i < kJobs; ++i) {
    const std::string id = "job-" + std::to_string(i);
    for (;;) {
      const auto fetched = client.fetch(id);
      if (fetched && (*fetched)["status"].as_string() == "done") {
        if (fetched->dump() != reference[i]) {
          return fail("sigkill", "resumed report for " + id +
                                     " diverged from uninterrupted run:\n  got " +
                                     fetched->dump() + "\n  want " + reference[i]);
        }
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        return fail("sigkill", "resumed job " + id + " never finished");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  daemon.stop();
  std::printf("  sigkill-resume: %d jobs resumed, all reports byte-identical\n", kJobs);
  return 0;
}

// ---------------------------------------------------------------------------
// Drill 2: sustained overload yields only structured rejections
// ---------------------------------------------------------------------------

int drill_overload() {
  const std::string dir = scratch_dir("overload");
  ServiceConfig config = base_config(dir);
  config.max_concurrent_jobs = 1;
  config.retry_after_ms = 50;
  Daemon daemon(config);
  daemon.start();

  constexpr int kSubmissions = 48;
  int accepted = 0;
  int rejected = 0;
  Client client;
  if (!client.connect(config.socket_path)) return fail("overload", "connect");
  std::vector<std::string> accepted_ids;
  for (int i = 0; i < kSubmissions; ++i) {
    const auto reply = admission_reply(client, drill_job("load-" + std::to_string(i)));
    if (!reply) return fail("overload", "connection dropped under load");
    const std::string status = (*reply)["status"].as_string();
    if (status == "accepted") {
      ++accepted;
      accepted_ids.push_back("load-" + std::to_string(i));
    } else if (status == "rejected") {
      if ((*reply)["reason"].as_string() != "overloaded" ||
          !reply->contains("retry_after_ms") ||
          (*reply)["retry_after_ms"].as_int() <= 0) {
        return fail("overload", "unstructured rejection frame: " + reply->dump());
      }
      ++rejected;
    } else {
      return fail("overload", "unexpected admission status: " + reply->dump());
    }
  }
  if (rejected == 0) {
    return fail("overload", "1-slot daemon absorbed 48 rapid submissions");
  }
  // Every accepted job still runs to completion under the pressure.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  Client poller;
  if (!poller.connect(config.socket_path)) return fail("overload", "poller connect");
  for (const auto& id : accepted_ids) {
    for (;;) {
      const auto fetched = poller.fetch(id);
      if (fetched && (*fetched)["status"].as_string() == "done") break;
      if (std::chrono::steady_clock::now() > deadline) {
        return fail("overload", "accepted job " + id + " starved");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  const auto stats = daemon.stats();
  daemon.stop();
  std::printf("  overload: %d accepted / %d structured rejections (stats: %s)\n",
              accepted, rejected, stats.to_json().dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Drill 3: crashy tenant circuit-broken, healthy tenant byte-identical
// ---------------------------------------------------------------------------

int drill_breaker() {
  // Healthy tenant's job on an idle solo daemon.
  std::string solo;
  {
    const std::string dir = scratch_dir("breaker_solo");
    Daemon daemon(base_config(dir));
    daemon.start();
    Client client;
    if (!client.connect(dir + ".sock")) return fail("breaker", "solo connect");
    const auto frame = client.run(drill_job("good-job"));
    if (!frame || (*frame)["status"].as_string() != "done") {
      return fail("breaker", "solo run did not finish");
    }
    solo = (*frame)["report"].dump();
    daemon.stop();
  }

  const std::string dir = scratch_dir("breaker");
  ServiceConfig config = base_config(dir);
  config.max_retries = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown_ms = 60'000;
  Daemon daemon(config);
  daemon.start();
  Client evil;
  if (!evil.connect(config.socket_path)) return fail("breaker", "connect");
  for (int i = 0; i < 2; ++i) {
    JobSpec crashy;
    crashy.id = "evil-" + std::to_string(i);
    crashy.tenant = "evil";
    crashy.scenario = "town-crashy";
    const auto frame = evil.run(crashy);
    if (!frame || (*frame)["status"].as_string() != "failed") {
      return fail("breaker", "crashy job did not fail terminally");
    }
  }
  JobSpec third;
  third.id = "evil-2";
  third.tenant = "evil";
  third.scenario = "town-crashy";
  const auto quarantined = evil.submit(third);
  if (!quarantined || (*quarantined)["reason"].as_string() != "quarantined") {
    return fail("breaker", "breaker did not trip after repeated failures");
  }

  Client good;
  if (!good.connect(config.socket_path)) return fail("breaker", "good connect");
  JobSpec healthy = drill_job("good-job");
  healthy.tenant = "good";
  const auto frame = good.run(healthy);
  if (!frame || (*frame)["status"].as_string() != "done") {
    return fail("breaker", "healthy tenant blocked by crashy tenant");
  }
  if ((*frame)["report"].dump() != solo) {
    return fail("breaker", "healthy tenant's report diverged from solo run:\n  got " +
                               (*frame)["report"].dump() + "\n  want " + solo);
  }
  const auto stats = daemon.stats();
  daemon.stop();
  if (stats.quarantine_trips != 1) {
    return fail("breaker", "expected exactly one quarantine trip");
  }
  std::printf("  breaker: crashy tenant quarantined, healthy report byte-identical\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Load sweep
// ---------------------------------------------------------------------------

util::Json sweep_round(int job_parallelism, int jobs) {
  const std::string dir =
      scratch_dir(("sweep_p" + std::to_string(job_parallelism)).c_str());
  ServiceConfig config = base_config(dir);
  config.max_concurrent_jobs = 8;
  Daemon daemon(config);
  daemon.start();

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<int> done{0};
  std::atomic<uint64_t> pairs{0};
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.connect(config.socket_path)) return;
      for (int i = c; i < jobs; i += kClients) {
        JobSpec spec = drill_job("sweep-" + std::to_string(i));
        spec.parallelism = job_parallelism;
        // run() retries after overload rejections: the sweep measures
        // end-to-end goodput including admission-control round-trips.
        for (;;) {
          const auto frame = client.run(spec);
          if (!frame) return;
          if ((*frame)["status"].as_string() == "done") {
            ++done;
            pairs += static_cast<uint64_t>((*frame)["report"]["explored"].as_int());
            break;
          }
          if ((*frame)["status"].as_string() != "rejected") return;
          std::this_thread::sleep_for(std::chrono::milliseconds(
              (*frame)["retry_after_ms"].as_int()));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const auto stats = daemon.stats();
  daemon.stop();

  util::Json row = util::Json::object();
  row["job_parallelism"] = static_cast<int64_t>(job_parallelism);
  row["jobs"] = static_cast<int64_t>(done.load());
  row["pairs"] = static_cast<int64_t>(pairs.load());
  row["seconds"] = seconds;
  row["jobs_per_sec"] = seconds > 0 ? static_cast<double>(done.load()) / seconds : 0.0;
  row["rejections"] = stats.rejected_overloaded;
  std::printf("  p=%d  %3d jobs  %6" PRIu64 " pairs  %6.2fs  %7.1f jobs/s  (%" PRIu64
              " overload rejections absorbed)\n",
              job_parallelism, done.load(), pairs.load(), seconds,
              seconds > 0 ? done.load() / seconds : 0.0, stats.rejected_overloaded);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int jobs = 64;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) jobs = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  if (smoke) {
    std::printf("=== Exploration-service chaos drills ===\n");
    int rc = drill_sigkill_resume();
    if (rc == 0) rc = drill_overload();
    if (rc == 0) rc = drill_breaker();
    if (rc == 0) std::printf("bench_service --smoke: all drills passed\n");
    return rc;
  }

  std::printf("=== Exploration-service load sweep (%d jobs) ===\n\n", jobs);
  util::Json rows = util::Json::array();
  for (const int parallelism : {1, 4}) {
    rows.push_back(sweep_round(parallelism, jobs));
  }

  util::Json doc = util::Json::object();
  doc["bench"] = "service";
  doc["subject"] = "town";
  doc["jobs"] = static_cast<int64_t>(jobs);
  doc["rows"] = std::move(rows);

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_service: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  return 0;
}
