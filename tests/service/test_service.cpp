// Exploration-service lifecycle tests (DESIGN.md §14): admission control and
// rejection frame shapes, disconnect-cancels-only-that-job, per-tenant
// circuit breaking with healthy-tenant byte-identity, deadline timeouts,
// idempotent resubmission, and crash-restart resume reproducing the
// uninterrupted report. Long-running jobs are made deterministic with a
// *gated* subject: every update spins until the test opens a gate file, so
// "job is running right now" is a fact the test controls, not a race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "subjects/town.hpp"

namespace erpi::service {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// Opened in TearDown so a failing test can never wedge a gated job inside
// Daemon::stop().
std::atomic<bool> g_release_gates{false};

class GatedTown : public subjects::TownApp {
 public:
  GatedTown(int replicas, std::string gate_path)
      : TownApp(replicas), gate_path_(std::move(gate_path)) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    const auto give_up = std::chrono::steady_clock::now() + 30s;
    while (!g_release_gates.load() && !fs::exists(gate_path_) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(2ms);
    }
    return TownApp::do_invoke(replica, op, args);
  }

 private:
  std::string gate_path_;
};

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

void town_workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(0, "report", problem("lamp"));
  (void)proxy.sync_req(0, 1);
  (void)proxy.exec_sync(0, 1);
  (void)proxy.update(1, "report", problem("pothole"));
  (void)proxy.sync_req(1, 0);
  (void)proxy.exec_sync(1, 0);
}

Scenario gated_scenario(const std::string& gate_path) {
  Scenario s;
  s.make_subject = [gate_path] { return std::make_unique<GatedTown>(2, gate_path); };
  s.workload = town_workload;
  s.assertions = [] { return core::AssertionList{core::replicas_converge({0, 1})}; };
  s.configure = [](core::Session::Config& config) {
    config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
    config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  };
  return s;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 20s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(5ms);
  }
  return true;
}

/// One daemon + temp dir + socket, torn down in order.
struct TestDaemon {
  explicit TestDaemon(const std::string& name,
                      const std::function<void(ServiceConfig&)>& tweak = {},
                      const std::function<void(Registry&)>& scenarios = {}) {
    dir = std::string(::testing::TempDir()) + "erpi_svc_" + name;
    fs::remove_all(dir);
    ServiceConfig config;
    config.socket_path = dir + ".sock";
    config.journal_dir = dir;
    config.retry_backoff_ms = 1;
    config.retry_backoff_cap_ms = 4;
    if (tweak) tweak(config);
    Registry registry = Registry::with_builtins();
    if (scenarios) scenarios(registry);
    daemon = std::make_unique<Daemon>(config, std::move(registry));
    daemon->start();
    socket_path = config.socket_path;
  }
  ~TestDaemon() { daemon->stop(); }

  Client connect() {
    Client client;
    EXPECT_TRUE(client.connect(socket_path));
    return client;
  }

  std::string dir;
  std::string socket_path;
  std::unique_ptr<Daemon> daemon;
};

JobSpec town_job(const std::string& id, const std::string& tenant = "default") {
  JobSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.scenario = "town-demo";
  return spec;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { g_release_gates.store(false); }
  void TearDown() override { g_release_gates.store(true); }

  std::string gate_path(const char* name) {
    const std::string path = std::string(::testing::TempDir()) + "erpi_gate_" + name;
    std::remove(path.c_str());
    return path;
  }
  static void open_gate(const std::string& path) {
    std::ofstream out(path);
    out << "open\n";
  }
};

#define SERVICE_TEST(name) TEST_F(ServiceTest, name)

// ---------------------------------------------------------------------------
// Codec + journal primitives
// ---------------------------------------------------------------------------

SERVICE_TEST(JobSpecRoundTripsThroughJson) {
  JobSpec spec;
  spec.id = "j1";
  spec.tenant = "acme";
  spec.scenario = "town-demo";
  spec.mode = "dfs";
  spec.max_interleavings = 99;
  spec.stop_on_violation = false;
  spec.parallelism = 3;
  spec.seed = 7;
  spec.budget_bytes = 1234;
  spec.timeout_ms = 500;
  spec.max_drops = 2;
  spec.max_plans = 5;
  auto parsed = JobSpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value(), spec);
}

SERVICE_TEST(JobSpecRejectsBadInput) {
  util::Json missing_id = util::Json::object();
  missing_id["scenario"] = "town-demo";
  EXPECT_FALSE(JobSpec::from_json(missing_id).has_value());

  util::Json bad_mode = town_job("j1").to_json();
  bad_mode["mode"] = "bogus";
  EXPECT_FALSE(JobSpec::from_json(bad_mode).has_value());

  util::Json bad_parallelism = town_job("j1").to_json();
  bad_parallelism["parallelism"] = 0;
  EXPECT_FALSE(JobSpec::from_json(bad_parallelism).has_value());

  EXPECT_FALSE(JobSpec::from_json(util::Json("not an object")).has_value());
}

SERVICE_TEST(StatsJsonOmitsZeroFields) {
  EXPECT_EQ(ServiceStats{}.to_json().dump(), "{}");
  ServiceStats stats;
  stats.accepted = 2;
  stats.tenants["acme"].failures = 1;
  const std::string dumped = stats.to_json().dump();
  EXPECT_NE(dumped.find("\"accepted\":2"), std::string::npos);
  EXPECT_NE(dumped.find("\"acme\""), std::string::npos);
  EXPECT_EQ(dumped.find("rejected"), std::string::npos);
}

SERVICE_TEST(QueueJournalLoadsPendingAcrossTornTail) {
  const std::string dir = std::string(::testing::TempDir()) + "erpi_svc_qj";
  fs::remove_all(dir);
  {
    QueueJournal journal(dir);
    journal.record_accepted(town_job("a"));
    journal.record_accepted(town_job("b"));
    journal.record_finished("a", "done");
  }
  {
    std::ofstream out(QueueJournal::queue_path(dir), std::ios::app);
    out << R"({"accepted":{"id":"torn)";  // SIGKILL mid-append
  }
  const auto pending = QueueJournal::load_pending(dir);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, "b");
}

SERVICE_TEST(QueueJournalStopsAtAMalformedFinishedRecord) {
  // A damaged "finished" line ends the valid prefix instead of throwing, so
  // the daemon still starts and resumes what was accepted before it.
  for (const char* bad : {R"({"finished":5})", R"({"finished":{}})",
                          R"({"finished":{"id":7}})"}) {
    SCOPED_TRACE(bad);
    const std::string dir = std::string(::testing::TempDir()) + "erpi_bad_finished_state";
    fs::remove_all(dir);
    {
      QueueJournal journal(dir);
      journal.record_accepted(town_job("a"));
    }
    {
      std::ofstream out(QueueJournal::queue_path(dir), std::ios::app);
      out << bad << '\n';
    }
    const auto pending = QueueJournal::load_pending(dir);
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].id, "a");

    TestDaemon daemon("bad_finished", [&](ServiceConfig& config) { config.journal_dir = dir; });
    EXPECT_TRUE(eventually([&] { return daemon.daemon->stats().resumed == 1; }, 5s));
    Client client = daemon.connect();
    EXPECT_TRUE(client.ping());
  }
}

// ---------------------------------------------------------------------------
// Ops + happy path
// ---------------------------------------------------------------------------

SERVICE_TEST(PingStatsAndUnknownOp) {
  TestDaemon daemon("ops");
  Client client = daemon.connect();
  EXPECT_TRUE(client.ping());

  util::Json unknown = util::Json::object();
  unknown["op"] = "frobnicate";
  const auto reply = client.call(unknown);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)["status"].as_string(), "rejected");
  EXPECT_EQ((*reply)["reason"].as_string(), "unknown_op");

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ((*stats)["status"].as_string(), "ok");
}

SERVICE_TEST(RunsJobStreamsProgressAndReport) {
  TestDaemon daemon("happy", [](ServiceConfig& config) { config.progress_every = 1; });
  Client client = daemon.connect();
  std::vector<uint64_t> progress;
  const auto final_frame = client.run(town_job("j1"), [&](const util::Json& frame) {
    progress.push_back(static_cast<uint64_t>(frame["progress"]["explored"].as_int()));
  });
  ASSERT_TRUE(final_frame.has_value());
  EXPECT_EQ((*final_frame)["status"].as_string(), "done");
  const util::Json& report = (*final_frame)["report"];
  EXPECT_GT(report["explored"].as_int(), 0);
  EXPECT_FALSE(progress.empty());
  // The streamed report is the run's verdict: no wall-clock noise.
  EXPECT_FALSE(report.contains("elapsed_seconds"));

  const auto stats = daemon.daemon->stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.tenants.at("default").jobs, 1u);
}

SERVICE_TEST(IdempotentResubmitAndFetchReturnStoredReport) {
  TestDaemon daemon("idempotent");
  Client client = daemon.connect();
  const auto first = client.run(town_job("j1"));
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ((*first)["status"].as_string(), "done");

  const auto again = client.submit(town_job("j1"));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), first->dump());

  const auto fetched = client.fetch("j1");
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->dump(), first->dump());

  const auto missing = client.fetch("nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ((*missing)["status"].as_string(), "not_found");
}

SERVICE_TEST(RejectsUnknownScenarioAndBadSpec) {
  TestDaemon daemon("badspec");
  Client client = daemon.connect();

  JobSpec unknown = town_job("j1");
  unknown.scenario = "no-such-scenario";
  const auto reply = client.submit(unknown);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)["status"].as_string(), "rejected");
  EXPECT_EQ((*reply)["reason"].as_string(), "unknown_scenario");

  util::Json submit = util::Json::object();
  submit["op"] = "submit";
  submit["job"] = util::Json::object();  // no id
  const auto bad = client.call(submit);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ((*bad)["status"].as_string(), "rejected");
  EXPECT_EQ((*bad)["reason"].as_string(), "bad_request");

  EXPECT_EQ(daemon.daemon->stats().rejected_invalid, 2u);
}

SERVICE_TEST(WrongTypedFieldsRejectWithoutKillingDaemon) {
  TestDaemon daemon("hostile");
  Client client = daemon.connect();

  // Each hostile frame must come back as a structured rejection — never
  // escape the reader thread as an exception (which would std::terminate
  // the whole multi-tenant daemon).
  std::vector<util::Json> hostile;
  {
    util::Json f = util::Json::object();
    f["op"] = 123;  // wrong-typed op
    hostile.push_back(f);
  }
  {
    util::Json f = util::Json::object();
    f["op"] = "cancel";
    f["id"] = 7;  // wrong-typed id
    hostile.push_back(f);
  }
  {
    util::Json f = util::Json::object();
    f["op"] = "fetch";  // missing id
    hostile.push_back(f);
  }
  {
    util::Json job = town_job("j1").to_json();
    job["id"] = 42;  // non-string id
    util::Json f = util::Json::object();
    f["op"] = "submit";
    f["job"] = job;
    hostile.push_back(f);
  }
  {
    util::Json job = town_job("j1").to_json();
    job["seed"] = 1.5;  // double-typed seed
    util::Json f = util::Json::object();
    f["op"] = "submit";
    f["job"] = job;
    hostile.push_back(f);
  }
  {
    util::Json job = town_job("j1").to_json();
    job["stop_on_violation"] = "yes";  // non-bool
    util::Json f = util::Json::object();
    f["op"] = "submit";
    f["job"] = job;
    hostile.push_back(f);
  }
  for (const util::Json& frame : hostile) {
    const auto reply = client.call(frame);
    ASSERT_TRUE(reply.has_value()) << frame.dump();
    EXPECT_EQ((*reply)["status"].as_string(), "rejected") << frame.dump();
    EXPECT_EQ((*reply)["reason"].as_string(), "bad_request") << frame.dump();
  }

  // The daemon survived all of it, on this and fresh connections.
  EXPECT_TRUE(client.ping());
  Client fresh = daemon.connect();
  EXPECT_TRUE(fresh.ping());
}

SERVICE_TEST(PathTraversalJobIdIsRejected) {
  TestDaemon daemon("traversal");
  Client client = daemon.connect();
  // The id names files under journal_dir (job-<id>.journal / .report.json);
  // ids that could escape the directory or hide as dotfiles must bounce.
  for (const char* id : {"x/../../../../tmp/evil", "a/b", "..", ".hidden",
                         "sp ace", "nul\tbyte"}) {
    JobSpec spec = town_job(id);
    const auto reply = client.submit(spec);
    ASSERT_TRUE(reply.has_value()) << id;
    EXPECT_EQ((*reply)["status"].as_string(), "rejected") << id;
    EXPECT_EQ((*reply)["reason"].as_string(), "bad_request") << id;
  }
  EXPECT_FALSE(fs::exists("/tmp/evil.report.json"));
  EXPECT_FALSE(JobSpec::from_json(town_job("x/../y").to_json()).has_value());
  EXPECT_TRUE(JobSpec::from_json(town_job("ok-id_1.v2").to_json()).has_value());
}

// ---------------------------------------------------------------------------
// Admission control + backpressure
// ---------------------------------------------------------------------------

SERVICE_TEST(OverloadRejectionFrameShape) {
  const std::string gate = gate_path("overload");
  TestDaemon daemon(
      "overload", [](ServiceConfig& config) { config.max_concurrent_jobs = 1; },
      [&](Registry& registry) { registry.add("gated", gated_scenario(gate)); });

  Client busy = daemon.connect();
  JobSpec held = town_job("held");
  held.scenario = "gated";
  const auto admission = busy.submit(held);
  ASSERT_TRUE(admission.has_value());
  ASSERT_EQ((*admission)["status"].as_string(), "accepted");

  // The held job occupies the whole capacity: a second submit — any tenant,
  // any connection — must bounce with the structured overload frame.
  Client other = daemon.connect();
  const auto rejected = other.submit(town_job("bounced", "tenant-b"));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ((*rejected)["status"].as_string(), "rejected");
  EXPECT_EQ((*rejected)["reason"].as_string(), "overloaded");
  EXPECT_GT((*rejected)["retry_after_ms"].as_int(), 0);
  EXPECT_EQ(daemon.daemon->stats().rejected_overloaded, 1u);

  open_gate(gate);
  auto done = busy.next_frame(30'000);
  while (done.has_value() && !Client::is_terminal(*done)) {
    done = busy.next_frame(30'000);  // skip any progress frames
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ((*done)["status"].as_string(), "done");
  ASSERT_TRUE(eventually([&] { return daemon.daemon->stats().running == 0 &&
                                      daemon.daemon->stats().queued == 0; }));
  // Capacity freed: the same spec is admitted now.
  const auto retried = other.run(town_job("bounced", "tenant-b"));
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ((*retried)["status"].as_string(), "done");
}

SERVICE_TEST(BudgetExhaustionRejectsWithRetryAfter) {
  TestDaemon daemon("budget", [](ServiceConfig& config) {
    config.budget_bytes = 1ull << 20;
    config.max_concurrent_jobs = 8;
  });
  Client client = daemon.connect();
  JobSpec greedy = town_job("greedy");
  greedy.budget_bytes = 2ull << 20;  // over the whole service budget
  const auto reply = client.submit(greedy);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)["status"].as_string(), "rejected");
  EXPECT_EQ((*reply)["reason"].as_string(), "overloaded");
  EXPECT_EQ((*reply)["detail"].as_string(), "budget");
  EXPECT_GT((*reply)["retry_after_ms"].as_int(), 0);

  // Within budget: admitted and completed, and the reservation is released
  // afterwards so a second within-budget job also fits.
  JobSpec modest = town_job("modest");
  modest.budget_bytes = 1ull << 19;
  const auto done = client.run(modest);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ((*done)["status"].as_string(), "done");
  JobSpec modest2 = town_job("modest2");
  modest2.budget_bytes = 1ull << 19;
  const auto done2 = client.run(modest2);
  ASSERT_TRUE(done2.has_value());
  EXPECT_EQ((*done2)["status"].as_string(), "done");
}

// ---------------------------------------------------------------------------
// Cancellation: disconnect, explicit op, deadline
// ---------------------------------------------------------------------------

SERVICE_TEST(DisconnectCancelsOnlyThatClientsJob) {
  const std::string gate = gate_path("disconnect");
  TestDaemon daemon(
      "disconnect",
      [](ServiceConfig& config) {
        config.max_concurrent_jobs = 2;
        config.executor_threads = 2;
      },
      [&](Registry& registry) { registry.add("gated", gated_scenario(gate)); });

  Client doomed = daemon.connect();
  JobSpec doomed_spec = town_job("doomed", "tenant-a");
  doomed_spec.scenario = "gated";
  ASSERT_EQ((*doomed.submit(doomed_spec))["status"].as_string(), "accepted");

  Client survivor = daemon.connect();
  JobSpec survivor_spec = town_job("survivor", "tenant-b");
  survivor_spec.scenario = "gated";
  ASSERT_EQ((*survivor.submit(survivor_spec))["status"].as_string(), "accepted");

  ASSERT_TRUE(eventually([&] { return daemon.daemon->stats().running == 2; }));
  doomed.close();  // disconnect flips only this connection's cancel tokens
  open_gate(gate);

  const auto final_frame = survivor.next_frame(30'000);
  ASSERT_TRUE(final_frame.has_value());
  EXPECT_EQ((*final_frame)["id"].as_string(), "survivor");
  EXPECT_EQ((*final_frame)["status"].as_string(), "done");

  ASSERT_TRUE(eventually([&] {
    const auto stats = daemon.daemon->stats();
    return stats.cancelled == 1 && stats.completed == 1;
  }));
}

SERVICE_TEST(CancelOpStopsARunningJob) {
  const std::string gate = gate_path("cancel");
  TestDaemon daemon(
      "cancel", {},
      [&](Registry& registry) { registry.add("gated", gated_scenario(gate)); });

  Client owner = daemon.connect();
  JobSpec spec = town_job("victim");
  spec.scenario = "gated";
  ASSERT_EQ((*owner.submit(spec))["status"].as_string(), "accepted");
  ASSERT_TRUE(eventually([&] { return daemon.daemon->stats().running == 1; }));

  Client controller = daemon.connect();
  EXPECT_TRUE(controller.cancel("victim"));
  EXPECT_FALSE(controller.cancel("no-such-job"));
  open_gate(gate);

  auto frame = owner.next_frame(30'000);
  while (frame.has_value() && !Client::is_terminal(*frame)) frame = owner.next_frame(30'000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ((*frame)["status"].as_string(), "cancelled");
  EXPECT_TRUE((*frame)["report"]["cancelled"].as_bool());
  EXPECT_EQ(daemon.daemon->stats().cancelled, 1u);
}

SERVICE_TEST(DeadlineMonitorTimesJobOut) {
  const std::string gate = gate_path("deadline");
  TestDaemon daemon(
      "deadline", [](ServiceConfig& config) { config.job_timeout_ms = 100; },
      [&](Registry& registry) { registry.add("gated", gated_scenario(gate)); });

  Client client = daemon.connect();
  JobSpec spec = town_job("late");
  spec.scenario = "gated";
  ASSERT_EQ((*client.submit(spec))["status"].as_string(), "accepted");
  // Hold the gate shut until the deadline has long passed, then let the job
  // wind down; the next cancel check turns it into timed_out.
  ASSERT_TRUE(eventually([&] { return daemon.daemon->stats().running == 1; }));
  std::this_thread::sleep_for(250ms);
  open_gate(gate);

  auto frame = client.next_frame(30'000);
  while (frame.has_value() && !Client::is_terminal(*frame)) frame = client.next_frame(30'000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ((*frame)["status"].as_string(), "timed_out");
  EXPECT_EQ(daemon.daemon->stats().timed_out, 1u);
}

// ---------------------------------------------------------------------------
// Retries, circuit breaker, tenant isolation
// ---------------------------------------------------------------------------

SERVICE_TEST(CrashyTenantTripsBreakerWhileHealthyTenantMatchesSoloRun) {
  // Reference: the healthy tenant's job on an idle daemon of its own.
  std::string solo_report;
  {
    TestDaemon solo("breaker_solo");
    Client client = solo.connect();
    const auto frame = client.run(town_job("good-1", "good"));
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ((*frame)["status"].as_string(), "done");
    solo_report = (*frame)["report"].dump();
  }

  TestDaemon daemon("breaker", [](ServiceConfig& config) {
    config.max_retries = 1;
    config.breaker_threshold = 2;
    config.breaker_cooldown_ms = 60'000;
    config.max_concurrent_jobs = 4;
  });
  Client evil = daemon.connect();
  JobSpec crashy = town_job("evil-1", "evil");
  crashy.scenario = "town-crashy";
  const auto first = evil.run(crashy);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)["status"].as_string(), "failed");
  EXPECT_NE((*first)["error"].as_string().find("wedged"), std::string::npos);

  crashy.id = "evil-2";
  const auto second = evil.run(crashy);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)["status"].as_string(), "failed");

  // Two consecutive exhausted-retry failures: the breaker is open.
  crashy.id = "evil-3";
  const auto third = evil.submit(crashy);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ((*third)["status"].as_string(), "rejected");
  EXPECT_EQ((*third)["reason"].as_string(), "quarantined");
  EXPECT_GT((*third)["retry_after_ms"].as_int(), 0);

  // The healthy tenant is untouched — admitted, completed, and its report
  // matches the solo daemon's byte-for-byte.
  Client good = daemon.connect();
  const auto healthy = good.run(town_job("good-1", "good"));
  ASSERT_TRUE(healthy.has_value());
  EXPECT_EQ((*healthy)["status"].as_string(), "done");
  EXPECT_EQ((*healthy)["report"].dump(), solo_report);

  const auto stats = daemon.daemon->stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.retried, 2u);  // one retry per crashy job (max_retries=1)
  EXPECT_EQ(stats.quarantine_trips, 1u);
  EXPECT_EQ(stats.rejected_quarantined, 1u);
  EXPECT_TRUE(stats.tenants.at("evil").quarantined);
  EXPECT_EQ(stats.tenants.at("evil").failures, 2u);
  EXPECT_FALSE(stats.tenants.at("good").quarantined);
  EXPECT_EQ(stats.completed, 1u);
}

// ---------------------------------------------------------------------------
// Crash-restart resume
// ---------------------------------------------------------------------------

SERVICE_TEST(RestartResumesJournaledJobWithByteIdenticalReport) {
  JobSpec spec = town_job("resume-1");
  spec.max_drops = 2;  // several plans -> a meaningful journaled prefix
  spec.max_duplicates = 1;

  // Uninterrupted reference run.
  std::string reference_frame;
  std::string reference_dir;
  {
    TestDaemon daemon("resume_ref");
    reference_dir = daemon.dir;
    Client client = daemon.connect();
    const auto frame = client.run(spec);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ((*frame)["status"].as_string(), "done");
    reference_frame = frame->dump();
  }

  // Fabricate the on-disk state a SIGKILL mid-job leaves behind: the queue
  // journal says accepted (never finished), and the job's run journal holds
  // a truncated prefix of the reference run's.
  // Named so no TestDaemon ctor (which remove_all's its own default dir)
  // can collide with this hand-built directory.
  const std::string dir = std::string(::testing::TempDir()) + "erpi_killed_state";
  fs::remove_all(dir);
  {
    QueueJournal journal(dir);
    journal.record_accepted(spec);
  }
  {
    std::ifstream in(QueueJournal::job_journal_path(reference_dir, spec.id));
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_GT(lines.size(), 4u);  // header + a few records
    std::ofstream out(QueueJournal::job_journal_path(dir, spec.id));
    for (size_t i = 0; i < 4; ++i) out << lines[i] << '\n';
  }

  // Restart over the doctored directory: the job must resume, finish, and
  // persist a final frame identical to the uninterrupted one.
  {
    TestDaemon daemon("resume_kill", [&](ServiceConfig& config) {
      config.journal_dir = dir;
    });
    EXPECT_TRUE(eventually([&] { return daemon.daemon->stats().resumed == 1; }, 5s));
    Client client = daemon.connect();
    ASSERT_TRUE(eventually([&] {
      const auto fetched = client.fetch(spec.id);
      return fetched.has_value() && (*fetched)["status"].as_string() == "done";
    }));
    const auto fetched = client.fetch(spec.id);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(fetched->dump(), reference_frame);
  }
}

SERVICE_TEST(UnpersistableReportDegradesAndStaysPending) {
  TestDaemon daemon("degraded");
  // Wedge the report path: write_report's rename onto a directory fails,
  // simulating the report not reaching disk (ENOSPC-style).
  fs::create_directories(QueueJournal::report_path(daemon.dir, "degraded-1"));

  Client client = daemon.connect();
  const auto frame = client.run(town_job("degraded-1"));
  ASSERT_TRUE(frame.has_value());
  // The in-process client still gets the full result, flagged unpersisted.
  EXPECT_EQ((*frame)["status"].as_string(), "done");
  EXPECT_TRUE((*frame)["report_degraded"].as_bool());

  // Not marked finished in queue.journal: a restart would re-run it instead
  // of treating a report-less job as done forever.
  const auto pending = QueueJournal::load_pending(daemon.dir);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, "degraded-1");
}

// ---------------------------------------------------------------------------
// Shutdown op
// ---------------------------------------------------------------------------

SERVICE_TEST(ShutdownOpUnblocksWait) {
  TestDaemon daemon("shutdown");
  std::thread waiter([&] { daemon.daemon->wait(); });
  Client client = daemon.connect();
  EXPECT_TRUE(client.shutdown());
  waiter.join();
  // Torn down: fresh connections are refused.
  Client late;
  EXPECT_FALSE(late.connect(daemon.socket_path));
}

}  // namespace
}  // namespace erpi::service
