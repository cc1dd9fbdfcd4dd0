// Guided-exploration benchmark (DESIGN.md §12): time-to-first-violation per
// searcher strategy, and worker balance under a straggler workload.
//
// The search section plants three order-dependent bugs in the town app's
// 720-interleaving universe — a dense lex-last block, a single lex-last
// needle, and a mid-universe pair block — and measures, for every searcher ×
// parallelism {1, 4}, how many interleavings were explored when the bug first
// fired. ViolationFirst runs corpus-seeded: each bug's prior is written to a
// corpus::Store as a Violation record and loaded back through
// corpus::violation_priors, the way a nightly sweep would seed the next run.
// The straggler section concentrates replay cost in the first 120 lex-order
// schedules and checks that the shared batch queue spreads them over every
// worker: max per-worker idle must stay <= 15% of the pool's wall clock at
// parallelism 4. Output lands in BENCH_search.json (CI uploads it).
//
// --smoke is the CI guard: (1) LexOrder and RandomPath must report the same
// verdict at parallelism 1 and 4 through Session::end, and (2)
// corpus-seeded ViolationFirst must find each planted bug exploring < 10% of
// the universe.
//
// Usage: bench_search [--out BENCH_search.json] [--smoke]
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "corpus/store.hpp"
#include "subjects/town.hpp"
#include "verdict_check.hpp"

using namespace erpi;

namespace {

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

// The parallel-stress workload: 11 events, two spec groups plus the
// auto-paired (e7,e8) sync -> 6 units -> a 720-interleaving universe.
void workload(proxy::RdlProxy& proxy) {
  (void)proxy.update(0, "report", problem("otb"));   // e0
  (void)proxy.sync_req(0, 1);                        // e1
  (void)proxy.exec_sync(0, 1);                       // e2
  (void)proxy.update(1, "report", problem("ph"));    // e3
  (void)proxy.sync_req(1, 0);                        // e4
  (void)proxy.exec_sync(1, 0);                       // e5
  (void)proxy.update(1, "resolve", problem("otb"));  // e6
  (void)proxy.sync_req(1, 0);                        // e7
  (void)proxy.exec_sync(1, 0);                       // e8
  (void)proxy.update(0, "report", problem("lamp"));  // e9
  (void)proxy.query(0, "transmit");                  // e10
}

constexpr uint64_t kUniverse = 720;

/// A planted order-dependent bug: `violates` decides from the schedule alone
/// (cheap, deterministic, geometry fully controlled), `prior` is one known
/// violating schedule — what a previous run's corpus would hold.
struct PlantedBug {
  const char* name;
  std::function<bool(const core::Interleaving&)> violates;
  core::Interleaving prior;
  uint64_t lex_index;  // 1-based first-violation index in lex order
};

std::vector<PlantedBug> planted_bugs() {
  return {
      // Every schedule running the last unit (leader e10) first: the lex-LAST
      // 120 of 720, the worst case for lex order.
      {"tail_block",
       [](const core::Interleaving& il) { return il.order.front() == 10; },
       core::Interleaving{{10, 9, 7, 8, 6, 3, 4, 5, 0, 1, 2}}, 601},
      // Exactly one schedule — the lex-last — violates: the needle case.
      {"lex_last_needle",
       [](const core::Interleaving& il) {
         return il.order == std::vector<int>{10, 9, 7, 8, 6, 3, 4, 5, 0, 1, 2};
       },
       core::Interleaving{{10, 9, 7, 8, 6, 3, 4, 5, 0, 1, 2}}, 720},
      // A mid-universe block: unit e9 leads and unit e6 follows (24 of 720).
      {"mid_pair",
       [](const core::Interleaving& il) {
         return il.order.size() > 1 && il.order[0] == 9 && il.order[1] == 6;
       },
       core::Interleaving{{9, 6, 0, 1, 2, 3, 4, 5, 7, 8, 10}}, 529},
  };
}

core::AssertionFactory planted_assertions(const PlantedBug& bug) {
  auto violates = bug.violates;
  std::string name = bug.name;
  return [violates, name](proxy::Rdl&) -> core::AssertionList {
    return {core::custom(name, [violates](const core::TestContext& ctx) {
      if (violates(ctx.interleaving)) return util::Status::fail("planted bug fired");
      return util::Status::ok();
    })};
  };
}

core::Session::Config base_config(int parallelism) {
  core::Session::Config config;
  config.generation_order = core::GroupedEnumerator::Order::Lexicographic;
  config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  config.replay.stop_on_violation = true;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  return config;
}

core::ReplayReport run(core::Session::Config config, const core::AssertionFactory& factory) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  core::Session session(proxy, std::move(config));
  session.start();
  workload(proxy);
  return session.end(factory);
}

/// Seed a corpus store with the bug's one known violating schedule and load
/// it back the way a warm run would — through corpus::violation_priors.
std::vector<core::Interleaving> corpus_seeded_priors(const PlantedBug& bug) {
  const std::string dir = std::string("/tmp/bench_search_corpus_") + bug.name;
  std::filesystem::remove_all(dir);
  {
    corpus::Store store = corpus::Store::open(dir);
    corpus::Record record;
    record.fingerprint = 1;
    record.plan = "none";
    record.il = bug.prior.key();
    record.outcome.violations.push_back({bug.name, "planted bug fired"});
    store.append(std::move(record));
  }
  auto priors = corpus::violation_priors(dir);
  std::filesystem::remove_all(dir);
  return priors;
}

struct SearcherSetup {
  const char* label;
  bool needs_priors;
  std::function<void(core::Session::Config&)> apply;
};

std::vector<SearcherSetup> searcher_setups() {
  return {
      {"lex", false, [](core::Session::Config&) {}},  // streaming baseline
      {"random_path", false,
       [](core::Session::Config& c) { c.search.strategy = core::SearchStrategy::RandomPath; }},
      {"violation_first", true,
       [](core::Session::Config& c) {
         c.search.strategy = core::SearchStrategy::ViolationFirst;
       }},
      {"coverage_weighted", false,
       [](core::Session::Config& c) {
         c.search.strategy = core::SearchStrategy::CoverageWeighted;
       }},
      {"interleaved", true,
       [](core::Session::Config& c) { c.search.strategy = core::SearchStrategy::Interleaved; }},
  };
}

// ---------------------------------------------------------------------------
// Straggler section: one expensive block of the stream, idle gate.
// ---------------------------------------------------------------------------

util::Json run_straggler(bool& ok) {
  core::Session::Config config = base_config(4);
  config.replay.stop_on_violation = false;

  // Sleep-dominated replay cost with a 10x skew: the first block (schedules
  // led by e0, the first 120 in lex order) costs 1.5 ms per replay,
  // everything else 150 us. Sleeps overlap regardless of core count, so the
  // idle measurement reflects scheduling balance, not CPU contention. The
  // dispatcher's batches put the expensive block on every worker; had one
  // worker taken the whole block it would straggle for ~180 ms while the
  // other three finished their ~30 ms shares and sat idle (~80%).
  const core::AssertionFactory factory = [](proxy::Rdl&) -> core::AssertionList {
    return {core::custom("straggler", [](const core::TestContext& ctx) {
      const bool expensive = ctx.interleaving.order.front() == 0;
      std::this_thread::sleep_for(std::chrono::microseconds(expensive ? 1500 : 150));
      return util::Status::ok();
    })};
  };

  const core::ReplayReport report = run(std::move(config), factory);
  ok &= report.explored == kUniverse;
  const bool idle_ok = report.explorer.max_idle_fraction <= 0.15;
  ok &= idle_ok;

  std::printf("  straggler p=4: batches of %" PRIu64 "  max idle %.1f%%  %.3fs  [%s]\n",
              report.explorer.batch_size, 100.0 * report.explorer.max_idle_fraction,
              report.elapsed_seconds, idle_ok ? "<=15% OK" : ">15% FAIL");

  util::Json row = util::Json::object();
  row["parallelism"] = int64_t{4};
  row["batch_size"] = static_cast<int64_t>(report.explorer.batch_size);
  row["max_idle_fraction"] = report.explorer.max_idle_fraction;
  row["elapsed_seconds"] = report.elapsed_seconds;
  row["idle_gate_ok"] = idle_ok;
  return row;
}

// ---------------------------------------------------------------------------
// --smoke: worker-count parity + corpus-seeded ViolationFirst speedup, for CI.
// ---------------------------------------------------------------------------

int run_smoke() {
  bool ok = true;
  const auto bugs = planted_bugs();

  // Gate 1: the verdict depends on the strategy, never on the worker count —
  // the inline loop and the pool commit the same full sweeps, streamed
  // (LexOrder) and ranked (RandomPath) alike.
  for (const core::SearchStrategy strategy :
       {core::SearchStrategy::LexOrder, core::SearchStrategy::RandomPath}) {
    core::ReplayReport reports[2];
    for (const int parallelism : {1, 4}) {
      core::Session::Config config = base_config(parallelism);
      config.replay.stop_on_violation = false;
      config.search.strategy = strategy;
      reports[parallelism == 1 ? 0 : 1] =
          run(std::move(config), planted_assertions(bugs[0]));
    }
    const bool match = bench::same_verdict(reports[0], reports[1], "bench_search: p=1 vs p=4");
    std::printf("  %s parity p=1 vs p=4: %s\n", core::search_strategy_name(strategy),
                match ? "same verdict" : "MISMATCH");
    ok &= match;
  }

  // Gate 2: corpus-seeded ViolationFirst finds every planted bug exploring
  // under 10% of the universe.
  for (const auto& bug : bugs) {
    core::Session::Config config = base_config(4);
    config.search.strategy = core::SearchStrategy::ViolationFirst;
    config.violation_priors = corpus_seeded_priors(bug);
    const core::ReplayReport report = run(std::move(config), planted_assertions(bug));
    const bool found = report.reproduced;
    const bool fast = found && report.first_violation_index * 10 < kUniverse;
    std::printf("  violation_first %-16s found at %" PRIu64 "/%" PRIu64
                " (lex: %" PRIu64 ")  [%s]\n",
                bug.name, report.first_violation_index, kUniverse, bug.lex_index,
                fast ? "<10% OK" : "FAIL");
    ok &= fast;
  }

  std::printf("bench_search --smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) return run_smoke();

  bool ok = true;
  std::printf("=== Guided search: time to first violation (universe %" PRIu64
              ") ===\n\n",
              kUniverse);
  util::Json rows = util::Json::array();
  for (const auto& bug : planted_bugs()) {
    const auto priors = corpus_seeded_priors(bug);
    std::printf("  bug %-16s (lex first violation: %" PRIu64 ")\n", bug.name,
                bug.lex_index);
    for (const auto& setup : searcher_setups()) {
      for (const int parallelism : {1, 4}) {
        core::Session::Config config = base_config(parallelism);
        setup.apply(config);
        if (setup.needs_priors) config.violation_priors = priors;
        const core::ReplayReport report = run(std::move(config), planted_assertions(bug));
        ok &= report.reproduced;
        std::printf("    %-18s p=%d  first violation at %6" PRIu64 "  (%5.1fx vs lex)"
                    "  %.3fs\n",
                    setup.label, parallelism, report.first_violation_index,
                    report.first_violation_index > 0
                        ? static_cast<double>(bug.lex_index) /
                              static_cast<double>(report.first_violation_index)
                        : 0.0,
                    report.elapsed_seconds);

        util::Json row = util::Json::object();
        row["bug"] = bug.name;
        row["searcher"] = setup.label;
        row["parallelism"] = static_cast<int64_t>(parallelism);
        row["first_violation_index"] = static_cast<int64_t>(report.first_violation_index);
        row["explored"] = static_cast<int64_t>(report.explored);
        row["found"] = report.reproduced;
        row["elapsed_seconds"] = report.elapsed_seconds;
        row["lex_first_violation_index"] = static_cast<int64_t>(bug.lex_index);
        rows.push_back(std::move(row));
      }
    }

    // The ISSUE's acceptance gate: guided strategies with a corpus prior must
    // reach the bug with >= 10x fewer interleavings than lex order.
    core::Session::Config vf = base_config(4);
    vf.search.strategy = core::SearchStrategy::ViolationFirst;
    vf.violation_priors = priors;
    const core::ReplayReport vf_report = run(std::move(vf), planted_assertions(bug));
    ok &= vf_report.reproduced && vf_report.first_violation_index * 10 <= bug.lex_index;
  }

  std::printf("\n=== Guided search: straggler balance ===\n\n");
  util::Json straggler = run_straggler(ok);

  util::Json doc = util::Json::object();
  doc["bench"] = "search";
  doc["subject"] = "town";
  doc["universe"] = static_cast<int64_t>(kUniverse);
  doc["rows"] = std::move(rows);
  doc["straggler"] = std::move(straggler);
  doc["gates_ok"] = ok;

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_search: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "bench_search: acceptance gates failed\n");
    return 1;
  }
  return 0;
}
