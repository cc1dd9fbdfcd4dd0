// Dynamic partial-order reduction sweep (DESIGN.md §15): for 8..12 events of
// a commuting-heavy two-replica workload (cross-replica reports commute, the
// trailing sync pair is order-sensitive), one exhaustive DFS enumeration per
// mode — static chain only, static + DPOR cold (priming replay only), and
// static + DPOR warm (seeded from the cold run's exported footprints, which
// clears the sync-trust gate) — comparing candidates admitted, subtrees cut,
// exact universe accounting and wall clock. Static enumeration is measured up
// to 10 events and reported analytically (n!) above that.
//
// --smoke runs the CI gates alone: the same verdict on a commuting-free
// workload with the toggle on vs off (at parallelism 1 and 4),
// plus the >= 5x cold / >= 10x warm candidate
// reduction on the 8-event sweep with admitted + pruned == 8!.
//
// Usage: bench_dpor [--out BENCH_dpor.json] [--smoke]
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/dpor.hpp"
#include "core/pruning.hpp"
#include "core/session.hpp"
#include "proxy/proxy.hpp"
#include "subjects/town.hpp"
#include "verdict_check.hpp"

using namespace erpi;
using namespace erpi::core;

namespace {

util::Json problem(const std::string& name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

void seed_from_export(const IndependenceLearner::Export& exported,
                      IndependenceLearner& learner) {
  for (const auto& entry : exported.footprints) {
    learner.seed(entry.context, entry.event, entry.fp, entry.runs);
  }
  for (const auto& verdict : exported.verdicts) {
    learner.seed_verdict(verdict.a, verdict.b, verdict.independent);
  }
}

// ---------------------------------------------------------------------------
// Commuting-heavy sweep: n-2 reports alternating replicas + one sync pair
// ---------------------------------------------------------------------------

/// One captured session over raw events (DFS: ER-pi's grouping would fold the
/// sync ops into their update's unit and leave nothing for DPOR to cut).
struct SweepSession {
  subjects::TownApp town{2};
  proxy::RdlProxy proxy{town};
  std::unique_ptr<Session> session;
  PruningPipeline::Stats last_stats;

  SweepSession(int events, bool dynamic) {
    Session::Config config;
    config.mode = ExplorationMode::Dfs;
    config.dynamic_pruning.enabled = dynamic;
    session = std::make_unique<Session>(proxy, config);
    session->start();
    for (int i = 0; i < events - 2; ++i) {
      const int replica = i % 2;
      (void)proxy.update(replica, "report",
                         problem((replica == 0 ? "a" : "b") + std::to_string(i / 2)));
    }
    (void)proxy.sync_req(0, 1);
    (void)proxy.exec_sync(0, 1);
    session->finish_capture();
  }

  uint64_t exhaust(double* seconds) {
    auto enumerator = session->make_enumerator();
    const auto start = std::chrono::steady_clock::now();
    uint64_t admitted = 0;
    while (enumerator->next()) ++admitted;
    *seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (auto* pruned = dynamic_cast<PrunedEnumerator*>(enumerator.get())) {
      last_stats = pruned->pipeline().stats();
    }
    return admitted;
  }
};

struct ModeRun {
  uint64_t admitted = 0;
  uint64_t pruned = 0;
  uint64_t dynamic_cuts = 0;
  double seconds = 0;
};

ModeRun run_mode(int events, bool dynamic,
                 const IndependenceLearner::Export* warm_seed) {
  SweepSession sweep(events, dynamic);
  if (warm_seed != nullptr) {
    sweep.session->prepare_dynamic_pruning(
        [&](IndependenceLearner& learner) { seed_from_export(*warm_seed, learner); });
  }
  ModeRun run;
  run.admitted = sweep.exhaust(&run.seconds);
  run.pruned = sweep.last_stats.pruned;
  const auto it = sweep.last_stats.pruned_by.find(kDporOracleName);
  if (it != sweep.last_stats.pruned_by.end()) run.dynamic_cuts = it->second;
  return run;
}

/// The cold run's export doubles as the next run's warm seed — the in-process
/// equivalent of the corpus FootprintBank cycle (DESIGN.md §15.5).
IndependenceLearner::Export cold_export(int events) {
  SweepSession sweep(events, /*dynamic=*/true);
  sweep.session->prepare_dynamic_pruning();
  return sweep.session->dpor_learner()->export_state();
}

// ---------------------------------------------------------------------------
// Smoke gates
// ---------------------------------------------------------------------------

/// One replica, every event touching r0/problems: nothing commutes, so the
/// dynamic oracle must change nothing — the same verdict.
ReplayReport run_commuting_free(bool dynamic, int parallelism) {
  subjects::TownApp town(1);
  proxy::RdlProxy proxy(town);
  Session::Config config;
  config.generation_order = GroupedEnumerator::Order::Lexicographic;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 100'000;
  config.parallelism = parallelism;
  config.dynamic_pruning.enabled = dynamic;
  config.subject_factory = [] { return std::make_unique<subjects::TownApp>(1); };
  Session session(proxy, config);
  session.start();
  (void)proxy.update(0, "report", problem("a"));
  (void)proxy.update(0, "resolve", problem("a"));
  (void)proxy.update(0, "report", problem("b"));
  (void)proxy.query(0, "transmit");
  util::Json expected = util::Json::array();
  expected.push_back("b");
  return session.end(
      [expected](proxy::Rdl&) -> AssertionList { return {query_result_equals(3, expected)}; });
}

int run_smoke() {
  bool ok = true;

  for (const int parallelism : {1, 4}) {
    const ReplayReport off = run_commuting_free(false, parallelism);
    const ReplayReport on = run_commuting_free(true, parallelism);
    const bool same = bench::same_verdict(off, on, "bench_dpor: commuting-free off vs on") &&
                      off.explored > 0 && off.reproduced;
    ok &= same;
    std::printf("  smoke parity p=%d explored %" PRIu64 "  %s\n", parallelism, off.explored,
                same ? "ok" : "DIVERGED");
  }

  constexpr int kEvents = 8;
  const uint64_t universe = factorial_saturated(kEvents);
  const ModeRun statics = run_mode(kEvents, /*dynamic=*/false, nullptr);
  const ModeRun cold = run_mode(kEvents, /*dynamic=*/true, nullptr);
  const auto exported = cold_export(kEvents);
  const ModeRun warm = run_mode(kEvents, /*dynamic=*/true, &exported);
  const bool static_full = statics.admitted == universe;
  const bool cold_gate = statics.admitted >= 5 * cold.admitted;
  const bool warm_gate = statics.admitted >= 10 * warm.admitted && warm.admitted < cold.admitted;
  const bool accounting = cold.admitted + cold.pruned == universe &&
                          warm.admitted + warm.pruned == universe &&
                          cold.dynamic_cuts > 0 && warm.dynamic_cuts > 0;
  ok &= static_full && cold_gate && warm_gate && accounting;
  std::printf("  smoke sweep n=%d  static %" PRIu64 "  cold %" PRIu64 " (%s>=5x)  warm %" PRIu64
              " (%s>=10x)  accounting %s\n",
              kEvents, statics.admitted, cold.admitted, cold_gate ? "" : "NOT ",
              warm.admitted, warm_gate ? "" : "NOT ", accounting ? "exact" : "BROKEN");
  if (!static_full) {
    std::fprintf(stderr, "bench_dpor: static run admitted %" PRIu64 " != %" PRIu64 "\n",
                 statics.admitted, universe);
  }

  std::printf("bench_dpor --smoke: %s\n", ok ? "PASS" : "FAIL");
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

  std::printf("=== Dynamic partial-order reduction sweep (DESIGN.md §15) ===\n\n");
  constexpr int kMaxMeasuredStatic = 10;  // 11!+ static enumerations are minutes
  util::Json rows = util::Json::array();
  bool acceptance_met = true;
  for (int n = 8; n <= 12; ++n) {
    const uint64_t universe = factorial_saturated(static_cast<uint64_t>(n));
    const bool measure_static = n <= kMaxMeasuredStatic;
    ModeRun statics;
    if (measure_static) {
      statics = run_mode(n, /*dynamic=*/false, nullptr);
    } else {
      statics.admitted = universe;
    }
    const ModeRun cold = run_mode(n, /*dynamic=*/true, nullptr);
    const auto exported = cold_export(n);
    const ModeRun warm = run_mode(n, /*dynamic=*/true, &exported);

    const auto reduction = [&](const ModeRun& run) {
      return run.admitted == 0 ? 0.0
                               : static_cast<double>(statics.admitted) /
                                     static_cast<double>(run.admitted);
    };
    // ISSUE acceptance on the 8-event sweep: >= 5x fewer candidates cold,
    // >= 10x warm, with exact universe accounting in both dynamic modes.
    if (n == 8) {
      acceptance_met = statics.admitted == universe && reduction(cold) >= 5.0 &&
                       reduction(warm) >= 10.0 && warm.admitted < cold.admitted &&
                       cold.admitted + cold.pruned == universe &&
                       warm.admitted + warm.pruned == universe;
    }
    std::printf("  n=%2d universe %12" PRIu64 "  static %12" PRIu64 "%s  cold %7" PRIu64
                " (%6.1fx, cuts %7" PRIu64 ")  warm %7" PRIu64 " (%6.1fx, cuts %7" PRIu64
                ")  %7.4fs / %7.4fs / %7.4fs\n",
                n, universe, statics.admitted, measure_static ? " " : "*", cold.admitted,
                reduction(cold), cold.dynamic_cuts, warm.admitted, reduction(warm),
                warm.dynamic_cuts, statics.seconds, cold.seconds, warm.seconds);

    util::Json row = util::Json::object();
    row["events"] = static_cast<int64_t>(n);
    row["universe"] = static_cast<int64_t>(universe);
    const auto mode_json = [](const ModeRun& run, bool measured) {
      util::Json j = util::Json::object();
      j["admitted"] = static_cast<int64_t>(run.admitted);
      j["pruned"] = static_cast<int64_t>(run.pruned);
      j["dynamic_cuts"] = static_cast<int64_t>(run.dynamic_cuts);
      j["seconds"] = run.seconds;
      j["measured"] = measured;
      return j;
    };
    row["static"] = mode_json(statics, measure_static);
    row["cold"] = mode_json(cold, true);
    row["warm"] = mode_json(warm, true);
    row["cold_reduction_x"] = reduction(cold);
    row["warm_reduction_x"] = reduction(warm);
    rows.push_back(std::move(row));
  }
  std::printf("  (* static column is the analytic n! universe, not a measured run)\n");

  util::Json doc = util::Json::object();
  doc["bench"] = "dpor";
  doc["enumerator"] = "dfs";
  doc["workload"] = "town(2): alternating cross-replica reports + one sync pair";
  doc["rows"] = std::move(rows);
  doc["acceptance_5x_cold_10x_warm_met"] = acceptance_met;

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_dpor: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (!acceptance_met) {
    std::fprintf(stderr, "bench_dpor: cold 5x / warm 10x candidate-reduction target missed\n");
    return 1;
  }
  return 0;
}
