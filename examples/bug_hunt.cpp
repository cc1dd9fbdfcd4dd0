// Bug hunting with runtime constraints: replays the OrbitDB-5 benchmark and
// demonstrates the constraints-directory workflow of paper §5.2 — while the
// replay is running, a JSON file dropped into the watched directory adds
// Event-Independence constraints that ER-pi picks up between interleavings
// and folds into its pruning pipeline. Storage scenarios run as fault sweeps,
// which take no constraints directory.
//
// Usage: bug_hunt [bug-name]     (default: OrbitDB-5; see bench_table1 for names)
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bugs/registry.hpp"
#include "core/session.hpp"
#include "faults/explorer.hpp"

using namespace erpi;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "OrbitDB-5";
  const auto& bug = bugs::find_bug(name);

  const auto dir = std::filesystem::temp_directory_path() / "erpi-constraints";
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove(entry.path());
  }

  auto subject = bug.make_subject();
  proxy::RdlProxy proxy(*subject);

  core::Session::Config config;
  const bool watched = !bug.storage_catalog;
  if (watched) config.constraints_dir = dir.string();
  config.replay.max_interleavings = 10'000;
  if (bug.configure) bug.configure(config);
  // strip statically configured constraints — this example supplies them at
  // runtime through the watched directory instead
  config.independence.clear();

  bool constraints_dropped = false;
  config.replay.on_outcome = [&](uint64_t index, const core::Interleaving&,
                                 const core::InterleavingOutcome&) {
    if (index == 3 && watched && !constraints_dropped) {
      constraints_dropped = true;
      std::ofstream file(dir / "independence.json");
      file << "{\n"
              "  \"independent_events\": [0, 1, 2],\n"
              "  \"neutral_events\": []\n"
              "}\n";
      std::printf("[after interleaving 3] dropped %s/independence.json — ER-pi will\n"
                  "pick it up and extend its pruning pipeline\n\n",
                  dir.string().c_str());
    }
  };

  if (bug.storage_catalog) {
    // Storage scenarios replay through the fault explorer's worker pool,
    // which clones the fixture from the factory even at parallelism 1.
    config.subject_factory = bug.make_subject;
  }

  core::Session session(proxy, config);
  session.start();
  bug.workload(proxy);
  const auto report =
      bug.storage_catalog
          ? faults::explore_with_faults(
                session, [&](proxy::Rdl&) { return bug.assertions(); },
                *bug.storage_catalog)
          : session.end(bug.assertions());
  const auto pruning = session.pruning_report();

  std::printf("bug %s (#%d, %d events, %s)\n", bug.name.c_str(), bug.issue_number,
              bug.event_count, bug.reason.c_str());
  if (report.reproduced) {
    std::printf("reproduced after %llu interleavings\n",
                static_cast<unsigned long long>(report.first_violation_index));
    std::printf("violating interleaving: %s\n", report.first_violation->key().c_str());
    std::printf("violation: %s\n", report.messages.front().c_str());
  } else {
    std::printf("not reproduced within the cap\n");
  }
  std::printf("\npruning: %llu admitted, %llu pruned (pipeline of %s constraints)\n",
              static_cast<unsigned long long>(pruning.pipeline.admitted),
              static_cast<unsigned long long>(pruning.pipeline.pruned),
              constraints_dropped ? "static + runtime" : "static");
  for (const auto& [algorithm, count] : pruning.pipeline.pruned_by) {
    std::printf("  %s contributed to %llu pruned interleavings\n", algorithm.c_str(),
                static_cast<unsigned long long>(count));
  }
  return report.reproduced ? 0 : 1;
}
