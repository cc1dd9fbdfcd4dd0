// A collaborative to-do editor on the Yorkie-style JSON document store:
// two clients push items into a shared list and concurrently move the same
// item. Runs the replay twice — once against the fixed library and once
// against the historical Array.MoveAfter defect (issue #676) — and uses the
// *threaded* replay mode, where one worker thread per replica executes its
// events under the Redlock-style distributed mutex hosted by the replay
// engine's embedded mini-Redis server (the deployment shape of the paper's
// testbed).
#include <cstdio>

#include "core/session.hpp"
#include "subjects/yorkie.hpp"

using namespace erpi;

namespace {

util::Json jobj(std::initializer_list<std::pair<const char*, util::Json>> kv) {
  util::Json out = util::Json::object();
  for (const auto& [k, v] : kv) out[k] = std::move(const_cast<util::Json&>(v));
  return out;
}

core::ReplayReport run(bool fixed_library) {
  subjects::Yorkie::Flags flags;
  flags.move_after_fixed = fixed_library;
  subjects::Yorkie editor(2, flags);
  proxy::RdlProxy proxy(editor);

  core::Session::Config config;
  config.replay.max_interleavings = 300;
  config.replay.threaded = true;  // per-replica workers + distributed lock
  core::Session session(proxy, config);

  session.start();
  proxy.update(0, "list_push", jobj({{"key", "todo"}, {"value", "buy milk"}}));
  proxy.update(0, "list_push", jobj({{"key", "todo"}, {"value", "fix bike"}}));
  proxy.update(0, "list_push", jobj({{"key", "todo"}, {"value", "call mom"}}));
  proxy.sync(0, 1);
  // both clients drag "buy milk" to a new position at the same time
  proxy.update(0, "move_after", jobj({{"key", "todo"}, {"from", 0}, {"to", 2}}));
  proxy.update(1, "move_after", jobj({{"key", "todo"}, {"from", 0}, {"to", 1}}));
  proxy.sync(0, 1);
  proxy.sync(1, 0);

  return session.end({core::converge_if_same_witness({0, 1}, {"seen"}, {"doc"})});
}

}  // namespace

int main() {
  std::printf("Collaborative to-do editor — concurrent MoveAfter test\n");
  std::printf("(threaded replay: one worker per replica, ordered via the\n");
  std::printf(" distributed lock on the embedded mini-Redis server)\n\n");

  const auto buggy = run(/*fixed_library=*/false);
  if (buggy.reproduced) {
    std::printf("arrival-order MoveAfter (issue #676): diverged at interleaving #%llu\n",
                static_cast<unsigned long long>(buggy.first_violation_index));
    std::printf("  %s\n\n", buggy.messages.front().c_str());
  } else {
    std::printf("arrival-order MoveAfter: no divergence found within the cap\n\n");
  }

  const auto fixed = run(/*fixed_library=*/true);
  if (fixed.reproduced) {
    std::printf("LWW MoveAfter (the fix): survives the simple concurrent-move race,\n"
                "but exhaustive replay still finds a deeper corner case at\n"
                "interleaving #%llu — an *insert* interleaving with the concurrent\n"
                "moves lands on different sides of the moved element on each\n"
                "replica (the hazard analyzed by Kleppmann, \"Moving Elements in\n"
                "List CRDTs\", 2020):\n  %s\n",
                static_cast<unsigned long long>(fixed.first_violation_index),
                fixed.messages.front().c_str());
  } else {
    std::printf("LWW MoveAfter (the fix): documents converged in every explored\n"
                "interleaving.\n");
  }
  return 0;
}
