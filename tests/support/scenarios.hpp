// Scenario replay for subject tests: the bug and misconception scenarios'
// captured events, replayed in a few unit orders.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "bugs/misconceptions.hpp"
#include "bugs/registry.hpp"
#include "core/interleaving.hpp"
#include "proxy/proxy.hpp"
#include "subjects/town.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace erpi::test_support {

/// The events `bug`'s workload captures on a fresh subject.
inline proxy::EventSet capture_events(const bugs::BugScenario& bug) {
  const auto subject = bug.make_subject();
  proxy::RdlProxy capture(*subject);
  capture.start_capture();
  bug.workload(capture);
  return capture.end_capture();
}

/// `count` interleavings of `events`' units: capture order first, then
/// seeded shuffles.
inline std::vector<core::Interleaving> unit_orders(const proxy::EventSet& events, size_t count) {
  const auto units = core::build_units(events);
  std::vector<size_t> order(units.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(23);
  std::vector<core::Interleaving> out;
  for (size_t n = 0; n < count; ++n) {
    if (n > 0) rng.shuffle(order);
    out.push_back(core::flatten(units, order));
  }
  return out;
}

/// A 3-replica town workload: reports, a resolve and syncs along a chain.
inline bugs::BugScenario town_scenario() {
  const auto args = [](const char* problem) {
    util::Json j = util::Json::object();
    j["problem"] = problem;
    return j;
  };
  bugs::BugScenario town;
  town.name = "town";
  town.make_subject = [] { return std::make_unique<subjects::TownApp>(3); };
  town.workload = [args](proxy::RdlProxy& p) {
    (void)p.update(0, "report", args("lamp"));
    (void)p.sync_req(0, 1);
    (void)p.exec_sync(0, 1);
    (void)p.update(1, "resolve", args("lamp"));
    (void)p.update(2, "report", args("otb"));
    (void)p.sync_req(1, 2);
    (void)p.exec_sync(1, 2);
    (void)p.sync_req(2, 0);
    (void)p.exec_sync(2, 0);
    (void)p.query(0, "transmit");
  };
  return town;
}

/// The town workload, the 12 Table-1 bugs, the 2 storage bugs and every
/// misconception cell.
inline std::vector<bugs::BugScenario> every_scenario() {
  std::vector<bugs::BugScenario> out{town_scenario()};
  for (const auto& bug : bugs::all_bugs()) out.push_back(bug);
  for (const auto& bug : bugs::storage_bugs()) out.push_back(bug);
  for (const auto& cell : bugs::all_misconceptions()) out.push_back(cell.scenario);
  return out;
}

}  // namespace erpi::test_support
