// Interleavings and event units.
//
// An interleaving is one total order over the captured events. Event Grouping
// (paper §3.2, Algorithm 1) fuses each sync_req with the exec_sync that
// consumes it on the same (sender, receiver) channel — plus any
// developer-specified groups — into *units* that always execute contiguously;
// the enumeration space then shrinks from n! (events) to k! (units).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "proxy/event.hpp"

namespace erpi::core {

using proxy::Event;
using proxy::EventKind;
using proxy::EventSet;

/// One total order of event ids, with the Lamport timestamp assigned to each
/// position (paper §4.2: the timestamp defines replay order).
struct Interleaving {
  std::vector<int> order;  // event ids, execution order

  int64_t lamport(size_t position) const noexcept {
    return static_cast<int64_t>(position) + 1;
  }

  size_t size() const noexcept { return order.size(); }
  bool operator==(const Interleaving&) const = default;

  /// Position of event `id`, or nullopt.
  std::optional<size_t> position_of(int id) const;

  /// Compact rendering "3,0,1,2" for reports and dedup keys.
  std::string key() const;

  /// key() appended into a caller-owned buffer — the hot-path form used by
  /// dedup and persistence so per-candidate key construction reuses one
  /// allocation across the whole run.
  void append_key(std::string& out) const;

  /// Inverse of key(): parse "3,0,1,2" back into an interleaving. Used when
  /// orders round-trip through the run journal and the outcome corpus (e.g.
  /// rehydrating violation priors for guided search). nullopt unless the key
  /// is a comma-separated list of integers; decoders check keys with it.
  static std::optional<Interleaving> parse_key(std::string_view key);
  /// parse_key() for keys already checked; malformed input throws.
  static Interleaving from_key(const std::string& key);
};

/// Length of the longest shared prefix of two interleavings, in events.
size_t common_prefix_len(const Interleaving& a, const Interleaving& b) noexcept;

/// A maximal run of events that always executes contiguously, in order.
struct EventUnit {
  std::vector<int> events;

  int leader() const { return events.front(); }
};

/// Developer-specified extra groups: each inner vector lists event ids that
/// must stay contiguous, in the given order (paper: spec_group input).
using SpecGroups = std::vector<std::vector<int>>;

/// Algorithm 1 (Event Group Pruning), grouping phase: pair each sync_req
/// with the next unconsumed exec_sync on the same (from, to) channel, then
/// apply developer-specified groups. Remaining events become singleton units.
/// Units preserve capture order of their leaders.
std::vector<EventUnit> build_units(const EventSet& events, const SpecGroups& spec_groups = {});

/// Flatten a unit ordering (indices into `units`) into an event interleaving.
Interleaving flatten(const std::vector<EventUnit>& units,
                     const std::vector<size_t>& unit_order);

/// n! with saturation at uint64 max (n > 20 saturates).
uint64_t factorial_saturated(uint64_t n) noexcept;

}  // namespace erpi::core
