#include "core/interleaving.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

namespace erpi::core {

std::optional<size_t> Interleaving::position_of(int id) const {
  const auto it = std::find(order.begin(), order.end(), id);
  if (it == order.end()) return std::nullopt;
  return static_cast<size_t>(it - order.begin());
}

std::string Interleaving::key() const {
  std::string out;
  out.reserve(order.size() * 3);
  append_key(out);
  return out;
}

void Interleaving::append_key(std::string& out) const {
  char digits[12];
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out.push_back(',');
    int value = order[i];
    if (value < 0) {
      out.push_back('-');
      value = -value;
    }
    size_t len = 0;
    do {
      digits[len++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value > 0);
    while (len > 0) out.push_back(digits[--len]);
  }
}

std::optional<Interleaving> Interleaving::parse_key(std::string_view key) {
  Interleaving il;
  if (key.empty()) return il;
  const char* pos = key.data();
  const char* const end = pos + key.size();
  for (;;) {
    int id = 0;
    const auto [next, ec] = std::from_chars(pos, end, id);
    if (ec != std::errc{}) return std::nullopt;
    il.order.push_back(id);
    if (next == end) return il;
    if (*next != ',') return std::nullopt;
    pos = next + 1;
  }
}

Interleaving Interleaving::from_key(const std::string& key) {
  auto il = parse_key(key);
  if (!il) throw std::invalid_argument("malformed interleaving key: " + key);
  return std::move(*il);
}

size_t common_prefix_len(const Interleaving& a, const Interleaving& b) noexcept {
  const size_t limit = std::min(a.size(), b.size());
  size_t len = 0;
  while (len < limit && a.order[len] == b.order[len]) ++len;
  return len;
}

std::vector<EventUnit> build_units(const EventSet& events, const SpecGroups& spec_groups) {
  // union-find style chaining: follower[i] = event that must follow event i
  const int n = static_cast<int>(events.size());
  std::vector<int> follower(static_cast<size_t>(n), -1);
  std::vector<bool> is_follower(static_cast<size_t>(n), false);

  const auto link = [&](int first, int second) {
    if (first < 0 || second < 0 || first >= n || second >= n) {
      throw std::out_of_range("group references unknown event id");
    }
    if (follower[static_cast<size_t>(first)] != -1 ||
        is_follower[static_cast<size_t>(second)]) {
      return;  // already grouped; first pairing wins
    }
    follower[static_cast<size_t>(first)] = second;
    is_follower[static_cast<size_t>(second)] = true;
  };

  // Pair sync_req with the next unconsumed exec_sync on the same channel,
  // scanning in capture order (the causal pairing the paper describes).
  for (int i = 0; i < n; ++i) {
    if (!events[static_cast<size_t>(i)].is_sync_req()) continue;
    const auto& request = events[static_cast<size_t>(i)];
    for (int j = i + 1; j < n; ++j) {
      const auto& candidate = events[static_cast<size_t>(j)];
      if (candidate.is_exec_sync() && candidate.from == request.from &&
          candidate.to == request.to && !is_follower[static_cast<size_t>(j)]) {
        link(i, j);
        break;
      }
    }
  }

  // Developer-specified groups: chain consecutive members.
  for (const auto& group : spec_groups) {
    for (size_t i = 0; i + 1 < group.size(); ++i) link(group[i], group[i + 1]);
  }

  std::vector<EventUnit> units;
  for (int i = 0; i < n; ++i) {
    if (is_follower[static_cast<size_t>(i)]) continue;  // belongs to a chain
    EventUnit unit;
    int current = i;
    while (current != -1) {
      unit.events.push_back(current);
      current = follower[static_cast<size_t>(current)];
    }
    units.push_back(std::move(unit));
  }
  return units;
}

Interleaving flatten(const std::vector<EventUnit>& units,
                     const std::vector<size_t>& unit_order) {
  Interleaving out;
  for (const size_t unit_index : unit_order) {
    const auto& unit = units.at(unit_index);
    out.order.insert(out.order.end(), unit.events.begin(), unit.events.end());
  }
  return out;
}

uint64_t factorial_saturated(uint64_t n) noexcept {
  uint64_t result = 1;
  for (uint64_t i = 2; i <= n; ++i) {
    if (result > std::numeric_limits<uint64_t>::max() / i) {
      return std::numeric_limits<uint64_t>::max();
    }
    result *= i;
  }
  return result;
}

}  // namespace erpi::core
