#include "crdt/sets.hpp"

#include <algorithm>

namespace erpi::crdt {

// ---------------------------------------------------------------------------
// LwwSet
// ---------------------------------------------------------------------------

bool LwwSet::wins(const Cell& current, Timestamp at, bool incoming_is_add) const {
  if (!strict_tiebreak_) {
    // Arrival order decides ties — the Roshi #11 violation.
    return at.time >= current.timestamp.time;
  }
  if (at.time != current.timestamp.time) return at.time > current.timestamp.time;
  // Same logical instant: remove beats add (Roshi's remove bias), then the
  // higher replica id wins so the outcome is replica-order independent.
  if (incoming_is_add != current.is_add) return !incoming_is_add;
  return at.replica > current.timestamp.replica;
}

bool LwwSet::add(const std::string& element, Timestamp at) {
  const auto it = cells_.find(element);
  if (it == cells_.end()) {
    cells_[element] = Cell{at, true};
    return true;
  }
  if (!wins(it->second, at, true)) return false;
  it->second = Cell{at, true};
  return true;
}

bool LwwSet::remove(const std::string& element, Timestamp at) {
  const auto it = cells_.find(element);
  if (it == cells_.end()) {
    cells_[element] = Cell{at, false};
    return true;
  }
  if (!wins(it->second, at, false)) return false;
  it->second = Cell{at, false};
  return true;
}

bool LwwSet::contains(const std::string& element) const {
  const auto it = cells_.find(element);
  return it != cells_.end() && it->second.is_add;
}

std::optional<Timestamp> LwwSet::last_op(const std::string& element) const {
  const auto it = cells_.find(element);
  if (it == cells_.end()) return std::nullopt;
  return it->second.timestamp;
}

bool LwwSet::deleted(const std::string& element) const {
  const auto it = cells_.find(element);
  return it != cells_.end() && !it->second.is_add;
}

std::vector<std::string> LwwSet::elements() const {
  std::vector<std::string> out;
  for (const auto& [element, cell] : cells_) {
    if (cell.is_add) out.push_back(element);
  }
  return out;  // std::map iteration is already sorted
}

size_t LwwSet::size() const {
  size_t n = 0;
  for (const auto& [element, cell] : cells_) n += cell.is_add ? 1 : 0;
  return n;
}

void LwwSet::merge(const LwwSet& other) {
  for (const auto& [element, cell] : other.cells_) {
    if (cell.is_add) {
      add(element, cell.timestamp);
    } else {
      remove(element, cell.timestamp);
    }
  }
}

util::Json LwwSet::to_json() const {
  util::Json j = util::Json::object();
  for (const auto& [element, cell] : cells_) {
    util::Json c = util::Json::object();
    c["ts"] = cell.timestamp.to_json();
    c["add"] = cell.is_add;
    j[element] = std::move(c);
  }
  return j;
}

// ---------------------------------------------------------------------------
// OrSet
// ---------------------------------------------------------------------------

OrSet::AddOp OrSet::add(ReplicaId replica, const std::string& element) {
  AddOp op{element, Dot{replica, ++next_counter_[replica]}};
  apply(op);
  return op;
}

std::optional<OrSet::RemoveOp> OrSet::remove(const std::string& element) {
  const auto it = live_.find(element);
  if (it == live_.end() || it->second.empty()) return std::nullopt;
  RemoveOp op;
  op.element = element;
  op.observed_tags.assign(it->second.begin(), it->second.end());
  apply(op);
  return op;
}

void OrSet::apply(const AddOp& op) {
  if (tombstones_.count(op.tag) > 0) return;  // already removed downstream
  live_[op.element].insert(op.tag);
  // keep counters ahead of any tag we have seen from that replica, so local
  // adds after a merge still mint fresh dots
  auto& counter = next_counter_[op.tag.replica];
  if (op.tag.counter > counter) counter = op.tag.counter;
}

void OrSet::apply(const RemoveOp& op) {
  const auto it = live_.find(op.element);
  for (const Dot& tag : op.observed_tags) {
    tombstones_.insert(tag);
    if (it != live_.end()) it->second.erase(tag);
  }
  if (it != live_.end() && it->second.empty()) live_.erase(it);
}

bool OrSet::contains(const std::string& element) const {
  const auto it = live_.find(element);
  return it != live_.end() && !it->second.empty();
}

std::vector<std::string> OrSet::elements() const {
  std::vector<std::string> out;
  for_each([&](const std::string& element) { out.push_back(element); });
  return out;
}

size_t OrSet::size() const { return elements().size(); }

void OrSet::merge(const OrSet& other) {
  // union tombstones first so dead incoming tags stay dead
  tombstones_.insert(other.tombstones_.begin(), other.tombstones_.end());
  for (const auto& [element, tags] : other.live_) {
    for (const Dot& tag : tags) {
      if (tombstones_.count(tag) == 0) live_[element].insert(tag);
      auto& counter = next_counter_[tag.replica];
      if (tag.counter > counter) counter = tag.counter;
    }
  }
  // purge any of our live tags that the other side has tombstoned
  for (auto it = live_.begin(); it != live_.end();) {
    auto& tags = it->second;
    for (auto tag_it = tags.begin(); tag_it != tags.end();) {
      if (tombstones_.count(*tag_it) > 0) {
        tag_it = tags.erase(tag_it);
      } else {
        ++tag_it;
      }
    }
    it = tags.empty() ? live_.erase(it) : std::next(it);
  }
}

util::Json OrSet::to_json() const {
  util::Json arr = util::Json::array();
  for_each([&](const std::string& element) { arr.push_back(element); });
  return arr;
}

// ---------------------------------------------------------------------------
// TwoPSet
// ---------------------------------------------------------------------------

bool TwoPSet::add(const std::string& element) {
  if (removed_.count(element) > 0 || added_.count(element) > 0) return false;
  added_.insert(element);
  return true;
}

bool TwoPSet::remove(const std::string& element) {
  if (!contains(element)) return false;
  removed_.insert(element);
  return true;
}

bool TwoPSet::contains(const std::string& element) const {
  return added_.count(element) > 0 && removed_.count(element) == 0;
}

std::vector<std::string> TwoPSet::elements() const {
  std::vector<std::string> out;
  for (const auto& e : added_) {
    if (removed_.count(e) == 0) out.push_back(e);
  }
  return out;
}

size_t TwoPSet::size() const { return elements().size(); }

void TwoPSet::merge(const TwoPSet& other) {
  added_.insert(other.added_.begin(), other.added_.end());
  removed_.insert(other.removed_.begin(), other.removed_.end());
}

util::Json TwoPSet::to_json() const {
  util::Json arr = util::Json::array();
  for (const auto& e : elements()) arr.push_back(e);
  return arr;
}

}  // namespace erpi::crdt
