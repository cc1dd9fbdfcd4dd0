#include "core/enumerate.hpp"

#include <algorithm>
#include <numeric>

namespace erpi::core {
namespace {

/// Build the by-event-id rank table shared by both domains. Returns false
/// when the ids are unfit for table indexing (negative or absurdly sparse),
/// in which case no oracle domain is offered.
bool build_rank_table(const std::vector<int>& ids, std::vector<int>& rank_of_event) {
  constexpr int kMaxEventId = 1 << 16;
  int max_id = -1;
  for (const int id : ids) {
    if (id < 0 || id >= kMaxEventId) return false;
    max_id = std::max(max_id, id);
  }
  rank_of_event.assign(static_cast<size_t>(max_id) + 1, -1);
  return true;
}

/// One recursion step of split_tree_order over [begin, end) at prefix depth
/// `depth`: emit the range whole if it fits, otherwise break it into maximal
/// consecutive runs agreeing on order[depth] and recurse into each run.
void split_range(const std::vector<Interleaving>& items, size_t begin, size_t end,
                 size_t depth, size_t max_items, std::vector<SubtreeSpan>& out) {
  while (true) {
    if (begin == end) return;
    if (end - begin <= max_items) {
      out.push_back({begin, end, depth});
      return;
    }
    // Items too short to branch at this depth (duplicates of the shared
    // prefix) lead the range in tree order; peel them off as singleton spans.
    while (begin < end && items[begin].order.size() <= depth) {
      out.push_back({begin, begin + 1, depth});
      ++begin;
    }
    if (end - begin <= max_items) continue;

    // Count the runs first: a stream with no tree structure at this depth
    // (adjacent items almost never agree on order[depth]) would shatter into
    // per-item spans, so fall back to fixed-size chunking there — guided
    // exploration still works on e.g. shuffled streams, just without
    // prefix-locality in the handles.
    size_t runs = 1;
    for (size_t i = begin + 1; i < end; ++i) {
      if (items[i].order.size() <= depth || items[i].order[depth] != items[i - 1].order[depth]) {
        ++runs;
      }
    }
    const size_t target_spans = (end - begin + max_items - 1) / max_items;
    if (runs == 1) {
      ++depth;  // every item agrees at this position; descend a level
      continue;
    }
    if (runs > 4 * target_spans && runs > 8) {
      for (size_t i = begin; i < end; i += max_items) {
        out.push_back({i, std::min(i + max_items, end), depth});
      }
      return;
    }
    size_t run_begin = begin;
    for (size_t i = begin + 1; i <= end; ++i) {
      if (i == end || items[i].order.size() <= depth ||
          items[i].order[depth] != items[i - 1].order[depth]) {
        split_range(items, run_begin, i, depth + 1, max_items, out);
        run_begin = i;
      }
    }
    return;
  }
}

}  // namespace

std::vector<SubtreeSpan> split_tree_order(const std::vector<Interleaving>& items,
                                          size_t max_items) {
  std::vector<SubtreeSpan> out;
  if (items.empty()) return out;
  split_range(items, 0, items.size(), 0, std::max<size_t>(max_items, 1), out);
  return out;
}

// ---------------------------------------------------------------------------
// GroupedEnumerator
// ---------------------------------------------------------------------------

GroupedEnumerator::GroupedEnumerator(std::vector<EventUnit> units, Order order,
                                     uint64_t seed)
    : units_(std::move(units)), emit_order_(order), seed_(seed), rng_(seed) {
  reset();
}

void GroupedEnumerator::reset() {
  order_.resize(units_.size());
  std::iota(order_.begin(), order_.end(), size_t{0});
  rng_.reseed(seed_);
  seen_.clear();
  key_width_ = packed_key_width(units_.empty() ? 0 : units_.size() - 1);
  exhausted_ = units_.empty();
  first_ = true;
  emitted_ = 0;
  walk_stack_.assign(1, 0);
  walk_path_.clear();
  walk_used_.assign(units_.size(), false);
}

uint64_t GroupedEnumerator::cache_bytes() const noexcept {
  // each cached key packs one unit id per key_width_ bytes, plus set overhead
  return seen_.size() *
         (units_.size() * static_cast<uint64_t>(key_width_) + kDedupEntryOverheadBytes);
}

std::optional<OracleDomain> GroupedEnumerator::prefix_domain() const {
  if (emit_order_ != Order::Lexicographic) return std::nullopt;
  std::vector<int> all_ids;
  for (const auto& unit : units_) {
    all_ids.insert(all_ids.end(), unit.events.begin(), unit.events.end());
  }
  OracleDomain domain;
  if (!build_rank_table(all_ids, domain.rank_of_event)) return std::nullopt;
  domain.unit_generation = true;
  domain.slot_count = units_.size();
  domain.event_count = all_ids.size();
  domain.units = units_;
  domain.unit_of_event.assign(domain.rank_of_event.size(), -1);
  domain.pos_in_unit.assign(domain.rank_of_event.size(), -1);
  for (size_t u = 0; u < units_.size(); ++u) {
    for (size_t p = 0; p < units_[u].events.size(); ++p) {
      const auto id = static_cast<size_t>(units_[u].events[p]);
      domain.rank_of_event[id] = static_cast<int>(u);
      domain.unit_of_event[id] = static_cast<int>(u);
      domain.pos_in_unit[id] = static_cast<int>(p);
    }
  }
  return domain;
}

bool GroupedEnumerator::attach_prefix_oracle(OracleChain* chain) {
  if (emit_order_ != Order::Lexicographic) return false;
  oracle_ = chain;
  if (chain != nullptr) {
    // Restart the walk from the root; callers attach before the first next()
    // after construction/reset, so the walk and the chain agree on an empty
    // prefix. A later detach leaves the walk where it is, so the emission
    // stream is continuous.
    walk_stack_.assign(1, 0);
    walk_path_.clear();
    walk_used_.assign(units_.size(), false);
  }
  return true;
}

uint64_t GroupedEnumerator::universe_size() const {
  return factorial_saturated(units_.size());
}

std::optional<Interleaving> GroupedEnumerator::next() {
  if (exhausted_) return std::nullopt;
  auto result = emit_order_ == Order::Lexicographic ? next_lexicographic() : next_shuffled();
  if (result) ++emitted_;
  return result;
}

std::optional<Interleaving> GroupedEnumerator::next_lexicographic() {
  // Explicit DFS over unit indices, trying unused indices in ascending order
  // at every depth — which emits exactly the std::next_permutation sequence —
  // while giving an attached oracle chain a chance to cut each extension's
  // subtree.
  const size_t k = units_.size();
  while (!walk_stack_.empty()) {
    size_t choice = walk_stack_.back();
    while (choice < k && walk_used_[choice]) ++choice;
    if (choice >= k) {
      // no more children: backtrack
      walk_stack_.pop_back();
      if (!walk_path_.empty()) {
        const size_t last = walk_path_.back();
        walk_path_.pop_back();
        walk_used_[last] = false;
        if (oracle_ != nullptr) oracle_->pop_unit(last);
      }
      continue;
    }
    walk_stack_.back() = choice + 1;
    if (oracle_ != nullptr &&
        oracle_->push_unit(choice) == OracleChain::Verdict::Cut) {
      continue;  // whole subtree accounted as pruned; chain already unwound
    }
    walk_used_[choice] = true;
    walk_path_.push_back(choice);
    if (walk_path_.size() == k) {
      // leaf: emit, then immediately backtrack this choice
      Interleaving il = flatten(units_, walk_path_);
      walk_path_.pop_back();
      walk_used_[choice] = false;
      if (oracle_ != nullptr) oracle_->pop_unit(choice);
      return il;
    }
    walk_stack_.push_back(0);
  }
  exhausted_ = true;
  return std::nullopt;
}

std::optional<Interleaving> GroupedEnumerator::next_shuffled() {
  // Emit the identity (captured) order first — the baseline the developer
  // actually ran — then seeded random permutations with dedup.
  if (first_) {
    first_ = false;
    seen_.insert(packed_dedup_key(order_, key_width_));
    return flatten(units_, order_);
  }
  if (seen_.size() >= universe_size()) {
    exhausted_ = true;
    return std::nullopt;
  }
  const uint64_t dup_limit = 64 * std::max<uint64_t>(1, units_.size());
  uint64_t duplicates = 0;
  while (true) {
    rng_.shuffle(order_);
    if (seen_.insert(packed_dedup_key(order_, key_width_)).second) {
      return flatten(units_, order_);
    }
    if (++duplicates >= dup_limit) {
      exhausted_ = true;
      return std::nullopt;
    }
  }
}

// ---------------------------------------------------------------------------
// DfsEnumerator
// ---------------------------------------------------------------------------

DfsEnumerator::DfsEnumerator(std::vector<int> event_ids, uint64_t branch_seed)
    : event_ids_(std::move(event_ids)) {
  if (branch_seed != 0) {
    util::Rng rng(branch_seed);
    rng.shuffle(event_ids_);
  }
  reset();
}

void DfsEnumerator::reset() {
  stack_.clear();
  path_.clear();
  used_.assign(event_ids_.size(), false);
  stack_.push_back(Frame{});  // root
  exhausted_ = event_ids_.empty();
  nodes_expanded_ = 0;
  emitted_ = 0;
}

uint64_t DfsEnumerator::universe_size() const {
  return factorial_saturated(event_ids_.size());
}

std::optional<OracleDomain> DfsEnumerator::prefix_domain() const {
  OracleDomain domain;
  if (!build_rank_table(event_ids_, domain.rank_of_event)) return std::nullopt;
  domain.unit_generation = false;
  domain.slot_count = event_ids_.size();
  domain.event_count = event_ids_.size();
  // Rank = child-try order, i.e. the (possibly branch-seed-shuffled) index.
  for (size_t i = 0; i < event_ids_.size(); ++i) {
    domain.rank_of_event[static_cast<size_t>(event_ids_[i])] = static_cast<int>(i);
  }
  return domain;
}

bool DfsEnumerator::attach_prefix_oracle(OracleChain* chain) {
  oracle_ = chain;
  return true;
}

std::optional<Interleaving> DfsEnumerator::next() {
  if (exhausted_) return std::nullopt;
  const size_t n = event_ids_.size();
  // Expand depth-first until a leaf (complete permutation) is reached.
  while (!stack_.empty()) {
    Frame& frame = stack_.back();
    // find the next unused event to branch into from this node
    size_t choice = frame.next_choice;
    while (choice < n && used_[choice]) ++choice;
    if (choice >= n) {
      // no more children: backtrack
      stack_.pop_back();
      if (!path_.empty()) {
        // un-choose the event taken to get here
        const int last = path_.back();
        path_.pop_back();
        const auto it = std::find(event_ids_.begin(), event_ids_.end(), last);
        used_[static_cast<size_t>(it - event_ids_.begin())] = false;
        if (oracle_ != nullptr) oracle_->pop_event();
      }
      continue;
    }
    frame.next_choice = choice + 1;
    if (oracle_ != nullptr &&
        oracle_->push_event(event_ids_[choice]) == OracleChain::Verdict::Cut) {
      continue;  // whole subtree accounted as pruned; chain already unwound
    }
    used_[choice] = true;
    path_.push_back(event_ids_[choice]);
    ++nodes_expanded_;
    if (path_.size() == n) {
      // leaf: emit, then immediately backtrack this choice
      Interleaving il;
      il.order = path_;
      path_.pop_back();
      used_[choice] = false;
      if (oracle_ != nullptr) oracle_->pop_event();
      ++emitted_;
      return il;
    }
    stack_.push_back(Frame{});
  }
  exhausted_ = true;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// RandomEnumerator
// ---------------------------------------------------------------------------

RandomEnumerator::RandomEnumerator(std::vector<int> event_ids, uint64_t seed)
    : event_ids_(std::move(event_ids)), seed_(seed), rng_(seed) {
  uint64_t max_id = 0;
  for (const int id : event_ids_) max_id = std::max<uint64_t>(max_id, static_cast<uint64_t>(id));
  key_width_ = packed_key_width(max_id);
}

void RandomEnumerator::reset() {
  rng_.reseed(seed_);
  seen_.clear();
  shuffles_ = 0;
  exhausted_ = event_ids_.empty();
  emitted_ = 0;
}

uint64_t RandomEnumerator::universe_size() const {
  return factorial_saturated(event_ids_.size());
}

uint64_t RandomEnumerator::cache_bytes() const noexcept {
  // each cached key packs one event id per key_width_ bytes, plus set overhead
  return seen_.size() *
         (event_ids_.size() * static_cast<uint64_t>(key_width_) + kDedupEntryOverheadBytes);
}

std::optional<Interleaving> RandomEnumerator::next() {
  if (exhausted_ || event_ids_.empty()) return std::nullopt;
  if (seen_.size() >= universe_size()) {
    exhausted_ = true;
    return std::nullopt;
  }
  Interleaving il;
  il.order = event_ids_;
  // Give up after this many consecutive duplicate shuffles and treat the
  // universe as exhausted.
  const uint64_t dup_limit = 64 * std::max<uint64_t>(1, event_ids_.size());
  uint64_t consecutive_duplicates = 0;
  while (true) {
    rng_.shuffle(il.order);
    ++shuffles_;
    if (seen_.insert(packed_dedup_key(il.order, key_width_)).second) break;
    if (++consecutive_duplicates >= dup_limit) {
      exhausted_ = true;
      return std::nullopt;
    }
  }
  ++emitted_;
  return il;
}

}  // namespace erpi::core
