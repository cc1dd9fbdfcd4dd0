// Dynamic partial-order reduction: footprints, the learned independence
// relation, the sleep-set prefix oracle, and the paranoid replay-and-compare
// verifier (DESIGN.md §15).

#include "core/dpor.hpp"

#include <algorithm>
#include <set>

#include "core/interleaving.hpp"
#include "util/hash.hpp"

namespace erpi::core {

// ---------------------------------------------------------------------------
// Footprints
// ---------------------------------------------------------------------------

bool footprint_keys_conflict(std::string_view a, std::string_view b) noexcept {
  const bool wa = !a.empty() && a.back() == '*';
  const bool wb = !b.empty() && b.back() == '*';
  if (!wa && !wb) return a == b;
  const std::string_view pa = wa ? a.substr(0, a.size() - 1) : a;
  const std::string_view pb = wb ? b.substr(0, b.size() - 1) : b;
  if (wa && wb) {
    const size_t n = std::min(pa.size(), pb.size());
    return pa.substr(0, n) == pb.substr(0, n);
  }
  // Exactly one wildcard: the plain key must extend the wildcard's prefix.
  const std::string_view prefix = wa ? pa : pb;
  const std::string_view plain = wa ? b : a;
  return plain.size() >= prefix.size() && plain.substr(0, prefix.size()) == prefix;
}

void Footprint::insert_key(std::vector<std::string>& keys, std::string key) {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it != keys.end() && *it == key) return;
  keys.insert(it, std::move(key));
}

bool Footprint::merge(const Footprint& other) {
  bool widened = false;
  for (const auto& key : other.reads) {
    const size_t before = reads.size();
    insert_key(reads, key);
    widened = widened || reads.size() != before;
  }
  for (const auto& key : other.writes) {
    const size_t before = writes.size();
    insert_key(writes, key);
    widened = widened || writes.size() != before;
  }
  if (other.sync && !sync) {
    sync = true;
    widened = true;
  }
  return widened;
}

namespace {

bool key_sets_conflict(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  for (const auto& ka : a) {
    for (const auto& kb : b) {
      if (footprint_keys_conflict(ka, kb)) return true;
    }
  }
  return false;
}

}  // namespace

bool footprints_conflict(const Footprint& a, const Footprint& b) noexcept {
  return key_sets_conflict(a.writes, b.writes) || key_sets_conflict(a.writes, b.reads) ||
         key_sets_conflict(a.reads, b.writes);
}

// ---------------------------------------------------------------------------
// FootprintRecorder
// ---------------------------------------------------------------------------

FootprintRecorder::FootprintRecorder(Sink sink) : sink_(std::move(sink)) {
  scratch_.reads.reserve(8);
  scratch_.writes.reserve(8);
  key_scratch_.reserve(48);
}

void FootprintRecorder::begin_event(int event_id) {
  event_ = event_id;
  notes_ = 0;
  scratch_.reads.clear();
  scratch_.writes.clear();
  scratch_.sync = false;
}

void FootprintRecorder::end_event() {
  if (event_ < 0) return;
  const int id = event_;
  event_ = -1;
  if (sink_) sink_(id, std::move(scratch_));
  scratch_ = Footprint{};
  scratch_.reads.reserve(8);
  scratch_.writes.reserve(8);
}

void FootprintRecorder::note_read(std::string key) {
  if (event_ < 0) return;
  ++notes_;
  Footprint::insert_key(scratch_.reads, std::move(key));
}

void FootprintRecorder::note_write(std::string key) {
  if (event_ < 0) return;
  ++notes_;
  Footprint::insert_key(scratch_.writes, std::move(key));
}

void FootprintRecorder::note_sync() noexcept {
  if (event_ < 0) return;
  scratch_.sync = true;
}

std::string& FootprintRecorder::build_replica_key(int replica, std::string_view field) {
  key_scratch_.clear();
  key_scratch_ += 'r';
  key_scratch_ += std::to_string(replica);
  key_scratch_ += '/';
  key_scratch_ += field;
  return key_scratch_;
}

std::string& FootprintRecorder::build_channel_key(int from, int to) {
  key_scratch_.clear();
  key_scratch_ += "chan/";
  key_scratch_ += std::to_string(from);
  key_scratch_ += "->";
  key_scratch_ += std::to_string(to);
  return key_scratch_;
}

void FootprintRecorder::note_read(int replica, std::string_view field) {
  if (event_ < 0) return;
  note_read(build_replica_key(replica, field));
}

void FootprintRecorder::note_write(int replica, std::string_view field) {
  if (event_ < 0) return;
  note_write(build_replica_key(replica, field));
}

void FootprintRecorder::note_channel_write(int from, int to) {
  if (event_ < 0) return;
  note_write(build_channel_key(from, to));
}

void FootprintRecorder::note_channel_read(int from, int to) {
  if (event_ < 0) return;
  note_read(build_channel_key(from, to));
}

// ---------------------------------------------------------------------------
// IndependenceLearner
// ---------------------------------------------------------------------------

IndependenceLearner::IndependenceLearner(DporOptions options) : options_(options) {}

void IndependenceLearner::set_events(const proxy::EventSet& events) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_channel_.clear();
  for (const auto& event : events) {
    if (event.kind == proxy::EventKind::SyncReq || event.kind == proxy::EventKind::ExecSync) {
      sync_channel_[event.id] =
          (static_cast<int64_t>(event.from) << 32) | static_cast<uint32_t>(event.to);
    }
  }
}

void IndependenceLearner::observe(const std::string& context, int event_id, Footprint fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = contexts_[context][event_id];
  const bool widened = slot.fp.merge(fp);
  slot.seen_this_run = true;
  ++stats_.footprints_recorded;
  if (frozen_ && widened) ++stats_.late_widenings;
}

void IndependenceLearner::note_training_run() {
  std::lock_guard<std::mutex> lock(mu_);
  trained_this_run_ = true;
}

void IndependenceLearner::freeze() {
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = true;
}

void IndependenceLearner::seed(const std::string& context, int event_id, Footprint fp,
                               uint32_t runs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = contexts_[context][event_id];
  slot.fp.merge(fp);
  slot.seeded_runs = std::max(slot.seeded_runs, runs);
}

void IndependenceLearner::seed_verdict(int a, int b, bool independent) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::pair<int, int> key = std::minmax(a, b);
  auto [it, inserted] = verdicts_.emplace(key, independent);
  // Refutations are permanent: never upgrade a false verdict.
  if (!inserted && !independent) it->second = false;
}

IndependenceLearner::Export IndependenceLearner::export_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  Export out;
  for (const auto& [context, by_event] : contexts_) {
    for (const auto& [event, observed] : by_event) {
      Export::Entry entry;
      entry.context = context;
      entry.event = event;
      entry.runs = observed.seeded_runs + (observed.seen_this_run ? 1 : 0);
      entry.fp = observed.fp;
      out.footprints.push_back(std::move(entry));
    }
  }
  for (const auto& [pair, independent] : verdicts_) {
    out.verdicts.push_back({pair.first, pair.second, independent});
  }
  return out;
}

bool IndependenceLearner::trained() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [context, by_event] : contexts_) {
    if (!by_event.empty()) return true;
  }
  return false;
}

Footprint IndependenceLearner::combined_locked(int event_id) const {
  Footprint out;
  for (const auto& [context, by_event] : contexts_) {
    auto it = by_event.find(event_id);
    if (it != by_event.end()) out.merge(it->second.fp);
  }
  return out;
}

Footprint IndependenceLearner::combined(int event_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return combined_locked(event_id);
}

uint32_t IndependenceLearner::runs_locked(int event_id) const {
  uint32_t runs = 0;
  for (const auto& [context, by_event] : contexts_) {
    auto it = by_event.find(event_id);
    if (it == by_event.end()) continue;
    runs = std::max(runs,
                    it->second.seeded_runs + ((it->second.seen_this_run || trained_this_run_)
                                                  ? 1u
                                                  : 0u));
  }
  return runs;
}

uint32_t IndependenceLearner::runs_observed(int event_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_locked(event_id);
}

std::optional<bool> IndependenceLearner::verdict_locked(int a, int b) const {
  const std::pair<int, int> key = std::minmax(a, b);
  auto it = verdicts_.find(key);
  if (it == verdicts_.end()) return std::nullopt;
  return it->second;
}

std::optional<bool> IndependenceLearner::verdict(int a, int b) const {
  std::lock_guard<std::mutex> lock(mu_);
  return verdict_locked(a, b);
}

void IndependenceLearner::record_verdict(int a, int b, bool independent) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::pair<int, int> key = std::minmax(a, b);
  auto [it, inserted] = verdicts_.emplace(key, independent);
  if (!inserted && !independent) it->second = false;
  if (independent) {
    ++stats_.pairs_verified;
  } else {
    ++stats_.pairs_refuted;
  }
}

bool IndependenceLearner::independent_locked(int a, int b, bool require_verdict) const {
  if (a == b) return false;
  const auto verdict = verdict_locked(a, b);
  if (verdict.has_value() && !*verdict) return false;  // refuted — permanent
  // Happens-before: sync events on the same FIFO channel never commute.
  auto ca = sync_channel_.find(a);
  auto cb = sync_channel_.find(b);
  if (ca != sync_channel_.end() && cb != sync_channel_.end() && ca->second == cb->second) {
    return false;
  }
  const Footprint fa = combined_locked(a);
  const Footprint fb = combined_locked(b);
  if (fa.empty() || fb.empty()) return false;  // unobserved — decline
  if (footprints_conflict(fa, fb)) return false;
  if (fa.sync || fb.sync) {
    if (runs_locked(a) < kSyncTrustRuns || runs_locked(b) < kSyncTrustRuns) return false;
  }
  if (require_verdict && !(verdict.has_value() && *verdict)) return false;
  return true;
}

bool IndependenceLearner::independent(int a, int b) const {
  std::lock_guard<std::mutex> lock(mu_);
  return independent_locked(a, b, options_.paranoid);
}

std::vector<std::pair<int, int>> IndependenceLearner::unverified_candidate_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<int> ids;
  for (const auto& [context, by_event] : contexts_) {
    for (const auto& [event, observed] : by_event) ids.insert(event);
  }
  std::vector<std::pair<int, int>> out;
  for (auto ia = ids.begin(); ia != ids.end(); ++ia) {
    for (auto ib = std::next(ia); ib != ids.end(); ++ib) {
      if (verdict_locked(*ia, *ib).has_value()) continue;
      if (independent_locked(*ia, *ib, /*require_verdict=*/false)) {
        out.emplace_back(*ia, *ib);
      }
    }
  }
  return out;
}

uint64_t IndependenceLearner::relation_digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::Fnv1aHasher hasher;
  hasher.u64(options_.enabled ? 1 : 0);
  hasher.u64(options_.paranoid ? 1 : 0);
  hasher.u64(options_.footprint_schema);
  for (const auto& [context, by_event] : contexts_) {
    hasher.bytes(context);
    for (const auto& [event, observed] : by_event) {
      hasher.i64(event);
      hasher.u64(observed.seeded_runs + ((observed.seen_this_run || trained_this_run_) ? 1 : 0));
      hasher.u64(observed.fp.sync ? 1 : 0);
      for (const auto& key : observed.fp.reads) hasher.bytes(key);
      hasher.u64(observed.fp.reads.size());
      for (const auto& key : observed.fp.writes) hasher.bytes(key);
      hasher.u64(observed.fp.writes.size());
    }
  }
  for (const auto& [pair, independent] : verdicts_) {
    hasher.i64(pair.first);
    hasher.i64(pair.second);
    hasher.u64(independent ? 1 : 0);
  }
  return hasher.digest();
}

DporStats IndependenceLearner::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// DporOracle — sleep sets over the frozen relation
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kMaxExactSlots = 20;

class DporOracle final : public PrefixOracle {
 public:
  DporOracle(size_t slot_count, size_t item_count, std::vector<int> item_of_event,
             std::vector<int> pos_in_unit, std::vector<uint64_t> indep)
      : name_(kDporOracleName),
        slot_count_(slot_count),
        items_(item_count),
        words_((item_count + 63) / 64),
        item_of_event_(std::move(item_of_event)),
        pos_in_unit_(std::move(pos_in_unit)),
        indep_(std::move(indep)) {
    reset();
  }

  const std::string& name() const override { return name_; }

  bool push(int event_id) override {
    const auto id = static_cast<size_t>(event_id);
    if (!pos_in_unit_.empty() && id < pos_in_unit_.size() && pos_in_unit_[id] != 0) {
      markers_.push_back(Marker{-1, false});  // interior of a unit: no item step
      return true;
    }
    const int item =
        id < item_of_event_.size() ? item_of_event_[id] : -1;
    if (item < 0) {
      markers_.push_back(Marker{-1, false});
      return true;
    }
    Frame& cur = frames_[depth_];
    Frame& child = frames_[depth_ + 1];
    const auto u = static_cast<size_t>(item);
    const bool slept = (cur.sleep[u / 64] >> (u % 64)) & 1;
    const uint64_t* row = indep_.data() + u * words_;
    for (size_t w = 0; w < words_; ++w) {
      child.sleep[w] = (cur.sleep[w] | cur.done[w]) & row[w];
      child.done[w] = 0;
    }
    if (slept) ++sleep_hits_;
    ++depth_;
    markers_.push_back(Marker{item, slept});
    return !slept;
  }

  void pop() override {
    const Marker marker = markers_.back();
    markers_.pop_back();
    if (marker.item < 0) return;
    --depth_;
    if (marker.slept) --sleep_hits_;
    // The popped sibling's subtree is covered (explored, sleep-cut, or cut by
    // a coexisting oracle into outcome-equivalent earlier candidates): later
    // siblings may treat it as done for sleep propagation.
    const auto u = static_cast<size_t>(marker.item);
    frames_[depth_].done[u / 64] |= uint64_t{1} << (u % 64);
  }

  void reset() override {
    frames_.resize(slot_count_ + 1);
    for (auto& frame : frames_) {
      frame.sleep.assign(words_, 0);
      frame.done.assign(words_, 0);
    }
    markers_.clear();
    markers_.reserve(slot_count_ * 2 + 4);
    depth_ = 0;
    sleep_hits_ = 0;
  }

  std::optional<uint64_t> changed_in_subtree(uint64_t remaining_slots) const override {
    if (sleep_hits_ == 0) return 0;
    if (remaining_slots > kMaxExactSlots) return std::nullopt;
    // Every completion of a slept prefix was covered earlier — the whole
    // subtree is this oracle's contribution.
    return factorial_saturated(remaining_slots);
  }

 private:
  struct Frame {
    std::vector<uint64_t> sleep;
    std::vector<uint64_t> done;
  };
  struct Marker {
    int item = -1;
    bool slept = false;
  };

  std::string name_;
  size_t slot_count_;
  size_t items_;
  size_t words_;
  std::vector<int> item_of_event_;
  std::vector<int> pos_in_unit_;
  std::vector<uint64_t> indep_;  // items_ rows of words_ bit-words

  std::vector<Frame> frames_;
  std::vector<Marker> markers_;
  size_t depth_ = 0;
  uint32_t sleep_hits_ = 0;
};

}  // namespace

std::unique_ptr<PrefixOracle> make_dpor_oracle(
    const OracleDomain& domain, const std::shared_ptr<IndependenceLearner>& learner) {
  if (learner == nullptr || !learner->trained()) return nullptr;
  if (domain.slot_count == 0 || domain.event_count == 0) return nullptr;
  const size_t item_count = domain.unit_generation ? domain.units.size() : domain.slot_count;
  if (item_count == 0 || item_count > 4096) return nullptr;  // matrix size guard

  // Map event id -> item index, and collect each item's member events.
  std::vector<int> item_of_event;
  std::vector<std::vector<int>> members(item_count);
  if (domain.unit_generation) {
    item_of_event = domain.unit_of_event;
    for (size_t u = 0; u < domain.units.size(); ++u) members[u] = domain.units[u].events;
  } else {
    item_of_event.assign(domain.rank_of_event.size(), -1);
    for (size_t id = 0; id < domain.rank_of_event.size(); ++id) {
      const int rank = domain.rank_of_event[id];
      if (rank < 0) continue;
      if (static_cast<size_t>(rank) >= item_count) return nullptr;
      item_of_event[id] = rank;
      members[static_cast<size_t>(rank)].push_back(static_cast<int>(id));
    }
  }

  // Frozen independence matrix: items commute iff every cross event pair does.
  const size_t words = (item_count + 63) / 64;
  std::vector<uint64_t> indep(item_count * words, 0);
  bool any = false;
  for (size_t i = 0; i < item_count; ++i) {
    for (size_t j = i + 1; j < item_count; ++j) {
      bool ok = !members[i].empty() && !members[j].empty();
      for (size_t a = 0; ok && a < members[i].size(); ++a) {
        for (size_t b = 0; ok && b < members[j].size(); ++b) {
          ok = learner->independent(members[i][a], members[j][b]);
        }
      }
      if (ok) {
        indep[i * words + j / 64] |= uint64_t{1} << (j % 64);
        indep[j * words + i / 64] |= uint64_t{1} << (i % 64);
        any = true;
      }
    }
  }
  learner->freeze();
  if (!any) {
    // Nothing commutes: a sleep set can never be non-empty. Returning the
    // oracle anyway keeps the chain byte-identical to the static-only chain
    // (its changed contribution is always 0), which the parity tests rely on.
  }
  return std::make_unique<DporOracle>(domain.slot_count, item_count, std::move(item_of_event),
                                      domain.unit_generation ? domain.pos_in_unit
                                                             : std::vector<int>{},
                                      std::move(indep));
}

// ---------------------------------------------------------------------------
// Paranoid replay-and-compare
// ---------------------------------------------------------------------------

namespace {

/// Execute `order` on a fresh fixture and return a digest of which ops
/// succeeded and of every replica's final state digest (errors from
/// individual ops are tolerated, as in a normal replay).
uint64_t run_order(const proxy::EventSet& order,
                   const std::function<std::unique_ptr<proxy::Rdl>()>& factory) {
  auto subject = factory();
  if (subject == nullptr) return 0;
  subject->reset();
  util::Fnv1aHasher outcome;
  for (const auto& event : order) {
    auto result = subject->invoke(event.replica, event.op, event.args);
    outcome.bytes(result.has_value() ? "+" : "-");
  }
  for (int r = 0; r < subject->replica_count(); ++r) {
    outcome.u64(subject->state_digest(r, {}));
  }
  return outcome.digest();
}

}  // namespace

uint64_t verify_candidate_pairs(
    IndependenceLearner& learner, const proxy::EventSet& events,
    const std::function<std::unique_ptr<proxy::Rdl>()>& subject_factory) {
  if (!subject_factory) return 0;
  const auto pairs = learner.unverified_candidate_pairs();
  if (pairs.empty()) return 0;
  std::map<int, size_t> index_of;
  for (size_t i = 0; i < events.size(); ++i) index_of[events[i].id] = i;
  uint64_t refuted = 0;
  for (const auto& [a, b] : pairs) {
    auto ia = index_of.find(a);
    auto ib = index_of.find(b);
    if (ia == index_of.end() || ib == index_of.end()) continue;
    // Capture order with b pulled adjacent after a, and the same with the
    // pair swapped: commuting events must leave identical state either way.
    proxy::EventSet base;
    base.reserve(events.size());
    const size_t first = std::min(ia->second, ib->second);
    const size_t second = std::max(ia->second, ib->second);
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == second) continue;
      base.push_back(events[i]);
      if (i == first) base.push_back(events[second]);
    }
    proxy::EventSet swapped = base;
    std::swap(swapped[first], swapped[first + 1]);
    const bool same = run_order(base, subject_factory) == run_order(swapped, subject_factory);
    learner.record_verdict(a, b, same);
    if (!same) ++refuted;
  }
  return refuted;
}

uint64_t dpor_context_fingerprint(const proxy::EventSet& events, uint32_t schema) {
  util::Fnv1aHasher hasher;
  hasher.u64(schema);
  hasher.u64(events.size());
  for (const auto& event : events) {
    hasher.bytes(event.to_json().dump());
  }
  return hasher.digest();
}

}  // namespace erpi::core
