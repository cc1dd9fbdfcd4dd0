#include "corpus/store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "util/json.hpp"

namespace erpi::corpus {
namespace fs = std::filesystem;

namespace {

constexpr char kKeySep = '/';

std::string fingerprint_hex(uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

std::string record_map_key(uint64_t fingerprint, const std::string& plan,
                           const std::string& il) {
  std::string key = fingerprint_hex(fingerprint);
  key += kKeySep;
  key += plan;
  key += kKeySep;
  key += il;
  return key;
}

std::string record_line(const Record& record) {
  util::Json j = util::Json::object();
  j["fp"] = fingerprint_hex(record.fingerprint);
  j["plan"] = record.plan;
  j["il"] = record.il;
  j["o"] = std::string(outcome_kind_name(record.kind));
  j["seq"] = static_cast<int64_t>(record.seq);
  // Kind-specific payloads are only written when set, so pass records — the
  // overwhelming majority — stay one short line each.
  if (record.signal != 0) j["sig"] = static_cast<int64_t>(record.signal);
  if (!record.violations.empty()) {
    util::Json violations = util::Json::array();
    for (const auto& violation : record.violations) {
      util::Json v = util::Json::object();
      v["a"] = violation.assertion;
      v["m"] = violation.message;
      violations.push_back(std::move(v));
    }
    j["v"] = std::move(violations);
  }
  if (record.recovery) {
    j["rk"] = std::string(core::recovery_status_name(record.recovery->status));
    if (record.recovery->first_missing != 0) {
      j["rf"] = static_cast<int64_t>(record.recovery->first_missing);
    }
    if (record.recovery->missing_count != 0) {
      j["rc"] = static_cast<int64_t>(record.recovery->missing_count);
    }
  }
  return j.dump();
}

std::optional<Record> parse_record_line(const std::string& line) {
  const auto parsed = util::Json::parse(line);
  if (!parsed) return std::nullopt;
  const util::Json& j = parsed.value();
  if (!j.is_object()) return std::nullopt;
  if (!j.contains("fp") || !j["fp"].is_string()) return std::nullopt;
  if (!j.contains("plan") || !j["plan"].is_string()) return std::nullopt;
  if (!j.contains("il") || !j["il"].is_string()) return std::nullopt;
  if (!j.contains("o") || !j["o"].is_string()) return std::nullopt;
  if (!j.contains("seq") || !j["seq"].is_int()) return std::nullopt;
  Record record;
  try {
    record.fingerprint = std::stoull(j["fp"].as_string(), nullptr, 16);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  record.plan = j["plan"].as_string();
  record.il = j["il"].as_string();
  // Violation priors rebuild the interleaving from its key.
  if (!core::Interleaving::parse_key(record.il)) return std::nullopt;
  const auto kind = outcome_kind_from_name(j["o"].as_string());
  if (!kind) return std::nullopt;
  record.kind = *kind;
  const int64_t seq = j["seq"].as_int();
  if (seq < 0) return std::nullopt;
  record.seq = static_cast<uint64_t>(seq);
  if (j.contains("sig")) {
    if (!j["sig"].is_int()) return std::nullopt;
    record.signal = static_cast<int>(j["sig"].as_int());
  }
  if (j.contains("v")) {
    if (!j["v"].is_array()) return std::nullopt;
    for (const auto& v : j["v"].as_array()) {
      if (!v.is_object() || !v.contains("a") || !v["a"].is_string() || !v.contains("m") ||
          !v["m"].is_string()) {
        return std::nullopt;
      }
      record.violations.push_back({v["a"].as_string(), v["m"].as_string()});
    }
  }
  if (j.contains("rk")) {
    if (!j["rk"].is_string()) return std::nullopt;
    const auto status = core::recovery_status_from_name(j["rk"].as_string());
    if (!status) return std::nullopt;
    core::RecoveryVerdict verdict;
    verdict.status = *status;
    if (j.contains("rf")) {
      if (!j["rf"].is_int() || j["rf"].as_int() < 0) return std::nullopt;
      verdict.first_missing = static_cast<uint64_t>(j["rf"].as_int());
    }
    if (j.contains("rc")) {
      if (!j["rc"].is_int() || j["rc"].as_int() < 0) return std::nullopt;
      verdict.missing_count = static_cast<uint64_t>(j["rc"].as_int());
    }
    record.recovery = verdict;
  }
  return record;
}

std::string segment_name(uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.jsonl",
                static_cast<unsigned long long>(number));
  return std::string(buf);
}

/// The number of a segment file named "seg-<digits>.jsonl", or nullopt for
/// any other name: stray files in the corpus directory are never loaded,
/// ordered or deleted as segments.
std::optional<uint64_t> segment_number(std::string_view name) {
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".jsonl";
  if (name.size() <= kPrefix.size() + kSuffix.size() || !name.starts_with(kPrefix) ||
      !name.ends_with(kSuffix)) {
    return std::nullopt;
  }
  const std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  uint64_t number = 0;
  const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), number);
  if (ec != std::errc{} || end != digits.data() + digits.size()) return std::nullopt;
  return number;
}

}  // namespace

const char* outcome_kind_name(OutcomeKind kind) noexcept {
  switch (kind) {
    case OutcomeKind::Pass: return "pass";
    case OutcomeKind::Violation: return "violation";
    case OutcomeKind::Crashed: return "crashed";
    case OutcomeKind::Oom: return "oom";
    case OutcomeKind::TimedOut: return "timed_out";
    case OutcomeKind::BudgetExhausted: return "budget_exhausted";
  }
  return "?";
}

std::optional<OutcomeKind> outcome_kind_from_name(std::string_view name) noexcept {
  if (name == "pass") return OutcomeKind::Pass;
  if (name == "violation") return OutcomeKind::Violation;
  if (name == "crashed") return OutcomeKind::Crashed;
  if (name == "oom") return OutcomeKind::Oom;
  if (name == "timed_out") return OutcomeKind::TimedOut;
  if (name == "budget_exhausted") return OutcomeKind::BudgetExhausted;
  return std::nullopt;
}

bool Record::same_outcome(const Record& other) const noexcept {
  return kind == other.kind && signal == other.signal &&
         violations == other.violations && recovery == other.recovery;
}

core::InterleavingOutcome Record::to_outcome() const {
  core::InterleavingOutcome outcome;
  switch (kind) {
    case OutcomeKind::Pass:
      break;
    case OutcomeKind::Violation:
      for (const auto& violation : violations) {
        outcome.violations.push_back({violation.assertion, violation.message});
      }
      break;
    case OutcomeKind::Crashed:
      outcome.crashed = true;
      outcome.term_signal = signal;
      break;
    case OutcomeKind::Oom:
      outcome.oom = true;
      break;
    case OutcomeKind::TimedOut:
      outcome.timed_out = true;
      break;
    case OutcomeKind::BudgetExhausted:
      // A budget-abandoned pair carries no replay result; reconstructing it
      // as an outcome is a caller error.
      throw std::logic_error("corpus: budget_exhausted records carry no replay outcome");
  }
  outcome.recovery = recovery;
  return outcome;
}

Record Record::from_outcome(uint64_t fingerprint, std::string plan, std::string il,
                            const core::InterleavingOutcome& outcome) {
  Record record;
  record.fingerprint = fingerprint;
  record.plan = std::move(plan);
  record.il = std::move(il);
  if (outcome.timed_out) {
    record.kind = OutcomeKind::TimedOut;
  } else if (outcome.crashed) {
    record.kind = OutcomeKind::Crashed;
    record.signal = outcome.term_signal;
  } else if (outcome.oom) {
    record.kind = OutcomeKind::Oom;
  } else if (!outcome.violations.empty()) {
    record.kind = OutcomeKind::Violation;
    for (const auto& violation : outcome.violations) {
      record.violations.push_back({violation.assertion, violation.message});
    }
  } else {
    record.kind = OutcomeKind::Pass;
  }
  record.recovery = outcome.recovery;
  return record;
}

// ---------------------------------------------------------------------------
// Store

Store::Store(std::string dir, StoreOptions options, StreamFactory stream_factory)
    : dir_(std::move(dir)), options_(options), stream_factory_(std::move(stream_factory)) {
  if (options_.segment_roll_records == 0) options_.segment_roll_records = 1;
}

Store Store::open(std::string dir, StoreOptions options, StreamFactory stream_factory) {
  fs::create_directories(dir);
  Store store(std::move(dir), options, std::move(stream_factory));
  store.load();
  if (options.auto_compact_segments != 0 &&
      store.segment_paths().size() >= options.auto_compact_segments) {
    store.compact();
  }
  store.begin_run();
  return store;
}

std::string Store::index_path() const { return dir_ + "/index.jsonl"; }

std::vector<std::string> Store::segment_paths() const {
  std::vector<std::pair<uint64_t, std::string>> numbered;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    if (const auto number = segment_number(entry.path().filename().string())) {
      numbered.emplace_back(*number, entry.path().string());
    }
  }
  // Segment number == creation order, which makes the last-wins merge
  // deterministic (also past seg-999999, where name order would not be).
  std::sort(numbered.begin(), numbered.end());
  std::vector<std::string> paths;
  paths.reserve(numbered.size());
  for (auto& [number, path] : numbered) paths.push_back(std::move(path));
  return paths;
}

size_t Store::segment_count() const { return segment_paths().size(); }

size_t Store::load_file(const std::string& path, bool is_index) {
  std::ifstream in(path);
  if (!in) return 0;
  std::string line;
  if (!std::getline(in, line)) return 0;
  const auto header = util::Json::parse(line);
  const char* expect = is_index ? "erpi_corpus_index" : "erpi_corpus_segment";
  if (!header || !header.value().is_object() || !header.value().contains(expect)) {
    ++stats_.torn_lines;
    return 0;
  }
  if (is_index && header.value().contains("next_seq") &&
      header.value()["next_seq"].is_int()) {
    next_seq_ = std::max<uint64_t>(
        next_seq_, static_cast<uint64_t>(header.value()["next_seq"].as_int()));
  }
  size_t loaded = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto record = parse_record_line(line);
    if (!record) {
      // Stop at the first malformed line: only a SIGKILL-torn tail produces
      // one, and everything after a tear is untrustworthy.
      ++stats_.torn_lines;
      break;
    }
    next_seq_ = std::max(next_seq_, record->seq + 1);
    std::string key = record_map_key(record->fingerprint, record->plan, record->il);
    records_.insert_or_assign(std::move(key), std::move(*record));
    ++loaded;
  }
  return loaded;
}

void Store::load() {
  size_t loaded = load_file(index_path(), /*is_index=*/true);
  uint64_t max_segment = 0;
  for (const auto& path : segment_paths()) {
    loaded += load_file(path, /*is_index=*/false);
    max_segment =
        std::max(max_segment, segment_number(fs::path(path).filename().string()).value_or(0));
  }
  next_segment_ = max_segment + 1;
  stats_.loaded = loaded;
}

uint64_t Store::begin_run() {
  current_seq_ = next_seq_++;
  return current_seq_;
}

const Record* Store::lookup(uint64_t fingerprint, const std::string& plan,
                            const std::string& il) {
  const auto it = records_.find(record_map_key(fingerprint, plan, il));
  if (it == records_.end()) return nullptr;
  // Recency refresh: re-confirmed records move to the current epoch so
  // eviction targets namespaces nobody sweeps anymore. Persisted at the next
  // compaction; losing an un-compacted refresh costs recency, never data.
  if (it->second.seq < current_seq_) it->second.seq = current_seq_;
  return &it->second;
}

void Store::roll_segment() {
  active_.reset();
  active_path_.clear();
  active_records_ = 0;
}

void Store::write_record(const Record& record) {
  // A degraded store stops persisting: the in-memory map still serves this
  // run, the disk keeps whatever prefix made it out before the failure.
  if (degraded_) {
    ++stats_.dropped_writes;
    return;
  }
  if (!active_) {
    active_path_ = dir_ + "/" + segment_name(next_segment_++);
    if (stream_factory_) {
      active_ = stream_factory_(active_path_);
    } else {
      active_ = std::make_unique<std::ofstream>(active_path_,
                                                std::ios::out | std::ios::trunc);
    }
    if (!active_ || !*active_) {
      degraded_ = true;
      active_.reset();
      ++stats_.dropped_writes;
      return;
    }
    util::Json header = util::Json::object();
    header["erpi_corpus_segment"] = static_cast<int64_t>(1);
    header["created_seq"] = static_cast<int64_t>(current_seq_);
    *active_ << header.dump() << '\n';
  }
  *active_ << record_line(record) << '\n';
  active_->flush();
  if (!*active_) {
    degraded_ = true;
    active_.reset();
    ++stats_.dropped_writes;
    return;
  }
  if (++active_records_ >= options_.segment_roll_records) roll_segment();
}

void Store::append(Record record) {
  record.seq = current_seq_;
  write_record(record);
  std::string key = record_map_key(record.fingerprint, record.plan, record.il);
  records_.insert_or_assign(std::move(key), std::move(record));
  ++stats_.appended;
}

void Store::compact() {
  roll_segment();

  // Evict past the cap, least-recently-confirmed first (ties broken by key
  // for determinism).
  if (options_.max_records != 0 && records_.size() > options_.max_records) {
    std::vector<std::pair<uint64_t, const std::string*>> by_age;
    by_age.reserve(records_.size());
    for (const auto& [key, record] : records_) by_age.emplace_back(record.seq, &key);
    std::sort(by_age.begin(), by_age.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first : *a.second < *b.second;
              });
    const size_t drop = records_.size() - options_.max_records;
    std::vector<std::string> doomed;
    doomed.reserve(drop);
    for (size_t i = 0; i < drop; ++i) doomed.push_back(*by_age[i].second);
    for (const auto& key : doomed) records_.erase(key);
    stats_.evicted += drop;
  }

  std::vector<const std::string*> keys;
  keys.reserve(records_.size());
  for (const auto& [key, record] : records_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  const std::string tmp = index_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out) {
      degraded_ = true;
      return;
    }
    util::Json header = util::Json::object();
    header["erpi_corpus_index"] = static_cast<int64_t>(1);
    header["next_seq"] = static_cast<int64_t>(next_seq_);
    out << header.dump() << '\n';
    for (const std::string* key : keys) out << record_line(records_.at(*key)) << '\n';
    out.flush();
    if (!out) {
      // The half-written tmp never replaces the index; the rename below is
      // what commits, so skipping it leaves the last good index in place.
      degraded_ = true;
      return;
    }
  }
  if (std::rename(tmp.c_str(), index_path().c_str()) != 0) {
    degraded_ = true;
    return;
  }
  // The rename is the commit point; a crash before these unlinks only leaves
  // segments whose records the next open() re-merges (last-wins, same data).
  for (const auto& path : segment_paths()) fs::remove(path);
  next_segment_ = 1;
  ++stats_.compactions;
}

void Store::maybe_compact() {
  const size_t segments = segment_paths().size();
  const bool too_many_segments =
      options_.auto_compact_segments != 0 && segments >= options_.auto_compact_segments;
  const bool over_cap = options_.max_records != 0 && records_.size() > options_.max_records;
  if (too_many_segments || over_cap) compact();
}

void Store::for_each_sorted(const std::function<void(const Record&)>& fn) const {
  std::vector<const std::string*> keys;
  keys.reserve(records_.size());
  for (const auto& [key, record] : records_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* key : keys) fn(records_.at(*key));
}

std::vector<core::Interleaving> violation_priors(const std::string& dir) {
  std::vector<core::Interleaving> priors;
  if (dir.empty() || !fs::exists(dir)) return priors;
  Store store = Store::open(dir);
  std::unordered_set<std::string> seen;  // dedup across fingerprints/plans
  store.for_each_sorted([&](const Record& record) {
    if (record.kind != OutcomeKind::Violation) return;
    if (!seen.insert(record.il).second) return;
    priors.push_back(core::Interleaving::from_key(record.il));
  });
  return priors;
}

}  // namespace erpi::corpus
