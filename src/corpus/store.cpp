#include "corpus/store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_set>

#include "util/hash.hpp"
#include "util/json.hpp"

namespace erpi::corpus {
namespace fs = std::filesystem;

namespace {

constexpr char kKeySep = '/';

std::string record_map_key(uint64_t fingerprint, const std::string& plan,
                           const std::string& il) {
  std::string key = util::hex64(fingerprint);
  key += kKeySep;
  key += plan;
  key += kKeySep;
  key += il;
  return key;
}

std::string record_line(const Record& record) {
  util::Json j = util::Json::object();
  j["fp"] = util::hex64(record.fingerprint);
  j["plan"] = record.plan;
  j["il"] = record.il;
  j["seq"] = static_cast<int64_t>(record.seq);
  core::outcome_to_json(j, record.outcome);
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
  if (!j.contains("seq") || !j["seq"].is_int() || j["seq"].as_int() < 0) return std::nullopt;
  const auto fingerprint = util::parse_hex64(j["fp"].as_string());
  if (!fingerprint) return std::nullopt;
  // Violation priors rebuild the interleaving from its key.
  if (!core::Interleaving::parse_key(j["il"].as_string())) return std::nullopt;
  auto outcome = core::outcome_from_json(j);
  if (!outcome) return std::nullopt;
  return Record{*fingerprint, j["plan"].as_string(), j["il"].as_string(), std::move(*outcome),
                static_cast<uint64_t>(j["seq"].as_int())};
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
    if (record.outcome.violations.empty()) return;
    if (!seen.insert(record.il).second) return;
    priors.push_back(core::Interleaving::from_key(record.il));
  });
  return priors;
}

}  // namespace erpi::corpus
