#include "corpus/footprints.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/hash.hpp"
#include "util/json.hpp"

namespace erpi::corpus {
namespace fs = std::filesystem;

namespace {

util::Json keys_json(const std::vector<std::string>& keys) {
  util::Json arr = util::Json::array();
  for (const auto& key : keys) arr.push_back(key);
  return arr;
}

bool parse_keys(const util::Json& j, std::vector<std::string>& out) {
  if (!j.is_array()) return false;
  for (const auto& key : j.as_array()) {
    if (!key.is_string()) return false;
    core::Footprint::insert_key(out, key.as_string());
  }
  return true;
}

bool parse_fingerprint(const util::Json& j, uint64_t& out) {
  if (!j.is_string()) return false;
  const auto fingerprint = util::parse_hex64(j.as_string());
  if (!fingerprint) return false;
  out = *fingerprint;
  return true;
}

}  // namespace

std::string FootprintBank::path_in(const std::string& dir) {
  return (fs::path(dir) / "footprints.jsonl").string();
}

FootprintBank FootprintBank::load(const std::string& dir) {
  FootprintBank bank;
  std::ifstream in(path_in(dir));
  if (!in.is_open()) return bank;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto parsed = util::Json::parse(line);
    if (!parsed || !parsed.value().is_object()) {
      ++bank.torn_lines_;
      continue;
    }
    const util::Json& j = parsed.value();
    if (first) {
      first = false;
      if (j.contains("erpi_footprints")) continue;  // header
    }
    uint64_t fingerprint = 0;
    if (!j.contains("fp") || !parse_fingerprint(j["fp"], fingerprint)) {
      ++bank.torn_lines_;
      continue;
    }
    if (j.contains("ev")) {
      if (!j.contains("ctx") || !j["ctx"].is_string() || !j["ev"].is_int() ||
          !j.contains("runs") || !j["runs"].is_int() || j["runs"].as_int() < 0) {
        ++bank.torn_lines_;
        continue;
      }
      Entry entry;
      entry.context = j["ctx"].as_string();
      entry.event = static_cast<int>(j["ev"].as_int());
      entry.runs = static_cast<uint32_t>(j["runs"].as_int());
      if (j.contains("r") && !parse_keys(j["r"], entry.fp.reads)) {
        ++bank.torn_lines_;
        continue;
      }
      if (j.contains("w") && !parse_keys(j["w"], entry.fp.writes)) {
        ++bank.torn_lines_;
        continue;
      }
      entry.fp.sync = j.contains("sync") && j["sync"].is_bool() && j["sync"].as_bool();
      // Last-wins on duplicate keys, like the store's segment replay.
      std::tuple<uint64_t, std::string, int> key{fingerprint, entry.context, entry.event};
      bank.entries_.insert_or_assign(std::move(key), std::move(entry));
      continue;
    }
    if (j.contains("a") && j.contains("b")) {
      if (!j["a"].is_int() || !j["b"].is_int() || !j.contains("indep") ||
          !j["indep"].is_bool()) {
        ++bank.torn_lines_;
        continue;
      }
      const int a = static_cast<int>(j["a"].as_int());
      const int b = static_cast<int>(j["b"].as_int());
      bank.verdicts_.insert_or_assign({fingerprint, std::min(a, b), std::max(a, b)},
                                      j["indep"].as_bool());
      continue;
    }
    ++bank.torn_lines_;
  }
  return bank;
}

size_t FootprintBank::seed_learner(core::IndependenceLearner& learner,
                                   uint64_t fingerprint) const {
  size_t seeded = 0;
  for (const auto& [key, entry] : entries_) {
    if (std::get<0>(key) != fingerprint) continue;
    learner.seed(entry.context, entry.event, entry.fp, entry.runs);
    ++seeded;
  }
  for (const auto& [key, independent] : verdicts_) {
    if (std::get<0>(key) != fingerprint) continue;
    learner.seed_verdict(std::get<1>(key), std::get<2>(key), independent);
  }
  return seeded;
}

bool FootprintBank::absorb(const core::IndependenceLearner& learner, uint64_t fingerprint) {
  const auto exported = learner.export_state();
  bool changed = false;
  for (const auto& entry : exported.footprints) {
    const std::tuple<uint64_t, std::string, int> key{fingerprint, entry.context, entry.event};
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entries_.emplace(key, Entry{entry.context, entry.event, entry.runs, entry.fp});
      changed = true;
      continue;
    }
    if (it->second.fp.merge(entry.fp)) changed = true;
    // The export's run count already includes the seeded baseline, so max()
    // (not sum) is the monotone merge.
    if (entry.runs > it->second.runs) {
      it->second.runs = entry.runs;
      changed = true;
    }
  }
  for (const auto& verdict : exported.verdicts) {
    const std::tuple<uint64_t, int, int> key{fingerprint, std::min(verdict.a, verdict.b),
                                             std::max(verdict.a, verdict.b)};
    auto it = verdicts_.find(key);
    if (it == verdicts_.end() || it->second != verdict.independent) {
      verdicts_.insert_or_assign(key, verdict.independent);
      changed = true;
    }
  }
  return changed;
}

bool FootprintBank::save(const std::string& dir) const {
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = path_in(dir);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return false;
    out << "{\"erpi_footprints\":1}\n";
    for (const auto& [key, entry] : entries_) {
      util::Json j = util::Json::object();
      j["fp"] = util::hex64(std::get<0>(key));
      j["ctx"] = entry.context;
      j["ev"] = static_cast<int64_t>(entry.event);
      j["runs"] = static_cast<int64_t>(entry.runs);
      j["r"] = keys_json(entry.fp.reads);
      j["w"] = keys_json(entry.fp.writes);
      if (entry.fp.sync) j["sync"] = true;
      out << j.dump() << '\n';
    }
    for (const auto& [key, independent] : verdicts_) {
      util::Json j = util::Json::object();
      j["fp"] = util::hex64(std::get<0>(key));
      j["a"] = static_cast<int64_t>(std::get<1>(key));
      j["b"] = static_cast<int64_t>(std::get<2>(key));
      j["indep"] = independent;
      out << j.dump() << '\n';
    }
    out.flush();
    if (!out) return false;
  }
  fs::rename(tmp, path, ec);
  return !ec;
}

}  // namespace erpi::corpus
