#include "core/persist.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "util/json.hpp"

namespace erpi::core {

namespace {
constexpr const char* kEventRel = "event";
constexpr const char* kIlRel = "interleaving";
constexpr const char* kGroupRel = "group";
constexpr const char* kPrecedesRel = "precedes";
}  // namespace

InterleavingStore::InterleavingStore(datalog::Database& db) : db_(&db) {
  db_->relation(kEventRel, 6);
  db_->relation(kIlRel, 3);
  db_->relation(kGroupRel, 2);
}

void InterleavingStore::persist_events(const EventSet& events) {
  for (const auto& event : events) {
    db_->insert_fact(kEventRel,
                     {datalog::Database::num(event.id),
                      db_->sym(proxy::event_kind_name(event.kind)),
                      datalog::Database::num(event.replica),
                      datalog::Database::num(event.from),
                      datalog::Database::num(event.to), db_->sym(event.op)});
  }
}

void InterleavingStore::persist_units(const std::vector<EventUnit>& units) {
  for (const auto& unit : units) {
    for (size_t i = 1; i < unit.events.size(); ++i) {
      db_->insert_fact(kGroupRel, {datalog::Database::num(unit.leader()),
                                   datalog::Database::num(unit.events[i])});
    }
  }
}

int64_t InterleavingStore::persist(const Interleaving& il) {
  const int64_t id = next_il_id_++;
  for (size_t pos = 0; pos < il.size(); ++pos) {
    db_->insert_fact(kIlRel,
                     {datalog::Database::num(id),
                      datalog::Database::num(static_cast<int64_t>(pos)),
                      datalog::Database::num(il.order[pos])});
  }
  return id;
}

Interleaving InterleavingStore::load(int64_t il_id) const {
  const datalog::Relation* rel = db_->find(kIlRel);
  if (rel == nullptr) throw std::logic_error("no interleaving relation");
  std::vector<std::pair<int64_t, int>> positions;
  for (const size_t row :
       rel->rows_with(0, datalog::Value::integer(il_id))) {
    const auto& tuple = rel->tuples()[row];
    positions.emplace_back(tuple[1].payload, static_cast<int>(tuple[2].payload));
  }
  std::sort(positions.begin(), positions.end());
  Interleaving il;
  il.order.reserve(positions.size());
  for (const auto& [pos, event] : positions) il.order.push_back(event);
  return il;
}

std::vector<Interleaving> InterleavingStore::load_all() const {
  std::vector<Interleaving> out;
  out.reserve(static_cast<size_t>(next_il_id_));
  for (int64_t id = 0; id < next_il_id_; ++id) out.push_back(load(id));
  return out;
}

datalog::EvalStats InterleavingStore::derive_precedes() {
  using namespace datalog;
  Program program;
  Rule rule;
  rule.head = Atom{kPrecedesRel, {Term::var("Il"), Term::var("E1"), Term::var("E2")}};
  rule.body.push_back(Atom{kIlRel, {Term::var("Il"), Term::var("P1"), Term::var("E1")}});
  rule.body.push_back(Atom{kIlRel, {Term::var("Il"), Term::var("P2"), Term::var("E2")}});
  Constraint lt;
  lt.op = Constraint::Op::Lt;
  lt.lhs = Term::var("P1");
  lt.rhs = Term::var("P2");
  rule.constraints.push_back(lt);
  program.rules.push_back(std::move(rule));
  return evaluate(*db_, program);
}

std::vector<int64_t> InterleavingStore::interleavings_where_not_precedes(int e1, int e2) {
  using namespace datalog;
  Program program;
  Rule rule;
  rule.head =
      Atom{"not_precedes", {Term::var("Il"), Term::var("E1"), Term::var("E2")}};
  rule.body.push_back(Atom{kIlRel, {Term::var("Il"), Term::var("P1"), Term::var("E1")}});
  rule.body.push_back(Atom{kIlRel, {Term::var("Il"), Term::var("P2"), Term::var("E2")}});
  rule.negated_body.push_back(
      Atom{kPrecedesRel, {Term::var("Il"), Term::var("E1"), Term::var("E2")}});
  program.rules.push_back(std::move(rule));
  evaluate(*db_, program);

  Atom pattern{"not_precedes",
               {Term::var("Il"), Term::constant_int(e1), Term::constant_int(e2)}};
  std::vector<int64_t> out;
  for (const auto& binding : query(*db_, pattern)) {
    out.push_back(binding.at("Il").payload);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int64_t> InterleavingStore::interleavings_where_precedes(int e1, int e2) const {
  using namespace datalog;
  Atom pattern{kPrecedesRel,
               {Term::var("Il"), Term::constant_int(e1), Term::constant_int(e2)}};
  std::vector<int64_t> out;
  for (const auto& binding : query(*db_, pattern)) {
    out.push_back(binding.at("Il").payload);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// RunJournal

namespace {

std::string fingerprint_hex(uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

std::string journal_header_line(uint64_t fingerprint) {
  util::Json header = util::Json::object();
  header["erpi_run_journal"] = static_cast<int64_t>(1);
  header["fingerprint"] = fingerprint_hex(fingerprint);
  return header.dump();
}

/// The journal's record codec — the only code that knows its field layout.
/// Optional fields are written only when set, so pass records stay short and
/// journals from before crash isolation and storage plans stay loadable.
std::string journal_record_line(const RunJournal::Record& record) {
  const InterleavingOutcome& outcome = record.outcome;
  util::Json j = util::Json::object();
  j["plan"] = record.plan;
  j["il"] = static_cast<int64_t>(record.interleaving);
  j["key"] = record.key;
  j["timed_out"] = outcome.timed_out;
  // Presence means crashed: a child that exited cleanly mid-replay is a crash
  // with signal 0.
  if (outcome.crashed) j["crash_signal"] = static_cast<int64_t>(outcome.term_signal);
  if (outcome.oom) j["oom"] = true;
  if (outcome.recovery) {
    j["recovery"] = std::string(recovery_status_name(outcome.recovery->status));
    if (outcome.recovery->first_missing != 0) {
      j["recovery_first"] = static_cast<int64_t>(outcome.recovery->first_missing);
    }
    if (outcome.recovery->missing_count != 0) {
      j["recovery_count"] = static_cast<int64_t>(outcome.recovery->missing_count);
    }
  }
  util::Json violations = util::Json::array();
  for (const auto& violation : outcome.violations) {
    util::Json v = util::Json::object();
    v["assertion"] = violation.assertion;
    v["message"] = violation.message;
    violations.push_back(std::move(v));
  }
  j["violations"] = std::move(violations);
  return j.dump();
}

/// Reads an optional non-negative count field into `out`; false when present
/// but malformed.
bool read_count(const util::Json& j, const char* field, uint64_t& out) {
  if (!j.contains(field)) return true;
  if (!j[field].is_int() || j[field].as_int() < 0) return false;
  out = static_cast<uint64_t>(j[field].as_int());
  return true;
}

std::optional<RunJournal::Record> parse_record_line(const std::string& line) {
  const auto parsed = util::Json::parse(line);
  if (!parsed) return std::nullopt;
  const util::Json& j = parsed.value();
  if (!j.is_object()) return std::nullopt;
  if (!j.contains("plan") || !j["plan"].is_string()) return std::nullopt;
  if (!j.contains("il") || !j["il"].is_int()) return std::nullopt;
  if (!j.contains("key") || !j["key"].is_string()) return std::nullopt;
  if (!j.contains("timed_out") || !j["timed_out"].is_bool()) return std::nullopt;
  if (!j.contains("violations") || !j["violations"].is_array()) return std::nullopt;
  RunJournal::Record record;
  record.plan = j["plan"].as_string();
  const int64_t ordinal = j["il"].as_int();
  if (ordinal < 1) return std::nullopt;
  record.interleaving = static_cast<uint64_t>(ordinal);
  record.key = j["key"].as_string();
  // The resumed run rebuilds the interleaving from its key.
  if (!Interleaving::parse_key(record.key)) return std::nullopt;
  InterleavingOutcome& outcome = record.outcome;
  outcome.timed_out = j["timed_out"].as_bool();
  if (j.contains("crash_signal")) {
    if (!j["crash_signal"].is_int()) return std::nullopt;
    outcome.crashed = true;
    outcome.term_signal = static_cast<int>(j["crash_signal"].as_int());
  }
  if (j.contains("oom")) {
    if (!j["oom"].is_bool()) return std::nullopt;
    outcome.oom = j["oom"].as_bool();
  }
  if (j.contains("recovery")) {
    if (!j["recovery"].is_string()) return std::nullopt;
    const auto status = recovery_status_from_name(j["recovery"].as_string());
    if (!status) return std::nullopt;
    RecoveryVerdict verdict;
    verdict.status = *status;
    if (!read_count(j, "recovery_first", verdict.first_missing) ||
        !read_count(j, "recovery_count", verdict.missing_count)) {
      return std::nullopt;
    }
    outcome.recovery = verdict;
  }
  for (const auto& v : j["violations"].as_array()) {
    if (!v.is_object() || !v.contains("assertion") || !v["assertion"].is_string() ||
        !v.contains("message") || !v["message"].is_string()) {
      return std::nullopt;
    }
    outcome.violations.push_back({v["assertion"].as_string(), v["message"].as_string()});
  }
  return record;
}

std::unique_ptr<std::ostream> open_stream(const RunJournal::StreamFactory& factory,
                                          const std::string& path, bool truncate) {
  if (factory) return factory(path, truncate);
  return std::make_unique<std::ofstream>(
      path, truncate ? (std::ios::out | std::ios::trunc) : (std::ios::out | std::ios::app));
}

}  // namespace

RunJournal RunJournal::create(const std::string& path, uint64_t fingerprint,
                              std::span<const Record> prefix,
                              const StreamFactory& stream_factory) {
  const auto cannot_create = [&] {
    return std::runtime_error("RunJournal: cannot create " + path);
  };
  RunJournal journal;
  const std::string tmp = path + ".tmp";
  {
    const auto staged = open_stream(stream_factory, tmp, /*truncate=*/true);
    if (!staged || !(*staged << journal_header_line(fingerprint) << '\n' << std::flush)) {
      throw cannot_create();
    }
    for (const auto& record : prefix) *staged << journal_record_line(record) << '\n';
    if (!staged->flush()) {
      // The old journal stays in place: it still holds this prefix.
      journal.degraded_ = true;
      return journal;
    }
  }
  // With an injected factory the staged "file" may not exist on disk; the
  // rename failing is then the failure the factory's caller simulated.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) throw cannot_create();
  journal.out_ = open_stream(stream_factory, path, /*truncate=*/false);
  if (!journal.out_ || !*journal.out_) throw cannot_create();
  return journal;
}

void RunJournal::append(const Record& record) {
  // Degraded journals record nothing further: the exploration carries on,
  // the on-disk file keeps its last good prefix, resume is disabled.
  if (degraded_) return;
  ++records_;
  *out_ << journal_record_line(record) << '\n';
  out_->flush();
  if (!*out_) {
    degraded_ = true;
    out_.reset();
  }
}

std::optional<RunJournal::Loaded> RunJournal::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  const auto header = util::Json::parse(line);
  if (!header) return std::nullopt;
  const util::Json& h = header.value();
  if (!h.is_object() || !h.contains("erpi_run_journal") ||
      !h.contains("fingerprint") || !h["fingerprint"].is_string()) {
    return std::nullopt;
  }
  Loaded loaded;
  try {
    loaded.fingerprint = std::stoull(h["fingerprint"].as_string(), nullptr, 16);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  // Accept the longest valid prefix: stop at the first malformed line (a
  // torn tail from a SIGKILL) or the first record that breaks a plan's
  // ascending 1..m ordinal sequence (only possible via corruption — the
  // committer journals in order).
  std::map<std::string, uint64_t> last_ordinal;
  while (std::getline(in, line)) {
    if (line.empty()) break;
    auto record = parse_record_line(line);
    if (!record) break;
    uint64_t& last = last_ordinal[record->plan];
    if (record->interleaving != last + 1) break;
    last = record->interleaving;
    loaded.records.push_back(std::move(*record));
  }
  return loaded;
}

}  // namespace erpi::core
