#include "core/persist.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "util/hash.hpp"
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

std::string journal_header_line(uint64_t fingerprint) {
  util::Json header = util::Json::object();
  header["erpi_run_journal"] = static_cast<int64_t>(1);
  header["fingerprint"] = util::hex64(fingerprint);
  return header.dump();
}

/// A record is the pair's plan, ordinal and interleaving key plus the outcome
/// codec's fields (core/replay.hpp).
std::string journal_record_line(const RunJournal::Record& record) {
  util::Json j = util::Json::object();
  j["plan"] = record.plan;
  j["il"] = static_cast<int64_t>(record.interleaving);
  j["key"] = record.key;
  outcome_to_json(j, record.outcome);
  return j.dump();
}

std::optional<RunJournal::Record> parse_record_line(const std::string& line) {
  const auto parsed = util::Json::parse(line);
  if (!parsed) return std::nullopt;
  const util::Json& j = parsed.value();
  if (!j.is_object()) return std::nullopt;
  if (!j.contains("plan") || !j["plan"].is_string()) return std::nullopt;
  if (!j.contains("il") || !j["il"].is_int() || j["il"].as_int() < 1) return std::nullopt;
  if (!j.contains("key") || !j["key"].is_string()) return std::nullopt;
  // A damaged key marks a damaged line: it ends the valid prefix.
  if (!Interleaving::parse_key(j["key"].as_string())) return std::nullopt;
  auto outcome = outcome_from_json(j);
  if (!outcome) return std::nullopt;
  return RunJournal::Record{j["plan"].as_string(), static_cast<uint64_t>(j["il"].as_int()),
                            j["key"].as_string(), std::move(*outcome)};
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
  const auto fingerprint = util::parse_hex64(h["fingerprint"].as_string());
  if (!fingerprint) return std::nullopt;
  Loaded loaded;
  loaded.fingerprint = *fingerprint;
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
