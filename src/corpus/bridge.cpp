#include "corpus/bridge.hpp"

#include <map>

#include "faults/plan.hpp"
#include "util/hash.hpp"

namespace erpi::corpus {

DatalogBridge::DatalogBridge(datalog::Database& db) : db_(&db) {
  db_->relation("outcome", 5);
  db_->relation("violation", 4);
  db_->relation("plan_fault", 3);
  db_->relation("run_meta", 3);
}

std::vector<std::pair<std::string, int>> DatalogBridge::plan_fault_entries(
    const std::string& plan_key) {
  // Decomposed via FaultPlan::parse — the exact inverse of FaultPlan::key()
  // — instead of re-implementing the key grammar here. Drop/dup target a
  // message ordinal, not a replica, so they carry -1; partitions involve
  // both endpoints, one row each; crash and the storage kinds carry the
  // damaged replica.
  const auto plan = faults::FaultPlan::parse(plan_key);
  if (!plan) return {{"unknown", -1}};
  using Kind = faults::FaultPlan::Kind;
  switch (plan->kind) {
    case Kind::None:
      return {{"none", -1}};
    case Kind::DropSync:
      return {{"drop", -1}};
    case Kind::DuplicateSync:
      return {{"dup", -1}};
    case Kind::PartitionWindow:
      return {{"part", static_cast<int>(plan->replica_a)},
              {"part", static_cast<int>(plan->replica_b)}};
    case Kind::CrashRestart:
      return {{"crash", static_cast<int>(plan->replica_a)}};
    case Kind::TornTail:
      return {{"torn", static_cast<int>(plan->replica_a)}};
    case Kind::DropLogEntry:
      return {{"droplog", static_cast<int>(plan->replica_a)}};
    case Kind::DuplicateSegment:
      return {{"dupseg", static_cast<int>(plan->replica_a)}};
    case Kind::StaleSnapshotRecovery:
      return {{"stale", static_cast<int>(plan->replica_a)}};
  }
  return {{"unknown", -1}};
}

DatalogBridge::Stats DatalogBridge::export_store(
    const Store& store, std::optional<uint64_t> fingerprint) {
  Stats stats;
  // Per-fingerprint aggregates, keyed by hex symbol so the map iterates in
  // the same lexicographic order for_each_sorted visits fingerprints in.
  struct Meta {
    int64_t records = 0;
    int64_t violations = 0;
    int64_t last_seq = 0;
  };
  std::map<std::string, Meta> meta;

  store.for_each_sorted([&](const Record& record) {
    if (fingerprint && record.fingerprint != *fingerprint) return;
    std::string fp = util::hex64(record.fingerprint);
    datalog::Value fp_sym = db_->sym(fp);
    datalog::Value plan_sym = db_->sym(record.plan);
    datalog::Value il_sym = db_->sym(record.il);
    if (db_->insert_fact("outcome",
                         {fp_sym, plan_sym, il_sym,
                          db_->sym(core::outcome_kind_name(record.outcome)),
                          datalog::Database::num(record.outcome.term_signal)})) {
      ++stats.outcome_facts;
    }
    for (const auto& violation : record.outcome.violations) {
      if (db_->insert_fact("violation",
                           {fp_sym, plan_sym, il_sym,
                            db_->sym(violation.assertion)})) {
        ++stats.violation_facts;
      }
    }
    for (const auto& [kind, replica] : plan_fault_entries(record.plan)) {
      if (db_->insert_fact("plan_fault",
                           {plan_sym, db_->sym(kind),
                            datalog::Database::num(replica)})) {
        ++stats.plan_fault_facts;
      }
    }
    Meta& m = meta[fp];
    ++m.records;
    if (!record.outcome.violations.empty()) ++m.violations;
    if (static_cast<int64_t>(record.seq) > m.last_seq) {
      m.last_seq = static_cast<int64_t>(record.seq);
    }
  });

  for (const auto& [fp, m] : meta) {
    datalog::Value fp_sym = db_->sym(fp);
    if (db_->insert_fact("run_meta", {fp_sym, db_->sym("records"),
                                      datalog::Database::num(m.records)})) {
      ++stats.run_meta_facts;
    }
    if (db_->insert_fact("run_meta", {fp_sym, db_->sym("violations"),
                                      datalog::Database::num(m.violations)})) {
      ++stats.run_meta_facts;
    }
    if (db_->insert_fact("run_meta", {fp_sym, db_->sym("last_seq"),
                                      datalog::Database::num(m.last_seq)})) {
      ++stats.run_meta_facts;
    }
  }
  return stats;
}

}  // namespace erpi::corpus
