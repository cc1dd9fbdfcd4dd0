#include "core/assertions.hpp"

#include <set>
#include <unordered_map>

namespace erpi::core {

namespace {
const util::Json kNull{};
}

const util::Json& json_at(const util::Json& root, const std::vector<std::string>& path) {
  const util::Json* node = &root;
  for (const auto& key : path) {
    if (!node->is_object() || !node->contains(key)) return kNull;
    node = &(*node)[key];
  }
  return *node;
}

namespace {

class FnAssertion : public Assertion {
 public:
  FnAssertion(std::string name, std::function<util::Status(const TestContext&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  util::Status check(const TestContext& ctx) override { return fn_(ctx); }

 private:
  std::string name_;
  std::function<util::Status(const TestContext&)> fn_;
};

/// Digest of what json_at(state, path) reads. state_digest() names the whole
/// state and one top-level member; any other path (deeper, or a "" key, which
/// an empty field cannot name) hashes the rendered value's text, so every
/// path compares by the same text.
uint64_t digest_at(const proxy::Rdl& rdl, net::ReplicaId replica,
                   const std::vector<std::string>& path) {
  if (path.empty()) return rdl.state_digest(replica, {});
  if (path.size() == 1 && !path.front().empty()) {
    return rdl.state_digest(replica, path.front());
  }
  return util::fnv1a64(json_at(rdl.replica_state(replica), path).dump());
}

class ConvergenceAssertion : public Assertion {
 public:
  explicit ConvergenceAssertion(std::vector<net::ReplicaId> replicas)
      : replicas_(std::move(replicas)) {}
  std::string name() const override { return "replicas_converge"; }
  util::Status check(const TestContext& ctx) override {
    if (replicas_.size() < 2) return util::Status::ok();
    const uint64_t first_digest = ctx.rdl.state_digest(replicas_.front(), {});
    std::optional<util::Json> first;  // rendered only to confirm a mismatch
    for (size_t i = 1; i < replicas_.size(); ++i) {
      if (ctx.rdl.state_digest(replicas_[i], {}) == first_digest) continue;
      if (!first) first = ctx.rdl.replica_state(replicas_.front());
      const util::Json other = ctx.rdl.replica_state(replicas_[i]);
      if (!(other == *first)) {
        return util::Status::fail(
            "replica " + std::to_string(replicas_[i]) + " state " + other.dump() +
            " != replica " + std::to_string(replicas_.front()) + " state " + first->dump());
      }
    }
    return util::Status::ok();
  }

 private:
  std::vector<net::ReplicaId> replicas_;
};

class CrossInterleavingAssertion : public Assertion {
 public:
  explicit CrossInterleavingAssertion(net::ReplicaId replica) : replica_(replica) {}
  std::string name() const override { return "state_consistent_across_interleavings"; }
  void on_run_start() override { baseline_.reset(); }
  util::Status check(const TestContext& ctx) override {
    const uint64_t digest = ctx.rdl.state_digest(replica_, {});
    if (!baseline_) {
      baseline_ = Baseline{digest, ctx.rdl.replica_state(replica_)};
      return util::Status::ok();
    }
    if (digest == baseline_->digest) return util::Status::ok();
    const util::Json state = ctx.rdl.replica_state(replica_);
    if (!(state == baseline_->state)) {
      return util::Status::fail("replica " + std::to_string(replica_) +
                                " state diverges across interleavings: " + state.dump() +
                                " vs baseline " + baseline_->state.dump());
    }
    return util::Status::ok();
  }

 private:
  struct Baseline {
    uint64_t digest;
    util::Json state;  // the first interleaving's, for the message
  };
  net::ReplicaId replica_;
  std::optional<Baseline> baseline_;
};

class WitnessConvergenceAssertion : public Assertion {
 public:
  WitnessConvergenceAssertion(std::vector<net::ReplicaId> replicas,
                              std::vector<std::string> witness_path,
                              std::vector<std::string> compare_path)
      : replicas_(std::move(replicas)),
        witness_path_(std::move(witness_path)),
        compare_path_(std::move(compare_path)) {}
  std::string name() const override { return "converge_if_same_witness"; }
  util::Status check(const TestContext& ctx) override {
    witnesses_.clear();
    compared_.clear();
    for (const auto replica : replicas_) {
      witnesses_.push_back(digest_at(ctx.rdl, replica, witness_path_));
      compared_.push_back(digest_at(ctx.rdl, replica, compare_path_));
    }
    for (size_t i = 0; i < replicas_.size(); ++i) {
      for (size_t j = i + 1; j < replicas_.size(); ++j) {
        if (witnesses_[i] != witnesses_[j] || compared_[i] == compared_[j]) continue;
        const util::Json state_i = ctx.rdl.replica_state(replicas_[i]);
        const util::Json state_j = ctx.rdl.replica_state(replicas_[j]);
        if (auto st = diverge(i, j, json_at(state_i, compare_path_),
                              json_at(state_j, compare_path_));
            !st) {
          return st;
        }
      }
    }
    return util::Status::ok();
  }

 private:
  /// The tree check that confirms a digest mismatch before it is reported.
  util::Status diverge(size_t i, size_t j, const util::Json& a, const util::Json& b) const {
    if (a == b) return util::Status::ok();
    return util::Status::fail("replicas " + std::to_string(replicas_[i]) + " and " +
                              std::to_string(replicas_[j]) +
                              " saw the same operations but diverge: " + a.dump() + " vs " +
                              b.dump());
  }

  std::vector<net::ReplicaId> replicas_;
  std::vector<std::string> witness_path_;
  std::vector<std::string> compare_path_;
  std::vector<uint64_t> witnesses_;  // per replica, reused across checks
  std::vector<uint64_t> compared_;
};

class WitnessCrossInterleavingAssertion : public Assertion {
 public:
  WitnessCrossInterleavingAssertion(net::ReplicaId replica,
                                    std::vector<std::string> witness_path,
                                    std::vector<std::string> compare_path)
      : replica_(replica),
        witness_path_(std::move(witness_path)),
        compare_path_(std::move(compare_path)) {}
  std::string name() const override {
    return "consistent_across_interleavings_if_same_witness";
  }
  void on_run_start() override { baselines_.clear(); }
  util::Status check(const TestContext& ctx) override {
    const uint64_t witness = digest_at(ctx.rdl, replica_, witness_path_);
    const uint64_t compared = digest_at(ctx.rdl, replica_, compare_path_);
    const auto it = baselines_.find(witness);
    if (it == baselines_.end()) {
      baselines_.emplace(witness, Baseline{compared, compared_text(ctx)});
      return util::Status::ok();
    }
    if (it->second.digest == compared) return util::Status::ok();
    return diverge(compared_text(ctx), it->second.text);
  }

 private:
  struct Baseline {
    uint64_t digest;
    std::string text;  // for the message
  };

  std::string compared_text(const TestContext& ctx) const {
    return json_at(ctx.rdl.replica_state(replica_), compare_path_).dump();
  }

  util::Status diverge(const std::string& compared, const std::string& baseline) const {
    return util::Status::fail("replica " + std::to_string(replica_) +
                              " reached two different states from the same delivered "
                              "operations across interleavings: " +
                              compared + " vs " + baseline);
  }

  net::ReplicaId replica_;
  std::vector<std::string> witness_path_;
  std::vector<std::string> compare_path_;
  std::unordered_map<uint64_t, Baseline> baselines_;  // by witness digest
};

class ListOrderAssertion : public Assertion {
 public:
  ListOrderAssertion(std::vector<net::ReplicaId> replicas, std::vector<std::string> path)
      : replicas_(std::move(replicas)), path_(std::move(path)) {}
  std::string name() const override { return "list_order_consistent"; }
  util::Status check(const TestContext& ctx) override {
    if (replicas_.size() < 2) return util::Status::ok();
    const uint64_t first_digest = digest_at(ctx.rdl, replicas_.front(), path_);
    std::optional<util::Json> first;  // rendered only to confirm a mismatch
    for (size_t i = 1; i < replicas_.size(); ++i) {
      if (digest_at(ctx.rdl, replicas_[i], path_) == first_digest) continue;
      if (!first) first = json_at(ctx.rdl.replica_state(replicas_.front()), path_);
      const util::Json other = json_at(ctx.rdl.replica_state(replicas_[i]), path_);
      if (!(other == *first)) {
        return util::Status::fail("list order differs: replica " +
                                  std::to_string(replicas_.front()) + " has " + first->dump() +
                                  ", replica " + std::to_string(replicas_[i]) + " has " +
                                  other.dump());
      }
    }
    return util::Status::ok();
  }

 private:
  std::vector<net::ReplicaId> replicas_;
  std::vector<std::string> path_;
};

class NoDuplicatesAssertion : public Assertion {
 public:
  NoDuplicatesAssertion(std::vector<net::ReplicaId> replicas, std::vector<std::string> path)
      : replicas_(std::move(replicas)), path_(std::move(path)) {}
  std::string name() const override { return "no_duplicates"; }
  util::Status check(const TestContext& ctx) override {
    for (const auto replica : replicas_) {
      const util::Json state = ctx.rdl.replica_state(replica);
      const util::Json& list = json_at(state, path_);
      if (!list.is_array()) continue;
      std::set<std::string> seen;
      for (const auto& item : list.as_array()) {
        if (!seen.insert(item.dump()).second) {
          return util::Status::fail("replica " + std::to_string(replica) +
                                    " has duplicated element " + item.dump() + " in " +
                                    list.dump());
        }
      }
    }
    return util::Status::ok();
  }

 private:
  std::vector<net::ReplicaId> replicas_;
  std::vector<std::string> path_;
};

class UniqueIdsAssertion : public Assertion {
 public:
  UniqueIdsAssertion(std::vector<net::ReplicaId> replicas, std::vector<std::string> path)
      : replicas_(std::move(replicas)), path_(std::move(path)) {}
  std::string name() const override { return "ids_unique_across_replicas"; }
  util::Status check(const TestContext& ctx) override {
    std::map<std::string, net::ReplicaId> owner;
    for (const auto replica : replicas_) {
      const util::Json state = ctx.rdl.replica_state(replica);
      const util::Json& ids = json_at(state, path_);
      if (!ids.is_array()) continue;
      for (const auto& id : ids.as_array()) {
        const auto [it, inserted] = owner.emplace(id.dump(), replica);
        if (!inserted && it->second != replica) {
          return util::Status::fail("id " + id.dump() + " minted by both replica " +
                                    std::to_string(it->second) + " and replica " +
                                    std::to_string(replica));
        }
      }
    }
    return util::Status::ok();
  }

 private:
  std::vector<net::ReplicaId> replicas_;
  std::vector<std::string> path_;
};

class QueryResultAssertion : public Assertion {
 public:
  QueryResultAssertion(int query_event, util::Json expected)
      : query_event_(query_event), expected_(std::move(expected)) {}
  std::string name() const override { return "query_result_equals"; }
  util::Status check(const TestContext& ctx) override {
    const auto pos = ctx.interleaving.position_of(query_event_);
    if (!pos) return util::Status::fail("query event not present in interleaving");
    const auto& result = ctx.results[*pos];
    if (!result) {
      return util::Status::fail("query failed: " + result.error().message);
    }
    if (!(result.value() == expected_)) {
      return util::Status::fail("query returned " + result.value().dump() + ", expected " +
                                expected_.dump());
    }
    return util::Status::ok();
  }

 private:
  int query_event_;
  util::Json expected_;
};

class QueryStableAssertion : public Assertion {
 public:
  QueryStableAssertion(int query_event, net::ReplicaId replica,
                       std::vector<std::string> witness_path)
      : query_event_(query_event), replica_(replica), witness_path_(std::move(witness_path)) {}
  std::string name() const override { return "query_stable_given_witness"; }
  void on_run_start() override { baselines_.clear(); }
  util::Status check(const TestContext& ctx) override {
    const auto pos = ctx.interleaving.position_of(query_event_);
    if (!pos) return util::Status::ok();
    const auto& result = ctx.results[*pos];
    if (!result || !result.value().is_array()) return util::Status::ok();
    // Key the baseline on the *content* of the report, order-insensitively:
    // two interleavings in which the query saw the same data must render it
    // in the same order. (The content itself captures the replica's
    // knowledge at query time, so undelivered updates never misfire.)
    std::vector<std::string> rows;
    for (const auto& row : result.value().as_array()) rows.push_back(row.dump());
    std::sort(rows.begin(), rows.end());
    std::string canonical;
    for (const auto& row : rows) canonical += row + "\n";
    const std::string report = result.value().dump();
    const auto [it, inserted] = baselines_.emplace(canonical, report);
    if (!inserted && it->second != report) {
      return util::Status::fail("query rendered the same data in different orders across "
                                "interleavings: " +
                                report + " vs " + it->second);
    }
    return util::Status::ok();
  }

 private:
  int query_event_;
  net::ReplicaId replica_;
  std::vector<std::string> witness_path_;
  std::map<std::string, std::string> baselines_;
};

class AllOpsSucceedAssertion : public Assertion {
 public:
  std::string name() const override { return "all_ops_succeed"; }
  util::Status check(const TestContext& ctx) override {
    for (size_t pos = 0; pos < ctx.results.size(); ++pos) {
      if (!ctx.results[pos]) {
        const Event& event = ctx.events[static_cast<size_t>(ctx.interleaving.order[pos])];
        return util::Status::fail("op failed at position " + std::to_string(pos) + " (" +
                                  event.describe() + "): " + ctx.results[pos].error().message);
      }
    }
    return util::Status::ok();
  }
};

class NoFailureMatchingAssertion : public Assertion {
 public:
  explicit NoFailureMatchingAssertion(std::string needle) : needle_(std::move(needle)) {}
  std::string name() const override { return "no_failure_matching(" + needle_ + ")"; }
  util::Status check(const TestContext& ctx) override {
    for (size_t pos = 0; pos < ctx.results.size(); ++pos) {
      if (ctx.results[pos]) continue;
      const std::string& message = ctx.results[pos].error().message;
      if (message.find(needle_) != std::string::npos) {
        const Event& event = ctx.events[static_cast<size_t>(ctx.interleaving.order[pos])];
        return util::Status::fail("op " + event.describe() + " failed: " + message);
      }
    }
    return util::Status::ok();
  }

 private:
  std::string needle_;
};

}  // namespace

std::shared_ptr<Assertion> no_failure_matching(std::string needle) {
  return std::make_shared<NoFailureMatchingAssertion>(std::move(needle));
}

std::shared_ptr<Assertion> replicas_converge(std::vector<net::ReplicaId> replicas) {
  return std::make_shared<ConvergenceAssertion>(std::move(replicas));
}

std::shared_ptr<Assertion> state_consistent_across_interleavings(net::ReplicaId replica) {
  return std::make_shared<CrossInterleavingAssertion>(replica);
}

std::shared_ptr<Assertion> converge_if_same_witness(std::vector<net::ReplicaId> replicas,
                                                    std::vector<std::string> witness_path,
                                                    std::vector<std::string> compare_path) {
  return std::make_shared<WitnessConvergenceAssertion>(
      std::move(replicas), std::move(witness_path), std::move(compare_path));
}

std::shared_ptr<Assertion> consistent_across_interleavings_if_same_witness(
    net::ReplicaId replica, std::vector<std::string> witness_path,
    std::vector<std::string> compare_path) {
  return std::make_shared<WitnessCrossInterleavingAssertion>(
      replica, std::move(witness_path), std::move(compare_path));
}

std::shared_ptr<Assertion> list_order_consistent(std::vector<net::ReplicaId> replicas,
                                                 std::vector<std::string> path) {
  return std::make_shared<ListOrderAssertion>(std::move(replicas), std::move(path));
}

std::shared_ptr<Assertion> no_duplicates(std::vector<net::ReplicaId> replicas,
                                         std::vector<std::string> path) {
  return std::make_shared<NoDuplicatesAssertion>(std::move(replicas), std::move(path));
}

std::shared_ptr<Assertion> ids_unique_across_replicas(std::vector<net::ReplicaId> replicas,
                                                      std::vector<std::string> path) {
  return std::make_shared<UniqueIdsAssertion>(std::move(replicas), std::move(path));
}

std::shared_ptr<Assertion> query_result_equals(int query_event, util::Json expected) {
  return std::make_shared<QueryResultAssertion>(query_event, std::move(expected));
}

std::shared_ptr<Assertion> query_stable_given_witness(int query_event, net::ReplicaId replica,
                                                      std::vector<std::string> witness_path) {
  return std::make_shared<QueryStableAssertion>(query_event, replica,
                                                std::move(witness_path));
}

std::shared_ptr<Assertion> all_ops_succeed() {
  return std::make_shared<AllOpsSucceedAssertion>();
}

std::shared_ptr<Assertion> custom(std::string name,
                                  std::function<util::Status(const TestContext&)> fn) {
  return std::make_shared<FnAssertion>(std::move(name), std::move(fn));
}

}  // namespace erpi::core
