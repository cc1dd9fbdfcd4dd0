// The outcome codec (core::outcome_to_json / outcome_from_json) that the run
// journal, the corpus, the sandbox wire and the diff report share: every
// outcome shape round-trips, and the strict decoder rejects each malformed
// shape — on its own and inside a sandbox response.
#include <gtest/gtest.h>

#include <csignal>
#include <string>
#include <utility>
#include <vector>

#include "core/replay.hpp"
#include "sandbox/protocol.hpp"
#include "util/json.hpp"

namespace erpi::core {
namespace {

std::vector<InterleavingOutcome> every_shape() {
  InterleavingOutcome violated;
  violated.violations = {{"replicas_converge", "diverged \"lamp\" at replica 1"},
                         {"all_ops_succeed", "op 3 failed"}};
  InterleavingOutcome timed_out;
  timed_out.timed_out = true;
  InterleavingOutcome segfault;
  segfault.crashed = true;
  segfault.term_signal = SIGSEGV;
  InterleavingOutcome exited;  // a child that exited cleanly mid-replay
  exited.crashed = true;
  InterleavingOutcome oom;
  oom.oom = true;
  InterleavingOutcome recovered;
  recovered.recovery = RecoveryVerdict{};
  InterleavingOutcome missing;
  missing.recovery = RecoveryVerdict{RecoveryVerdict::Status::MissingEntries, 2, 3};
  InterleavingOutcome diverged;
  diverged.recovery = RecoveryVerdict{RecoveryVerdict::Status::Diverged, 0, 0};
  InterleavingOutcome violated_diverged = diverged;
  violated_diverged.violations = {{"durable-log-recovery", "replica 0 diverged"}};
  return {{}, violated, timed_out, segfault, exited, oom, recovered, missing, diverged,
          violated_diverged};
}

/// Objects the decoder must reject, one per clause of its contract.
const std::vector<std::pair<std::string, std::string>>& malformed() {
  static const std::vector<std::pair<std::string, std::string>> rows = {
      {"no kind", R"({})"},
      {"kind not a string", R"({"o":1})"},
      {"unknown kind", R"({"o":"budget_exhausted"})"},
      {"violation without v", R"({"o":"violation"})"},
      {"violation with empty v", R"({"o":"violation","v":[]})"},
      {"v not an array", R"({"o":"violation","v":{"a":"x","m":"y"}})"},
      {"v entry not an object", R"({"o":"violation","v":["x"]})"},
      {"v entry without m", R"({"o":"violation","v":[{"a":"x"}]})"},
      {"v entry with a non-string a", R"({"o":"violation","v":[{"a":1,"m":"y"}]})"},
      {"v on a pass", R"({"o":"pass","v":[{"a":"x","m":"y"}]})"},
      {"v on a crash", R"({"o":"crashed","sig":11,"v":[{"a":"x","m":"y"}]})"},
      {"sig on a pass", R"({"o":"pass","sig":9})"},
      {"sig on a violation", R"({"o":"violation","sig":9,"v":[{"a":"x","m":"y"}]})"},
      {"sig on an oom", R"({"o":"oom","sig":9})"},
      {"sig on a timeout", R"({"o":"timed_out","sig":9})"},
      {"sig zero", R"({"o":"crashed","sig":0})"},
      {"sig negative", R"({"o":"crashed","sig":-11})"},
      {"sig not an integer", R"({"o":"crashed","sig":"11"})"},
      {"sig fractional", R"({"o":"crashed","sig":11.5})"},
      {"sig past int", R"({"o":"crashed","sig":4294967307})"},
      {"recovery on a timeout", R"({"o":"timed_out","rk":"recovered"})"},
      {"recovery on a crash", R"({"o":"crashed","rk":"recovered","sig":11})"},
      {"recovery on an oom", R"({"o":"oom","rk":"recovered"})"},
      {"unknown recovery status", R"({"o":"pass","rk":"bogus"})"},
      {"recovery status not a string", R"({"o":"pass","rk":1})"},
      {"negative rf", R"({"o":"pass","rf":-5,"rk":"missing_entries"})"},
      {"negative rc", R"({"o":"pass","rc":-1,"rk":"missing_entries"})"},
      {"rf not an integer", R"({"o":"pass","rf":"2","rk":"missing_entries"})"},
      {"rc fractional", R"({"o":"pass","rc":1.5,"rk":"missing_entries"})"},
      {"counts without a status", R"({"o":"pass","rc":3,"rf":2})"},
  };
  return rows;
}

util::Json parse(const std::string& text) {
  auto parsed = util::Json::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.value();
}

TEST(OutcomeCodec, EveryShapeRoundTrips) {
  for (const auto& outcome : every_shape()) {
    util::Json object = util::Json::object();
    outcome_to_json(object, outcome);
    const std::string text = object.dump();
    const auto back = outcome_from_json(parse(text));
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_TRUE(*back == outcome) << text;
    EXPECT_EQ(object["o"].as_string(), outcome_kind_name(outcome)) << text;
  }
}

TEST(OutcomeCodec, RejectsMalformedOutcomes) {
  for (const auto& [name, text] : malformed()) {
    EXPECT_FALSE(outcome_from_json(parse(text)).has_value()) << name << ": " << text;
  }
  EXPECT_FALSE(outcome_from_json(parse("[]")).has_value());
  EXPECT_FALSE(outcome_from_json(parse(R"("pass")")).has_value());
}

TEST(OutcomeCodec, SandboxResponsesCarryTheCodec) {
  for (const auto& outcome : every_shape()) {
    sandbox::WorkResponse response;
    response.outcome = outcome;
    const std::string payload = sandbox::encode_response(response);
    const auto back = sandbox::decode_response(payload);
    ASSERT_TRUE(back.has_value()) << payload;
    EXPECT_EQ(back->status, sandbox::WorkResponse::Status::Ok) << payload;
    EXPECT_TRUE(back->outcome == outcome) << payload;
  }
  for (const auto& [name, text] : malformed()) {
    util::Json payload = parse(text);
    if (!payload.is_object()) continue;
    payload["status"] = "ok";
    EXPECT_FALSE(sandbox::decode_response(payload.dump()).has_value())
        << name << ": " << payload.dump();
  }
}

}  // namespace
}  // namespace erpi::core
