#include "sandbox/protocol.hpp"

#include "util/json.hpp"

namespace erpi::sandbox {

// Framing lives in src/util/frame.cpp (shared with the exploration service);
// this file only knows the sandbox message vocabulary.

// ---- outcomes --------------------------------------------------------------

namespace {

const char* status_name(WorkResponse::Status status) {
  switch (status) {
    case WorkResponse::Status::Ok: return "ok";
    case WorkResponse::Status::Oom: return "oom";
    case WorkResponse::Status::Error: return "error";
  }
  return "error";
}

std::optional<WorkResponse::Status> parse_status(const std::string& name) {
  if (name == "ok") return WorkResponse::Status::Ok;
  if (name == "oom") return WorkResponse::Status::Oom;
  if (name == "error") return WorkResponse::Status::Error;
  return std::nullopt;
}

}  // namespace

std::string encode_response(const WorkResponse& response) {
  if (response.status == WorkResponse::Status::Ok && response.error.empty() &&
      response.outcome == core::InterleavingOutcome{}) {
    return std::string(kPassPayload);
  }
  util::Json j = util::Json::object();
  j["status"] = status_name(response.status);
  if (!response.error.empty()) j["message"] = response.error;
  core::outcome_to_json(j, response.outcome);
  return j.dump();
}

std::optional<WorkResponse> decode_response(std::string_view payload) {
  if (payload == kPassPayload) return WorkResponse{};
  const auto parsed = util::Json::parse(payload);
  if (!parsed) return std::nullopt;
  const util::Json& j = parsed.value();
  if (!j.is_object() || !j.contains("status") || !j["status"].is_string()) {
    return std::nullopt;
  }
  WorkResponse response;
  const auto status = parse_status(j["status"].as_string());
  if (!status) return std::nullopt;
  response.status = *status;
  if (j.contains("message")) {
    if (!j["message"].is_string()) return std::nullopt;
    response.error = j["message"].as_string();
  }
  auto outcome = core::outcome_from_json(j);
  if (!outcome) return std::nullopt;
  response.outcome = std::move(*outcome);
  return response;
}

// ---- fork-server notices ---------------------------------------------------

std::string encode_spawn_notice(const SpawnNotice& notice) {
  util::Json j = util::Json::object();
  j["spawned"] = static_cast<int64_t>(notice.pid);
  return j.dump();
}

std::string encode_exit_notice(const ExitNotice& notice) {
  util::Json j = util::Json::object();
  j["exited"] = static_cast<int64_t>(notice.pid);
  j["status"] = static_cast<int64_t>(notice.wait_status);
  return j.dump();
}

std::string encode_spawn_failed_notice(const SpawnFailedNotice& notice) {
  util::Json j = util::Json::object();
  j["spawn_failed"] = static_cast<int64_t>(notice.err);
  return j.dump();
}

std::optional<ControlNotice> decode_notice(const std::string& payload) {
  const auto parsed = util::Json::parse(payload);
  if (!parsed) return std::nullopt;
  const util::Json& j = parsed.value();
  if (!j.is_object()) return std::nullopt;
  ControlNotice notice;
  if (j.contains("spawned")) {
    if (!j["spawned"].is_int()) return std::nullopt;
    notice.spawned = SpawnNotice{static_cast<pid_t>(j["spawned"].as_int())};
    return notice;
  }
  if (j.contains("exited")) {
    if (!j["exited"].is_int() || !j.contains("status") || !j["status"].is_int()) {
      return std::nullopt;
    }
    notice.exited = ExitNotice{static_cast<pid_t>(j["exited"].as_int()),
                               static_cast<int>(j["status"].as_int())};
    return notice;
  }
  if (j.contains("spawn_failed")) {
    if (!j["spawn_failed"].is_int()) return std::nullopt;
    notice.spawn_failed = SpawnFailedNotice{static_cast<int>(j["spawn_failed"].as_int())};
    return notice;
  }
  return std::nullopt;
}

}  // namespace erpi::sandbox
