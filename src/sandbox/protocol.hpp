// IPC wire format for the crash-isolated replay sandbox (DESIGN.md §9).
//
// Three channels per worker, all created before the fork server is spawned:
//
//  * control — AF_UNIX stream socketpair, parent <-> fork server. Parent
//    sends single-byte commands (kSpawnCommand / kQuitCommand); the server
//    answers with framed JSON notices: {"spawned": pid} right after forking
//    a runner, and {"exited": pid, "status": wait_status} once waitpid reaps
//    it. Every runner produces exactly one exited notice, which is how the
//    supervisor learns a child died (the server keeps the runner end of the
//    data socket open for future runners, so the parent never sees EOF
//    there).
//
//  * data — AF_UNIX stream socketpair, parent <-> current runner. A fresh
//    runner first discards whatever a dead predecessor left unread, then
//    writes the ready frame (kReadyPayload). After reading it the parent
//    sends a window of work items as one frame: the interleavings' keys
//    ("3,0,1,2", core::Interleaving::key) joined by kKeySeparator. The
//    runner replays them in order and writes each response as soon as its
//    item finishes: the pass frame (kPassPayload) for a plain pass,
//    otherwise JSON {"status": "ok" | "oom" | "error", "message": ...} plus
//    the replay's outcome as the outcome codec's fields
//    (core::outcome_to_json). Under stop_on_violation a violating answer is
//    the window's last, on both sides. A runner that trips the memory cap
//    best-effort writes the "oom" response and exits with kOomExitCode so
//    the parent learns the reason even when the write loses the race with
//    the exit.
//
//  * wake-up — an eventfd the runner signals when it finds its input empty
//    after answering a window, and whenever a response finds the data
//    socket full. The parent waits on control + wake-up, never on the data
//    socket, so it wakes once per window rather than once per response.
//
// Framing is the shared 4-byte little-endian length prefix from
// util/frame.hpp (also used by the exploration-service daemon). All writes
// use send(MSG_NOSIGNAL) so a dead peer surfaces as an error return instead
// of SIGPIPE.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/replay.hpp"
#include "util/frame.hpp"

namespace erpi::sandbox {

/// Control-channel command bytes (parent -> fork server).
inline constexpr char kSpawnCommand = 'S';
inline constexpr char kQuitCommand = 'Q';

/// Exit code a runner uses for a structured out-of-memory death (RLIMIT_AS
/// tripped -> std::bad_alloc reached the child loop).
inline constexpr int kOomExitCode = 66;

/// Fixed one-byte payloads: the runner's ready handshake, and the answer to
/// an item that passed with no recovery verdict (most items). JSON payloads
/// start with '{', so neither can be mistaken for one.
inline constexpr std::string_view kReadyPayload = "r";
inline constexpr std::string_view kPassPayload = "p";

/// Separates the keys of one window's request frame (keys hold digits and
/// commas).
inline constexpr char kKeySeparator = ';';

// ---- framing ---------------------------------------------------------------
// Re-exported from util/frame.hpp so existing sandbox call sites keep their
// unqualified names; the implementations live in src/util/frame.cpp.

using util::append_frame;
using util::drain_nonblocking;
using util::FrameReader;
using util::read_frame;
using util::wait_readable;
using util::wait_readable2;
using util::write_frame;

// ---- outcomes --------------------------------------------------------------

struct WorkResponse {
  enum class Status { Ok, Oom, Error };

  Status status = Status::Ok;
  std::string error;  // Status::Error only
  core::InterleavingOutcome outcome;  // Status::Ok only
};

/// kPassPayload for an Ok plain pass, the JSON form for everything else.
std::string encode_response(const WorkResponse& response);
std::optional<WorkResponse> decode_response(std::string_view payload);

// ---- fork-server notices ---------------------------------------------------

struct SpawnNotice {
  pid_t pid = -1;
};
struct ExitNotice {
  pid_t pid = -1;
  int wait_status = 0;  // waitpid status, classify with WIFSIGNALED/WIFEXITED
};
/// fork() itself failed inside the server (EAGAIN under pid pressure, ...).
/// The server stays alive and the supervisor decides whether to retry with
/// backoff or give up — this replaces the old behaviour of the server
/// _exit(1)-ing and taking the whole channel down with it.
struct SpawnFailedNotice {
  int err = 0;  // errno from the failed fork()
};

std::string encode_spawn_notice(const SpawnNotice& notice);
std::string encode_exit_notice(const ExitNotice& notice);
std::string encode_spawn_failed_notice(const SpawnFailedNotice& notice);

/// Decode any notice kind; exactly one optional is set on success.
struct ControlNotice {
  std::optional<SpawnNotice> spawned;
  std::optional<ExitNotice> exited;
  std::optional<SpawnFailedNotice> spawn_failed;
};
std::optional<ControlNotice> decode_notice(const std::string& payload);

}  // namespace erpi::sandbox
