// The Replicated Data Library integration surface.
//
// The paper intercepts RDL functions via language-specific techniques (Go AST
// rewriting, JS monkey patching, Java dynamic proxies). In this C++
// reproduction every subject implements `Rdl`, and `RdlProxy` (proxy.hpp)
// plays the role of those bindings: application code calls the RDL *through
// the proxy*, which records each call as an Event in capture mode and
// re-invokes recorded calls during replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/network.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace erpi::core {
class FootprintRecorder;  // core/dpor.hpp — per-event state footprints
}  // namespace erpi::core

namespace erpi::proxy {

/// Opaque checkpoint of a subject system's full state: every replica plus any
/// in-flight synchronization traffic. `state` is whatever the producing
/// subject's snapshot() stored — only the same subject instance's restore()
/// interprets it. `bytes` approximates the heap footprint of the checkpoint.
struct Snapshot {
  std::shared_ptr<const void> state;
  uint64_t bytes = 0;

  bool valid() const noexcept { return state != nullptr; }
};

class Rdl {
 public:
  virtual ~Rdl() = default;

  /// Library name for reports ("roshi", "orbitdb", ...).
  virtual std::string name() const = 0;

  virtual int replica_count() const = 0;

  /// Invoke the RDL function `op` with `args` on `replica`. Sync operations
  /// use the reserved names "sync_req" / "exec_sync" with args {"peer": id}.
  /// A failed Result models an RDL error (failed op, access denied, ...);
  /// the replay engine records but tolerates these.
  virtual util::Result<util::Json> invoke(net::ReplicaId replica, const std::string& op,
                                          const util::Json& args) = 0;

  /// Serializable view of one replica's current state. Assertions compare
  /// state_digest()s and render this only to report a violation.
  virtual util::Json replica_state(net::ReplicaId replica) const = 0;

  /// util::fnv1a64 of replica_state(replica)'s compact text or, with a
  /// non-empty `field`, of its top-level member `field` ("null" when there
  /// is none). Equal digests mean equal text, up to 64-bit collisions
  /// (DESIGN.md §17). Default: renders replica_state(); subjects stream the
  /// same text into the hash without building a tree.
  virtual uint64_t state_digest(net::ReplicaId replica, std::string_view field) const {
    const util::Json state = replica_state(replica);
    if (field.empty()) return util::fnv1a64(state.dump());
    const std::string member(field);
    return util::fnv1a64(state.contains(member) ? state[member].dump() : "null");
  }

  /// Return every replica (and any in-flight messages) to the initial state.
  /// Called before each interleaving so replays cannot affect each other.
  virtual void reset() = 0;

  /// Checkpoint the current state so a later restore() returns to it. The
  /// replay engine does not checkpoint: every interleaving replays from
  /// reset(). Default: snapshots unsupported (invalid Snapshot).
  virtual Snapshot snapshot() { return {}; }

  /// Return to a previously captured state. Must leave the subject untouched
  /// and return false when the snapshot is invalid or was produced by a
  /// different subject instance.
  virtual bool restore(const Snapshot& snap) {
    (void)snap;
    return false;
  }

  /// Install (or clear, with nullptr) the dynamic-pruning footprint recorder
  /// (DESIGN.md §15). The recorder is owned by the replay engine and is
  /// *wiring*, not state: snapshot()/restore() must leave it untouched.
  /// Default: footprints unsupported — dynamic pruning then learns nothing
  /// from this subject and never cuts.
  virtual void set_footprint_recorder(core::FootprintRecorder* recorder) { (void)recorder; }
};

/// Reserved op names for synchronization traffic.
inline constexpr const char* kSyncReqOp = "sync_req";
inline constexpr const char* kExecSyncOp = "exec_sync";

}  // namespace erpi::proxy
