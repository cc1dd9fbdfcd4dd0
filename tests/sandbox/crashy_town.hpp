// Misbehaving TownApp variants for the crash-isolation tests: subjects that
// segfault, exit mid-replay, exhaust memory, hang, crash only transiently, or
// fail on one chosen interleaving. All of them are only ever replayed under
// Isolation::Process — in-process replay of any of these would take the test
// binary down, which is exactly the failure mode the sandbox exists to
// contain.
#pragma once

#include <unistd.h>

#include <csignal>
#include <string>
#include <utility>
#include <vector>

#include "subjects/town.hpp"

namespace erpi::sandbox::testing {

/// "boom" segfaults iff the replica's state contains problem "crashkey" but
/// not "guard". With the workload report(crashkey) / report(guard) / boom —
/// three single-event units — exactly one of the six interleavings
/// ("0,2,1": boom after crashkey, before guard) satisfies the condition, so
/// the crash is a deterministic property of the (plan, interleaving), not of
/// the child's history.
class CrashyTown : public subjects::TownApp {
 public:
  explicit CrashyTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    if (op == "boom") {
      const std::string state = replica_state(replica).dump();
      const bool has_crashkey = state.find("crashkey") != std::string::npos;
      const bool has_guard = state.find("guard") != std::string::npos;
      if (has_crashkey && !has_guard) std::raise(SIGSEGV);
      return util::Json(true);
    }
    return TownApp::do_invoke(replica, op, args);
  }
};

/// CrashyTown, except that "boom" exits the process cleanly instead of
/// raising a signal. The supervisor classifies a runner that exits
/// mid-replay as crashed with signal 0.
class ExitingTown : public subjects::TownApp {
 public:
  explicit ExitingTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    if (op == "boom") {
      const std::string state = replica_state(replica).dump();
      const bool has_crashkey = state.find("crashkey") != std::string::npos;
      const bool has_guard = state.find("guard") != std::string::npos;
      if (has_crashkey && !has_guard) _exit(3);
      return util::Json(true);
    }
    return TownApp::do_invoke(replica, op, args);
  }
};

/// Crashes on "boom" during the second replay a given process performs — and
/// only then. Each interleaving replays from one reset(), so `resets` counts replays within one sandbox child; after
/// the crash the respawned child retries the item as its *first* replay and
/// succeeds. Every crash is therefore collateral (history-dependent), never
/// deterministic: the run must complete with nothing quarantined.
class CollateralTown : public subjects::TownApp {
 public:
  explicit CollateralTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    if (op == "boom") {
      if (resets_ == 2) std::raise(SIGSEGV);
      return util::Json(true);
    }
    return TownApp::do_invoke(replica, op, args);
  }

  void do_reset() override {
    TownApp::do_reset();
    ++resets_;
  }

 private:
  int resets_ = 0;  // per-process: each sandbox child starts from zero
};

/// "hog" tries to allocate far beyond any sane RLIMIT_AS cap — but only when
/// the replica has not yet seen problem "ready". The workload reports
/// "ready" before hogging, so capture (which runs unsandboxed in the parent)
/// never allocates; only the reordered interleaving does, inside a child,
/// where RLIMIT_AS fails the reservation with std::bad_alloc and the child
/// loop reports a structured oom before exiting.
class HungryTown : public subjects::TownApp {
 public:
  explicit HungryTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    if (op == "hog") {
      if (replica_state(replica).dump().find("ready") == std::string::npos) {
        // The reservation alone (8 GiB) trips the cap; nothing is committed.
        hoard_.resize(8ull << 30, 1);
      }
      return util::Json(static_cast<int64_t>(hoard_.size()));
    }
    return TownApp::do_invoke(replica, op, args);
  }

  void do_reset() override {
    TownApp::do_reset();
    hoard_.clear();
    hoard_.shrink_to_fit();
  }

 private:
  std::vector<char> hoard_;
};

/// "maybe_hang" spins forever unless "arm" ran first — a hang *inside*
/// subject code, unreachable by the in-process watchdog's cooperative
/// cancel. The sandbox supervisor SIGKILLs the child at the deadline, so the
/// stuck replay is fully reclaimed instead of leaking a hung thread.
class SleepyTown : public subjects::TownApp {
 public:
  explicit SleepyTown(int replica_count) : TownApp(replica_count) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    if (op == "arm") {
      armed_ = true;
      return util::Json(true);
    }
    if (op == "maybe_hang") {
      while (!armed_) {
        // Busy-hang on purpose; only SIGKILL gets a replay out of here.
      }
      return util::Json(true);
    }
    return TownApp::do_invoke(replica, op, args);
  }

  void do_reset() override {
    TownApp::do_reset();
    armed_ = false;
  }

 private:
  volatile bool armed_ = false;
};

/// Fails on one chosen interleaving, and only there: every "report" records
/// its problem name, and the report that completes `sequence` segfaults,
/// blows any sane RLIMIT_AS cap or busy-hangs. The window tests place that
/// interleaving at each position of a sandbox window.
class TrapTown : public subjects::TownApp {
 public:
  enum class Trap { Crash, Oom, Hang };

  TrapTown(int replica_count, Trap trap, std::vector<std::string> sequence)
      : TownApp(replica_count), trap_(trap), sequence_(std::move(sequence)) {}

 protected:
  util::Result<util::Json> do_invoke(net::ReplicaId replica, const std::string& op,
                                     const util::Json& args) override {
    if (op == "report") {
      seen_.push_back(args["problem"].as_string());
      if (seen_ == sequence_) spring();
    }
    return TownApp::do_invoke(replica, op, args);
  }

  void do_reset() override {
    TownApp::do_reset();
    seen_.clear();
  }

 private:
  void spring() {
    switch (trap_) {
      case Trap::Crash:
        std::raise(SIGSEGV);
        break;
      case Trap::Oom: {
        std::vector<char> hoard;
        hoard.resize(8ull << 30, 1);  // the reservation alone trips the cap
        break;
      }
      case Trap::Hang: {
        volatile bool forever = true;
        while (forever) {
          // Only SIGKILL gets a replay out of here.
        }
        break;
      }
    }
  }

  Trap trap_;
  std::vector<std::string> sequence_;
  std::vector<std::string> seen_;
};

}  // namespace erpi::sandbox::testing
