// The bench self-checks' one notion of "two runs report the same": equal
// core::RunVerdicts. A mismatch prints both verdicts' JSON.
#pragma once

#include <cstdio>

#include "core/replay.hpp"

namespace erpi::bench {

/// True when `a` and `b` are the same verdict; otherwise prints both to
/// stderr under `label` and returns false.
inline bool same_verdict(const core::RunVerdict& a, const core::RunVerdict& b,
                         const char* label) {
  if (a == b) return true;
  std::fprintf(stderr, "%s: verdicts differ\n  %s\n  %s\n", label, a.to_json().dump().c_str(),
               b.to_json().dump().c_str());
  return false;
}

}  // namespace erpi::bench
