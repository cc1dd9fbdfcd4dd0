// gtest printing for core::RunVerdict: a failed EXPECT_EQ(a.verdict(),
// b.verdict()) prints both verdicts' JSON instead of their raw bytes.
#pragma once

#include <ostream>

#include "core/replay.hpp"

namespace erpi::core {

inline void PrintTo(const RunVerdict& verdict, std::ostream* os) {
  *os << verdict.to_json().dump();
}

}  // namespace erpi::core
