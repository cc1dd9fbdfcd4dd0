// Allocation counting for allocation-budget tests.
//
// alloc_counter.cpp replaces the test binary's global operator new/delete
// with counting, malloc-based versions. Sanitizer runtimes own new/delete,
// so the replacement is compiled out there: ERPI_ALLOC_COUNTER is 0 and
// tests that read allocations() skip.
#pragma once

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ERPI_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ERPI_ALLOC_COUNTER 0
#else
#define ERPI_ALLOC_COUNTER 1
#endif
#else
#define ERPI_ALLOC_COUNTER 1
#endif

namespace erpi::test_support {

/// Calls to operator new so far, in every thread (0 when not counting).
uint64_t allocations() noexcept;

}  // namespace erpi::test_support
