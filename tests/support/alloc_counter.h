// Process-wide heap-allocation counter for the zero-steady-state-allocation
// pins. alloc_counter.cpp replaces the global operator new/delete; while
// counting is on, every operator new on any thread (pool workers included)
// bumps one atomic count. Linked only into the suites that use it.
// Disabled under sanitizers, which own the allocator.
#pragma once

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WFIRE_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define WFIRE_ALLOC_COUNTING 0
#else
#define WFIRE_ALLOC_COUNTING 1
#endif
#else
#define WFIRE_ALLOC_COUNTING 1
#endif

namespace wfire::testing {

// Resets the count to 0 and starts counting.
void start_counting_allocations();
// Stops counting and returns the number of operator new calls since start.
long stop_counting_allocations();

}  // namespace wfire::testing
