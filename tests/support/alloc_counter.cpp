// Kept in its own translation unit: with the replacement operators visible
// next to the code under test, GCC inlines them and then warns that memory
// from the builtin operator new reaches free() (-Wmismatched-new-delete).
#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long> g_count{0};
}  // namespace

namespace wfire::testing {

void start_counting_allocations() {
  g_count.store(0);
  g_counting.store(true);
}

long stop_counting_allocations() {
  g_counting.store(false);
  return g_count.load();
}

}  // namespace wfire::testing

#if WFIRE_ALLOC_COUNTING
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif
