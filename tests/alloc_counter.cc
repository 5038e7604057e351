#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

// The replacements are kept out of line: once GCC inlines a delete's
// std::free into a caller whose new it cannot see, it reports a
// -Wmismatched-new-delete false positive.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}

__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}

namespace copart {

long HeapAllocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace copart
