// Counting replacement for the global allocation functions: every
// operator new/delete in the process (the engine's included) updates a
// live-byte count and its high-water mark. mem_peak_mb is read from
// these rather than from RSS, because RSS keeps whatever the allocator
// retained from input generation and so hides the pass's own peak.
#include "heap.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted(void* p) {
  if (!p) return nullptr;
  const std::size_t n = malloc_usable_size(p);
  const std::size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (!p) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* allocate(std::size_t n) {
  if (void* p = counted(std::malloc(n ? n : 1))) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  void* p = nullptr;
  const auto align = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return counted(p);
}

}  // namespace

std::size_t heap_live() noexcept { return g_live.load(std::memory_order_relaxed); }
std::size_t heap_peak() noexcept { return g_peak.load(std::memory_order_relaxed); }
void heap_reset_peak() noexcept { g_peak.store(heap_live(), std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted(std::malloc(n ? n : 1));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::allocate_aligned(n, al);
}
void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { perfbench::release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { perfbench::release(p); }
