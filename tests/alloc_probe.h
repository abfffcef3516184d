// Counting allocator probe: replaces the global operator new/delete of the
// including binary so zero-allocation contracts can be asserted exactly.
//
// IMPORTANT: this header DEFINES the replaceable global allocation
// functions — include it from AT MOST ONE translation unit per binary
// (test_ppr_workspace.cc, test_batch_stacker.cc and test_trace.cc each
// do), and never from library code; it lives under tests/ for that
// reason. The counter is thread-local, so a measurement on one thread is
// immune to allocations made by pool or producer threads.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

/// Allocations performed by the calling thread since process start.
/// Sample before and after the code under test; the delta is exact.
extern thread_local uint64_t t_allocs;
thread_local uint64_t t_allocs = 0;

namespace bsg_alloc_probe_detail {
inline void* CountedNew(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  std::abort();  // the probe's hosts have no recovery path for OOM
}
}  // namespace bsg_alloc_probe_detail

// The nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them): every new must pair with the free below, or ASan reports an
// alloc-dealloc mismatch.
void* operator new(std::size_t size) {
  return bsg_alloc_probe_detail::CountedNew(size);
}
void* operator new[](std::size_t size) {
  return bsg_alloc_probe_detail::CountedNew(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return bsg_alloc_probe_detail::CountedNew(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return bsg_alloc_probe_detail::CountedNew(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
