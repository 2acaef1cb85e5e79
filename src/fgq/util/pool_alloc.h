#ifndef FGQ_UTIL_POOL_ALLOC_H_
#define FGQ_UTIL_POOL_ALLOC_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

/// \file pool_alloc.h
/// Recycling allocator for the data plane's large, short-lived buffers:
/// relation columns, tag-table arrays, alive bitmaps.
///
/// Why it exists: those buffers routinely cross glibc malloc's mmap
/// threshold, so a plain vector round-trips every allocation through
/// mmap/munmap and the next use pays a page fault per 4 KiB — on the
/// semijoin-sweep fixture that soft-fault churn costs more than the
/// actual marking. The pool keeps freed blocks on a thread-local
/// power-of-two freelist and hands them back warm.
///
/// Scope is deliberately narrow: blocks between 4 KiB and 64 MiB are
/// pooled (smaller ones are served fine by the malloc arena, larger ones
/// are too precious to retain); at most 128 MiB is retained per thread;
/// everything else passes straight through to operator new/delete. The
/// pool is allocation-only plumbing — it never touches block contents, so
/// results are unaffected by construction.
///
/// Under AddressSanitizer/ThreadSanitizer/MemorySanitizer the pool
/// compiles to a pure passthrough: recycling would blunt use-after-free
/// and uninitialized-read detection exactly where it matters most.
/// FGQ_NO_POOL=1 in the environment disables recycling at runtime.

namespace fgq {

/// Returns a block of at least `bytes` bytes (recycled when a matching
/// one is on this thread's freelist). Never returns nullptr; `bytes`
/// of 0 is served as 1.
void* PoolAcquire(size_t bytes);

/// Returns a block obtained from PoolAcquire with the same `bytes`.
void PoolRelease(void* p, size_t bytes) noexcept;

/// Frees every block retained by the calling thread's freelist (for
/// tests and memory-pressure hooks; threads also flush on exit).
void PoolFlushThisThread() noexcept;

/// Standard-allocator shim over the pool, for vectors whose backing
/// stores are worth recycling. All instances compare equal (the pool is
/// per-thread state, not per-allocator state), so containers can swap
/// and move storage freely.
///
/// Elements of a trivially copyable type are default-initialized, not
/// zeroed: `resize(n)` and `vector(n)` leave new cells indeterminate,
/// because every user of the pool overwrites what it sizes (an output
/// column, a key buffer). A container that needs zeros says so with
/// `assign(n, 0)` or `resize(n, 0)`.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(PoolAcquire(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept { PoolRelease(p, n * sizeof(T)); }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0 && std::is_trivially_copyable_v<U> &&
                  std::is_trivially_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }
};

}  // namespace fgq

#endif  // FGQ_UTIL_POOL_ALLOC_H_
