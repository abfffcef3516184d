// Pooled storage for tensor data: size-bucketed free lists of double slabs.
//
// The training hot path (§III-F) builds and tears down thousands of dense
// matrices per epoch — activations, autograd temporaries, gradients. Backing
// them with malloc/free means allocator traffic and cold first-touch pages
// dominate per-step cost once the kernels themselves are parallel. The
// BufferPool removes that churn: released slabs park in per-size free lists
// and the next acquisition of the same bucket reuses the warm pages.
//
// Design:
//   - Buckets are power-of-two capacities (minimum kMinSlabDoubles), so a
//     released slab is reusable by any request that rounds to the same
//     bucket and the pool holds at most O(log n) distinct size classes.
//   - Thread-safe: ops allocate from pool workers and from the serving
//     front-end's worker threads. The free lists are sharded per bucket — every size
//     class has its own cache-line-aligned mutex + stack — so threads only
//     contend when they race on the *same* slab size (acquire/release are a
//     pointer push/pop; the critical section is tiny next to any kernel).
//     Lock waits are counted in stats.lock_contention; counters are atomics
//     readable without any lock.
//   - Slabs are never scrubbed: Acquire returns stale contents. Matrix keeps
//     its vector-like fill semantics on top; kernels that overwrite every
//     element use Matrix::Uninit and skip the fill entirely.
//   - The pool only ever grows (to the peak working set); Trim() releases
//     all parked slabs back to the heap when a phase change makes the peak
//     irrelevant.
//
// TensorArena delimits one training step on the hot path and reports the
// pool traffic inside its scope (acquires, hit rate, heap bytes). All
// transient storage of the step — op outputs, recycled gradients, fused-
// kernel destinations — returns to the free lists as the step's graph is
// dropped, so the next step's arena runs almost entirely on pool hits
// (asserted >= 90% warm by tests/test_buffer_pool.cc).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/resource_governor.h"

// Under AddressSanitizer, parked slabs and each live slab's slack past its
// logical size are poisoned, so a read past a matrix's last element is
// reported instead of landing in pooled memory. Elsewhere these are no-ops.
#if defined(__SANITIZE_ADDRESS__)
#define BSG_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BSG_ASAN 1
#endif
#endif
#if defined(BSG_ASAN)
#include <sanitizer/asan_interface.h>
#define BSG_POISON(p, bytes) __asan_poison_memory_region((p), (bytes))
#define BSG_UNPOISON(p, bytes) __asan_unpoison_memory_region((p), (bytes))
#else
#define BSG_POISON(p, bytes)
#define BSG_UNPOISON(p, bytes)
#endif
/// A live slab p holds `used` of its `capacity` bytes; the rest is slack.
#define BSG_POISON_SLACK(p, used, capacity)                                \
  do {                                                                     \
    BSG_UNPOISON((p), (used));                                             \
    BSG_POISON(reinterpret_cast<char*>(p) + (used), (capacity) - (used)); \
  } while (0)

namespace bsg {

/// Counters for observability and regression tests. Totals are cumulative
/// since process start; free_/live_ describe the current instant.
struct BufferPoolStats {
  uint64_t acquires = 0;    ///< total Acquire() calls
  uint64_t hits = 0;        ///< acquisitions served from a free list
  uint64_t misses = 0;      ///< acquisitions that hit the heap allocator
  uint64_t releases = 0;    ///< total Release() calls
  uint64_t trims = 0;       ///< Trim() calls
  uint64_t trimmed_bytes = 0;  ///< bytes returned to the heap by Trim()
  uint64_t free_slabs = 0;  ///< slabs parked in free lists right now
  uint64_t free_bytes = 0;  ///< bytes parked in free lists right now
  uint64_t live_bytes = 0;  ///< bytes in slabs currently handed out
  /// Acquire/Release calls that found their bucket's lock already held and
  /// had to wait. With per-bucket shards this stays ~0 unless threads race
  /// on the same size class.
  uint64_t lock_contention = 0;

  double HitRate() const {
    return acquires == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(acquires);
  }
};

/// Thread-safe, size-bucketed recycler of double slabs.
class BufferPool {
 public:
  /// Smallest slab capacity, in doubles. Requests below this round up so
  /// tiny matrices (1x1 losses, bias rows) share one bucket.
  static constexpr size_t kMinSlabDoubles = 64;

  /// Number of per-bucket free-list shards. Bucket i holds slabs of
  /// kMinSlabDoubles << i doubles, so 40 shards cover slabs up to ~2^45
  /// doubles — far beyond any allocatable size on this hardware.
  static constexpr size_t kNumShards = 40;

  /// The process-wide pool used by Matrix. Never destroyed (slabs released
  /// from static-storage matrices at exit must still have a home).
  static BufferPool& Global();

  /// Bucket capacity a request for n doubles rounds up to: the smallest
  /// power of two >= max(n, kMinSlabDoubles).
  static size_t BucketCapacity(size_t n);

  /// Returns a slab with capacity BucketCapacity(n) >= n doubles, contents
  /// stale. Never returns nullptr for n > 0; n == 0 returns nullptr without
  /// touching any counter.
  double* Acquire(size_t n, size_t* capacity);

  /// Returns a slab obtained from Acquire (with the capacity it reported)
  /// to its free list. p == nullptr is a no-op.
  void Release(double* p, size_t capacity);

  /// Frees every parked slab back to the heap (free lists empty afterwards;
  /// live slabs are unaffected) and returns the bytes released. Each shard
  /// is drained under its own lock — one bucket's free list is never held
  /// while another's slabs are deleted, so concurrent Acquire/Release on
  /// other size classes proceed throughout. This is the train->inference
  /// phase boundary policy: training's peak working set is parked cold once
  /// the model is frozen, so serving startup (DetectionEngine) trims it
  /// instead of carrying it for the whole process lifetime. Cumulative
  /// bytes are tracked in stats.trimmed_bytes, the per-call bytes are
  /// released from the pool's governor account, and when the governor's
  /// pressure reclaim drives the call, the return value feeds its
  /// reclaimed_bytes counter.
  uint64_t Trim();

  /// The pool's governor account ("pool"): charged when a miss allocates a
  /// fresh slab, released when Trim returns slabs to the heap, so
  /// resident_bytes == live_bytes + free_bytes at every instant.
  const ResourceGovernor::Account* governor_account() const {
    return account_;
  }

  BufferPoolStats Stats() const;

 private:
  BufferPool() = default;
  ~BufferPool() = delete;  // global: intentionally leaked

  /// One free list per size class, each on its own cache line so bucket
  /// locks never false-share.
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<double*> slabs;  // LIFO stack
  };
  /// Locks `shard.mu`, counting a contention event if it was already held.
  std::unique_lock<std::mutex> LockShard(Shard& shard);

  Shard shards_[kNumShards];
  /// Set by Global() right after construction (the only way a pool is
  /// made), before any Acquire can run.
  ResourceGovernor::Account* account_ = nullptr;

  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> trims_{0};
  std::atomic<uint64_t> trimmed_bytes_{0};
  std::atomic<uint64_t> free_slabs_{0};
  std::atomic<uint64_t> free_bytes_{0};
  std::atomic<uint64_t> live_bytes_{0};
  std::atomic<uint64_t> lock_contention_{0};
};

/// RAII handle to one pooled slab with vector-like value semantics: copies
/// are deep (into a freshly acquired slab), moves transfer ownership, and
/// destruction releases the slab back to the pool. This is the storage
/// behind Matrix; size() is the logical element count, capacity the bucket.
class PoolSlab {
 public:
  PoolSlab() = default;
  /// Acquires a slab for n doubles. Contents are stale — the caller fills.
  explicit PoolSlab(size_t n) : size_(n) {
    data_ = BufferPool::Global().Acquire(n, &capacity_);
    BSG_POISON_SLACK(data_, n * sizeof(double), capacity_ * sizeof(double));
  }
  PoolSlab(const PoolSlab& other) : PoolSlab(other.size_) {
    for (size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  }
  PoolSlab(PoolSlab&& other) noexcept { *this = static_cast<PoolSlab&&>(other); }
  PoolSlab& operator=(const PoolSlab& other);
  PoolSlab& operator=(PoolSlab&& other) noexcept;
  ~PoolSlab() { BufferPool::Global().Release(data_, capacity_); }

  double* data() { return data_; }
  const double* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double& operator[](size_t i) { return data_[i]; }
  double operator[](size_t i) const { return data_[i]; }
  double* begin() { return data_; }
  double* end() { return data_ + size_; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }

 private:
  double* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// Scope marker for one training step on the hot path. Construction
/// snapshots the global pool counters; the accessors report the traffic
/// since then, which for an arena wrapped around exactly one step is the
/// per-step allocation profile (allocations/step, warm hit rate). The
/// transient storage itself recycles through the pool as the step's tensors
/// die — the arena observes, it does not own.
class TensorArena {
 public:
  TensorArena() : start_(BufferPool::Global().Stats()) {}

  uint64_t acquires() const { return Delta().acquires; }
  uint64_t hits() const { return Delta().hits; }
  uint64_t misses() const { return Delta().misses; }
  /// Fraction of in-scope acquisitions served without the heap.
  double hit_rate() const { return Delta().HitRate(); }

 private:
  BufferPoolStats Delta() const;
  BufferPoolStats start_;
};

}  // namespace bsg
