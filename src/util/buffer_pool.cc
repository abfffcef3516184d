#include "util/buffer_pool.h"

#include <new>

#include "util/status.h"

namespace bsg {

namespace {

// log2 of the bucket capacity relative to the minimum slab, i.e. the free-
// list index. capacity is always a power of two >= kMinSlabDoubles.
size_t BucketIndex(size_t capacity) {
  size_t idx = 0;
  for (size_t c = BufferPool::kMinSlabDoubles; c < capacity; c <<= 1) ++idx;
  return idx;
}

}  // namespace

BufferPool& BufferPool::Global() {
  static BufferPool* pool = [] {
    BufferPool* p = new BufferPool();  // leaked: outlives main
    // The pool is the canonical reclaimable subsystem: its account tracks
    // every heap slab it holds (live or parked), and memory pressure
    // (soft/hard watermark crossings) drops the parked ones.
    p->account_ = ResourceGovernor::Global().RegisterAccount("pool");
    ResourceGovernor::Global().RegisterReclaimer(
        [p](PressureLevel) { return p->Trim(); });
    return p;
  }();
  return *pool;
}

size_t BufferPool::BucketCapacity(size_t n) {
  size_t c = kMinSlabDoubles;
  while (c < n) c <<= 1;
  return c;
}

std::unique_lock<std::mutex> BufferPool::LockShard(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock_contention_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

double* BufferPool::Acquire(size_t n, size_t* capacity) {
  if (n == 0) {
    *capacity = 0;
    return nullptr;
  }
  const size_t cap = BucketCapacity(n);
  *capacity = cap;
  acquires_.fetch_add(1, std::memory_order_relaxed);
  live_bytes_.fetch_add(cap * sizeof(double), std::memory_order_relaxed);
  const size_t idx = BucketIndex(cap);
  BSG_CHECK(idx < kNumShards, "slab beyond the largest pool bucket");
  {
    Shard& shard = shards_[idx];
    std::unique_lock<std::mutex> lock = LockShard(shard);
    if (!shard.slabs.empty()) {
      double* p = shard.slabs.back();
      shard.slabs.pop_back();
      BSG_UNPOISON(p, cap * sizeof(double));
      hits_.fetch_add(1, std::memory_order_relaxed);
      free_slabs_.fetch_sub(1, std::memory_order_relaxed);
      free_bytes_.fetch_sub(cap * sizeof(double), std::memory_order_relaxed);
      return p;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  double* p = new double[cap];
  // The allocation already happened — an unconditional Charge, which is
  // what the hard-watermark-below-budget gap exists to absorb. No shard
  // lock is held here, so a reclaim triggered by this charge may re-enter
  // Trim safely.
  account_->Charge(cap * sizeof(double));
  return p;
}

void BufferPool::Release(double* p, size_t capacity) {
  if (p == nullptr) return;
  BSG_CHECK(capacity == BucketCapacity(capacity),
            "Release with a non-bucket capacity");
  releases_.fetch_add(1, std::memory_order_relaxed);
  live_bytes_.fetch_sub(capacity * sizeof(double), std::memory_order_relaxed);
  free_slabs_.fetch_add(1, std::memory_order_relaxed);
  free_bytes_.fetch_add(capacity * sizeof(double), std::memory_order_relaxed);
  const size_t idx = BucketIndex(capacity);
  BSG_CHECK(idx < kNumShards, "slab beyond the largest pool bucket");
  BSG_POISON(p, capacity * sizeof(double));
  Shard& shard = shards_[idx];
  std::unique_lock<std::mutex> lock = LockShard(shard);
  shard.slabs.push_back(p);
}

uint64_t BufferPool::Trim() {
  uint64_t slabs = 0, bytes = 0;
  for (size_t idx = 0; idx < kNumShards; ++idx) {
    std::vector<double*> drained;
    {
      std::unique_lock<std::mutex> lock = LockShard(shards_[idx]);
      drained.swap(shards_[idx].slabs);
    }
    const size_t cap = kMinSlabDoubles << idx;
    slabs += drained.size();
    bytes += drained.size() * cap * sizeof(double);
    for (double* p : drained) {
      BSG_UNPOISON(p, cap * sizeof(double));
      delete[] p;
    }
  }
  trims_.fetch_add(1, std::memory_order_relaxed);
  trimmed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  free_slabs_.fetch_sub(slabs, std::memory_order_relaxed);
  free_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  account_->Release(bytes);
  return bytes;
}

BufferPoolStats BufferPool::Stats() const {
  BufferPoolStats s;
  s.acquires = acquires_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.releases = releases_.load(std::memory_order_relaxed);
  s.trims = trims_.load(std::memory_order_relaxed);
  s.trimmed_bytes = trimmed_bytes_.load(std::memory_order_relaxed);
  s.free_slabs = free_slabs_.load(std::memory_order_relaxed);
  s.free_bytes = free_bytes_.load(std::memory_order_relaxed);
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.lock_contention = lock_contention_.load(std::memory_order_relaxed);
  return s;
}

PoolSlab& PoolSlab::operator=(const PoolSlab& other) {
  if (this == &other) return *this;
  // Reuse the held slab when it is big enough: parameter snapshots and
  // best-epoch restores assign same-shaped matrices every step, and keeping
  // the slab keeps its pages warm with zero pool traffic.
  if (capacity_ < other.size_) {
    BufferPool::Global().Release(data_, capacity_);
    data_ = BufferPool::Global().Acquire(other.size_, &capacity_);
  }
  size_ = other.size_;
  BSG_POISON_SLACK(data_, size_ * sizeof(double), capacity_ * sizeof(double));
  for (size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  return *this;
}

PoolSlab& PoolSlab::operator=(PoolSlab&& other) noexcept {
  if (this == &other) return *this;
  BufferPool::Global().Release(data_, capacity_);
  data_ = other.data_;
  size_ = other.size_;
  capacity_ = other.capacity_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.capacity_ = 0;
  return *this;
}

BufferPoolStats TensorArena::Delta() const {
  BufferPoolStats now = BufferPool::Global().Stats();
  BufferPoolStats d;
  d.acquires = now.acquires - start_.acquires;
  d.hits = now.hits - start_.hits;
  d.misses = now.misses - start_.misses;
  d.releases = now.releases - start_.releases;
  d.trims = now.trims - start_.trims;
  d.trimmed_bytes = now.trimmed_bytes - start_.trimmed_bytes;
  d.lock_contention = now.lock_contention - start_.lock_contention;
  d.free_slabs = now.free_slabs;
  d.free_bytes = now.free_bytes;
  d.live_bytes = now.live_bytes;
  return d;
}

}  // namespace bsg
