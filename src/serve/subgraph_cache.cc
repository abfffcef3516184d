#include "serve/subgraph_cache.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "util/fault.h"

namespace bsg {

SubgraphCache::SubgraphCache(size_t capacity, size_t byte_budget,
                             double admit_cost_us_per_kib)
    : capacity_(capacity),
      byte_budget_(byte_budget),
      admit_cost_us_per_kib_(admit_cost_us_per_kib),
      account_(ResourceGovernor::Global().RegisterAccount("serve.cache")) {
  BSG_CHECK(capacity >= 1, "SubgraphCache capacity must be >= 1");
  BSG_CHECK(admit_cost_us_per_kib >= 0.0,
            "SubgraphCache admission threshold must be >= 0");
  // On memory pressure, drop the cold half: to half the byte budget when
  // one is set, else half of whatever is resident right now.
  reclaimer_id_ = ResourceGovernor::Global().RegisterReclaimer(
      [this](PressureLevel) -> uint64_t {
        const uint64_t target =
            byte_budget_ > 0
                ? static_cast<uint64_t>(byte_budget_) / 2
                : resident_bytes_.load(std::memory_order_relaxed) / 2;
        return ShrinkToBytes(target);
      });
}

SubgraphCache::~SubgraphCache() {
  // Unregister BEFORE dropping entries so a concurrent reclaim pass can
  // never call into a half-dead cache; Clear then returns this instance's
  // resident bytes to the shared account.
  ResourceGovernor::Global().UnregisterReclaimer(reclaimer_id_);
  Clear();
}

std::shared_ptr<const BiasedSubgraph> SubgraphCache::ProbeLocked(
    const Key& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (it->second->build_cost_us > 0.0) {
    // This hit saved its caller the measured build; the running sum is the
    // cold-miss cost the cache has absorbed.
    hit_cost_saved_ns_.fetch_add(
        static_cast<uint64_t>(it->second->build_cost_us * 1000.0),
        std::memory_order_relaxed);
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
  return it->second->sub;
}

std::shared_ptr<const BiasedSubgraph> SubgraphCache::Lookup(
    int target, uint64_t version) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  return ProbeLocked(Key{target, version});
}

std::shared_ptr<const BiasedSubgraph> SubgraphCache::Insert(
    int target, uint64_t version, std::shared_ptr<const BiasedSubgraph> sub) {
  return InsertWithCost(target, version, std::move(sub), 0.0);
}

std::shared_ptr<const BiasedSubgraph> SubgraphCache::InsertWithCost(
    int target, uint64_t version, std::shared_ptr<const BiasedSubgraph> sub,
    double build_cost_us) {
  BSG_CHECK(sub != nullptr, "inserting null subgraph");
  const size_t bytes = EntryBytes(*sub);

  if (byte_budget_ > 0) {
    // An entry bigger than the whole budget would evict everything and
    // still overflow — never admitted.
    if (bytes > byte_budget_) {
      admit_rejects_pressure_.fetch_add(1, std::memory_order_relaxed);
      return sub;
    }
    // The w_small rule: admitting this entry would force an eviction, so
    // only displace resident subgraphs for builds that are expensive
    // enough to be worth keeping. The resident read is racy — admission is
    // a heuristic, the byte bound itself is enforced under the lock below.
    if (admit_cost_us_per_kib_ > 0.0 &&
        resident_bytes_.load(std::memory_order_relaxed) + bytes >
            byte_budget_) {
      const double cost_per_kib =
          build_cost_us * 1024.0 / static_cast<double>(bytes);
      if (cost_per_kib < admit_cost_us_per_kib_) {
        admit_rejects_cost_.fetch_add(1, std::memory_order_relaxed);
        return sub;
      }
    }
  }

  // Charge OUTSIDE mu_: a charge may cross a watermark and run reclaim,
  // which re-enters this cache via ShrinkToBytes (locking mu_). Releases,
  // which never reclaim, are safe anywhere.
  if (!account_->TryCharge(bytes)) {
    admit_rejects_pressure_.fetch_add(1, std::memory_order_relaxed);
    return sub;
  }

  uint64_t released = 0;
  std::shared_ptr<const BiasedSubgraph> result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(Key{target, version});
    if (version < version_floor_) {
      // Built for a superseded graph version (a request that started
      // before a swap): never resident, and the charge goes back.
      admit_rejects_stale_.fetch_add(1, std::memory_order_relaxed);
      released = bytes;
      result = std::move(sub);
    } else if (it != index_.end()) {
      // Lost a build race: keep the incumbent so all callers share one
      // copy, and hand back the bytes this insert charged for nothing.
      lru_.splice(lru_.begin(), lru_, it->second);
      released = bytes;
      result = it->second->sub;
    } else {
      lru_.push_front(
          Entry{Key{target, version}, std::move(sub), bytes, build_cost_us});
      index_[lru_.front().key] = lru_.begin();
      inserts_.fetch_add(1, std::memory_order_relaxed);
      entries_.fetch_add(1, std::memory_order_relaxed);
      resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      EvictLocked(&released);
      result = lru_.begin()->sub;
    }
  }
  if (released > 0) account_->Release(released);
  return result;
}

Result<std::shared_ptr<const BiasedSubgraph>> SubgraphCache::GetOrBuild(
    int target, uint64_t version, const Builder& build) {
  const Key key{target, version};
  // Failed flights this call has joined. Bounded: a persistently failing
  // builder fails every caller with its Status after kMaxBuildAttempts
  // instead of letting waiters chase the key forever.
  int failed_attempts = 0;
  for (;;) {
    std::shared_ptr<Flight> flight;
    {
      // Probe and flight registration are one critical section: a miss
      // either finds an in-flight build to join or atomically claims the
      // key.
      lookups_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lock(mu_);
      if (auto hit = ProbeLocked(key)) return hit;
      auto fit = inflight_.find(key);
      if (fit != inflight_.end()) {
        // Coalesce: another thread is already building this key — park on
        // its ticket (outside the cache lock) and share the result.
        flight = fit->second;
        coalesced_misses_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        std::unique_lock<std::mutex> flock(flight->m);
        flight->cv.wait(flock, [&] { return flight->done; });
        if (flight->sub != nullptr) return flight->sub;
        // The build we joined failed. Re-run the whole probe (counted as a
        // fresh lookup) — this thread may now build, or find an entry —
        // unless this call's retry budget is spent.
        if (++failed_attempts >= kMaxBuildAttempts) return flight->error;
        continue;
      }
      flight = std::make_shared<Flight>();
      inflight_.emplace(key, flight);
    }

    // This thread owns the key's single build. It runs outside every lock,
    // so builds of distinct keys overlap freely. `owner` publishes the
    // outcome exactly once; should the builder unwind (std::bad_alloc), its
    // destructor still retires the ticket, so no waiter parks forever.
    struct FlightOwner {
      SubgraphCache* cache;
      const Key& key;
      const std::shared_ptr<Flight>& flight;
      bool resolved = false;
      void Resolve(std::shared_ptr<const BiasedSubgraph> sub, Status error) {
        resolved = true;
        cache->ResolveFlight(key, flight, std::move(sub), std::move(error));
      }
      ~FlightOwner() {
        if (!resolved) {
          Resolve(nullptr, Status::Internal("subgraph build unwound"));
        }
      }
    } owner{this, key, flight};
    // Trust boundary of the fill itself (distinct from the builder's own
    // failures: this models the cache's admission path dying, e.g. an
    // allocation failure materialising the shared entry).
    if (BSG_FAULT(fault::kCacheFill)) {
      const Status error = Status::Unavailable(
          "injected fault: cache.fill for target " + std::to_string(target));
      owner.Resolve(nullptr, error);
      return error;
    }
    // The wall cost is measured here — it prices this subgraph for
    // cost-aware admission and, on every later hit, counts as cold-miss
    // cost saved.
    const auto build_start = std::chrono::steady_clock::now();
    Result<BiasedSubgraph> built = build(target);
    if (!built.ok()) {
      // Published on the ticket, so parked waiters wake with the cause in
      // hand (bounded retries) and future misses of this key are not
      // poisoned; returned to this caller only.
      owner.Resolve(nullptr, built.status());
      return built.status();
    }
    auto sub = std::make_shared<const BiasedSubgraph>(built.MoveValueOrDie());
    const double cost_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - build_start)
                               .count();
    std::shared_ptr<const BiasedSubgraph> admitted =
        InsertWithCost(target, version, std::move(sub), cost_us);
    owner.Resolve(admitted, Status::OK());
    return admitted;
  }
}

void SubgraphCache::ResolveFlight(
    const Key& key, const std::shared_ptr<Flight>& flight,
    std::shared_ptr<const BiasedSubgraph> sub, Status error) {
  if (sub == nullptr) {
    flight_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  // Retire the ticket BEFORE publishing the outcome. A woken waiter
  // re-probes immediately; were the resolved flight still registered, it
  // could rejoin it and observe the same failure twice — double-charging
  // its bounded retry budget for one failed build. Probes between the
  // erase and the wake are safe either way: successful builds are already
  // in index_, and for failures a fresh builder claiming the key is
  // exactly the desired retry.
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> flock(flight->m);
    flight->done = true;
    flight->sub = std::move(sub);
    flight->error = std::move(error);
  }
  flight->cv.notify_all();
}

void SubgraphCache::Clear() {
  uint64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : lru_) released += e.bytes;
    index_.clear();
    lru_.clear();
    entries_.store(0, std::memory_order_relaxed);
    resident_bytes_.store(0, std::memory_order_relaxed);
  }
  if (released > 0) account_->Release(released);
}

size_t SubgraphCache::EvictWhereVersionBelow(uint64_t version) {
  size_t swept = 0;
  uint64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    version_floor_ = std::max(version_floor_, version);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.version >= version) {
        ++it;
        continue;
      }
      resident_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      released += it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
      ++swept;
    }
    version_evictions_.fetch_add(swept, std::memory_order_relaxed);
  }
  if (released > 0) account_->Release(released);
  return swept;
}

size_t SubgraphCache::ShrinkToBytes(size_t target_bytes) {
  uint64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!lru_.empty() &&
           resident_bytes_.load(std::memory_order_relaxed) > target_bytes) {
      const Entry& victim = lru_.back();
      resident_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      released += victim.bytes;
      index_.erase(victim.key);
      lru_.pop_back();
    }
  }
  shrinks_.fetch_add(1, std::memory_order_relaxed);
  shrink_bytes_released_.fetch_add(released, std::memory_order_relaxed);
  if (released > 0) account_->Release(released);
  return static_cast<size_t>(released);
}

void SubgraphCache::EvictLocked(uint64_t* released_bytes) {
  // Count bound first, then the byte bound. The `size() > 1` guard keeps
  // the just-inserted entry: oversized singles are refused at admission,
  // so a lone resident always fits, but the guard makes that a structural
  // invariant rather than an admission-side promise.
  while (lru_.size() > capacity_ ||
         (byte_budget_ > 0 &&
          resident_bytes_.load(std::memory_order_relaxed) > byte_budget_ &&
          lru_.size() > 1)) {
    const Entry& victim = lru_.back();
    resident_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    *released_bytes += victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

SubgraphCacheStats SubgraphCache::Stats() const {
  SubgraphCacheStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.coalesced_misses = coalesced_misses_.load(std::memory_order_relaxed);
  s.flight_failures = flight_failures_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.version_evictions = version_evictions_.load(std::memory_order_relaxed);
  s.admit_rejects_cost = admit_rejects_cost_.load(std::memory_order_relaxed);
  s.admit_rejects_pressure =
      admit_rejects_pressure_.load(std::memory_order_relaxed);
  s.admit_rejects_stale = admit_rejects_stale_.load(std::memory_order_relaxed);
  s.shrinks = shrinks_.load(std::memory_order_relaxed);
  s.shrink_bytes_released =
      shrink_bytes_released_.load(std::memory_order_relaxed);
  s.hit_cost_saved_us =
      static_cast<double>(hit_cost_saved_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  s.entries = entries_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  return s;
}

size_t SubgraphCache::EntryBytes(const BiasedSubgraph& sub) {
  size_t bytes = sizeof(BiasedSubgraph) + kEntryOverheadBytes;
  for (const RelationSubgraph& rel : sub.per_relation) {
    bytes += sizeof(RelationSubgraph);
    bytes += rel.nodes.size() * sizeof(int);
    bytes += rel.adj.indptr().size() * sizeof(int64_t);
    bytes += rel.adj.indices().size() * sizeof(int);
    bytes += rel.adj.weights().size() * sizeof(double);
  }
  return bytes;
}

}  // namespace bsg
