// Bounded LRU cache of biased PPR subgraphs for online serving.
//
// Training precomputes every node's subgraph once (§III-F); serving cannot
// afford that for millions of accounts, so the DetectionEngine assembles
// subgraphs on demand and parks the hot ones here. Entries are keyed by
// (target node, graph version): bumping the version when the underlying
// graph changes invalidates stale subgraphs without a scan.
//
// Entries are shared_ptr<const BiasedSubgraph>, so a hit stays valid for
// the caller even if it is evicted mid-request. Thread-safe: one mutex
// guards the LRU structures (lookup/insert are an O(1) splice next to any
// subgraph assembly), counters are atomics readable without the lock —
// the same observability style as BufferPool.
//
// Bounds. `capacity` caps the entry *count*; `byte_budget` (optional) caps
// the resident *bytes* — per-entry size varies wildly with PPR
// neighborhood, so a count cap alone under-controls memory. Resident bytes
// are exact per EntryBytes (subgraph payload + the cache's own
// bookkeeping: LRU node, index node, control block) and are mirrored into
// the process-wide ResourceGovernor account "serve.cache", whose hard
// watermark can refuse admission outright.
//
// Cost-aware admission (Framework III of the join-sampling adaptive
// cache): GetOrBuild measures each build's wall cost, and when admitting
// would force a byte eviction, entries whose measured cost per KiB falls
// below `admit_cost_us_per_kib` (the w_small threshold) are *not* admitted
// — cheap-to-rebuild subgraphs never squat in the LRU displacing expensive
// ones. The built subgraph is still returned (and shared with coalesced
// waiters); it just isn't cached. Every admission refusal is counted so
// the probe balance stays exact:
//   misses == coalesced_misses + flight_failures + inserts + admit_rejects
//
// Version floor: EvictWhereVersionBelow(v) also refuses every later insert
// of a version below v (admit_rejects_stale). A request that started
// before a hot swap may still be building old-version subgraphs after the
// sweep; without the floor they would land in the cache and squat there.
//
// Misses build OUTSIDE the lock, and GetOrBuild is single-flight: the
// first thread to miss a key becomes its builder while concurrent missers
// of the same (target, graph-version) key park on that build's ticket and
// share the result, so N simultaneous requests for one cold account cost
// one PPR + assembly instead of N (`coalesced_misses` counts the parked
// ones). Direct Insert() races are still resolved first-build-wins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/biased_subgraph.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace bsg {

/// Counters for observability and tests. Totals are cumulative; entries /
/// resident_bytes describe the current instant.
struct SubgraphCacheStats {
  uint64_t lookups = 0;    ///< total Lookup()/GetOrBuild() probes
  uint64_t hits = 0;       ///< probes served from the cache
  uint64_t misses = 0;     ///< probes that had to build or wait on a build
  uint64_t inserts = 0;    ///< entries admitted
  uint64_t evictions = 0;  ///< entries dropped by the count/byte bounds
                           ///< (LRU overflow + ShrinkToBytes)
  /// Entries swept by EvictWhereVersionBelow after a graph swap (stale
  /// graph versions; disjoint from `evictions`).
  uint64_t version_evictions = 0;
  /// Misses that joined an in-flight build of the same key instead of
  /// building themselves (single-flight de-duplication; a subset of
  /// `misses`). misses - coalesced_misses = builds actually run.
  uint64_t coalesced_misses = 0;
  /// Builds that ran and failed. With the admission rejects below, the
  /// books balance as
  ///   misses == coalesced_misses + flight_failures + inserts'
  ///             + admit_rejects_cost + admit_rejects_pressure
  ///             + admit_rejects_stale
  /// where inserts' are the successful GetOrBuild builds (equal to
  /// `inserts` when nothing calls Insert directly).
  uint64_t flight_failures = 0;
  /// Builds refused admission by the w_small cost rule (built fine, too
  /// cheap to displace resident entries for).
  uint64_t admit_rejects_cost = 0;
  /// Builds refused admission by byte pressure: the governor's hard
  /// watermark said no, or a single entry exceeded the whole byte budget.
  uint64_t admit_rejects_pressure = 0;
  /// Inserts refused because their graph version is below the floor that
  /// EvictWhereVersionBelow set (built for a superseded version).
  uint64_t admit_rejects_stale = 0;
  uint64_t shrinks = 0;  ///< ShrinkToBytes calls (governor reclaim + manual)
  /// Bytes released by ShrinkToBytes, cumulatively.
  uint64_t shrink_bytes_released = 0;
  /// Measured build cost (us) of entries at the moment they were served as
  /// hits — the cold-miss cost the cache saved its callers, cumulatively.
  double hit_cost_saved_us = 0.0;
  uint64_t entries = 0;         ///< cached subgraphs right now
  uint64_t resident_bytes = 0;  ///< exact EntryBytes held right now

  double HitRate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Thread-safe bounded LRU of (target, graph-version) -> biased subgraph.
class SubgraphCache {
 public:
  /// Builds a subgraph for a target on a cache miss, or says why it could
  /// not.
  using Builder = std::function<Result<BiasedSubgraph>(int target)>;

  /// `capacity` is the maximum number of cached subgraphs (>= 1).
  /// `byte_budget` additionally caps resident bytes (0 = count cap only:
  /// the pre-governor behavior, bit-for-bit). `admit_cost_us_per_kib` is
  /// the w_small admission threshold: when admitting would evict, a build
  /// measured cheaper than this many microseconds per KiB of entry size is
  /// not cached (0 = admit everything).
  explicit SubgraphCache(size_t capacity, size_t byte_budget = 0,
                         double admit_cost_us_per_kib = 0.0);
  ~SubgraphCache();  ///< releases resident bytes from the governor account

  SubgraphCache(const SubgraphCache&) = delete;
  SubgraphCache& operator=(const SubgraphCache&) = delete;

  /// Returns the cached subgraph (marking it most-recently-used) or null.
  std::shared_ptr<const BiasedSubgraph> Lookup(int target, uint64_t version);

  /// Inserts a subgraph for (target, version) with an unknown build cost
  /// (0 us — admitted unless byte pressure or the version floor refuses),
  /// evicting beyond the bounds. If the key is already present the
  /// existing entry is kept (first build wins) and returned. Returns `sub`
  /// itself when admission refuses — callers always get a usable subgraph.
  std::shared_ptr<const BiasedSubgraph> Insert(
      int target, uint64_t version, std::shared_ptr<const BiasedSubgraph> sub);
  /// As Insert, with the measured build cost feeding cost-aware admission
  /// and the hit_cost_saved_us counter.
  std::shared_ptr<const BiasedSubgraph> InsertWithCost(
      int target, uint64_t version, std::shared_ptr<const BiasedSubgraph> sub,
      double build_cost_us);

  /// How many failed flights one GetOrBuild call will join (or run) before
  /// giving up and surfacing the terminal Status. Bounds the work a
  /// persistently failing builder can absorb: without a cap, N waiters of a
  /// dead key would retry (and re-fail) forever.
  static constexpr int kMaxBuildAttempts = 3;

  /// Lookup, or build-and-insert on a miss. The build runs outside the
  /// cache lock and is single-flight per key: concurrent missers of the
  /// same (target, version) block until the first builder finishes and
  /// share its result. Builds of distinct keys proceed concurrently. The
  /// build's wall time is measured and drives cost-aware admission.
  ///
  /// Failure semantics: a failed build (the builder's Status, or the
  /// cache.fill fault) is returned to its own caller and published on the
  /// flight ticket (counted in `flight_failures`), so parked waiters wake
  /// and retry — but at most kMaxBuildAttempts failed flights per call,
  /// after which the call returns the last failure's Status. A builder
  /// that unwinds instead (std::bad_alloc) still retires its ticket, with
  /// kInternal, before the exception leaves this call. No thread parks
  /// forever, no key is poisoned: the next probe after a failure may build
  /// (and succeed) normally.
  Result<std::shared_ptr<const BiasedSubgraph>> GetOrBuild(
      int target, uint64_t version, const Builder& build);

  /// Drops every entry (counters keep their cumulative values).
  void Clear();

  /// Sweeps out every entry whose graph version is < `version` and returns
  /// the count (also accumulated in `version_evictions`). O(resident) —
  /// called from the hot-swap path so superseded-version subgraphs release
  /// their capacity immediately instead of squatting in the LRU until they
  /// age out. Raises the version floor to `version`: later inserts below it
  /// are refused (admit_rejects_stale).
  size_t EvictWhereVersionBelow(uint64_t version);

  /// Evicts from the LRU tail until resident bytes <= `target_bytes` and
  /// returns the bytes released (counted in `evictions` and
  /// `shrink_bytes_released`). The governor's soft-pressure reclaim calls
  /// this with the cache's shrink target; tests and operators may call it
  /// directly.
  size_t ShrinkToBytes(size_t target_bytes);

  size_t capacity() const { return capacity_; }
  size_t byte_budget() const { return byte_budget_; }
  SubgraphCacheStats Stats() const;

  /// Exact resident cost of caching one subgraph: the payload (node-id
  /// vectors, CSR index/weight arrays) plus the cache's per-entry
  /// bookkeeping (LRU list node, index hash node, shared_ptr control
  /// block). resident_bytes is the sum of this over the residents —
  /// asserted byte-exact across every eviction path in tests.
  static size_t EntryBytes(const BiasedSubgraph& sub);

 private:
  struct Key {
    int target;
    uint64_t version;
    bool operator==(const Key& o) const {
      return target == o.target && version == o.version;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Splitmix-style scramble of the 96 key bits.
      uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.target)) <<
                    32) ^
                   k.version * 0x9E3779B97F4A7C15ULL;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const BiasedSubgraph> sub;
    size_t bytes = 0;
    double build_cost_us = 0.0;  ///< measured build cost (0 = unknown)
  };
  /// Single-flight ticket: the first thread to miss a key builds while
  /// later missers block on `cv` until `done`, then share `sub`. Waiters
  /// hold a shared_ptr to the ticket, so it stays valid after the builder
  /// retires it from `inflight_`.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const BiasedSubgraph> sub;
    /// Why the build failed when `done && sub == nullptr` — waiters that
    /// exhaust their retry budget return this instead of spinning.
    Status error;
  };

  /// Per-entry bookkeeping beyond the subgraph payload: the std::list node
  /// (Entry + forward/backward links), the unordered_map node (key +
  /// iterator value + bucket chain pointer), and the shared_ptr control
  /// block the entry pins.
  static constexpr size_t kEntryOverheadBytes =
      sizeof(Entry) + 2 * sizeof(void*) +                   // list node
      sizeof(Key) + sizeof(void*) + 2 * sizeof(void*) +     // map node
      32;                                                   // control block

  // Must hold mu_. Pops the LRU tail until the count and byte bounds hold,
  // accumulating the account release into *released_bytes.
  void EvictLocked(uint64_t* released_bytes);
  // Must hold mu_. The shared hit/miss probe: returns the entry (bumped to
  // most-recent) or null, updating hit/miss counters and crediting the
  // hit's saved build cost.
  std::shared_ptr<const BiasedSubgraph> ProbeLocked(const Key& key);
  // Publishes a build outcome on `flight` (null sub = builder failed with
  // `error`; bounded-retried by waiters), wakes every waiter and retires
  // the ticket.
  void ResolveFlight(const Key& key, const std::shared_ptr<Flight>& flight,
                     std::shared_ptr<const BiasedSubgraph> sub, Status error);

  const size_t capacity_;
  const size_t byte_budget_;
  const double admit_cost_us_per_kib_;

  /// Shared process-wide account ("serve.cache"): every instance charges
  /// what it admits and releases what it evicts, so the account stays
  /// balanced across engines. The reclaimer shrinks this cache on
  /// soft/hard pressure.
  ResourceGovernor::Account* const account_;
  uint64_t reclaimer_id_ = 0;

  mutable std::mutex mu_;
  uint64_t version_floor_ = 0;  ///< guarded by mu_; see EvictWhereVersionBelow
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::unordered_map<Key, std::shared_ptr<Flight>, KeyHash> inflight_;

  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> coalesced_misses_{0};
  std::atomic<uint64_t> flight_failures_{0};
  std::atomic<uint64_t> admit_rejects_cost_{0};
  std::atomic<uint64_t> admit_rejects_pressure_{0};
  std::atomic<uint64_t> admit_rejects_stale_{0};
  std::atomic<uint64_t> shrinks_{0};
  std::atomic<uint64_t> shrink_bytes_released_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> version_evictions_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  /// Accumulated in integer nanoseconds (C++17 atomics have no
  /// floating-point fetch_add); Stats() converts to microseconds.
  std::atomic<uint64_t> hit_cost_saved_ns_{0};
};

}  // namespace bsg
