// Process-wide metrics registry: named counters, gauges, and log-bucket
// latency histograms behind one interface.
//
// Design goals, in order:
//   1. Hot-path cost ~1 relaxed atomic add. Counter and Histogram shard
//      their cells across cache lines and pick a shard per thread, so
//      concurrent increments do not bounce one line between cores.
//   2. Stable pointers. GetCounter/GetHistogram intern by name and never
//      invalidate: components fetch their instruments once at construction
//      and increment lock-free forever after. The registry therefore only
//      grows — there is no reset, because a reset would dangle every held
//      pointer. Tests that need isolation use unique names or deltas.
//   3. One consistent cut. Snapshot() walks counters, gauge providers and
//      histograms under the registry lock, so derived invariants
//      (submitted == served + shed + ...) are computed from numbers read
//      at one instant (exact when the system is quiescent).
//
// Gauges are pull-style: a provider callback is invoked at snapshot time
// and emits (name, value) samples — the natural fit for the existing
// `*Stats()` structs, which already snapshot a component's atomics in one
// call. Providers are registered through RAII `GaugeRegistration` handles
// because frontends/engines are stack-scoped while the registry is global;
// a provider outliving its component would read freed memory. Provider
// callbacks must not call back into the registry (same mutex).
//
// Histogram semantics: log-spaced bucket upper bounds,
// Histogram::kBucketsPerDecade per decade of [kMinBound, kMaxBound], plus
// one overflow bucket (Prometheus +Inf). Observe() costs one binary search
// over precomputed bounds + two relaxed adds (bucket count and a
// fixed-point running sum). Quantiles are derived from bucket counts by
// nearest-rank and report the *upper bound* of the containing bucket — a
// conservative estimate that is exact to within one bucket's width (~33%
// relative at 8 buckets/decade) and never under-reports.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bsg {
namespace obs {

namespace detail {
/// Stable per-thread shard index (round-robin assignment at first use).
size_t ThreadShardIndex();
}  // namespace detail

/// Monotonic counter. Add() is one relaxed fetch_add on a per-thread shard;
/// Value() sums the shards (approximate ordering, exact totals).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t n) {
    shards_[detail::ThreadShardIndex() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Fixed-bucket histogram with sharded relaxed-atomic cells.
///
/// Total count is exact (every Observe lands in exactly one bucket cell);
/// Sum() is kept in fixed point (1e-6 resolution per observation) so
/// concurrent adds stay associative and the mean is reproducible.
class Histogram {
 public:
  static constexpr size_t kShards = 4;
  /// Fixed-point scale for the running sum.
  static constexpr double kSumScale = 1e6;
  /// Bucket layout. Upper bounds are log-spaced: kBucketsPerDecade per
  /// decade from kMinBound (first finite upper bound) through kMaxBound
  /// inclusive; values above kMaxBound land in the overflow (+Inf) bucket,
  /// values <= kMinBound in the first. This covers 1us..10s when observing
  /// milliseconds.
  static constexpr double kMinBound = 1e-3;
  static constexpr double kMaxBound = 1e4;
  static constexpr int kBucketsPerDecade = 8;

  Histogram();

  /// ~1 atomic add: binary search over precomputed bounds (no atomics),
  /// then one relaxed fetch_add on the bucket cell (+ one for the sum).
  void Observe(double value);

  /// Index of the bucket `value` falls into: the first bucket whose upper
  /// bound is >= value. Exposed for boundary tests.
  size_t BucketIndex(double value) const;

  /// Finite upper bounds (ascending). Bucket i covers
  /// (bounds[i-1], bounds[i]]; bucket bounds.size() is the overflow.
  const std::vector<double>& bucket_bounds() const { return bounds_; }

  /// Per-bucket counts merged across shards; size bucket_bounds().size()+1
  /// (last = overflow).
  std::vector<uint64_t> BucketCounts() const;

  uint64_t Count() const;
  double Sum() const;

  /// Nearest-rank quantile from bucket counts: the upper bound of the
  /// bucket containing the ceil(q*count)-th observation. Returns 0 when
  /// empty; returns kMaxBound for ranks in the overflow bucket (the bound
  /// below which we can no longer claim anything — callers see "worse than
  /// kMaxBound" as kMaxBound).
  double Quantile(double q) const;

  /// (lower, upper] bounds of the bucket holding the q-quantile rank —
  /// the oracle value provably lies in this half-open interval (tested).
  /// Lower is 0 for the first bucket; upper is kMaxBound for overflow.
  std::pair<double, double> QuantileBounds(double q) const;

 private:
  struct Shard {
    std::vector<std::atomic<uint64_t>> counts;  // bounds_.size() + 1 cells
    alignas(64) std::atomic<uint64_t> sum_fp{0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One gauge sample emitted by a provider at snapshot time.
struct GaugeSample {
  std::string name;
  double value = 0.0;
};

/// Histogram state captured by Snapshot(): per-bucket counts plus derived
/// totals and canonical quantiles, so exporters and `--stats` never touch
/// the live instrument twice.
struct HistogramSnapshot {
  std::vector<double> bounds;     ///< finite upper bounds (ascending)
  std::vector<uint64_t> buckets;  ///< per-bucket counts, last = overflow
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One consistent cut of the whole registry. Names are the dotted metric
/// names; all three sections are sorted by name.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<GaugeSample> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Gauge lookup by exact name; returns `fallback` when absent.
  double Gauge(const std::string& name, double fallback = 0.0) const;
  bool HasGauge(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

class GaugeRegistration;

/// The process-wide registry. See the file comment for the contract.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Interns a counter by name (creating it on first use). The returned
  /// pointer is valid for the life of the process.
  Counter* GetCounter(const std::string& name);

  /// Interns a histogram by name (creating it on first use). The returned
  /// pointer is valid for the life of the process.
  Histogram* GetHistogram(const std::string& name);

  /// Registers a single-value gauge callback. Returns an id for
  /// Unregister; prefer the RAII GaugeRegistration wrapper.
  uint64_t RegisterGauge(const std::string& name, std::function<double()> fn);

  /// Registers a multi-sample provider: called once per snapshot, appends
  /// any number of GaugeSamples. The natural adapter for `*Stats()`
  /// structs — one Stats() call, many samples, one consistent sub-cut.
  uint64_t RegisterProvider(
      std::function<void(std::vector<GaugeSample>*)> fn);

  /// Removes a gauge/provider by id. No-op for unknown ids.
  void Unregister(uint64_t id);

  /// One consistent cut: counters, provider gauges, and histogram states
  /// read under the registry lock. Gauges with duplicate names keep the
  /// last-registered sample.
  RegistrySnapshot Snapshot() const;

  size_t counter_count() const;
  size_t histogram_count() const;
  size_t provider_count() const;

 private:
  MetricsRegistry() = default;

  struct Provider {
    uint64_t id = 0;
    std::function<void(std::vector<GaugeSample>*)> fn;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<Provider> providers_;
  uint64_t next_id_ = 1;
};

/// Move-only RAII handle that unregisters its gauge/provider on
/// destruction. Components own one per registration so a stack-scoped
/// frontend/engine can expose its stats without dangling the global
/// registry when it dies.
class GaugeRegistration {
 public:
  GaugeRegistration() = default;
  explicit GaugeRegistration(uint64_t id) : id_(id) {}
  GaugeRegistration(GaugeRegistration&& o) noexcept : id_(o.id_) {
    o.id_ = 0;
  }
  GaugeRegistration& operator=(GaugeRegistration&& o) noexcept {
    if (this != &o) {
      Release();
      id_ = o.id_;
      o.id_ = 0;
    }
    return *this;
  }
  GaugeRegistration(const GaugeRegistration&) = delete;
  GaugeRegistration& operator=(const GaugeRegistration&) = delete;
  ~GaugeRegistration() { Release(); }

  /// Unregisters now (idempotent).
  void Release();
  uint64_t id() const { return id_; }

 private:
  uint64_t id_ = 0;
};

// Canonical histogram names recorded by the serving stack (referenced by
// serve_cli, benches, and the CI smoke — keep in sync with README).
namespace metric {
/// End-to-end latency of every resolved frontend request (all statuses).
inline constexpr const char* kRequestLatencyMs =
    "serve.frontend.request_latency_ms";
/// Submit-to-dequeue wait of requests that reached a worker.
inline constexpr const char* kQueueWaitMs = "serve.frontend.queue_wait_ms";
/// One forward pass over an assembled batch (ScoreAssembled).
inline constexpr const char* kForwardMs = "serve.engine.forward_ms";
/// One chunk's cache-probe + build + stack time (AssembleChunk).
inline constexpr const char* kAssembleMs = "serve.engine.assemble_ms";
}  // namespace metric

}  // namespace obs
}  // namespace bsg
