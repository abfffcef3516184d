// Metrics registry: exact counter totals under concurrency, histogram
// bucket-boundary semantics (values on an exact upper bound land in that
// bucket), quantiles validated against a sorted-sample oracle on
// randomized workloads, per-shard merge, provider registration/dedup with
// RAII handles, and the Prometheus/JSON exposition round-trip. The TSan CI
// stage runs this binary, so the sharded relaxed-atomic hot paths are
// exercised under the race detector.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"

namespace bsg {
namespace obs {
namespace {

// The registry is global and grows-only (stable instrument pointers), so
// every test uses its own metric names to stay isolated.

TEST(Counter, AddAndValueExact) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, ConcurrentAddsTotalExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  // Shards make the ordering approximate but the total exact: every
  // increment lands in exactly one shard cell.
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Histogram, BoundsAreLogSpacedAndEndExactlyAtMax) {
  Histogram h;  // 1e-3 .. 1e4, 8 buckets/decade
  const std::vector<double>& bounds = h.bucket_bounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-3);
  // The last finite bound is kMaxBound EXACTLY (pushed verbatim, not
  // through pow), so the overflow threshold is what the constant says.
  EXPECT_EQ(bounds.back(), 1e4);
  // 7 decades at 8 buckets each: bound_0 = min, bound_56 = max.
  EXPECT_EQ(bounds.size(), 57u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  // Log spacing: consecutive ratios ~ 10^(1/8).
  const double step = std::pow(10.0, 1.0 / 8.0);
  for (size_t i = 1; i + 1 < bounds.size(); ++i) {
    EXPECT_NEAR(bounds[i] / bounds[i - 1], step, 1e-9) << i;
  }
}

TEST(Histogram, BucketIndexBoundaryCases) {
  Histogram h;
  const std::vector<double>& bounds = h.bucket_bounds();
  // Bucket i covers (bounds[i-1], bounds[i]]: a value EXACTLY on an upper
  // bound belongs to that bucket, one ulp above belongs to the next.
  for (size_t i = 0; i < bounds.size(); i += 7) {
    EXPECT_EQ(h.BucketIndex(bounds[i]), i) << bounds[i];
    EXPECT_EQ(h.BucketIndex(
                  std::nextafter(bounds[i],
                                 std::numeric_limits<double>::infinity())),
              i + 1)
        << bounds[i];
  }
  // At or below the first bound (including 0, negatives, NaN): bucket 0.
  EXPECT_EQ(h.BucketIndex(0.0), 0u);
  EXPECT_EQ(h.BucketIndex(-3.5), 0u);
  EXPECT_EQ(h.BucketIndex(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(h.BucketIndex(1e-9), 0u);
  // Above kMaxBound: the overflow bucket (index == bounds.size()).
  EXPECT_EQ(h.BucketIndex(1e4 + 1.0), bounds.size());
  EXPECT_EQ(h.BucketIndex(std::numeric_limits<double>::infinity()),
            bounds.size());
}

TEST(Histogram, ObserveCountsAndFixedPointSum) {
  Histogram h;
  h.Observe(0.5);
  h.Observe(0.5);
  h.Observe(2.0);
  h.Observe(20000.0);  // overflow
  EXPECT_EQ(h.Count(), 4u);
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), h.bucket_bounds().size() + 1);
  EXPECT_EQ(counts[h.BucketIndex(0.5)], 2u);
  EXPECT_EQ(counts[h.BucketIndex(2.0)], 1u);
  EXPECT_EQ(counts.back(), 1u);
  // Fixed point at 1e-6 resolution: this sum is exact.
  EXPECT_DOUBLE_EQ(h.Sum(), 20003.0);
}

TEST(Histogram, ConcurrentObserveTotalCountExact) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      // Deterministic per-thread values spread over the full range so
      // several shards and buckets are hit concurrently.
      std::mt19937_64 rng(1234u + static_cast<unsigned>(t));
      std::uniform_real_distribution<double> exp10(-4.0, 5.0);
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(std::pow(10.0, exp10(rng)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every Observe lands in exactly one shard cell of one bucket, so both
  // the total and the per-bucket merge are exact, not approximate.
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  std::vector<uint64_t> counts = h.BucketCounts();
  uint64_t merged = 0;
  for (uint64_t c : counts) merged += c;
  EXPECT_EQ(merged, h.Count());
}

TEST(Histogram, PerShardMergeMatchesSerialOracle) {
  // Same value observed from many threads: threads map to different
  // shards (round-robin assignment), the merge must still produce one
  // exact per-bucket total.
  Histogram h;
  constexpr int kThreads = 2 * Histogram::kShards;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.Observe(3.0);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<uint64_t> counts = h.BucketCounts();
  EXPECT_EQ(counts[h.BucketIndex(3.0)],
            static_cast<uint64_t>(kThreads) * 1000);
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * 1000);
  EXPECT_NEAR(h.Sum(), kThreads * 1000 * 3.0, 1e-6 * kThreads * 1000);
}

TEST(Histogram, QuantileBracketsSortedSampleOracle) {
  // Randomized workloads: the nearest-rank oracle value from the sorted
  // raw samples must lie in the (lower, upper] bucket interval the
  // histogram reports for the same quantile.
  for (uint64_t seed : {7u, 99u, 2025u}) {
    Histogram h;
    std::mt19937_64 rng(seed);
    // Log-uniform over [1e-4, 1e5): exercises the underflow bucket, the
    // full finite range, and the overflow bucket.
    std::uniform_real_distribution<double> exp10(-4.0, 5.0);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
      double v = std::pow(10.0, exp10(rng));
      samples.push_back(v);
      h.Observe(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      const uint64_t rank = static_cast<uint64_t>(
          std::ceil(q * static_cast<double>(samples.size())));
      const double oracle = samples[rank == 0 ? 0 : rank - 1];
      const auto [lower, upper] = h.QuantileBounds(q);
      if (lower == upper) {
        // Degenerate interval == the overflow bucket: the oracle can only
        // be there by exceeding kMaxBound.
        EXPECT_GT(oracle, upper) << "seed " << seed << " q " << q;
      } else {
        EXPECT_GT(oracle, lower) << "seed " << seed << " q " << q;
        EXPECT_LE(oracle, upper) << "seed " << seed << " q " << q;
      }
      // Quantile() is the conservative (upper-bound) point estimate.
      EXPECT_EQ(h.Quantile(q), upper);
    }
  }
}

TEST(Histogram, QuantileOnEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  auto [lower, upper] = h.QuantileBounds(0.99);
  EXPECT_EQ(lower, 0.0);
  EXPECT_EQ(upper, 0.0);
}

TEST(MetricsRegistry, InternsStablePointers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("test.metrics.intern.counter");
  Counter* b = reg.GetCounter("test.metrics.intern.counter");
  EXPECT_EQ(a, b);
  Histogram* ha = reg.GetHistogram("test.metrics.intern.hist");
  Histogram* hb = reg.GetHistogram("test.metrics.intern.hist");
  EXPECT_EQ(ha, hb);
  a->Add(5);
  RegistrySnapshot snap = reg.Snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.metrics.intern.counter") {
      EXPECT_EQ(value, 5u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsRegistry, GaugeRegistrationIsRaii) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const size_t before = reg.provider_count();
  {
    GaugeRegistration g(
        reg.RegisterGauge("test.metrics.raii.g", [] { return 7.0; }));
    EXPECT_EQ(reg.provider_count(), before + 1);
    EXPECT_EQ(reg.Snapshot().Gauge("test.metrics.raii.g", -1.0), 7.0);
  }
  // Handle death unregistered the provider; the gauge is gone.
  EXPECT_EQ(reg.provider_count(), before);
  EXPECT_FALSE(reg.Snapshot().HasGauge("test.metrics.raii.g"));
  EXPECT_EQ(reg.Snapshot().Gauge("test.metrics.raii.g", -1.0), -1.0);
}

TEST(MetricsRegistry, DuplicateGaugeNamesKeepLastRegistered) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  GaugeRegistration first(
      reg.RegisterGauge("test.metrics.dup.g", [] { return 1.0; }));
  GaugeRegistration second(
      reg.RegisterGauge("test.metrics.dup.g", [] { return 2.0; }));
  RegistrySnapshot snap = reg.Snapshot();
  size_t occurrences = 0;
  for (const GaugeSample& g : snap.gauges) {
    if (g.name == "test.metrics.dup.g") ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
  EXPECT_EQ(snap.Gauge("test.metrics.dup.g"), 2.0);
}

TEST(MetricsRegistry, ProviderEmitsMultipleSamplesInOneCut) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  int calls = 0;
  GaugeRegistration provider(
      reg.RegisterProvider([&calls](std::vector<GaugeSample>* out) {
        ++calls;
        out->push_back({"test.metrics.provider.a", 1.0});
        out->push_back({"test.metrics.provider.b", 2.0});
      }));
  RegistrySnapshot snap = reg.Snapshot();
  // One provider call per snapshot: the two samples are one coherent cut.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(snap.Gauge("test.metrics.provider.a"), 1.0);
  EXPECT_EQ(snap.Gauge("test.metrics.provider.b"), 2.0);
}

TEST(MetricsRegistry, SnapshotHistogramCarriesQuantiles) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test.metrics.snap.hist");
  for (int i = 0; i < 100; ++i) h->Observe(1.0 + i * 0.01);
  RegistrySnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("test.metrics.snap.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_EQ(hs->p50, h->Quantile(0.50));
  EXPECT_EQ(hs->p95, h->Quantile(0.95));
  EXPECT_EQ(hs->p99, h->Quantile(0.99));
  uint64_t total = 0;
  for (uint64_t c : hs->buckets) total += c;
  EXPECT_EQ(total, hs->count);
  EXPECT_EQ(snap.FindHistogram("test.metrics.snap.none"), nullptr);
}

TEST(Exposition, PrometheusNameSanitizes) {
  EXPECT_EQ(PrometheusName("serve.frontend.queue_wait_ms"),
            "bsg_serve_frontend_queue_wait_ms");
  EXPECT_EQ(PrometheusName("fault.engine.forward.fires"),
            "bsg_fault_engine_forward_fires");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "bsg_weird_name_with_spaces");
}

TEST(Exposition, PrometheusTextRoundTripsTheSnapshot) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.export.requests")->Add(3);
  Histogram* h = reg.GetHistogram("test.export.latency_ms");
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(99999.0);  // overflow
  GaugeRegistration g(
      reg.RegisterGauge("test.export.depth", [] { return 4.5; }));
  RegistrySnapshot snap = reg.Snapshot();
  const std::string text = ToPrometheusText(snap);

  EXPECT_NE(text.find("# TYPE bsg_test_export_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("bsg_test_export_requests 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bsg_test_export_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("bsg_test_export_depth 4.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bsg_test_export_latency_ms histogram"),
            std::string::npos);
  // Cumulative buckets: the +Inf bucket equals the total count, and the
  // explicit _count line agrees.
  EXPECT_NE(text.find("bsg_test_export_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("bsg_test_export_latency_ms_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("bsg_test_export_latency_ms_sum"), std::string::npos);

  const std::string json = ToJson(snap, /*include_traces=*/false);
  EXPECT_NE(json.find("\"test.export.requests\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.depth\": 4.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_EQ(json.find("\"traces\""), std::string::npos);
  EXPECT_NE(ToJson(snap, /*include_traces=*/true).find("\"traces\""),
            std::string::npos);
}

TEST(Exposition, PrometheusBucketsAreCumulativeAndOrdered) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test.export.cumulative_ms");
  for (int i = 0; i < 50; ++i) h->Observe(0.01 * (i + 1));
  RegistrySnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs =
      snap.FindHistogram("test.export.cumulative_ms");
  ASSERT_NE(hs, nullptr);
  const std::string text = ToPrometheusText(snap);
  // Re-derive the cumulative series from the snapshot and verify each
  // emitted bucket line carries exactly that cumulative value.
  uint64_t cum = 0;
  for (size_t i = 0; i < hs->bounds.size(); ++i) {
    cum += hs->buckets[i];
    char line[128];
    std::snprintf(line, sizeof(line),
                  "bsg_test_export_cumulative_ms_bucket{le=\"%.9g\"} %llu",
                  hs->bounds[i], static_cast<unsigned long long>(cum));
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace obs
}  // namespace bsg
