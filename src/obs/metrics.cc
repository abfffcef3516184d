#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace bsg {
namespace obs {

namespace detail {

namespace {
std::atomic<size_t> g_next_shard{0};
}  // namespace

size_t ThreadShardIndex() {
  thread_local size_t idx =
      g_next_shard.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram() {
  // Generate bounds from integer decade steps so repeated construction is
  // bit-reproducible: bound_i = min * 10^(i / per_decade).
  const double log_min = std::log10(kMinBound);
  for (int i = 0;; ++i) {
    double b = std::pow(
        10.0, log_min + static_cast<double>(i) / kBucketsPerDecade);
    if (b >= kMaxBound * (1.0 - 1e-12)) {
      bounds_.push_back(kMaxBound);
      break;
    }
    bounds_.push_back(b);
  }

  for (size_t s = 0; s < kShards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->counts = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
    shards_.push_back(std::move(shard));
  }
}

size_t Histogram::BucketIndex(double value) const {
  // First bucket whose upper bound is >= value; bucket i covers
  // (bounds[i-1], bounds[i]]. NaN and negatives clamp to the first bucket.
  if (!(value > bounds_.front())) return 0;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<size_t>(it - bounds_.begin());  // == size() -> overflow
}

void Histogram::Observe(double value) {
  Shard& shard = *shards_[detail::ThreadShardIndex() % kShards];
  shard.counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  double v = value;
  if (!(v > 0.0)) v = 0.0;  // NaN / negative contribute 0 to the sum
  shard.sum_fp.fetch_add(static_cast<uint64_t>(std::llround(v * kSumScale)),
                         std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += shard->counts[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& c : shard->counts) {
      total += c.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  uint64_t fp = 0;
  for (const auto& shard : shards_) {
    fp += shard->sum_fp.load(std::memory_order_relaxed);
  }
  return static_cast<double>(fp) / kSumScale;
}

std::pair<double, double> Histogram::QuantileBounds(double q) const {
  std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return {0.0, 0.0};

  double qq = std::min(std::max(q, 0.0), 1.0);
  // Nearest-rank: the k-th smallest observation, k = ceil(q * total) >= 1.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(qq * static_cast<double>(total)));
  if (rank == 0) rank = 1;

  uint64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= rank) {
      double lower = i == 0 ? 0.0 : bounds_[i - 1];
      double upper = i < bounds_.size() ? bounds_[i] : bounds_.back();
      return {lower, upper};
    }
  }
  return {bounds_.back(), bounds_.back()};  // unreachable
}

double Histogram::Quantile(double q) const { return QuantileBounds(q).second; }

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never dies
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

uint64_t MetricsRegistry::RegisterGauge(const std::string& name,
                                        std::function<double()> fn) {
  return RegisterProvider(
      [name, fn = std::move(fn)](std::vector<GaugeSample>* out) {
        out->push_back({name, fn()});
      });
}

uint64_t MetricsRegistry::RegisterProvider(
    std::function<void(std::vector<GaugeSample>*)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  providers_.push_back(Provider{id, std::move(fn)});
  return id;
}

void MetricsRegistry::Unregister(uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = providers_.begin(); it != providers_.end(); ++it) {
    if (it->id == id) {
      providers_.erase(it);
      return;
    }
  }
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);

  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }

  for (const Provider& p : providers_) {
    p.fn(&snap.gauges);
  }
  // Sort by name; stable, so within a duplicate-name group the
  // last-registered provider's sample comes last — keep that one.
  std::stable_sort(snap.gauges.begin(), snap.gauges.end(),
                   [](const GaugeSample& a, const GaugeSample& b) {
                     return a.name < b.name;
                   });
  std::vector<GaugeSample> deduped;
  deduped.reserve(snap.gauges.size());
  for (GaugeSample& g : snap.gauges) {
    if (!deduped.empty() && deduped.back().name == g.name) {
      deduped.back() = std::move(g);
    } else {
      deduped.push_back(std::move(g));
    }
  }
  snap.gauges = std::move(deduped);

  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = hist->bucket_bounds();
    hs.buckets = hist->BucketCounts();
    for (uint64_t c : hs.buckets) hs.count += c;
    hs.sum = hist->Sum();
    hs.p50 = hist->Quantile(0.50);
    hs.p95 = hist->Quantile(0.95);
    hs.p99 = hist->Quantile(0.99);
    snap.histograms.emplace_back(name, std::move(hs));
  }
  return snap;
}

size_t MetricsRegistry::counter_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size();
}

size_t MetricsRegistry::histogram_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.size();
}

size_t MetricsRegistry::provider_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return providers_.size();
}

// ---------------------------------------------------------------------------
// RegistrySnapshot helpers

double RegistrySnapshot::Gauge(const std::string& name,
                               double fallback) const {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return g.value;
  }
  return fallback;
}

bool RegistrySnapshot::HasGauge(const std::string& name) const {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return true;
  }
  return false;
}

const HistogramSnapshot* RegistrySnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// GaugeRegistration

void GaugeRegistration::Release() {
  if (id_ != 0) {
    MetricsRegistry::Global().Unregister(id_);
    id_ = 0;
  }
}

}  // namespace obs
}  // namespace bsg
