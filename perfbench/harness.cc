#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "datagen/config.h"
#include "datagen/generator.h"
#include "features/feature_pipeline.h"
#include "util/parallel.h"

namespace perfbench {

Scale Scale::Toy() {
  Scale s;
  s.accounts = 1200;
  s.train_epochs = 2;
  s.train_setup_reps = 2;
  s.hot_set = 256;
  s.open_rps = 300.0;
  s.warm_s = 0.2;
  s.replay_hot = 8;
  s.replay_single = 32;
  s.open_seconds = 0.5;
  s.train_sample_centres = 32;
  return s;
}

bsg::Bsg4BotConfig ModelConfig(const Scale& scale, int epochs, uint64_t seed) {
  bsg::Bsg4BotConfig cfg;
  cfg.pretrain.epochs = scale.pretrain_epochs;
  cfg.pretrain.hidden = 32;
  cfg.subgraph.k = 32;
  cfg.hidden = 32;
  cfg.dropout = 0.25;
  cfg.batch_size = 128;
  cfg.max_epochs = epochs;
  cfg.min_epochs = epochs;
  cfg.seed = seed;
  return cfg;
}

World MakeWorld(const Scale& scale) {
  bsg::DatasetConfig dc = bsg::Twibot22Sim();
  dc.num_users = scale.accounts;
  World w;
  auto t0 = Clock::now();
  bsg::RawDataset raw = bsg::SocialNetworkGenerator(dc).Generate();
  auto t1 = Clock::now();
  w.graph = std::make_unique<bsg::HeteroGraph>(
      bsg::BuildGraph(raw, bsg::FeaturePipelineConfig{}));
  auto t2 = Clock::now();
  w.generate_s = SecondsBetween(t0, t1);
  w.build_graph_s = SecondsBetween(t1, t2);
  return w;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- host speed

namespace {

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// The reference kernel: a 32 x 32 f64 matrix product (the shape of the
// model's hidden-32 layers) for about three quarters of its time, then
// independent random loads from an L2-sized table (the shape of feature
// gathers and PPR pushes). On the reference VM, with the host's speed
// moving windows of 40 train-width scoring batches by 0.31 ((Q3 - Q1) /
// median) and of 20 subgraph builds by 0.25, this mix divided the moves to
// 0.05 and 0.03 (DRAM-bound loads tracked neither).
class ReferenceKernel {
 public:
  ReferenceKernel()
      : a_(kN * kN, 1.001), b_(kN * kN, 0.999), c_(kN * kN, 0.0),
        table_(kTable, 1.0) {}

  // Runs the kernel once; returns its wall time in us.
  double Run() {
    const auto t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (int i = 0; i < kN; ++i) {
        for (int k = 0; k < kN; ++k) {
          const double a = a_[i * kN + k];
          for (int j = 0; j < kN; ++j) c_[i * kN + j] += a * b_[k * kN + j];
        }
      }
    }
    double sum = 0.0;
    for (int i = 0; i < kLoads; ++i) {
      lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += table_[(lcg_ >> 33) % kTable];
    }
    sink_ += sum + c_[lcg_ % (kN * kN)];
    return SecondsBetween(t0, Clock::now()) * 1e6;
  }
  double sink() const { return sink_; }

 private:
  static constexpr int kN = 32;
  static constexpr int kReps = 14;
  static constexpr int kLoads = 4000;
  static constexpr size_t kTable = size_t{1} << 16;  // 512 KiB
  std::vector<double> a_, b_, c_, table_;
  uint64_t lcg_ = 1;
  double sink_ = 0.0;
};

// A sample slower than this many times the reference was preempted, not
// slowed: it counts as this slow.
constexpr double kMaxSlowdown = 3.0;

volatile double g_sink = 0.0;

}  // namespace

SpeedProbe::SpeedProbe() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  cpu_ = sched_getcpu();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (cpu_ < 0 || !CPU_ISSET(cpu_, &allowed)) cpu_ = c;
    if (c != cpu_) others_.push_back(c);
  }
  PinTo({cpu_});
  thread_ = std::thread([this] { Loop(); });  // inherits the pin
}

SpeedProbe::~SpeedProbe() {
  stop_.store(true);
  thread_.join();
}

void SpeedProbe::Loop() {
  ReferenceKernel kernel;
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kSamplePeriodMs));
    const auto t = Clock::now();
    const double us = kernel.Run();
    std::lock_guard<std::mutex> lock(mu_);
    samples_.emplace_back(t, us);
  }
  g_sink = kernel.sink();  // keeps the kernel's work observable
}

void SpeedProbe::Unpin() const {
  if (!others_.empty()) PinTo(others_);
}

double SpeedProbe::RefSeconds(Clock::time_point a, Clock::time_point b) const {
  const double wall = SecondsBetween(a, b);
  std::lock_guard<std::mutex> lock(mu_);
  auto before = [](const std::pair<Clock::time_point, double>& s,
                   Clock::time_point t) { return s.first < t; };
  size_t lo = static_cast<size_t>(
      std::lower_bound(samples_.begin(), samples_.end(), a, before) -
      samples_.begin());
  size_t hi = static_cast<size_t>(
      std::lower_bound(samples_.begin(), samples_.end(), b, before) -
      samples_.begin());
  const size_t want = std::min<size_t>(kMinSamples, samples_.size());
  while (hi - lo < want) {
    if (lo > 0) --lo;
    if (hi - lo < want && hi < samples_.size()) ++hi;
  }
  if (hi == lo) return wall;
  double speed = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    speed += kReferenceProbeUs /
             std::min(samples_[i].second, kMaxSlowdown * kReferenceProbeUs);
  }
  return wall * speed / static_cast<double>(hi - lo);
}

double SpeedProbe::MedianProbeUs() const {
  std::vector<double> us;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : samples_) us.push_back(s.second);
  }
  return Median(std::move(us));
}

// ------------------------------------------------------------------ spans

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::Begin(const std::string& name, int parent, int64_t request) {
  Span s;
  s.name = name;
  s.start_ns = Now();
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  children_.emplace_back();
  const int id = static_cast<int>(spans_.size()) - 1;
  if (parent >= 0) children_[parent].push_back(id);
  return id;
}

void SpanLog::End(int id) { spans_[id].end_ns = Now(); }

int SpanLog::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent, int64_t request) {
  const int id = Begin(name, parent, request);
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  spans_[id].start_ns = ns(start);
  spans_[id].end_ns = ns(end);
  return id;
}

double SpanLog::DurationUs(int id) const {
  return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-3;
}

double SpanLog::SelfUs(int id) const {
  // Union of the children's intervals, clipped to the parent.
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (int c : children_[id]) {
    iv.emplace_back(std::max(spans_[c].start_ns, spans_[id].start_ns),
                    std::min(spans_[c].end_ns, spans_[id].end_ns));
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0, cur_lo = 0, cur_hi = -1;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return DurationUs(id) - static_cast<double>(covered) * 1e-3;
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(DurationUs(static_cast<int>(i)));
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%lld}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------------- report

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"prepare_s", "s"},        {"epoch_s", "s"},
    {"test_f1", "ratio"},      {"targets_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p95_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"datagen.generate_s", "s"},
    {"features.build_graph_s", "s"},
    {"pretrain.fit_s", "s"},
    {"subgraph.build_all_s", "s"},
    {"ppr.calls", "count"},
    {"ppr.push_us", "us"},
    {"ppr.support", "count"},
    {"subgraph.build_us", "us"},
    {"subgraph.select_self_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.probe_us", "us"},
    {"cache.coalesced_misses", "count"},
    {"cache.evictions", "count"},
    {"stack.batch_us", "us"},
    {"stack.carcass_reuse_ratio", "ratio"},
    {"stack.f32_weight_reuses", "count"},
    {"forward.f64_batch_ms", "ms"},
    {"forward.f32_one_ms", "ms"},
    {"forward.f32_batch_ms", "ms"},
    {"train.forward_share", "ratio"},
    {"train.pool_hit_rate", "ratio"},
    {"engine.service_ms", "ms"},
    {"engine.parallel_speedup", "ratio"},
    {"frontend.submit_us", "us"},
    {"frontend.queue_depth_peak", "count"},
    {"frontend.shed", "count"},
    {"frontend.queue_wait_ms", "ms"},
    {"pool.hit_ratio", "ratio"},
    {"governor.peak_bytes", "bytes"},
    {"ckpt.save_s", "s"},
    {"ckpt.load_s", "s"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.offered_rps", "1/s"},
    {"loadgen.achieved_rps", "1/s"},
    {"open.latency_p50_ms", "ms"},
    {"open.latency_p99_ms", "ms"},
    {"open.failed", "count"},
    {"latency.samples", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.replayed_requests", "count"},
    {"host.probe_us", "us"},
};

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, "\"" + value + "\"");
}

void Report::Meta(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  meta_.emplace_back(key, buf);
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

void Report::Print(bool traced) {
  const std::vector<MetricSpec>& emitted = traced ? kPerLayer : kEndToEnd;
  if (!traced) {
    for (const MetricSpec& m : kEndToEnd) {
      if (values_.count(m.name) == 0) {
        Fail(std::string("end-to-end metric not measured: ") + m.name);
      }
    }
  }
  for (const auto* set : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& m : *set) {
      auto it = values_.find(m.name);
      if (it == values_.end()) continue;
      std::printf("%-28s %.6g %s\n", m.name, it->second, m.unit);
    }
  }
  std::string meta = "{";
  for (size_t i = 0; i < meta_.size(); ++i) {
    meta += (i ? ", \"" : "\"") + meta_[i].first + "\": " + meta_[i].second;
  }
  std::printf("meta %s}\n", meta.c_str());
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < emitted.size(); ++i) {
    auto it = values_.find(emitted[i].name);
    const double v = it == values_.end() ? 0.0 : it->second;
    // JSON has no NaN/Inf; a non-finite value is a bug, reported as null.
    char num[64];
    if (std::isfinite(v)) {
      std::snprintf(num, sizeof(num), "%.17g", v);
    } else {
      std::snprintf(num, sizeof(num), "null");
    }
    out += std::string(i ? ", \"" : "\"") + emitted[i].name +
           "\": {\"value\": " + num + ", \"unit\": \"" + emitted[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void StampMeta(const Args& args, const Scale& scale, const bsg::HeteroGraph& g,
               int workers, Report* report) {
  const char* sha = std::getenv("BSG_BENCH_GIT_SHA");
  report->Meta("git_sha", sha != nullptr && *sha ? sha : "unknown");
  report->Meta("hardware_cores",
               static_cast<double>(std::thread::hardware_concurrency()));
  report->Meta("pool_threads", scale.pool_threads);
  report->Meta("workers", workers);
  report->Meta("accounts", scale.accounts);
  for (int r = 0; r < g.num_relations(); ++r) {
    report->Meta("edges." + g.relation_names[r],
                 static_cast<double>(g.relations[r].num_edges()));
  }
  report->Meta("workload", args.workload);
  report->Meta("seed", static_cast<double>(args.seed));
  report->Meta("mode", args.trace ? "traced" : "untraced");
  report->Meta("size", args.toy ? "toy" : "full");
}

}  // namespace perfbench
