// Shared plumbing of the benchmark: run arguments, sizing, the world and
// model every workload starts from, timing statistics, the in-memory span
// log of traced runs, and the result report.
//
// Everything here lives on the benchmark's side of the layer boundaries:
// spans are recorded around calls into bsg's public functions, never inside
// them, and the program under test is built unmodified from ../src.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bsg4bot.h"
#include "graph/hetero_graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

/// Command-line arguments of one invocation.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;         ///< self-check size: every workload in seconds
  std::string out_dir = ".";  ///< checkpoints and span files go here
};

/// Sizes and thread counts. Full() is the measured configuration; Toy() is
/// the self-check, which runs the same code paths and output checks on a
/// world small enough to finish in seconds.
struct Scale {
  int accounts = 6000;
  int pretrain_epochs = 60;
  int train_epochs = 3;        ///< `train`: fixed epochs, early stopping off
  /// setup_s is the median of this many set-ups. A serving set-up trains
  /// for ~9 s, so serving runs set up twice: with a third, the 70 runs of a
  /// full two-set measurement (4 + 22 per workload) came within 13% of
  /// their 3,420 s budget on the reference VM.
  int train_setup_reps = 3;
  int serve_setup_reps = 2;
  /// Pool width and front-end workers, pinned for every workload and set-up
  /// (see "Steadiness" in bsg_bench.cc for the measurements behind 1 and 1).
  int pool_threads = 1;
  int workers = 1;
  int outstanding = 4;         ///< closed-loop requests in flight
  /// serve-single keeps more in flight: with 4, the ~0.3 ms requests drain
  /// the queue whenever the generator's wake-up is late, so throughput
  /// followed the generator; with 32, targets_per_s spread 0.03-0.06
  /// ((Q3 - Q1) / median over 5 seeds).
  int single_outstanding = 32;
  int hot_set = 1024;          ///< `serve-hot` working set (accounts)
  /// Traced serve-single open loop: offered rate, about 60% of the closed
  /// loop's capacity on the reference VM, and length.
  double open_rps = 2100.0;
  double open_seconds = 5.0;
  double warm_s = 1.0;         ///< untimed warm-up before each window
  int replay_hot = 64;         ///< traced replay sample sizes (requests)
  int replay_single = 256;
  int train_sample_centres = 256;  ///< traced `train`: per-centre sample

  static Scale Full() { return Scale{}; }
  static Scale Toy();
};

/// The model hyperparameters: the paper-scaled values the table benches
/// share (bench/bench_common.h BenchBsgConfig: k = 32, hidden 32, dropout
/// 0.25, pre-classifier 60 epochs x 32 hidden, batch 128), with early
/// stopping off (min epochs = max epochs = `epochs`).
bsg::Bsg4BotConfig ModelConfig(const Scale& scale, int epochs, uint64_t seed);

/// Initialisation seed of every trained model. Fixed, so test_f1 repeats
/// bit for bit and every run trains and serves the same model; --seed
/// draws the traffic.
constexpr uint64_t kModelSeed = 17;

/// Generation + featurization, timed per phase.
struct World {
  std::unique_ptr<bsg::HeteroGraph> graph;
  double generate_s = 0.0;
  double build_graph_s = 0.0;
};
/// The `twibot22-sim` preset as shipped (its own data seed, 14% bots, 2
/// relations, 40 tweets per account), cut to scale.accounts.
World MakeWorld(const Scale& scale);

// ------------------------------------------------------------- statistics

/// Nearest-rank quantile (q in [0, 1]) of a sample; 0 for an empty one.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);

/// Process max RSS in MiB (getrusage).
double PeakRssMb();

// ------------------------------------------------------------- host speed

/// Time in reference seconds: wall time scaled by how fast the CPU running
/// the program was at that moment. On the reference VM a vCPU's speed
/// switches between two levels about 1.7x apart in episodes of 0.5-3 s,
/// with no steal time and equally in thread CPU time (the host shares the
/// physical core), and the slow share differs from run to run: ten runs of
/// one build spread up to 0.38 ((Q3 - Q1) / median) in wall time. The
/// program is therefore pinned to one vCPU, and a sampler thread on that
/// vCPU times a fixed reference kernel every kSamplePeriodMs. An interval's
/// reference time is its wall time times the mean of
/// kReferenceProbeUs / probe time over the samples taken in it: what the
/// interval would have taken on a vCPU that runs the kernel in
/// kReferenceProbeUs. The kernel is the benchmark's own code, so a change
/// to the program moves reference time exactly as it moves wall time.
class SpeedProbe {
 public:
  /// The kernel's time on the reference VM in its usual state.
  static constexpr double kReferenceProbeUs = 185.0;
  static constexpr int kSamplePeriodMs = 10;
  /// A short interval borrows samples around it up to this many.
  static constexpr int kMinSamples = 5;

  /// Pins the calling thread, and every thread it starts from then on, to
  /// the CPU it runs on, and starts sampling that CPU.
  SpeedProbe();
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Moves the calling thread to the process's other CPUs: for the load
  /// generator, which is the benchmark's work, not the program's.
  void Unpin() const;

  double RefSeconds(Clock::time_point a, Clock::time_point b) const;
  double RefMs(Clock::time_point a, Clock::time_point b) const {
    return RefSeconds(a, b) * 1e3;
  }
  /// Median kernel time so far (the host's speed during the run).
  double MedianProbeUs() const;

 private:
  void Loop();

  int cpu_ = -1;
  std::vector<int> others_;  ///< the process's other CPUs
  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;  ///< start, us
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------------------ spans

/// One traced interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span (-1 for a root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = -1;
};

/// In-memory span log, written out once at exit. Not thread-safe: every
/// span is recorded from the benchmark's own generator/replay thread.
class SpanLog {
 public:
  /// Opens a span now and returns its index.
  int Begin(const std::string& name, int parent = -1, int64_t request = -1);
  void End(int id);
  /// Records a closed span with explicit bounds.
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent = -1, int64_t request = -1);

  double DurationUs(int id) const;
  /// Duration minus the part of it covered by the span's children.
  double SelfUs(int id) const;
  /// Durations (us) of every span with this name.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes one JSON object per line; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  int64_t Now() const;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog* log, const std::string& name, int parent = -1,
         int64_t request = -1)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~Scoped() { log_->End(id_); }

 private:
  SpanLog* log_;
  int id_;
};

// ----------------------------------------------------------------- report

/// A metric's name and unit. kEndToEnd and kPerLayer are the benchmark's
/// two metric sets, in the order BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// What a workload hands back: metric values by name, run metadata,
/// request accounting and the output-check verdict.
class Report {
 public:
  void Set(const std::string& name, double value);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  /// Records a failed output check (the run fails, and says why).
  void Fail(const std::string& why);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct() const { return failures_.empty(); }

  /// Human-readable lines (every measured metric with its unit, metadata,
  /// check failures), then the single JSON result line on stdout: the
  /// end-to-end set untraced, the per-layer set traced. An end-to-end
  /// metric the workload did not set fails the run; a per-layer metric of
  /// a layer the workload does not exercise reads 0.
  void Print(bool traced);

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> failures_;
};

/// Run metadata every result carries: git sha, hardware cores, pool
/// threads, workers, accounts, edges per relation, seed and mode.
void StampMeta(const Args& args, const Scale& scale, const bsg::HeteroGraph& g,
               int workers, Report* report);

// -------------------------------------------------------------- workloads

void RunTrain(const Args& args, const Scale& scale, Report* report);
/// `serve-hot` and `serve-single`.
void RunServe(const Args& args, const Scale& scale, Report* report);

}  // namespace perfbench
