// Online inference serving: the batched bot-detection engine.
//
// A DetectionEngine wraps a trained (or checkpoint-restored) Bsg4Bot and
// answers "is account X a bot?" without the training loop's precomputed
// per-node subgraph store:
//
//   - per-target biased PPR subgraphs are assembled on demand through a
//     bounded LRU SubgraphCache keyed by (target, graph version), so hot
//     accounts skip PPR + top-k entirely;
//   - batched requests are coalesced into fixed-width mini-batches that
//     the calling thread assembles (cache probes plus any misses) and
//     scores one after another — the engine starts no threads;
//   - every forward pass runs under a TensorArena scope, so serving
//     inherits the zero-allocation hot path (warm requests run on pool
//     hits);
//   - engine startup calls BufferPool::Trim(): training's peak working set
//     is cold once the model is frozen, and the trimmed bytes are reported
//     in the engine stats (the train->inference phase policy);
//   - a batch is the list of its centres' cached subgraphs, read in place
//     by the forward's block-diagonal SpMM (no stacked copy), built by
//     pooled BatchStacker workspaces, the one batch builder training uses
//     too (MakeSubgraphBatch is its one-shot form), into recycled storage,
//     so warm serving performs ~0 heap allocations per batch to build it.
//     The chunk holds the subgraphs' shared_ptrs until it is scored, so an
//     eviction meanwhile frees nothing the forward reads;
//   - EngineConfig::precision selects the scoring arithmetic: kF64 (the
//     default and the accuracy oracle — logits bit-identical to
//     PredictLogits) or kF32, which scores through the model's one-time
//     converted float shadow (vectorized kernels, no autograd graph).
//     Subgraph assembly stays f64 in both modes, so cache entries are
//     shared and both precisions score identical subgraphs; f32 logits
//     agree with the oracle within the tolerance documented in README
//     "Mixed-precision serving" (pinned by tests/test_f32_parity).
//
// Determinism: with the engine batch width equal to the model's training
// batch_size, ScoreBatch over a centre list produces logits bit-identical
// to Bsg4Bot::PredictLogits over the same list (same chunking, same
// batches, dropout off) — regardless of how many other threads are
// scoring concurrently, because logits depend only on the request's own
// batch composition. Semantic attention is batch-global (Eq. 12 averages
// over the batch), so single-target scores legitimately differ from
// batched scores — both are "the model's answer", for different batch
// compositions.
//
// Thread-safety contract:
//
//   - TryScoreOne / TryScoreBatch / ScoreBatch / Stats / SwapModel are safe
//     to call from any number of threads at once. Each call leases a pooled
//     per-call scratch (chunk buffers, subgraph holds and a BatchStacker),
//     so assembly — the expensive PPR + top-k part — runs in parallel
//     across callers, coalesced through the cache's single-flight path.
//     A scratch is used by one call at a time; engine and stacker
//     counters are atomics, so Stats() is safe to poll mid-request.
//   - Forward passes run concurrently too: ScoreBatch and ScoreBatchF32
//     read an immutable InferenceTables snapshot and keep no state
//     (core/inference.h). Their parallel regions still take turns on the
//     util/parallel pool, whose single task slot serialises regions from
//     distinct threads.
//   - The served model and its graph version are published together, as
//     one immutable {model, version} record behind a single atomic
//     pointer. Each call loads it once, so a request scores every chunk
//     with one model and probes the cache under that model's version, even
//     while SwapModel lands mid-request. A request still in flight on the
//     old version after a swap cannot re-populate the cache either: the
//     swap's EvictWhereVersionBelow sets a version floor below which the
//     cache admits nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "core/bsg4bot.h"
#include "serve/subgraph_cache.h"

namespace bsg {

namespace obs {
struct RequestTrace;
class Histogram;
}  // namespace obs

/// Serving knobs.
struct EngineConfig {
  /// Scoring arithmetic of the serving forward pass. Nested in the config:
  /// the namespace-level name is taken by the metrics function
  /// bsg::Precision(), which would hide an enum of the same name.
  enum class Precision {
    kF64,  ///< double precision — the bit-identity oracle path
    kF32,  ///< float shadow — vectorized, tolerance-checked against kF64
  };
  /// Mini-batch width for coalesced scoring. 0 = the model's training
  /// batch_size (which makes batched scores bit-identical to
  /// PredictLogits).
  int batch_size = 0;
  /// Maximum cached subgraphs (LRU beyond this).
  size_t cache_capacity = 4096;
  /// Optional resident-byte cap on the subgraph cache (0 = count cap
  /// only). Per-entry bytes vary wildly with PPR neighborhood size, so
  /// byte budgets are the knob that actually bounds memory.
  size_t cache_byte_budget = 0;
  /// w_small admission threshold (us per KiB): under byte pressure, builds
  /// measured cheaper than this are served but not cached. 0 = admit all.
  double cache_admit_cost_us = 0.0;
  /// Version tag of the underlying graph at construction; SwapModel bumps
  /// it and purges stale cached subgraphs.
  uint64_t graph_version = 0;
  /// Release the training phase's parked pool slabs at engine startup.
  bool trim_pool_on_start = true;
  /// Scoring arithmetic. kF32 materialises the model's f32 shadow at engine
  /// construction (one narrowing pass) and scores through it.
  Precision precision = Precision::kF64;
};

/// Per-call scoring options (the deadline travels with the request).
struct ScoreOptions {
  /// When set, scoring re-checks the deadline before every mini-batch
  /// chunk and aborts with kDeadlineExceeded once it has passed. The
  /// granularity is one chunk: a forward pass in progress is finished, not
  /// interrupted.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// When non-null, the engine records pipeline spans (cache probe, build,
  /// stack, forward) into this sampled request trace. Null (the default)
  /// costs nothing: every instrumentation point guards on the pointer.
  obs::RequestTrace* trace = nullptr;

  static ScoreOptions None() { return ScoreOptions{}; }
  static ScoreOptions WithDeadline(std::chrono::steady_clock::time_point d) {
    ScoreOptions o;
    o.has_deadline = true;
    o.deadline = d;
    return o;
  }
};

/// One scored account.
struct Score {
  int target = -1;
  double logit_human = 0.0;
  double logit_bot = 0.0;
  double bot_prob = 0.0;  ///< softmax(logits)[bot]
  int label = 0;          ///< argmax: 0 human, 1 bot
};

/// Cumulative engine counters (a coherent snapshot of atomics).
struct EngineStats {
  uint64_t single_requests = 0;  ///< TryScoreOne calls, counted on entry
  uint64_t batch_requests = 0;   ///< TryScoreBatch calls, counted on entry
  uint64_t targets_scored = 0;   ///< accounts scored, both paths
  uint64_t batches_run = 0;      ///< forward passes executed
  /// TryScore* calls that returned non-OK, split by cause.
  uint64_t deadline_failures = 0;  ///< aborted on an expired deadline
  uint64_t score_failures = 0;     ///< failed for any other reason
  uint64_t graph_swaps = 0;      ///< SwapModel calls
  uint64_t pool_trimmed_bytes = 0;  ///< bytes released by the startup Trim
  /// Buffer-pool traffic during the engine's forward passes: deltas of the
  /// global pool's counters, so forwards that overlap (concurrent callers)
  /// each count the other's traffic too.
  uint64_t pool_acquires = 0;
  uint64_t pool_hits = 0;
  SubgraphCacheStats cache;  ///< snapshot of the subgraph cache
  /// Pooled batch-building traffic, summed over the per-call scratch pool.
  BatchStackerStats stacker;

  double PoolHitRate() const {
    return pool_acquires == 0 ? 0.0
                              : static_cast<double>(pool_hits) /
                                    static_cast<double>(pool_acquires);
  }
};

/// The serving engine. Construction is cheap; the model must be
/// inference-ready (Fit() in-process, or LoadCheckpoint into a fresh
/// model).
class DetectionEngine {
 public:
  /// `model` must outlive the engine and be inference-ready.
  DetectionEngine(Bsg4Bot* model, EngineConfig cfg);
  ~DetectionEngine();

  DetectionEngine(const DetectionEngine&) = delete;
  DetectionEngine& operator=(const DetectionEngine&) = delete;

  /// Aborting convenience for set-up and tests: TryScoreBatch with no
  /// options; on failure it aborts with the Status text, as
  /// Result::ValueOrDie does. Results align with `targets`. Thread-safe.
  std::vector<Score> ScoreBatch(const std::vector<int>& targets);

  /// Status-returning scoring: the serving front-end's entry points, where
  /// failures are routine (retried, degraded, or surfaced) rather than
  /// exceptional. On success `*out` aligns with the targets; on failure
  /// its contents are unspecified and must be discarded. A deadline in
  /// `opts` is checked before every chunk (kDeadlineExceeded); transient
  /// assembly/forward failures come back as their taxonomy code
  /// (kUnavailable is the retryable one). TryScoreOne scores a batch of
  /// one (the latency path). Both run on the calling thread. Thread-safe.
  Status TryScoreBatch(const std::vector<int>& targets,
                       const ScoreOptions& opts, std::vector<Score>* out);
  Status TryScoreOne(int target, const ScoreOptions& opts, Score* out);

  /// Hot-swaps the served model: subsequent requests score through
  /// `model` under `graph_version`, and every cached subgraph of an older
  /// version is purged immediately (SubgraphCache::EvictWhereVersionBelow,
  /// counted in cache.version_evictions). The new model must be
  /// inference-ready, share the architecture (relation count; training
  /// batch width when EngineConfig::batch_size == 0), and outlive the
  /// engine; `graph_version` must be strictly greater than the current
  /// one. Safe under concurrent scoring: requests that started before the
  /// flip finish on the old {model, version}; concurrent SwapModel calls
  /// serialise.
  void SwapModel(Bsg4Bot* model, uint64_t graph_version);

  int batch_size() const { return batch_size_; }
  /// Version currently being served (bumped by SwapModel).
  uint64_t graph_version() const {
    return served_.load(std::memory_order_acquire)->version;
  }
  EngineStats Stats() const;
  SubgraphCache& cache() { return cache_; }

 private:
  /// The served model and its graph version, published together. Records
  /// are immutable and live as long as the engine.
  struct Served {
    const Bsg4Bot* model;
    uint64_t version;
  };
  /// Everything one in-flight call mutates: chunk scratch, subgraph holds
  /// and a pooled stacker.
  struct CallScratch {
    CallScratch(int num_relations, bool with_f32_weights)
        : stacker(num_relations, with_f32_weights) {}
    std::vector<int> chunk;
    std::vector<std::shared_ptr<const BiasedSubgraph>> held;
    std::vector<const BiasedSubgraph*> subs;
    BatchStacker stacker;
    obs::RequestTrace* trace = nullptr;  ///< the request's (null = untraced)
  };
  /// RAII lease of a CallScratch from the free list.
  class ScratchLease;

  CallScratch* AcquireScratch();
  void ReleaseScratch(CallScratch* scratch);
  /// The one scoring loop behind both TryScore* calls: leases a scratch,
  /// then per batch_size chunk checks the deadline, assembles, scores into
  /// `out` and recycles the batch. Counts failures and scored targets.
  Status ScoreChunks(const int* targets, size_t count,
                     const ScoreOptions& opts, Score* out);
  /// Assembles `cs.chunk` through the cache, under `served`'s version,
  /// into `*batch`, or returns the first failed build's Status. The chunk's
  /// subgraphs stay held in `cs.held` until ScoreChunks has scored it.
  Status AssembleChunk(CallScratch& cs, const Served& served, int chunk_index,
                       SubgraphBatch* batch);
  /// Forward pass + logit unpacking for one assembled batch. Returns non-OK
  /// (without touching `out`) when the engine.forward fault site fires.
  /// `chunk_index` labels the trace span and is not otherwise used.
  Status ScoreAssembled(CallScratch& cs, const Bsg4Bot& model,
                        const SubgraphBatch& batch, Score* out,
                        int chunk_index);
  /// True when opts carries a deadline that has passed.
  static bool DeadlineExpired(const ScoreOptions& opts);

  const EngineConfig cfg_;
  const int batch_size_;
  const int num_relations_;
  SubgraphCache cache_;

  /// The current record; each call loads it once.
  std::atomic<const Served*> served_;
  /// Serialises SwapModel calls and owns every record ever published, so a
  /// request holding an old record never reads freed memory.
  std::mutex swap_mu_;
  std::vector<std::unique_ptr<const Served>> records_;

  // Registry-interned latency histograms (stable pointers, process-wide —
  // see obs/metrics.h). Shared across engine instances by name, which is
  // exactly the registry contract: one serving process, one distribution.
  obs::Histogram* forward_ms_hist_ = nullptr;
  obs::Histogram* assemble_ms_hist_ = nullptr;

  std::atomic<uint64_t> single_requests_{0};
  std::atomic<uint64_t> batch_requests_{0};
  std::atomic<uint64_t> targets_scored_{0};
  std::atomic<uint64_t> batches_run_{0};
  std::atomic<uint64_t> deadline_failures_{0};
  std::atomic<uint64_t> score_failures_{0};
  std::atomic<uint64_t> graph_swaps_{0};
  std::atomic<uint64_t> pool_trimmed_bytes_{0};
  std::atomic<uint64_t> pool_acquires_{0};
  std::atomic<uint64_t> pool_hits_{0};

  // all_scratch_ owns every scratch ever created (stable addresses;
  // Stats() aggregates stacker counters across it), free_scratch_ holds
  // the ones not currently leased.
  mutable std::mutex scratch_mu_;
  std::vector<std::unique_ptr<CallScratch>> all_scratch_;
  std::vector<CallScratch*> free_scratch_;
};

}  // namespace bsg
