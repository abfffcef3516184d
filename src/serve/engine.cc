#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/buffer_pool.h"
#include "util/fault.h"

namespace bsg {

namespace {

// Numerically-stable 2-way softmax for the bot probability.
double BotProbability(double logit_human, double logit_bot) {
  const double m = logit_human > logit_bot ? logit_human : logit_bot;
  const double eh = std::exp(logit_human - m);
  const double eb = std::exp(logit_bot - m);
  return eb / (eh + eb);
}

}  // namespace

/// Returns the scratch to the free list when the call unwinds.
class DetectionEngine::ScratchLease {
 public:
  explicit ScratchLease(DetectionEngine* engine)
      : engine_(engine), scratch_(engine->AcquireScratch()) {}
  ~ScratchLease() { engine_->ReleaseScratch(scratch_); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  CallScratch& operator*() const { return *scratch_; }

 private:
  DetectionEngine* const engine_;
  CallScratch* const scratch_;
};

DetectionEngine::DetectionEngine(Bsg4Bot* model, EngineConfig cfg)
    : cfg_(cfg),
      batch_size_(cfg.batch_size > 0 ? cfg.batch_size
                                     : model->config().batch_size),
      num_relations_(model->graph().num_relations()),
      cache_(cfg.cache_capacity, cfg.cache_byte_budget,
             cfg.cache_admit_cost_us) {
  BSG_CHECK(model != nullptr, "null model");
  BSG_CHECK(model->inference_ready(),
            "DetectionEngine needs an inference-ready model "
            "(Fit() or LoadCheckpoint() first)");
  BSG_CHECK(batch_size_ > 0, "non-positive engine batch size");
  forward_ms_hist_ =
      obs::MetricsRegistry::Global().GetHistogram(obs::metric::kForwardMs);
  assemble_ms_hist_ =
      obs::MetricsRegistry::Global().GetHistogram(obs::metric::kAssembleMs);
  if (cfg_.precision == EngineConfig::Precision::kF32) {
    // One narrowing pass over the parameters; every subsequent f32 forward
    // reads the shadow.
    model->EnsureF32Shadow();
  }
  records_.push_back(
      std::make_unique<const Served>(Served{model, cfg.graph_version}));
  served_.store(records_.back().get(), std::memory_order_release);
  if (cfg_.trim_pool_on_start) {
    // Train->inference phase boundary: the pool's parked slabs are sized
    // for training's peak working set (full-width batches, gradients,
    // optimiser state) — serving re-warms only what it needs.
    pool_trimmed_bytes_.store(BufferPool::Global().Trim(),
                              std::memory_order_relaxed);
  }
}

DetectionEngine::~DetectionEngine() = default;

DetectionEngine::CallScratch* DetectionEngine::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!free_scratch_.empty()) {
      CallScratch* cs = free_scratch_.back();
      free_scratch_.pop_back();
      return cs;
    }
  }
  // First call on this concurrency level: grow the pool. Constructed
  // outside the lock (BatchStacker construction allocates), registered
  // under it.
  auto fresh = std::make_unique<CallScratch>(
      num_relations_, cfg_.precision == EngineConfig::Precision::kF32);
  CallScratch* cs = fresh.get();
  std::lock_guard<std::mutex> lock(scratch_mu_);
  all_scratch_.push_back(std::move(fresh));
  return cs;
}

void DetectionEngine::ReleaseScratch(CallScratch* scratch) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  free_scratch_.push_back(scratch);
}

bool DetectionEngine::DeadlineExpired(const ScoreOptions& opts) {
  return opts.has_deadline &&
         std::chrono::steady_clock::now() >= opts.deadline;
}

std::vector<Score> DetectionEngine::ScoreBatch(
    const std::vector<int>& targets) {
  std::vector<Score> scores;
  const Status st = TryScoreBatch(targets, ScoreOptions::None(), &scores);
  if (!st.ok()) {
    std::fprintf(stderr, "DetectionEngine::ScoreBatch failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  return scores;
}

Status DetectionEngine::TryScoreOne(int target, const ScoreOptions& opts,
                                    Score* out) {
  single_requests_.fetch_add(1, std::memory_order_relaxed);
  return ScoreChunks(&target, 1, opts, out);
}

Status DetectionEngine::TryScoreBatch(const std::vector<int>& targets,
                                      const ScoreOptions& opts,
                                      std::vector<Score>* out) {
  batch_requests_.fetch_add(1, std::memory_order_relaxed);
  out->assign(targets.size(), Score{});
  if (targets.empty()) return Status::OK();
  return ScoreChunks(targets.data(), targets.size(), opts, out->data());
}

Status DetectionEngine::ScoreChunks(const int* targets, size_t count,
                                    const ScoreOptions& opts, Score* out) {
  ScratchLease lease(this);
  CallScratch& cs = *lease;
  // One load per request: every chunk scores with this model and probes
  // the cache under this version, whatever SwapModel does meanwhile.
  const Served& served = *served_.load(std::memory_order_acquire);
  cs.trace = opts.trace;

  const size_t width = static_cast<size_t>(batch_size_);
  const size_t num_chunks = (count + width - 1) / width;
  for (size_t c = 0; c < num_chunks; ++c) {
    if (DeadlineExpired(opts)) {
      // Between-chunk deadline enforcement: stop before the next chunk (a
      // chunk in progress finishes; its scores are discarded with the rest
      // of the request).
      deadline_failures_.fetch_add(1, std::memory_order_relaxed);
      return Status::DeadlineExceeded(
          num_chunks > 1
              ? "deadline expired after chunk " + std::to_string(c) + " of " +
                    std::to_string(num_chunks)
          : count == 1 ? "deadline expired before scoring target " +
                             std::to_string(targets[0])
                       : std::string("deadline expired before scoring"));
    }
    const size_t begin = c * width;
    cs.chunk.assign(targets + begin, targets + std::min(count, begin + width));
    SubgraphBatch batch;
    Status st = AssembleChunk(cs, served, static_cast<int>(c), &batch);
    if (st.ok()) {
      st = ScoreAssembled(cs, *served.model, batch, out + begin,
                          static_cast<int>(c));
      cs.stacker.Recycle(std::move(batch));
    }
    // The batch pointed into these subgraphs; it is scored, so let them go
    // (the cache may have evicted them meanwhile).
    cs.held.clear();
    if (!st.ok()) {
      score_failures_.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
  }
  targets_scored_.fetch_add(count, std::memory_order_relaxed);
  return Status::OK();
}

Status DetectionEngine::AssembleChunk(CallScratch& cs, const Served& served,
                                      int chunk_index, SubgraphBatch* batch) {
  const uint64_t asm_start = obs::TraceNowNs();
  uint64_t build_ns = 0;
  const SubgraphCache::Builder build =
      [&cs, &served, &build_ns](int target) -> Result<BiasedSubgraph> {
    // Serving trust boundary: a fired fault models PPR/top-k assembly
    // dying under a transient condition.
    if (BSG_FAULT(fault::kSubgraphBuild)) {
      return Status::Unavailable("injected fault: subgraph.build for centre " +
                                 std::to_string(target));
    }
    if (cs.trace == nullptr) return served.model->AssembleSubgraph(target);
    const uint64_t b0 = obs::TraceNowNs();
    Result<BiasedSubgraph> built = served.model->AssembleSubgraph(target);
    build_ns += obs::TraceNowNs() - b0;
    return built;
  };
  // Hold the shared_ptrs until the chunk is scored (ScoreChunks releases
  // them): the batch reads the subgraphs in place, and an eviction between
  // probe and forward must not free one.
  cs.held.clear();
  cs.subs.clear();
  for (int t : cs.chunk) {
    Result<std::shared_ptr<const BiasedSubgraph>> sub =
        cache_.GetOrBuild(t, served.version, build);
    if (!sub.ok()) {
      cs.held.clear();
      return sub.status();
    }
    cs.held.push_back(sub.MoveValueOrDie());
    cs.subs.push_back(cs.held.back().get());
  }
  if (cs.trace != nullptr) {
    // Probe time excludes build time (the builder above accumulates it),
    // keeping the two spans disjoint. A build coalesced onto another
    // caller's flight shows up as probe (wait) time, which is what this
    // request actually experienced.
    const uint64_t probe_end = obs::TraceNowNs();
    cs.trace->AddSpan(obs::TraceStage::kCacheProbe, asm_start,
                      probe_end - asm_start - build_ns, chunk_index);
    if (build_ns > 0) {
      cs.trace->AddSpan(obs::TraceStage::kBuild, asm_start, build_ns,
                        chunk_index);
    }
  }
  {
    obs::ScopedSpan stack_span(cs.trace, obs::TraceStage::kStack,
                               chunk_index);
    *batch = cs.stacker.Stack(cs.subs, cs.chunk);
  }
  assemble_ms_hist_->Observe(
      static_cast<double>(obs::TraceNowNs() - asm_start) * 1e-6);
  return Status::OK();
}

Status DetectionEngine::ScoreAssembled(CallScratch& cs, const Bsg4Bot& model,
                                       const SubgraphBatch& batch, Score* out,
                                       int chunk_index) {
  if (BSG_FAULT(fault::kEngineForward)) {
    return Status::Unavailable("injected fault: engine.forward");
  }
  const uint64_t fwd_start = obs::TraceNowNs();
  {
    // The arena measures the forward's pool traffic; its transient slabs
    // return to the pool when `logits` dies.
    TensorArena arena;
    Matrix logits = cfg_.precision == EngineConfig::Precision::kF32
                        ? model.ScoreBatchF32(batch)
                        : model.ScoreBatch(batch);
    for (size_t i = 0; i < batch.centers.size(); ++i) {
      Score& s = out[i];
      s.target = batch.centers[i];
      s.logit_human = logits(static_cast<int>(i), 0);
      s.logit_bot = logits(static_cast<int>(i), 1);
      s.bot_prob = BotProbability(s.logit_human, s.logit_bot);
      s.label = s.logit_bot > s.logit_human ? 1 : 0;
    }
    pool_acquires_.fetch_add(arena.acquires(), std::memory_order_relaxed);
    pool_hits_.fetch_add(arena.hits(), std::memory_order_relaxed);
  }
  // The forward span/histogram includes any wait for the parallel pool's
  // task slot — that contention is part of what this forward cost.
  const uint64_t fwd_ns = obs::TraceNowNs() - fwd_start;
  forward_ms_hist_->Observe(static_cast<double>(fwd_ns) * 1e-6);
  if (cs.trace != nullptr) {
    cs.trace->AddSpan(obs::TraceStage::kForward, fwd_start, fwd_ns,
                      chunk_index);
  }
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void DetectionEngine::SwapModel(Bsg4Bot* model, uint64_t graph_version) {
  BSG_CHECK(model != nullptr, "null model");
  BSG_CHECK(model->inference_ready(),
            "SwapModel needs an inference-ready model");
  BSG_CHECK(model->graph().num_relations() == num_relations_,
            "SwapModel across relation counts");
  BSG_CHECK(cfg_.batch_size > 0 ||
                model->config().batch_size == batch_size_,
            "SwapModel would change the engine batch width");
  std::lock_guard<std::mutex> lock(swap_mu_);
  BSG_CHECK(graph_version > records_.back()->version,
            "SwapModel graph version must increase");
  if (cfg_.precision == EngineConfig::Precision::kF32) {
    model->EnsureF32Shadow();
  }
  records_.push_back(
      std::make_unique<const Served>(Served{model, graph_version}));
  served_.store(records_.back().get(), std::memory_order_release);
  // Superseded-version subgraphs would only age out of the LRU; sweep them
  // now so the new version starts with the full capacity. The sweep also
  // sets the cache's version floor, so requests still scoring on the old
  // record cannot insert old-version entries after it.
  cache_.EvictWhereVersionBelow(graph_version);
  graph_swaps_.fetch_add(1, std::memory_order_relaxed);
}

EngineStats DetectionEngine::Stats() const {
  EngineStats s;
  s.single_requests = single_requests_.load(std::memory_order_relaxed);
  s.batch_requests = batch_requests_.load(std::memory_order_relaxed);
  s.targets_scored = targets_scored_.load(std::memory_order_relaxed);
  s.batches_run = batches_run_.load(std::memory_order_relaxed);
  s.deadline_failures = deadline_failures_.load(std::memory_order_relaxed);
  s.score_failures = score_failures_.load(std::memory_order_relaxed);
  s.graph_swaps = graph_swaps_.load(std::memory_order_relaxed);
  s.pool_trimmed_bytes = pool_trimmed_bytes_.load(std::memory_order_relaxed);
  s.pool_acquires = pool_acquires_.load(std::memory_order_relaxed);
  s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  s.cache = cache_.Stats();
  std::lock_guard<std::mutex> lock(scratch_mu_);
  for (const std::unique_ptr<CallScratch>& cs : all_scratch_) {
    BatchStackerStats st = cs->stacker.Stats();
    s.stacker.batches_stacked += st.batches_stacked;
    s.stacker.carcass_reuses += st.carcass_reuses;
    s.stacker.weights_f32_reuses += st.weights_f32_reuses;
  }
  return s;
}

}  // namespace bsg
