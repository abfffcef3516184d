// DetectionEngine: batched scores bit-identical to PredictLogits, on-demand
// cache-backed subgraph assembly (no precomputed store), warm-cache hit
// rate, the startup pool-Trim policy, single-target scoring, and scoring on
// the calling thread.
#include <cmath>
#include <filesystem>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "serve/engine.h"
#include "test_common.h"
#include "util/buffer_pool.h"

namespace bsg {
namespace {

using testing::SameBits;
using testing::SmallGraph;

Bsg4BotConfig EngineModelConfig() {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 8;
  cfg.subgraph.k = 10;
  cfg.hidden = 12;
  cfg.batch_size = 48;  // several chunks over the test split
  cfg.max_epochs = 3;
  cfg.min_epochs = 3;
  cfg.seed = 21;
  return cfg;
}

// One trained model per binary; every test builds its own engine on top.
Bsg4Bot& TrainedModel() {
  static Bsg4Bot* model = [] {
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), EngineModelConfig());
    m->Fit();
    return m;
  }();
  return *model;
}

TEST(DetectionEngine, BatchedScoresMatchPredictLogitsBitwise) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  ASSERT_GT(targets.size(), static_cast<size_t>(model.config().batch_size));
  Matrix oracle = model.PredictLogits(targets);

  DetectionEngine engine(&model, EngineConfig{});
  EXPECT_EQ(engine.batch_size(), model.config().batch_size);
  std::vector<Score> scores = engine.ScoreBatch(targets);
  ASSERT_EQ(scores.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(scores[i].target, targets[i]);
    // Same chunking, same stacking, dropout off -> the engine's on-demand
    // cache-assembled subgraphs must reproduce the stored-subgraph logits
    // exactly.
    EXPECT_EQ(scores[i].logit_human, oracle(static_cast<int>(i), 0)) << i;
    EXPECT_EQ(scores[i].logit_bot, oracle(static_cast<int>(i), 1)) << i;
    EXPECT_EQ(scores[i].label,
              scores[i].logit_bot > scores[i].logit_human ? 1 : 0);
    EXPECT_GE(scores[i].bot_prob, 0.0);
    EXPECT_LE(scores[i].bot_prob, 1.0);
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.targets_scored, targets.size());
  EXPECT_GT(stats.batches_run, 1u);
  EXPECT_EQ(stats.cache.lookups, targets.size());
  EXPECT_EQ(stats.cache.misses, targets.size());  // cold cache
}

TEST(DetectionEngine, WarmCacheServesRepeatTrafficFromMemory) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  EngineConfig cfg;
  cfg.cache_capacity = targets.size() + 8;
  DetectionEngine engine(&model, cfg);

  std::vector<Score> cold = engine.ScoreBatch(targets);
  std::vector<Score> warm = engine.ScoreBatch(targets);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].logit_bot, warm[i].logit_bot);
  }
  EngineStats stats = engine.Stats();
  // Pass 2 hits on every probe, so the overall rate is ~0.5 and the warm
  // pass alone is 1.0.
  EXPECT_EQ(stats.cache.hits, targets.size());
  EXPECT_GE(stats.cache.HitRate(), 0.45);
  EXPECT_EQ(stats.cache.entries, targets.size());

  // Repeat-heavy traffic (a hot account set): one score per requested
  // target, duplicates included, in request order.
  std::vector<int> repeats;
  for (int r = 0; r < 3; ++r) {
    repeats.insert(repeats.end(), targets.begin(), targets.begin() + 8);
  }
  std::vector<Score> dup = engine.ScoreBatch(repeats);
  ASSERT_EQ(dup.size(), repeats.size());
  for (size_t i = 0; i < repeats.size(); ++i) {
    EXPECT_EQ(dup[i].target, repeats[i]) << i;
  }
}

TEST(DetectionEngine, BoundedCacheEvictsButStaysCorrect) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  EngineConfig cfg;
  cfg.cache_capacity = 8;  // far below the working set
  DetectionEngine engine(&model, cfg);
  std::vector<Score> through_tiny_cache = engine.ScoreBatch(targets);

  Matrix oracle = model.PredictLogits(targets);
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(through_tiny_cache[i].logit_bot, oracle(static_cast<int>(i), 1));
  }
  EngineStats stats = engine.Stats();
  EXPECT_LE(stats.cache.entries, 8u);
  EXPECT_GT(stats.cache.evictions, 0u);
}

TEST(DetectionEngine, ScoreOneMatchesBatchOfOne) {
  Bsg4Bot& model = TrainedModel();
  const int target = SmallGraph().test_idx.front();
  DetectionEngine engine(&model, EngineConfig{});
  Score one;
  ASSERT_TRUE(engine.TryScoreOne(target, ScoreOptions::None(), &one).ok());
  std::vector<Score> batch = engine.ScoreBatch({target});
  ASSERT_EQ(batch.size(), 1u);
  // Identical batch composition (a single centre) -> identical logits; the
  // second call is also the cache's first hit.
  EXPECT_EQ(one.logit_human, batch[0].logit_human);
  EXPECT_EQ(one.logit_bot, batch[0].logit_bot);
  EXPECT_EQ(one.bot_prob, batch[0].bot_prob);
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.single_requests, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

// Threads of this process, or -1 where /proc/self/task does not exist.
long CountProcessThreads() {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) return -1;
  return std::distance(std::filesystem::directory_iterator(tasks),
                       std::filesystem::directory_iterator());
}

TEST(DetectionEngine, ScoringStartsNoThreads) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  ASSERT_GT(targets.size(),
            2 * static_cast<size_t>(model.config().batch_size));
  DetectionEngine engine(&model, EngineConfig{});
  // A warm one-chunk call first, so any lazily started process-wide
  // threads (the parallel pool) already exist before counting.
  engine.ScoreBatch({targets[0], targets[1]});
  const long before = CountProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this platform";

  // Several chunks: every one is assembled and scored on this thread.
  engine.ScoreBatch(targets);
  EXPECT_EQ(CountProcessThreads(), before);
}

TEST(DetectionEngine, StartupTrimReleasesColdSlabsAndIsCounted) {
  Bsg4Bot& model = TrainedModel();
  // Park some slabs so the startup trim has something to release.
  { Matrix scratch(256, 256, 1.0); }
  BufferPoolStats before = BufferPool::Global().Stats();
  ASSERT_GT(before.free_bytes, 0u);

  DetectionEngine engine(&model, EngineConfig{});
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.pool_trimmed_bytes, before.free_bytes);
  BufferPoolStats after = BufferPool::Global().Stats();
  EXPECT_EQ(after.free_bytes, 0u);
  EXPECT_EQ(after.trims, before.trims + 1);
  EXPECT_EQ(after.trimmed_bytes, before.trimmed_bytes + before.free_bytes);

  // Opting out leaves the pool alone.
  { Matrix scratch(128, 128, 1.0); }
  BufferPoolStats parked = BufferPool::Global().Stats();
  EngineConfig no_trim;
  no_trim.trim_pool_on_start = false;
  DetectionEngine engine2(&model, no_trim);
  EXPECT_EQ(engine2.Stats().pool_trimmed_bytes, 0u);
  EXPECT_EQ(BufferPool::Global().Stats().free_bytes, parked.free_bytes);
}

TEST(DetectionEngine, ServingForwardPassesRecycleThroughThePool) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  DetectionEngine engine(&model, EngineConfig{});
  engine.ScoreBatch(targets);  // cold: shapes enter the pool
  engine.ScoreBatch(targets);  // warm: slabs recycle
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.pool_acquires, 0u);
  // The zero-allocation hot path carries over to serving: warm forward
  // passes run almost entirely on pool hits.
  EXPECT_GE(stats.PoolHitRate(), 0.45);
}

}  // namespace
}  // namespace bsg
