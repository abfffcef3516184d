// Mixed-precision serving parity: the f32 engine path against the f64
// oracle. Per-logit agreement within the documented tolerance and identical
// argmax over the bench corpus (the test split), on both the 2-relation and
// the 7-relation (semantic-attention) model; shadow refresh semantics across
// checkpoint restore, Fit() and transfer; and f32 single-target scoring.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "io/checkpoint.h"
#include "serve/engine.h"
#include "test_common.h"

namespace bsg {
namespace {

using testing::MultiRelationGraph;
using testing::SmallGraph;

// The documented parity bound (README "Mixed-precision serving"): per logit,
// |f32 - f64| <= kTol * (1 + |f64|).
constexpr double kTol = 5e-3;

Bsg4BotConfig ParityModelConfig(uint64_t seed) {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 8;
  cfg.subgraph.k = 10;
  cfg.hidden = 12;
  cfg.batch_size = 48;
  cfg.max_epochs = 3;
  cfg.min_epochs = 3;
  cfg.seed = seed;
  return cfg;
}

Bsg4Bot& SmallTrainedModel() {
  static Bsg4Bot* model = [] {
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), ParityModelConfig(21));
    m->Fit();
    return m;
  }();
  return *model;
}

Bsg4Bot& MultiRelationTrainedModel() {
  static Bsg4Bot* model = [] {
    Bsg4Bot* m = new Bsg4Bot(MultiRelationGraph(), ParityModelConfig(33));
    m->Fit();
    return m;
  }();
  return *model;
}

EngineConfig PrecisionConfig(EngineConfig::Precision p) {
  EngineConfig cfg;
  cfg.precision = p;
  return cfg;
}

// Scores `targets` through both engines and checks the parity contract:
// every logit within kTol relative error, every argmax identical.
void ExpectParity(DetectionEngine* f64, DetectionEngine* f32,
                  const std::vector<int>& targets) {
  std::vector<Score> oracle = f64->ScoreBatch(targets);
  std::vector<Score> fast = f32->ScoreBatch(targets);
  ASSERT_EQ(oracle.size(), fast.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(fast[i].target, oracle[i].target);
    EXPECT_LE(std::abs(fast[i].logit_human - oracle[i].logit_human),
              kTol * (1.0 + std::abs(oracle[i].logit_human)))
        << "target " << targets[i];
    EXPECT_LE(std::abs(fast[i].logit_bot - oracle[i].logit_bot),
              kTol * (1.0 + std::abs(oracle[i].logit_bot)))
        << "target " << targets[i];
    // The acceptance bar: no argmax flip anywhere on the corpus.
    EXPECT_EQ(fast[i].label, oracle[i].label) << "target " << targets[i];
    EXPECT_GE(fast[i].bot_prob, 0.0);
    EXPECT_LE(fast[i].bot_prob, 1.0);
  }
}

// ExpectParity through fresh engines of both precisions over `model`.
void ExpectEngineParity(Bsg4Bot* model, const std::vector<int>& targets) {
  DetectionEngine f64(model, PrecisionConfig(EngineConfig::Precision::kF64));
  DetectionEngine f32(model, PrecisionConfig(EngineConfig::Precision::kF32));
  ExpectParity(&f64, &f32, targets);
}

TEST(F32Parity, EngineLogitsAgreeOnTwoRelationCorpus) {
  ExpectEngineParity(&SmallTrainedModel(), SmallGraph().test_idx);
}

TEST(F32Parity, EngineLogitsAgreeOnSevenRelationSemanticAttentionCorpus) {
  // 7 relations exercise the f32 semantic-attention softmax (Eq. 12-14)
  // across a wide relation fan-in.
  ExpectEngineParity(&MultiRelationTrainedModel(),
                     MultiRelationGraph().test_idx);
}

TEST(F32Parity, SingleTargetScoringAgrees) {
  Bsg4Bot& model = SmallTrainedModel();
  DetectionEngine f64(&model, PrecisionConfig(EngineConfig::Precision::kF64));
  DetectionEngine f32(&model, PrecisionConfig(EngineConfig::Precision::kF32));
  for (int i = 0; i < 8; ++i) {
    const int target = SmallGraph().test_idx[static_cast<size_t>(i)];
    Score a;
    Score b;
    ASSERT_TRUE(f64.TryScoreOne(target, ScoreOptions::None(), &a).ok());
    ASSERT_TRUE(f32.TryScoreOne(target, ScoreOptions::None(), &b).ok());
    EXPECT_LE(std::abs(b.logit_human - a.logit_human),
              kTol * (1.0 + std::abs(a.logit_human)));
    EXPECT_LE(std::abs(b.logit_bot - a.logit_bot),
              kTol * (1.0 + std::abs(a.logit_bot)));
    EXPECT_EQ(b.label, a.label);
  }
}

TEST(F32Parity, F32EngineDoesNotPerturbTheF64Path) {
  // Scoring through the shadow must leave the f64 answer bit-identical:
  // the shadow is read-only state on the side, not a rewrite of the model.
  Bsg4Bot& model = SmallTrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  Matrix before = model.PredictLogits(targets);
  DetectionEngine f32(&model, PrecisionConfig(EngineConfig::Precision::kF32));
  f32.ScoreBatch(targets);
  Matrix after = model.PredictLogits(targets);
  EXPECT_TRUE(testing::SameBits(before, after));
}

TEST(F32Parity, CheckpointRestoreRefreshesAnExistingShadow) {
  Bsg4Bot& trained = SmallTrainedModel();
  Checkpoint ckpt;
  trained.ExportCheckpoint(&ckpt);

  // Fresh model, same architecture, different init. Materialise its shadow
  // from the *untrained* weights first, then restore: the restore must
  // refresh the shadow in place, or the engine would keep serving the stale
  // (untrained) f32 weights after a checkpoint reload.
  Bsg4BotConfig cfg = ParityModelConfig(99);
  Bsg4Bot restored(SmallGraph(), cfg);
  ASSERT_TRUE(restored.RestoreFromCheckpoint(ckpt).ok());
  restored.EnsureF32Shadow();
  ASSERT_TRUE(restored.has_f32_shadow());
  ASSERT_TRUE(restored.RestoreFromCheckpoint(ckpt).ok());  // refresh path

  DetectionEngine from_trained(&trained,
                               PrecisionConfig(EngineConfig::Precision::kF32));
  DetectionEngine from_restored(
      &restored, PrecisionConfig(EngineConfig::Precision::kF32));
  const std::vector<int>& targets = SmallGraph().test_idx;
  std::vector<Score> a = from_trained.ScoreBatch(targets);
  std::vector<Score> b = from_restored.ScoreBatch(targets);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Identical weights, identical subgraphs, identical f32 kernels: the
    // restored shadow's logits match the in-process shadow's exactly.
    EXPECT_EQ(b[i].logit_human, a[i].logit_human) << i;
    EXPECT_EQ(b[i].logit_bot, a[i].logit_bot) << i;
  }
}

TEST(F32Parity, FitRefreshesAShadowMaterialisedBeforeIt) {
  // A shadow built from the initial weights must not survive training:
  // Fit() refreshes it once the best-epoch parameters are final.
  Bsg4Bot model(SmallGraph(), ParityModelConfig(21));
  model.Prepare();
  model.EnsureF32Shadow();
  model.Fit();
  ExpectEngineParity(&model, SmallGraph().test_idx);
}

TEST(F32Parity, TransferRefreshesTheTargetsShadow) {
  // An f32 engine over the transfer target holds the target's shadow;
  // after TransferEvaluate it must score the transferred weights.
  Bsg4Bot target(SmallGraph(), ParityModelConfig(77));
  target.Prepare();
  DetectionEngine f32(&target, PrecisionConfig(EngineConfig::Precision::kF32));
  SmallTrainedModel().TransferEvaluate(&target, SmallGraph().test_idx);
  ASSERT_TRUE(target.has_f32_shadow());
  DetectionEngine f64(&target, PrecisionConfig(EngineConfig::Precision::kF64));
  ExpectParity(&f64, &f32, SmallGraph().test_idx);
}

TEST(F32Parity, ShadowIsLazyAndIdempotent) {
  Bsg4Bot model(SmallGraph(), ParityModelConfig(55));
  model.Fit();
  EXPECT_FALSE(model.has_f32_shadow());
  model.EnsureF32Shadow();
  EXPECT_TRUE(model.has_f32_shadow());
  model.EnsureF32Shadow();  // no-op, still valid
  EXPECT_TRUE(model.has_f32_shadow());
}

}  // namespace
}  // namespace bsg
