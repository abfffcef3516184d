// The inference forward computes only what the logits read: Eq. 9 rows come
// from a per-model table and the last Eq. 10 layer runs on the centre rows
// only. Its logits must be bit-identical to the all-rows forward
// (reference_forward.h) across depths 1-3, Eq. 11 concat on and off,
// semantic attention on and off, and 1 and 4 threads; and the table must
// follow the parameters through Fit(), checkpoint restore and transfer.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "io/checkpoint.h"
#include "reference_forward.h"
#include "serve/engine.h"
#include "test_common.h"
#include "train/metrics.h"

namespace bsg {
namespace {

using testing::ReferenceForward;
using testing::SameBits;
using testing::SmallGraph;
using testing::ThreadGuard;

struct Arch {
  int gnn_layers;
  bool concat;
  bool semantic_attention;
};

Bsg4BotConfig ArchConfig(const Arch& arch, uint64_t seed) {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 8;
  cfg.subgraph.k = 8;
  cfg.hidden = 12;
  cfg.batch_size = 40;
  cfg.max_epochs = 2;
  cfg.min_epochs = 2;
  cfg.gnn_layers = arch.gnn_layers;
  cfg.use_intermediate_concat = arch.concat;
  cfg.use_semantic_attention = arch.semantic_attention;
  cfg.seed = seed;
  return cfg;
}

ReferenceForward OracleOf(const Bsg4Bot& model) {
  Checkpoint ckpt;
  model.ExportCheckpoint(&ckpt);
  return ReferenceForward(ckpt, model.graph());
}

// The first `n` test centres stacked the way the serving engine stacks
// them (BatchStacker: bwd aliases fwd).
SubgraphBatch StackedTestBatch(const Bsg4Bot& model, BatchStacker* stacker,
                               size_t n, std::vector<BiasedSubgraph>* keep) {
  const std::vector<int>& test = model.graph().test_idx;
  std::vector<int> centers(test.begin(),
                           test.begin() + std::min(n, test.size()));
  keep->clear();
  for (int c : centers) keep->push_back(model.AssembleSubgraph(c));
  std::vector<const BiasedSubgraph*> ptrs;
  for (const BiasedSubgraph& s : *keep) ptrs.push_back(&s);
  return stacker->Stack(ptrs, centers);
}

// ScoreBatch on an engine-stacked batch, PredictLogits over the test split
// and the f64 engine all match the oracle bit for bit.
void ExpectMatchesOracle(Bsg4Bot* model) {
  const ReferenceForward oracle = OracleOf(*model);
  const std::vector<int>& test = model->graph().test_idx;

  BatchStacker stacker(model->graph().num_relations());
  std::vector<BiasedSubgraph> keep;
  SubgraphBatch batch = StackedTestBatch(*model, &stacker, 40, &keep);
  EXPECT_TRUE(SameBits(model->ScoreBatch(batch), oracle.Logits(batch)));

  const Matrix expect = oracle.PredictLogits(model->subgraphs(), test);
  EXPECT_TRUE(SameBits(model->PredictLogits(test), expect));

  DetectionEngine engine(model, EngineConfig{});
  std::vector<Score> scores;
  ASSERT_TRUE(engine.TryScoreBatch(test, ScoreOptions::None(), &scores).ok());
  ASSERT_EQ(scores.size(), test.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_TRUE(SameBits(scores[i].logit_human,
                           expect(static_cast<int>(i), 0)))
        << "target " << test[i];
    EXPECT_TRUE(SameBits(scores[i].logit_bot,
                           expect(static_cast<int>(i), 1)))
        << "target " << test[i];
  }
}

class InferenceForwardSweep : public ::testing::TestWithParam<Arch> {};

TEST_P(InferenceForwardSweep, BitIdenticalToAllRowsForward) {
  ThreadGuard guard;
  Bsg4Bot model(SmallGraph(), ArchConfig(GetParam(), 7));
  TrainResult res = model.Fit();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetNumThreads(threads);
    ExpectMatchesOracle(&model);
  }

  // Validation ran the same forward on the table rebuilt each epoch: the
  // best epoch's parameters are the final ones, so its metrics replay.
  const ReferenceForward oracle = OracleOf(model);
  const std::vector<int>& val = SmallGraph().val_idx;
  std::vector<int> preds =
      ArgmaxRows(oracle.PredictLogits(model.subgraphs(), val));
  std::vector<int> labels, all;
  for (size_t i = 0; i < val.size(); ++i) {
    labels.push_back(SmallGraph().labels[val[i]]);
    all.push_back(static_cast<int>(i));
  }
  Confusion conf = ConfusionOn(preds, labels, all);
  EXPECT_EQ(res.val.accuracy, Accuracy(conf));
  EXPECT_EQ(res.val.f1, F1Score(conf));
}

std::vector<Arch> AllArchs() {
  std::vector<Arch> out;
  for (int layers : {1, 2, 3}) {
    for (bool concat : {true, false}) {
      for (bool sem : {true, false}) out.push_back(Arch{layers, concat, sem});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, InferenceForwardSweep, ::testing::ValuesIn(AllArchs()),
    [](const ::testing::TestParamInfo<Arch>& info) {
      return "L" + std::to_string(info.param.gnn_layers) +
             (info.param.concat ? "_concat" : "_last") +
             (info.param.semantic_attention ? "_attention" : "_meanpool");
    });

TEST(InferenceForward, RestoreIntoAScoredModelServesTheNewWeights) {
  const Arch arch{2, true, true};
  Bsg4Bot source(SmallGraph(), ArchConfig(arch, 11));
  source.Fit();
  Checkpoint ckpt;
  source.ExportCheckpoint(&ckpt);

  // A model with other weights that has already scored (its table is
  // built and in use), then takes the source's checkpoint.
  Bsg4Bot model(SmallGraph(), ArchConfig(arch, 12));
  model.Fit();
  const std::vector<int>& test = SmallGraph().test_idx;
  const Matrix before = model.PredictLogits(test);

  ASSERT_TRUE(model.RestoreFromCheckpoint(ckpt).ok());
  model.Prepare();
  const Matrix after = model.PredictLogits(test);
  EXPECT_FALSE(SameBits(before, after));
  const ReferenceForward oracle(ckpt, SmallGraph());
  EXPECT_TRUE(SameBits(after, oracle.PredictLogits(model.subgraphs(), test)));
  ExpectMatchesOracle(&model);
}

TEST(InferenceForward, TransferTargetScoresTheTransferredWeights) {
  const Arch arch{2, true, true};
  Bsg4Bot source(SmallGraph(), ArchConfig(arch, 13));
  source.Fit();
  Bsg4Bot target(SmallGraph(), ArchConfig(arch, 14));
  target.Prepare();
  const std::vector<int>& test = SmallGraph().test_idx;
  const Matrix before = target.PredictLogits(test);

  source.TransferEvaluate(&target, test);
  EXPECT_FALSE(SameBits(before, target.PredictLogits(test)));
  // The target's exported parameters are the source's; its logits must be
  // the oracle's for them over the target's own subgraphs.
  ExpectMatchesOracle(&target);
}

}  // namespace
}  // namespace bsg
