// Every baseline model: shape correctness, trainability (loss decreases,
// beats chance on a learnable benchmark), and model-specific behaviours.
#include <chrono>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "models/gprgnn.h"
#include "models/mlp.h"
#include "models/model_factory.h"
#include "tensor/ops.h"
#include "test_common.h"
#include "train/trainer.h"

namespace bsg {
namespace {

using bsg::testing::MultiRelationGraph;
using bsg::testing::SmallGraph;

ModelConfig FastConfig() {
  ModelConfig mc;
  mc.hidden = 16;
  mc.cluster_parts = 6;
  mc.clusters_per_batch = 2;
  return mc;
}

TrainConfig FastTrain() {
  TrainConfig tc;
  tc.max_epochs = 50;
  tc.patience = 50;  // no early stop in the smoke tests
  return tc;
}

// ---- parameterised across every baseline ----

class EveryBaseline : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryBaseline, ForwardShapeIsNodesByClasses) {
  const HeteroGraph& g = SmallGraph();
  auto model = CreateModel(GetParam(), g, FastConfig(), 7);
  ASSERT_NE(model, nullptr);
  Tensor logits = model->Forward(/*training=*/false);
  EXPECT_EQ(logits->rows(), g.num_nodes);
  EXPECT_EQ(logits->cols(), 2);
}

TEST_P(EveryBaseline, HasTrainableParameters) {
  auto model = CreateModel(GetParam(), SmallGraph(), FastConfig(), 7);
  ASSERT_NE(model, nullptr);
  EXPECT_GT(model->NumParameters(), 0);
  for (const Tensor& p : model->Parameters()) {
    EXPECT_TRUE(p->requires_grad);
  }
}

TEST_P(EveryBaseline, TrainingReducesLoss) {
  auto model = CreateModel(GetParam(), SmallGraph(), FastConfig(), 7);
  ASSERT_NE(model, nullptr);
  TrainResult res = TrainModel(model.get(), FastTrain());
  ASSERT_GE(res.loss_history.size(), 5u);
  EXPECT_LT(res.loss_history.back(), res.loss_history.front());
}

TEST_P(EveryBaseline, BeatsChanceOnLearnableBenchmark) {
  auto model = CreateModel(GetParam(), SmallGraph(), FastConfig(), 7);
  ASSERT_NE(model, nullptr);
  TrainResult res = TrainModel(model.get(), FastTrain());
  // Majority class is ~55% on twibot20-sim; any real learner clears 0.65.
  EXPECT_GT(res.test.accuracy, 0.65) << GetParam();
  EXPECT_GT(res.test.f1, 0.5) << GetParam();
}

TEST_P(EveryBaseline, WorksOnMultiRelationGraph) {
  auto model = CreateModel(GetParam(), MultiRelationGraph(), FastConfig(), 9);
  ASSERT_NE(model, nullptr);
  Tensor logits = model->Forward(false);
  EXPECT_EQ(logits->rows(), MultiRelationGraph().num_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EveryBaseline,
    ::testing::Values("RoBERTa", "MLP", "GCN", "GAT", "GraphSAGE",
                      "ClusterGCN", "SlimG", "BotRGCN", "RGT", "BotMoe",
                      "H2GCN", "GPR-GNN"));

// ---- model-specific behaviour ----

TEST(ModelFactory, UnknownNameReturnsNull) {
  EXPECT_EQ(CreateModel("NoSuchModel", SmallGraph(), FastConfig(), 1),
            nullptr);
}

TEST(ModelFactory, ListsTwelveBaselines) {
  EXPECT_EQ(BaselineModelNames().size(), 12u);
}

TEST(ClusterGcn, EpochLossesAreBatched) {
  ModelConfig mc = FastConfig();
  auto model = CreateModel("ClusterGCN", SmallGraph(), mc, 3);
  auto losses = model->BuildEpochLosses(SmallGraph().train_idx);
  // 6 parts, 2 per batch => up to 3 batch losses.
  EXPECT_GE(losses.size(), 2u);
  EXPECT_LE(losses.size(), 3u);
  for (const Tensor& l : losses) {
    EXPECT_EQ(l->rows(), 1);
    EXPECT_EQ(l->cols(), 1);
    EXPECT_GT(l->value(0, 0), 0.0);
  }
}

TEST(GprGnn, GammaInitialisedToPprProfile) {
  ModelConfig mc = FastConfig();
  mc.gpr_steps = 3;
  mc.gpr_alpha = 0.1;
  GprGnnModel model(SmallGraph(), mc, 3);
  std::vector<double> gamma = model.GammaValues();
  ASSERT_EQ(gamma.size(), 4u);
  EXPECT_NEAR(gamma[0], 0.1, 1e-12);
  EXPECT_NEAR(gamma[1], 0.09, 1e-12);
  EXPECT_NEAR(gamma[3], std::pow(0.9, 3), 1e-12);
}

TEST(Sage, ResamplingChangesTrainForwardOnly) {
  auto model = CreateModel("GraphSAGE", SmallGraph(), FastConfig(), 3);
  Tensor eval1 = model->Forward(false);
  model->OnEpochStart();
  Tensor eval2 = model->Forward(false);
  // Eval path uses the full neighbourhood: unchanged by resampling.
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(eval1->value(i, 0), eval2->value(i, 0));
  }
}

TEST(Mlp, RobertaVariantIgnoresNonTextFeatures) {
  const HeteroGraph& g = SmallGraph();
  auto model = MakeRobertaBaseline(g, FastConfig(), 5);
  Tensor before = model->Forward(false);
  // Zero a non-text block: logits must not change.
  HeteroGraph altered = g.WithFeatureBlockZeroed("temporal");
  auto model2 = MakeRobertaBaseline(altered, FastConfig(), 5);
  Tensor after = model2->Forward(false);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(before->value(i, 0), after->value(i, 0));
  }
}

TEST(Models, DeterministicForSameSeed) {
  auto m1 = CreateModel("GCN", SmallGraph(), FastConfig(), 42);
  auto m2 = CreateModel("GCN", SmallGraph(), FastConfig(), 42);
  Tensor l1 = m1->Forward(false);
  Tensor l2 = m2->Forward(false);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(l1->value(i, 0), l2->value(i, 0));
    EXPECT_DOUBLE_EQ(l1->value(i, 1), l2->value(i, 1));
  }
}

TEST(Trainer, EarlyStoppingTriggersWithTinyPatience) {
  TrainConfig tc;
  tc.max_epochs = 100;
  tc.patience = 2;
  auto model = CreateModel("MLP", SmallGraph(), FastConfig(), 3);
  TrainResult res = TrainModel(model.get(), tc);
  EXPECT_LT(res.epochs_run, 100);
}

TEST(Trainer, TrainOverrideRestrictsSupervision) {
  const HeteroGraph& g = SmallGraph();
  TrainConfig tc = FastTrain();
  tc.max_epochs = 10;
  tc.train_override = {g.train_idx[0], g.train_idx[1], g.train_idx[2],
                       g.train_idx[3]};
  auto model = CreateModel("MLP", g, FastConfig(), 3);
  TrainResult res = TrainModel(model.get(), tc);
  EXPECT_EQ(res.epochs_run, 10);  // runs, just with 4 labelled nodes
}

TEST(Trainer, ReportsTimingFields) {
  auto model = CreateModel("MLP", SmallGraph(), FastConfig(), 3);
  TrainConfig tc = FastTrain();
  tc.max_epochs = 5;
  TrainResult res = TrainModel(model.get(), tc);
  EXPECT_GT(res.total_seconds, 0.0);
  EXPECT_GT(res.seconds_per_epoch, 0.0);
  EXPECT_NEAR(res.seconds_per_epoch * res.epochs_run, res.total_seconds,
              res.total_seconds * 0.01 + 1e-9);
}

// A mini-batch program whose batch assembly takes a known wall time: one
// scalar parameter under a quadratic loss, constant validation.
class SlowAssemblyProgram : public MiniBatchProgram {
 public:
  static constexpr int kBatches = 3;
  static constexpr double kAssemblySeconds = 0.02;

  int NumTrainBatches() const override { return kBatches; }
  SubgraphBatch AssembleTrainBatch(int index) const override {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kAssemblySeconds));
    ++assembled;
    SubgraphBatch batch;
    batch.centers = {index};
    return batch;
  }
  std::vector<int> EpochBatchOrder(int /*epoch*/) override {
    return {2, 0, 1};
  }
  Tensor BatchLoss(const SubgraphBatch& /*batch*/) override {
    return ops::SumAll(ops::Mul(params_[0], params_[0]));
  }
  EvalResult Validate() override { return EvalResult{0.5, 0.5}; }
  const std::vector<Tensor>& Parameters() const override { return params_; }

  mutable int assembled = 0;

 private:
  std::vector<Tensor> params_ = {MakeTensor(Matrix(1, 1, 1.0), true)};
};

TEST(Trainer, MiniBatchTimingCoversBatchAssembly) {
  SlowAssemblyProgram program;
  TrainConfig tc;
  tc.max_epochs = 2;
  TrainResult res = TrainMiniBatch(&program, tc);
  ASSERT_EQ(res.epochs_run, 2);
  // Each batch is assembled once and reused by the second epoch.
  EXPECT_EQ(program.assembled, SlowAssemblyProgram::kBatches);
  EXPECT_GE(res.total_seconds, SlowAssemblyProgram::kBatches *
                                   SlowAssemblyProgram::kAssemblySeconds);
  EXPECT_NEAR(res.seconds_per_epoch * res.epochs_run, res.total_seconds,
              res.total_seconds * 0.01 + 1e-9);
}

}  // namespace
}  // namespace bsg
