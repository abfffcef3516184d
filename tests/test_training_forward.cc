// The training forward runs its last Eq. 10 layer on the centre rows only,
// through the row-restricted ops::SpMM. Its loss and every parameter
// gradient must be bit-identical to the all-rows forward
// (reference_forward.h) across depths 1-3, Eq. 11 concat on and off,
// semantic attention on and off, dropout 0 and 0.25, at 1, 2 and 4 threads;
// and a Fit() whose every step takes the oracle's loss must repeat Fit()'s
// loss history. The restricted SpMM itself must match
// GatherRows(SpMM(a, x), rows) bit for bit, value and gradient.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "gradcheck.h"
#include "reference_forward.h"
#include "sym_blocks_util.h"
#include "tensor/ops.h"
#include "test_common.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bsg {
namespace {

using testing::Bsg4BotPeer;
using testing::ReferenceForward;
using testing::SameBits;
using testing::SmallGraph;
using testing::ThreadGuard;

struct Arch {
  int gnn_layers;
  bool concat;
  bool semantic_attention;
  double dropout;
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
  cfg.dropout = arch.dropout;
  cfg.seed = seed;
  return cfg;
}

constexpr uint64_t kSeed = 7;

// One Prepare() for every case: it depends only on the graph, the seed and
// the pre-training and subgraph settings, which every case shares, and it
// costs several times a 2-epoch Fit() here.
std::unique_ptr<Bsg4Bot> Prepared(const Arch& arch) {
  static const Bsg4Bot* donor = [] {
    auto* m = new Bsg4Bot(SmallGraph(), ArchConfig(Arch{1, true, true, 0.0},
                                                   kSeed));
    m->Prepare();
    return m;
  }();
  auto model = std::make_unique<Bsg4Bot>(SmallGraph(), ArchConfig(arch, kSeed));
  Bsg4BotPeer::AdoptPreparation(*donor, model.get());
  return model;
}

std::vector<Matrix> Gradients(const ParamStore& store) {
  std::vector<Matrix> out;
  for (const Tensor& p : store.params()) out.push_back(p->grad);
  return out;
}

class TrainingForwardSweep : public ::testing::TestWithParam<Arch> {};

// One step on the first training batch: the model's BatchLoss and the
// oracle's loss, each from the same RNG state and followed by Backward().
TEST_P(TrainingForwardSweep, StepLossAndGradientsMatchAllRowsForward) {
  ThreadGuard guard;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetNumThreads(threads);
    const std::unique_ptr<Bsg4Bot> owned = Prepared(GetParam());
    Bsg4Bot& model = *owned;
    Bsg4BotPeer::PrepareTraining(&model);
    const SubgraphBatch batch = Bsg4BotPeer::TrainBatch(model, 0);
    const Rng start = *Bsg4BotPeer::rng(&model);

    Tensor loss = Bsg4BotPeer::BatchLoss(&model, batch);
    Backward(loss);
    const std::vector<Matrix> grads = Gradients(Bsg4BotPeer::params(model));
    const Rng after = *Bsg4BotPeer::rng(&model);

    *Bsg4BotPeer::rng(&model) = start;
    Tensor expect = Bsg4BotPeer::TrainingOracle(model).TrainingLoss(
        batch, SmallGraph().labels, Bsg4BotPeer::rng(&model));
    Backward(expect);
    const std::vector<Matrix> expect_grads =
        Gradients(Bsg4BotPeer::params(model));

    EXPECT_TRUE(SameBits(loss->value(0, 0), expect->value(0, 0)));
    EXPECT_EQ(Bsg4BotPeer::rng(&model)->NextU64(), Rng(after).NextU64())
        << "the oracle drew a different number of dropout values";
    const std::vector<std::string>& names = Bsg4BotPeer::params(model).names();
    ASSERT_EQ(grads.size(), expect_grads.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      EXPECT_TRUE(SameBits(grads[i], expect_grads[i])) << names[i];
      EXPECT_GT(grads[i].AbsMax(), 0.0) << names[i] << " has no gradient";
    }
  }
}

// Two epochs of Fit() at 1, 2 and 4 threads against the same loop with the
// oracle's loss (at 1 thread).
TEST_P(TrainingForwardSweep, FitLossHistoryMatchesAllRowsForward) {
  ThreadGuard guard;
  SetNumThreads(1);
  const std::unique_ptr<Bsg4Bot> oracle_model = Prepared(GetParam());
  const TrainResult expect = Bsg4BotPeer::FitWithOracle(oracle_model.get());
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetNumThreads(threads);
    const std::unique_ptr<Bsg4Bot> model = Prepared(GetParam());
    const TrainResult got = model->Fit();
    ASSERT_EQ(got.loss_history.size(), expect.loss_history.size());
    ASSERT_FALSE(got.loss_history.empty());
    for (size_t e = 0; e < got.loss_history.size(); ++e) {
      EXPECT_TRUE(SameBits(got.loss_history[e], expect.loss_history[e]))
          << "epoch " << e << ": " << got.loss_history[e] << " vs "
          << expect.loss_history[e];
    }
    EXPECT_EQ(got.val.accuracy, expect.val.accuracy);
    EXPECT_EQ(got.val.f1, expect.val.f1);
  }
}

std::vector<Arch> AllArchs() {
  std::vector<Arch> out;
  for (int layers : {1, 2, 3}) {
    for (bool concat : {true, false}) {
      for (bool sem : {true, false}) {
        for (double dropout : {0.0, 0.25}) {
          out.push_back(Arch{layers, concat, sem, dropout});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, TrainingForwardSweep, ::testing::ValuesIn(AllArchs()),
    [](const ::testing::TestParamInfo<Arch>& info) {
      return "L" + std::to_string(info.param.gnn_layers) +
             (info.param.concat ? "_concat" : "_last") +
             (info.param.semantic_attention ? "_attention" : "_meanpool") +
             (info.param.dropout > 0.0 ? "_dropout" : "_nodropout");
    });

// Two blocks whose rows share neighbours (so the backward's scatter
// collides), with an isolated row and a self loop: 9 rows.
testing::OwnedSymBlocks RestrictedSpmmOperand() {
  std::vector<Csr> adjs;
  adjs.push_back(Csr::FromEdgesSymmetric(
      6, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 5}, {3, 3}}));
  adjs.push_back(Csr::FromEdgesSymmetric(3, {{0, 1}}));
  return testing::MakeSymBlocks(std::move(adjs));
}

TEST(RestrictedSpMM, ValueAndGradientMatchGatherOfFullProduct) {
  ThreadGuard guard;
  const testing::OwnedSymBlocks blocks = RestrictedSpmmOperand();
  const SymBlocks& a = blocks.op;
  const std::vector<std::vector<int>> row_sets = {
      {0, 2, 5, 8}, {3}, {0, 1, 2, 3, 4, 5, 6, 7, 8}, {8}, {1, 4, 6, 7}};
  Rng rng(41);
  Matrix xv = Matrix::RandomNormal(9, 70, 1.0, &rng);  // > one row grain
  for (size_t i = 0; i < xv.size(); i += 5) xv.data()[i] = 0.0;
  for (const std::vector<int>& rows : row_sets) {
    // Upstream gradients with exact and negative zeros.
    Matrix c = Matrix::RandomNormal(static_cast<int>(rows.size()), 70, 1.0,
                                    &rng);
    for (size_t i = 0; i < c.size(); i += 4) c.data()[i] = -0.0;
    for (size_t i = 2; i < c.size(); i += 7) c.data()[i] = 0.0;
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " rows=" +
                   std::to_string(rows.size()));
      SetNumThreads(threads);
      Tensor x1 = MakeTensor(xv, /*requires_grad=*/true);
      Tensor y1 = ops::SpMM(a, x1, rows);
      Backward(ops::SumAll(ops::Mul(y1, MakeTensor(c))));

      Tensor x2 = MakeTensor(xv, /*requires_grad=*/true);
      Tensor y2 = ops::GatherRows(ops::SpMM(a, x2), rows);
      Backward(ops::SumAll(ops::Mul(y2, MakeTensor(c))));

      EXPECT_TRUE(SameBits(y1->value, y2->value));
      EXPECT_TRUE(SameBits(x1->grad, x2->grad));
      EXPECT_TRUE(SameBits(y1->value, SpmmValue(a, xv, &rows)));
    }
  }
}

TEST(RestrictedSpMM, PassesGradcheck) {
  const testing::OwnedSymBlocks blocks = RestrictedSpmmOperand();
  const SymBlocks& a = blocks.op;
  Rng rng(42);
  Tensor x = MakeTensor(Matrix::RandomNormal(9, 3, 1.0, &rng), true);
  const std::vector<int> rows = {0, 2, 3, 7};
  testing::ExpectGradientsMatch({x}, [&] {
    Tensor y = ops::SpMM(a, x, rows);
    return ops::MeanAll(ops::Mul(y, y));
  });
}

}  // namespace
}  // namespace bsg
