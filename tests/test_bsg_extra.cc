// Additional BSG4Bot behaviours: transfer evaluation, determinism,
// relation-weight diagnostics, minimum-epoch control, and subgraph
// stability under config extremes.
#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "test_common.h"

namespace bsg {
namespace {

using bsg::testing::MultiRelationGraph;
using bsg::testing::SameBits;
using bsg::testing::SmallGraph;

Bsg4BotConfig TinyCfg() {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 25;
  cfg.pretrain.hidden = 12;
  cfg.subgraph.k = 8;
  cfg.hidden = 12;
  cfg.max_epochs = 6;
  cfg.min_epochs = 1;
  cfg.patience = 6;
  cfg.seed = 3;
  return cfg;
}

TEST(Bsg4BotExtra, TransferToSelfMatchesDirectEvaluation) {
  Bsg4Bot model(SmallGraph(), TinyCfg());
  model.Fit();
  std::vector<int> nodes = SmallGraph().test_idx;
  // Direct accuracy.
  std::vector<int> preds = model.Predict(nodes);
  int correct = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (preds[i] == SmallGraph().labels[nodes[i]]) ++correct;
  }
  double direct = static_cast<double>(correct) / nodes.size();
  // Transfer onto an identically-configured probe of the same graph.
  Bsg4Bot probe(SmallGraph(), TinyCfg());
  double transferred = model.TransferEvaluate(&probe, nodes);
  EXPECT_NEAR(transferred, direct, 1e-12);
}

TEST(Bsg4BotExtra, DeterministicAcrossIdenticalRuns) {
  Bsg4Bot a(SmallGraph(), TinyCfg());
  Bsg4Bot b(SmallGraph(), TinyCfg());
  TrainResult ra = a.Fit();
  TrainResult rb = b.Fit();
  // Bit-identity, not closeness: EXPECT_DOUBLE_EQ would forgive 4 ULPs.
  EXPECT_TRUE(SameBits(ra.test.accuracy, rb.test.accuracy));
  EXPECT_TRUE(SameBits(ra.test.f1, rb.test.f1));
  ASSERT_EQ(ra.loss_history.size(), rb.loss_history.size());
  for (size_t i = 0; i < ra.loss_history.size(); ++i) {
    EXPECT_TRUE(SameBits(ra.loss_history[i], rb.loss_history[i]))
        << "epoch " << i << ": " << ra.loss_history[i] << " vs "
        << rb.loss_history[i];
  }
  EXPECT_TRUE(SameBits(ra.best_logits, rb.best_logits));
}

TEST(Bsg4BotExtra, RelationWeightsFormSimplexAfterFit) {
  Bsg4Bot model(MultiRelationGraph(), TinyCfg());
  model.Fit();
  const std::vector<double>& w = model.relation_weights();
  ASSERT_EQ(w.size(),
            static_cast<size_t>(MultiRelationGraph().num_relations()));
  double total = 0.0;
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Bsg4BotExtra, MinEpochsPreventsPrematureStop) {
  Bsg4BotConfig cfg = TinyCfg();
  cfg.max_epochs = 12;
  cfg.min_epochs = 12;
  cfg.patience = 1;  // would stop immediately without min_epochs
  Bsg4Bot model(SmallGraph(), cfg);
  TrainResult res = model.Fit();
  EXPECT_EQ(res.epochs_run, 12);
}

TEST(Bsg4BotExtra, KLargerThanGraphIsClamped) {
  Bsg4BotConfig cfg = TinyCfg();
  cfg.subgraph.k = 100000;  // more than any PPR candidate set
  Bsg4Bot model(SmallGraph(), cfg);
  model.Prepare();
  for (const BiasedSubgraph& sub : model.subgraphs()) {
    for (const RelationSubgraph& rel : sub.per_relation) {
      EXPECT_LE(static_cast<int>(rel.nodes.size()),
                SmallGraph().num_nodes);
    }
  }
}

TEST(Bsg4BotExtra, PrepareIsIdempotent) {
  Bsg4Bot model(SmallGraph(), TinyCfg());
  model.Prepare();
  double first = model.prepare_seconds();
  const void* subs = model.subgraphs().data();
  model.Prepare();  // must be a no-op
  EXPECT_EQ(model.prepare_seconds(), first);
  EXPECT_EQ(model.subgraphs().data(), subs);
}

TEST(Bsg4BotExtra, LossHistoryDecreasesOverall) {
  Bsg4BotConfig cfg = TinyCfg();
  cfg.max_epochs = 15;
  cfg.min_epochs = 15;
  cfg.patience = 15;
  Bsg4Bot model(SmallGraph(), cfg);
  TrainResult res = model.Fit();
  ASSERT_GE(res.loss_history.size(), 10u);
  EXPECT_LT(res.loss_history.back(), res.loss_history.front());
}

}  // namespace
}  // namespace bsg
