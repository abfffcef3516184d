// End-to-end integration: generator -> features -> every training path,
// plus the experiment runner that the benchmark harness relies on.
#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "graph/homophily.h"
#include "test_common.h"
#include "train/experiment.h"
#include "train/splits.h"

namespace bsg {
namespace {

using bsg::testing::SmallGraph;

TEST(Integration, ExperimentRunnerAggregatesSeeds) {
  ModelConfig mc;
  mc.hidden = 12;
  TrainConfig tc;
  tc.max_epochs = 10;
  tc.patience = 10;
  ExperimentResult res =
      RunBaseline("MLP", SmallGraph(), mc, tc, {1, 2, 3});
  EXPECT_GT(res.accuracy.mean, 60.0);
  EXPECT_GE(res.accuracy.std, 0.0);
  EXPECT_GT(res.f1.mean, 40.0);
  EXPECT_NEAR(res.avg_epochs, 10.0, 1e-9);
  EXPECT_GT(res.avg_seconds, 0.0);
}

TEST(Integration, Bsg4BotRunnerIncludesPrepareTime) {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 20;
  cfg.pretrain.hidden = 12;
  cfg.subgraph.k = 8;
  cfg.hidden = 12;
  cfg.max_epochs = 4;
  cfg.patience = 4;
  ExperimentResult res = RunBsg4Bot(SmallGraph(), cfg, {1});
  EXPECT_GT(res.accuracy.mean, 60.0);
  EXPECT_GT(res.avg_seconds, 0.0);
}

TEST(Integration, FormatMeanStdMatchesPaperStyle) {
  MeanStd ms{89.154, 0.42, 5};
  EXPECT_EQ(FormatMeanStd(ms), "89.15(0.4)");
  // One run has no spread to report: the mean alone, not "85.80(0.0)".
  EXPECT_EQ(FormatMeanStd(ComputeMeanStd({85.8})), "85.80");
  EXPECT_EQ(FormatMeanStd(ComputeMeanStd({88.0, 89.0, 90.0})), "89.00(0.8)");
}

TEST(Integration, HeadlineOrderingBsg4BotBeatsGcn) {
  // The central claim at small scale: BSG4Bot > GCN on the same split.
  ModelConfig mc;
  mc.hidden = 16;
  TrainConfig tc;
  tc.max_epochs = 30;
  tc.patience = 30;
  ExperimentResult gcn = RunBaseline("GCN", SmallGraph(), mc, tc, {1, 2});

  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 40;
  cfg.pretrain.hidden = 16;
  cfg.subgraph.k = 12;
  cfg.hidden = 16;
  cfg.max_epochs = 25;
  cfg.patience = 25;
  ExperimentResult ours = RunBsg4Bot(SmallGraph(), cfg, {1, 2});
  EXPECT_GT(ours.f1.mean, gcn.f1.mean);
}

TEST(Integration, BiasedSubgraphsRaiseAverageHomophily) {
  // Fig. 8 end-to-end: average centre homophily in biased subgraphs exceeds
  // the original graph's node homophily average.
  const HeteroGraph& g = SmallGraph();
  PretrainConfig pc;
  pc.epochs = 40;
  pc.hidden = 16;
  PretrainResult pre = PretrainClassifier(g, pc);
  BiasedSubgraphConfig sc;
  sc.k = 12;
  std::vector<BiasedSubgraph> subs = BuildAllSubgraphs(g, pre.hidden_reps, sc);

  std::vector<double> orig = NodeHomophily(g.MergedGraph(), g.labels);
  double orig_avg = 0.0, sub_avg = 0.0;
  int n = 0;
  for (int v = 0; v < g.num_nodes; ++v) {
    double hs = SubgraphCenterHomophily(subs[v], g.labels);
    if (orig[v] < 0 || hs < 0) continue;
    orig_avg += orig[v];
    sub_avg += hs;
    ++n;
  }
  ASSERT_GT(n, 100);
  EXPECT_GT(sub_avg / n, orig_avg / n);
}

TEST(Integration, LowSampleDegradesGracefully) {
  // Fig. 7 shape: 20% of labels must still clearly beat chance (F1 of the
  // all-bot predictor on this split is ~0.6 precision-free; random ~0.45).
  const HeteroGraph& g = SmallGraph();
  Rng rng(5);
  TrainConfig tc;
  tc.max_epochs = 50;
  tc.patience = 50;
  tc.train_override =
      SubsampleTrainFraction(g.train_idx, g.labels, 0.2, &rng);
  ModelConfig mc;
  mc.hidden = 16;
  auto model = CreateModel("MLP", g, mc, 7);
  TrainResult res = TrainModel(model.get(), tc);
  EXPECT_GT(res.test.f1, 0.45);
}

}  // namespace
}  // namespace bsg
