// Edge cases and failure injection: boundary inputs, degenerate configs,
// and BSG_CHECK death paths across the substrates.
#include <gtest/gtest.h>

#include "core/subgraph_batch.h"
#include "datagen/generator.h"
#include "features/kmeans.h"
#include "features/zscore.h"
#include "graph/csr.h"
#include "graph/homophily.h"
#include "ppr/ppr.h"
#include "ppr_oracle.h"
#include "tensor/ops.h"
#include "train/metrics.h"

namespace bsg {
namespace {

using bsg::testing::ApproximatePpr;

// ---- CSR boundaries ----

TEST(EdgeCases, SampleNeighborsFanoutAboveDegreeKeepsAll) {
  Csr g = Csr::FromEdgesSymmetric(4, {{0, 1}, {0, 2}});
  Rng rng(1);
  Csr s = g.SampleNeighbors(10, &rng);
  EXPECT_EQ(s.Degree(0), 2);
  EXPECT_EQ(s.num_edges(), g.num_edges());
}

TEST(EdgeCases, InducedSubgraphOfNothingIsEmpty) {
  Csr g = Csr::FromEdgesSymmetric(4, {{0, 1}});
  Csr sub = g.InducedSubgraph({});
  EXPECT_EQ(sub.num_nodes(), 0);
  EXPECT_EQ(sub.num_edges(), 0);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(EdgeCases, StackSymNormalizedIntoOfNoGraphsIsEmpty) {
  // Stacking zero blocks into a used carcass resets it to the empty graph.
  Csr stacked = Csr::FromEdgesSymmetric(3, {{0, 1}}).Normalized(CsrNorm::kSym);
  std::vector<double> inv_sqrt_deg;
  Csr::StackSymNormalizedInto({}, &stacked, &inv_sqrt_deg);
  EXPECT_EQ(stacked.num_nodes(), 0);
  EXPECT_EQ(stacked.num_edges(), 0);
  EXPECT_TRUE(stacked.weights().empty());
  EXPECT_TRUE(stacked.Validate().ok());
}

TEST(EdgeCases, TwoHopOfEdgelessGraphIsEdgeless) {
  Csr g = Csr::FromEdges(5, {});
  EXPECT_EQ(g.TwoHop().num_edges(), 0);
}

TEST(EdgeCases, NormalizeNoneGivesUnitWeights) {
  Csr g = Csr::FromEdgesSymmetric(3, {{0, 1}, {1, 2}}).Normalized(
      CsrNorm::kNone);
  for (double w : g.weights()) EXPECT_DOUBLE_EQ(w, 1.0);
}

// ---- PPR boundaries ----

TEST(EdgeCases, PprPushCapRespected) {
  // A big graph with a tiny push budget still terminates and conserves
  // mass below 1.
  Rng rng(2);
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i < 2000; ++i) {
    edges.emplace_back(i, static_cast<int>(rng.UniformInt(i)));
  }
  Csr g = Csr::FromEdgesSymmetric(2000, edges);
  PprConfig cfg;
  cfg.epsilon = 1e-12;
  cfg.max_pushes = 5;
  SparseVec p = ApproximatePpr(g, 0, cfg);
  double total = 0.0;
  for (const auto& [node, score] : p) total += score;
  EXPECT_LE(total, 1.0 + 1e-12);
}

// ---- K-means boundaries ----

TEST(EdgeCases, KMeansKEqualsNReachesZeroInertia) {
  Rng rng(3);
  Matrix points = Matrix::RandomNormal(8, 3, 1.0, &rng);
  KMeansConfig cfg;
  cfg.k = 8;
  cfg.max_iters = 50;
  KMeansResult res = RunKMeans(points, cfg, &rng);
  EXPECT_NEAR(res.inertia, 0.0, 1e-9);
}

TEST(EdgeCases, KMeansSinglePointPerCluster) {
  Matrix points = Matrix::FromRows({{0.0, 0.0}, {100.0, 100.0}});
  Rng rng(4);
  KMeansConfig cfg;
  cfg.k = 2;
  KMeansResult res = RunKMeans(points, cfg, &rng);
  EXPECT_NE(res.assignment[0], res.assignment[1]);
}

// ---- Generator boundaries ----

TEST(EdgeCases, ZeroBotFractionStillSeedsMinimumBots) {
  // Each community is guaranteed >= 2 of each class so stratified splits
  // and per-community evaluation never divide by zero.
  DatasetConfig cfg;
  cfg.num_users = 200;
  cfg.num_communities = 2;
  cfg.bot_fraction = 0.0;
  cfg.tweets_per_user = 5;
  RawDataset raw = SocialNetworkGenerator(cfg).Generate();
  int bots = 0;
  for (int y : raw.labels) bots += y;
  EXPECT_GE(bots, 4);
  EXPECT_LE(bots, 8);
}

TEST(EdgeCases, ZeroDensityRelationIsSparseButValid) {
  DatasetConfig cfg;
  cfg.num_users = 100;
  cfg.tweets_per_user = 5;
  cfg.relations = {"follower", "ghost"};
  cfg.relation_density = {1.0, 0.0};
  RawDataset raw = SocialNetworkGenerator(cfg).Generate();
  ASSERT_EQ(raw.relations.size(), 2u);
  EXPECT_EQ(raw.relations[1].num_edges(), 0);
  EXPECT_TRUE(raw.relations[1].Validate().ok());
}

// ---- Metric boundaries ----

TEST(EdgeCases, EmptySubsetGivesZeroMetrics) {
  Confusion c = ConfusionOn({1, 0}, {1, 0}, {});
  EXPECT_DOUBLE_EQ(Accuracy(c), 0.0);
  EXPECT_DOUBLE_EQ(F1Score(c), 0.0);
}

TEST(EdgeCases, HomophilyOnEdgelessGraphAllUndefined) {
  Csr g = Csr::FromEdges(3, {});
  std::vector<double> h = NodeHomophily(g, {0, 1, 1});
  for (double v : h) EXPECT_DOUBLE_EQ(v, -1.0);
  EXPECT_DOUBLE_EQ(GraphHomophily(g, {0, 1, 1}), 0.0);
}

// ---- BSG_CHECK death paths (programmer-error contract) ----

using EdgeCasesDeath = ::testing::Test;

TEST(EdgeCasesDeath, MatMulShapeMismatchAborts) {
  Tensor a = MakeConstant(2, 3);
  Tensor b = MakeConstant(2, 3);
  EXPECT_DEATH(ops::MatMul(a, b), "MatMul shape mismatch");
}

TEST(EdgeCasesDeath, ZScoreTransformBeforeFitAborts) {
  ZScoreScaler scaler;
  Matrix m(2, 2, 1.0);
  EXPECT_DEATH(scaler.Transform(m), "column mismatch");
}

TEST(EdgeCasesDeath, GatherOutOfRangeAborts) {
  Matrix m(2, 2, 1.0);
  EXPECT_DEATH(m.GatherRows({5}), "out of range");
}

TEST(EdgeCasesDeath, EdgeEndpointOutOfRangeAborts) {
  EXPECT_DEATH(Csr::FromEdges(2, {{0, 5}}), "endpoint out of range");
}

TEST(EdgeCasesDeath, SubgraphBatchCentreOutOfRangeAborts) {
  // The dense overload indexes the per-node store by centre id.
  std::vector<BiasedSubgraph> subs(2);
  EXPECT_DEATH(MakeSubgraphBatch(subs, {2}, 1), "batch centre out of range");
  EXPECT_DEATH(MakeSubgraphBatch(subs, {-1}, 1), "batch centre out of range");
}

TEST(EdgeCasesDeath, CrossEntropyEmptyMaskAborts) {
  Tensor logits = MakeConstant(2, 2);
  EXPECT_DEATH(ops::SoftmaxCrossEntropy(logits, {0, 1}, {}), "empty");
}

}  // namespace
}  // namespace bsg
