// PPR: forward push vs exact power iteration, plus structural properties.
#include <gtest/gtest.h>

#include "graph/csr.h"
#include "ppr/ppr.h"
#include "ppr_oracle.h"
#include "util/rng.h"

namespace bsg {
namespace {

using bsg::testing::ApproximatePpr;
using bsg::testing::ExactPpr;

Csr RandomConnectedGraph(int n, int extra_edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i < n; ++i) {
    edges.emplace_back(i, static_cast<int>(rng.UniformInt(i)));  // tree
  }
  for (int e = 0; e < extra_edges; ++e) {
    edges.emplace_back(static_cast<int>(rng.UniformInt(n)),
                       static_cast<int>(rng.UniformInt(n)));
  }
  return Csr::FromEdgesSymmetric(n, edges);
}

TEST(Ppr, MassConservedUpToEpsilon) {
  Csr g = RandomConnectedGraph(50, 100, 1);
  PprConfig cfg;
  cfg.epsilon = 1e-6;
  SparseVec p = ApproximatePpr(g, 0, cfg);
  double total = 0.0;
  for (const auto& [node, score] : p) {
    EXPECT_GT(score, 0.0);
    total += score;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.9);  // eps small => nearly all mass settled
}

TEST(Ppr, SourceRetainsAtLeastTeleportMass) {
  // Note the source is NOT always the argmax (a hub adjacent to the source
  // can absorb more mass), but it always settles at least ~alpha: the very
  // first push banks alpha * r(source).
  Csr g = RandomConnectedGraph(40, 60, 2);
  PprConfig cfg;
  cfg.epsilon = 1e-7;
  SparseVec p = ApproximatePpr(g, 5, cfg);
  double src = 0.0;
  for (const auto& [node, score] : p) {
    if (node == 5) src = score;
  }
  EXPECT_GE(src, cfg.alpha * 0.999);
}

TEST(Ppr, ApproximateMatchesExactOnSmallGraph) {
  Csr g = Csr::FromEdgesSymmetric(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}});
  PprConfig cfg;
  cfg.epsilon = 1e-9;
  SparseVec approx = ApproximatePpr(g, 0, cfg);
  std::vector<double> exact = ExactPpr(g, 0, cfg.alpha, 300);
  std::vector<double> dense(6, 0.0);
  for (const auto& [node, score] : approx) dense[node] = score;
  for (int u = 0; u < 6; ++u) EXPECT_NEAR(dense[u], exact[u], 1e-5);
}

TEST(Ppr, ExactSumsToOne) {
  Csr g = RandomConnectedGraph(25, 30, 3);
  std::vector<double> pi = ExactPpr(g, 3, 0.2, 200);
  double total = 0.0;
  for (double v : pi) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Ppr, DanglingNodesHandled) {
  // Directed: node 2 has no out-edges.
  Csr g = Csr::FromEdges(3, {{0, 1}, {1, 2}});
  SparseVec p = ApproximatePpr(g, 0, PprConfig{});
  double total = 0.0;
  for (const auto& [node, score] : p) total += score;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.0);
}

TEST(Ppr, IsolatedSourceKeepsAllMass) {
  Csr g = Csr::FromEdgesSymmetric(4, {{1, 2}});  // node 0 isolated
  SparseVec p = ApproximatePpr(g, 0, PprConfig{});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].first, 0);
  EXPECT_NEAR(p[0].second, 1.0, 1e-12);
}

TEST(Ppr, HigherAlphaConcentratesAtSource) {
  Csr g = RandomConnectedGraph(40, 80, 4);
  PprConfig low, high;
  low.alpha = 0.1;
  high.alpha = 0.5;
  low.epsilon = high.epsilon = 1e-7;
  auto get_src = [&](const PprConfig& cfg) {
    for (const auto& [node, score] : ApproximatePpr(g, 7, cfg)) {
      if (node == 7) return score;
    }
    return 0.0;
  };
  EXPECT_GT(get_src(high), get_src(low));
}

TEST(Ppr, LocalityCloseNodesOutscoreFarNodes) {
  // Long path: score decays with distance from the source.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < 30; ++i) edges.emplace_back(i, i + 1);
  Csr g = Csr::FromEdgesSymmetric(30, edges);
  PprConfig cfg;
  cfg.epsilon = 1e-8;
  SparseVec p = ApproximatePpr(g, 0, cfg);
  std::vector<double> dense(30, 0.0);
  for (const auto& [node, score] : p) dense[node] = score;
  EXPECT_GT(dense[1], dense[5]);
  EXPECT_GT(dense[5], dense[15]);
}

// Property: approximation error bound per node, eps * deg(u).
class PprAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(PprAccuracy, ResidualBoundHolds) {
  double eps = GetParam();
  Csr g = RandomConnectedGraph(60, 120, 9);
  PprConfig cfg;
  cfg.epsilon = eps;
  SparseVec approx = ApproximatePpr(g, 11, cfg);
  std::vector<double> exact = ExactPpr(g, 11, cfg.alpha, 400);
  std::vector<double> dense(60, 0.0);
  for (const auto& [node, score] : approx) dense[node] = score;
  for (int u = 0; u < 60; ++u) {
    // Forward-push guarantee: p[u] underestimates pi[u] by at most
    // eps * deg(u) mass routed through u (loose but indicative bound).
    EXPECT_LE(dense[u], exact[u] + 1e-9);
    EXPECT_GE(dense[u], exact[u] - 10.0 * eps * std::max(1, g.Degree(u)));
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, PprAccuracy,
                         ::testing::Values(1e-3, 1e-4, 1e-5, 1e-6));

}  // namespace
}  // namespace bsg
