// CSR adjacency structure tests, including the parameterised normalisation
// property sweep.
#include <gtest/gtest.h>

#include "csr_oracle.h"
#include "graph/csr.h"

namespace bsg {
namespace {

using bsg::testing::BlockDiagonal;

Csr Path5() {
  return Csr::FromEdgesSymmetric(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
}

TEST(Csr, FromEdgesDeduplicates) {
  Csr g = Csr::FromEdges(3, {{0, 1}, {0, 1}, {0, 2}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(1), 0);  // directed: no reverse edge
}

TEST(Csr, FromEdgesSymmetricAddsReverse) {
  Csr g = Csr::FromEdgesSymmetric(3, {{0, 1}});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Csr, FromAdjacencyListsSortsAndDedups) {
  Csr g = Csr::FromAdjacencyLists({{2, 1, 2}, {}, {0}});
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(*g.NeighborsBegin(0), 1);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(Csr, ValidateCatchesNothingOnGoodGraph) {
  EXPECT_TRUE(Path5().Validate().ok());
}

TEST(Csr, TransposeReversesEdges) {
  Csr g = Csr::FromEdges(4, {{0, 1}, {0, 2}, {3, 0}});
  Csr t = g.Transposed();
  EXPECT_TRUE(t.HasEdge(1, 0));
  EXPECT_TRUE(t.HasEdge(2, 0));
  EXPECT_TRUE(t.HasEdge(0, 3));
  EXPECT_EQ(t.num_edges(), g.num_edges());
}

TEST(Csr, TransposeOfSymmetricIsSelf) {
  Csr g = Path5();
  Csr t = g.Transposed();
  ASSERT_EQ(t.num_edges(), g.num_edges());
  for (int u = 0; u < 5; ++u) {
    ASSERT_EQ(t.Degree(u), g.Degree(u));
    for (int i = 0; i < g.Degree(u); ++i) {
      EXPECT_EQ(g.NeighborsBegin(u)[i], t.NeighborsBegin(u)[i]);
    }
  }
}

TEST(Csr, WithSelfLoopsIdempotent) {
  Csr g = Path5().WithSelfLoops();
  int64_t edges = g.num_edges();
  Csr g2 = g.WithSelfLoops();
  EXPECT_EQ(g2.num_edges(), edges);
  for (int u = 0; u < 5; ++u) EXPECT_TRUE(g2.HasEdge(u, u));
}

TEST(Csr, RowNormalizedRowsSumToOne) {
  Csr g = Path5().Normalized(CsrNorm::kRow);
  for (int u = 0; u < 5; ++u) {
    double total = 0.0;
    const double* w = g.WeightsBegin(u);
    for (int e = 0; e < g.Degree(u); ++e) total += w[e];
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(Csr, SymNormalizedWeightsMatchFormula) {
  // Path graph with self loops: deg+1 known per node.
  Csr g = Path5().Normalized(CsrNorm::kSym);
  // Node 0 has degree 2 (self + 1 neighbour) after loops, node 1 degree 3.
  // Weight of edge (0,1) = 1/sqrt(2*3).
  const int* nb = g.NeighborsBegin(0);
  const double* w = g.WeightsBegin(0);
  for (int e = 0; e < g.Degree(0); ++e) {
    if (nb[e] == 1) {
      EXPECT_NEAR(w[e], 1.0 / std::sqrt(6.0), 1e-12);
    }
    if (nb[e] == 0) {
      EXPECT_NEAR(w[e], 1.0 / 2.0, 1e-12);
    }
  }
}

TEST(Csr, InducedSubgraphKeepsInternalEdges) {
  Csr g = Path5();
  Csr sub = g.InducedSubgraph({1, 2, 4});
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_TRUE(sub.HasEdge(0, 1));   // 1-2 survives as 0-1
  EXPECT_FALSE(sub.HasEdge(1, 2));  // 2-4 never existed
  EXPECT_EQ(sub.Degree(2), 0);      // node 4 isolated in the subset
}

TEST(Csr, TwoHopExcludesSelfAndDirectComputation) {
  Csr g = Path5();
  Csr two = g.TwoHop();
  EXPECT_TRUE(two.HasEdge(0, 2));
  EXPECT_TRUE(two.HasEdge(1, 3));
  EXPECT_FALSE(two.HasEdge(0, 0));
  EXPECT_FALSE(two.HasEdge(0, 3));
}

TEST(Csr, TwoHopRespectsCap) {
  // Star graph: centre has many 2-hop... leaves have many 2-hop neighbours.
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i <= 30; ++i) edges.emplace_back(0, i);
  Csr star = Csr::FromEdgesSymmetric(31, edges);
  Csr two = star.TwoHop(/*cap=*/5);
  for (int u = 1; u <= 30; ++u) EXPECT_LE(two.Degree(u), 5);
}

TEST(Csr, SampleNeighborsBoundsDegree) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i <= 20; ++i) edges.emplace_back(0, i);
  Csr g = Csr::FromEdgesSymmetric(21, edges);
  Rng rng(3);
  Csr s = g.SampleNeighbors(4, &rng);
  EXPECT_EQ(s.Degree(0), 4);
  for (int u = 1; u <= 20; ++u) EXPECT_EQ(s.Degree(u), 1);  // under fanout
  // Samples are real neighbours.
  for (const int* p = s.NeighborsBegin(0); p != s.NeighborsEnd(0); ++p) {
    EXPECT_TRUE(g.HasEdge(0, *p));
  }
}

TEST(Csr, BlockDiagonalShiftsIds) {
  Csr a = Csr::FromEdgesSymmetric(2, {{0, 1}});
  Csr b = Csr::FromEdgesSymmetric(3, {{0, 2}});
  Csr stacked = BlockDiagonal({&a, &b});
  EXPECT_EQ(stacked.num_nodes(), 5);
  EXPECT_TRUE(stacked.HasEdge(0, 1));
  EXPECT_TRUE(stacked.HasEdge(2, 4));
  EXPECT_FALSE(stacked.HasEdge(1, 2));
  EXPECT_TRUE(stacked.Validate().ok());
}

TEST(Csr, BlockDiagonalCarriesWeights) {
  Csr a = Csr::FromEdgesSymmetric(2, {{0, 1}}).Normalized(CsrNorm::kRow);
  Csr b = Csr::FromEdgesSymmetric(2, {{0, 1}}).Normalized(CsrNorm::kRow);
  Csr stacked = BlockDiagonal({&a, &b});
  ASSERT_FALSE(stacked.weights().empty());
  EXPECT_NEAR(stacked.weights()[0], 1.0, 1e-12);
}

TEST(Csr, EmptyGraphIsValid) {
  Csr g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.Validate().ok());
}

// Property sweep: normalisation invariants across random graphs.
class CsrNormProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrNormProperty, RowNormSumsToOneOnRandomGraphs) {
  Rng rng(GetParam());
  std::vector<std::pair<int, int>> edges;
  int n = 30;
  for (int e = 0; e < 120; ++e) {
    edges.emplace_back(static_cast<int>(rng.UniformInt(n)),
                       static_cast<int>(rng.UniformInt(n)));
  }
  Csr g = Csr::FromEdgesSymmetric(n, edges);
  ASSERT_TRUE(g.Validate().ok());
  Csr row = g.Normalized(CsrNorm::kRow);
  for (int u = 0; u < n; ++u) {
    if (row.Degree(u) == 0) continue;
    double total = 0.0;
    const double* w = row.WeightsBegin(u);
    for (int e = 0; e < row.Degree(u); ++e) total += w[e];
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  // Sym norm is symmetric in its weights: w(u,v) == w(v,u).
  Csr sym = g.Normalized(CsrNorm::kSym);
  Csr sym_t = sym.Transposed();
  ASSERT_EQ(sym.num_edges(), sym_t.num_edges());
  for (int u = 0; u < n; ++u) {
    const int* nb = sym.NeighborsBegin(u);
    const double* w = sym.WeightsBegin(u);
    const int* nb_t = sym_t.NeighborsBegin(u);
    const double* w_t = sym_t.WeightsBegin(u);
    for (int e = 0; e < sym.Degree(u); ++e) {
      EXPECT_EQ(nb[e], nb_t[e]);
      EXPECT_NEAR(w[e], w_t[e], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CsrNormProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace bsg
