// PprWorkspace + CSR-native subgraph assembly: bitwise equality against the
// hash-map PPR oracle (ppr_oracle.h) and a reference assembly across
// randomized graphs, alphas, epsilons, dangling/disconnected edge cases, a
// full queue ring, every remainder of the eight-wide Eq. 6 scoring and every
// centre of a TwiBot-22-shaped world; zero-allocation warm calls (exact, via
// a counting operator new); epoch wrap-around; and concurrent per-thread
// workspace reuse (run under TSan in CI).
#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"  // replaces operator new: exact alloc counts
#include "core/biased_subgraph.h"
#include "core/pretrain.h"
#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "graph/csr.h"
#include "ppr/ppr.h"
#include "ppr/ppr_workspace.h"
#include "ppr_oracle.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bsg {
namespace {

using bsg::testing::ApproximatePpr;

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

// Directed random graph: dangling nodes (no out-edges) and unreachable
// components occur naturally.
Csr RandomDirectedGraph(int n, int num_edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < num_edges; ++e) {
    edges.emplace_back(static_cast<int>(rng.UniformInt(n)),
                       static_cast<int>(rng.UniformInt(n)));
  }
  return Csr::FromEdges(n, edges);
}

// Bitwise equality: same nodes, same scores to the last bit (scores are
// positive, so == is bit equality).
void ExpectSparseVecBitEqual(const SparseVec& a, const SparseVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "node mismatch at " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "score mismatch at node "
                                        << a[i].first;
  }
}

// The workspace returns its support in settle order and the oracle sorts
// by node id, so the workspace's output is compared as a sorted copy: the
// same size, nodes and bits, in any order.
void ExpectMatchesOracle(const SparseVec& oracle, SparseVec ours) {
  std::sort(ours.begin(), ours.end());
  ExpectSparseVecBitEqual(oracle, ours);
}

TEST(PprWorkspace, BitIdenticalToHashMapOracleRandomized) {
  PprWorkspace ws;  // one workspace across every graph/config combination
  const double alphas[] = {0.1, 0.15, 0.5, 0.85};
  const double epsilons[] = {1e-3, 1e-4, 1e-6};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Csr sym = RandomConnectedGraph(60, 90, seed);
    Csr dir = RandomDirectedGraph(50, 70, seed + 100);
    for (const Csr* g : {&sym, &dir}) {
      for (double alpha : alphas) {
        for (double eps : epsilons) {
          PprConfig cfg;
          cfg.alpha = alpha;
          cfg.epsilon = eps;
          for (int source : {0, 7, g->num_nodes() - 1}) {
            SparseVec oracle = ApproximatePpr(*g, source, cfg);
            ExpectMatchesOracle(oracle, ws.ApproximatePpr(*g, source, cfg));
          }
        }
      }
    }
  }
  EXPECT_GT(ws.calls(), 0u);
}

TEST(PprWorkspace, EdgeCasesMatchOracle) {
  PprWorkspace ws;
  PprConfig cfg;
  // Isolated source (disconnected): all mass stays put.
  Csr isolated = Csr::FromEdgesSymmetric(4, {{1, 2}});
  ExpectMatchesOracle(ApproximatePpr(isolated, 0, cfg),
                      ws.ApproximatePpr(isolated, 0, cfg));
  // Directed chain with a dangling sink.
  Csr chain = Csr::FromEdges(3, {{0, 1}, {1, 2}});
  ExpectMatchesOracle(ApproximatePpr(chain, 0, cfg),
                      ws.ApproximatePpr(chain, 0, cfg));
  // Self-loop only.
  Csr loop = Csr::FromEdges(2, {{0, 0}});
  ExpectMatchesOracle(ApproximatePpr(loop, 0, cfg),
                      ws.ApproximatePpr(loop, 0, cfg));
  // max_pushes cap bites mid-run.
  Csr big = RandomConnectedGraph(80, 160, 9);
  cfg.epsilon = 1e-9;
  cfg.max_pushes = 37;
  ExpectMatchesOracle(ApproximatePpr(big, 3, cfg),
                      ws.ApproximatePpr(big, 3, cfg));
}

TEST(PprWorkspace, ReuseAcrossGraphSizesStaysCorrect) {
  // Grow, shrink, regrow: stale stamps from a larger graph must never leak
  // into a smaller one, and vice versa.
  PprWorkspace ws;
  PprConfig cfg;
  for (int n : {50, 8, 120, 8, 50}) {
    Csr g = RandomConnectedGraph(n, 2 * n, static_cast<uint64_t>(n));
    for (int s : {0, n / 2}) {
      ExpectMatchesOracle(ApproximatePpr(g, s, cfg),
                          ws.ApproximatePpr(g, s, cfg));
    }
  }
}

TEST(PprWorkspace, EpochWrapAroundIsSafe) {
  PprWorkspace ws;
  PprConfig cfg;
  Csr g = RandomConnectedGraph(40, 60, 5);
  SparseVec oracle = ApproximatePpr(g, 11, cfg);
  ExpectMatchesOracle(oracle, ws.ApproximatePpr(g, 11, cfg));
  // Force the epoch to the wrap boundary: the next two calls straddle the
  // uint32 overflow and must both still match.
  ws.OverrideEpochForTest(0xFFFFFFFEu);
  ExpectMatchesOracle(oracle, ws.ApproximatePpr(g, 11, cfg));  // -> MAX
  ExpectMatchesOracle(oracle, ws.ApproximatePpr(g, 11, cfg));  // wraps
  ExpectMatchesOracle(oracle, ws.ApproximatePpr(g, 11, cfg));
}

TEST(PprWorkspace, WarmCallsPerformZeroHeapAllocations) {
  PprWorkspace ws;
  PprConfig cfg;
  cfg.epsilon = 1e-5;
  Csr g = RandomConnectedGraph(200, 600, 21);
  ws.ApproximatePpr(g, 0, cfg);  // cold: buffers grow once
  const uint64_t growths_after_cold = ws.buffer_growths();
  const uint64_t allocs_before = t_allocs;
  // Every source and a second epsilon: the dense arrays are sized to the
  // graph, so no input choice may allocate.
  for (int s = 0; s < g.num_nodes(); ++s) ws.ApproximatePpr(g, s, cfg);
  cfg.epsilon = 1e-3;
  for (int s = 0; s < g.num_nodes(); s += 7) ws.ApproximatePpr(g, s, cfg);
  EXPECT_EQ(t_allocs - allocs_before, 0u) << "warm ApproximatePpr allocated";
  EXPECT_EQ(ws.buffer_growths(), growths_after_cold);
}

TEST(PprWorkspace, BufferGrowthsOnlyOnCapacityIncrease) {
  PprWorkspace ws;
  PprConfig cfg;
  Csr small = RandomConnectedGraph(30, 40, 2);
  Csr large = RandomConnectedGraph(90, 150, 3);
  ws.ApproximatePpr(small, 0, cfg);
  const uint64_t g1 = ws.buffer_growths();
  EXPECT_GE(g1, 1u);
  ws.ApproximatePpr(small, 5, cfg);
  EXPECT_EQ(ws.buffer_growths(), g1);  // same size: no growth
  ws.ApproximatePpr(large, 0, cfg);
  EXPECT_EQ(ws.buffer_growths(), g1 + 1);  // grew once for the larger graph
  ws.ApproximatePpr(small, 1, cfg);        // shrink never reallocates
  EXPECT_EQ(ws.buffer_growths(), g1 + 1);
  EXPECT_EQ(ws.capacity_nodes(), 90);
}

TEST(PprWorkspace, FullRingQueuesEveryNodeAndMatchesOracle) {
  // A complete graph with self-loops: every push gives every node, the
  // pushing one included, (1 - alpha) r / n, far above a tiny eps * n, so
  // all n nodes are queued at once and the push loop still has neighbours
  // to visit. The ring's spare slot is what keeps the enqueue's
  // unconditional store off the entry at the head.
  PprWorkspace ws;
  PprConfig cfg;
  cfg.epsilon = 1e-12;
  for (int n : {1, 2, 3, 17}) {
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) edges.emplace_back(u, v);
    }
    Csr g = Csr::FromEdges(n, edges);
    for (int source : {0, n - 1}) {
      const SparseVec& ours = ws.ApproximatePpr(g, source, cfg);
      EXPECT_EQ(static_cast<int>(ours.size()), n);
      ExpectMatchesOracle(ApproximatePpr(g, source, cfg), ours);
    }
  }
}

TEST(PprWorkspace, DanglingSourceSettlesAllMassOnItself) {
  // Node 0 has in-edges only: the first pop settles the whole unit of mass
  // on it and nothing is pushed.
  Csr g = Csr::FromEdges(4, {{1, 0}, {2, 0}, {2, 3}});
  PprWorkspace ws;
  PprConfig cfg;
  const SparseVec& ours = ws.ApproximatePpr(g, 0, cfg);
  ASSERT_EQ(ours.size(), 1u);
  EXPECT_EQ(ours[0].first, 0);
  EXPECT_EQ(ours[0].second, 1.0);
  ExpectMatchesOracle(ApproximatePpr(g, 0, cfg), ours);
}

TEST(PprWorkspace, UnderflowingSettlesStayOutOfTheOutput) {
  // A directed chain with eps at the smallest subnormal: about 4,600 hops
  // in, the residual is a few subnormal ulps, alpha * r rounds to 0 and a
  // push settles nothing. Such nodes carry no mass and must not appear,
  // exactly as in the oracle; the dangling tail settles its residual whole.
  constexpr int kNodes = 5000;
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u + 1 < kNodes; ++u) edges.emplace_back(u, u + 1);
  Csr chain = Csr::FromEdges(kNodes, edges);
  PprConfig cfg;
  cfg.epsilon = std::numeric_limits<double>::denorm_min();
  PprWorkspace ws;
  const SparseVec& ours = ws.ApproximatePpr(chain, 0, cfg);
  for (const auto& [node, score] : ours) EXPECT_GT(score, 0.0) << node;
  EXPECT_LT(ours.size(), static_cast<size_t>(kNodes));
  EXPECT_EQ(ours.back().first, kNodes - 1);
  ExpectMatchesOracle(ApproximatePpr(chain, 0, cfg), ours);
}

TEST(PprWorkspace, OutputOrderIsTheSameInEveryWorkspace) {
  // The settle order is a function of (graph, source, config) alone: a
  // fresh workspace and one warmed on a larger graph and moved across its
  // epoch wrap return the same sequence, not just the same set, and each
  // node appears once.
  PprConfig cfg;
  cfg.epsilon = 1e-5;
  Csr g = RandomConnectedGraph(150, 400, 8);
  Csr other = RandomDirectedGraph(260, 500, 9);
  PprWorkspace warm;
  for (int s = 0; s < other.num_nodes(); s += 3) {
    warm.ApproximatePpr(other, s, cfg);
  }
  warm.OverrideEpochForTest(0xFFFFFFF0u);
  for (int source = 0; source < g.num_nodes(); ++source) {
    PprWorkspace fresh;
    const SparseVec& a = fresh.ApproximatePpr(g, source, cfg);
    ExpectSparseVecBitEqual(a, warm.ApproximatePpr(g, source, cfg));
    std::vector<int> nodes;
    for (const auto& [node, score] : a) {
      nodes.push_back(node);
      EXPECT_GT(score, 0.0);
    }
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end());
  }
}

// --- CSR-native subgraph assembly vs the reference composition -------------

// The pre-workspace assembly path, kept verbatim as the oracle: hash-map
// PPR, fresh scoring vectors, Csr::InducedSubgraph + FromEdgesSymmetric.
Csr ReferenceSubgraphAdjacency(const Csr& relation,
                               const std::vector<int>& nodes) {
  const int m = static_cast<int>(nodes.size());
  Csr induced = relation.InducedSubgraph(nodes);
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i < m; ++i) edges.emplace_back(0, i);
  for (int u = 0; u < induced.num_nodes(); ++u) {
    for (const int* p = induced.NeighborsBegin(u);
         p != induced.NeighborsEnd(u); ++p) {
      edges.emplace_back(u, *p);
    }
  }
  return Csr::FromEdgesSymmetric(m, edges);
}

// One relation's slice from the oracle PPR vector `pi`: scalar cosine
// (NodeSimilarity) per candidate, partial_sort for the top k.
RelationSubgraph ReferenceRelationSubgraph(const Csr& relation,
                                           const SparseVec& pi,
                                           const Matrix& hidden_reps,
                                           int center,
                                           const BiasedSubgraphConfig& cfg) {
  double pi_max = 0.0;
  for (const auto& [node, score] : pi) {
    if (node != center) pi_max = std::max(pi_max, score);
  }
  if (pi_max <= 0.0) pi_max = 1.0;
  std::vector<std::pair<double, int>> scored;
  for (const auto& [node, score] : pi) {
    if (node == center) continue;
    double pi_norm = score / pi_max;
    double combined =
        cfg.ppr_only ? pi_norm
                     : cfg.lambda * pi_norm +
                           (1.0 - cfg.lambda) *
                               NodeSimilarity(hidden_reps, center, node);
    scored.emplace_back(-combined, node);
  }
  int take = std::min<int>(cfg.k, static_cast<int>(scored.size()));
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
  RelationSubgraph rel;
  rel.nodes.push_back(center);
  for (int i = 0; i < take; ++i) rel.nodes.push_back(scored[i].second);
  rel.adj = ReferenceSubgraphAdjacency(relation, rel.nodes);
  return rel;
}

BiasedSubgraph ReferenceBiasedSubgraph(const HeteroGraph& g,
                                       const Matrix& hidden_reps, int center,
                                       const BiasedSubgraphConfig& cfg) {
  BiasedSubgraph out;
  out.center = center;
  for (const Csr& relation : g.relations) {
    out.per_relation.push_back(ReferenceRelationSubgraph(
        relation, ApproximatePpr(relation, center, cfg.ppr), hidden_reps,
        center, cfg));
  }
  return out;
}

void ExpectSubgraphBitEqual(const BiasedSubgraph& a, const BiasedSubgraph& b) {
  EXPECT_EQ(a.center, b.center);
  ASSERT_EQ(a.per_relation.size(), b.per_relation.size());
  for (size_t r = 0; r < a.per_relation.size(); ++r) {
    EXPECT_EQ(a.per_relation[r].nodes, b.per_relation[r].nodes);
    const Csr& ca = a.per_relation[r].adj;
    const Csr& cb = b.per_relation[r].adj;
    EXPECT_EQ(ca.num_nodes(), cb.num_nodes());
    EXPECT_EQ(ca.indptr(), cb.indptr());
    EXPECT_EQ(ca.indices(), cb.indices());
    EXPECT_EQ(ca.weights(), cb.weights());
  }
}

HeteroGraph TwoRelationGraph(int n, uint64_t seed) {
  HeteroGraph g;
  g.name = "ppr-ws-test";
  g.num_nodes = n;
  g.relation_names = {"a", "b"};
  g.relations.push_back(RandomConnectedGraph(n, 2 * n, seed));
  g.relations.push_back(RandomDirectedGraph(n, 3 * n / 2, seed + 7));
  return g;
}

TEST(SubgraphWorkspaceAssembly, BitIdenticalToReferenceAcrossConfigs) {
  HeteroGraph g = TwoRelationGraph(70, 11);
  Rng rng(31);
  Matrix reps = Matrix::RandomNormal(g.num_nodes, 8, 1.0, &rng);
  const std::vector<double> dots = RowSelfDots(reps);
  SubgraphWorkspace ws;
  for (int k : {1, 4, 16, 1000}) {
    for (bool ppr_only : {false, true}) {
      for (double lambda : {0.0, 0.5, 1.0}) {
        BiasedSubgraphConfig cfg;
        cfg.k = k;
        cfg.lambda = lambda;
        cfg.ppr_only = ppr_only;
        for (int center : {0, 17, g.num_nodes - 1}) {
          ExpectSubgraphBitEqual(
              ReferenceBiasedSubgraph(g, reps, center, cfg),
              BuildBiasedSubgraph(g, reps, center, cfg, &ws, &dots));
        }
      }
    }
  }
}

TEST(SubgraphWorkspaceAssembly, ThreadLocalPathMatchesExplicitWorkspace) {
  HeteroGraph g = TwoRelationGraph(40, 3);
  Rng rng(5);
  Matrix reps = Matrix::RandomNormal(g.num_nodes, 6, 1.0, &rng);
  const std::vector<double> dots = RowSelfDots(reps);
  BiasedSubgraphConfig cfg;
  cfg.k = 8;
  SubgraphWorkspace ws;
  for (int center = 0; center < g.num_nodes; center += 5) {
    ExpectSubgraphBitEqual(
        BuildBiasedSubgraph(g, reps, center, cfg, &ws, &dots),
        BuildBiasedSubgraph(g, reps, center, cfg,
                            &ThreadLocalSubgraphWorkspace(), &dots));
  }
}

TEST(SubgraphWorkspaceAssembly, WarmAssemblyAllocatesOnlyTheSubgraph) {
  HeteroGraph g = TwoRelationGraph(80, 13);
  Rng rng(7);
  Matrix reps = Matrix::RandomNormal(g.num_nodes, 8, 1.0, &rng);
  const std::vector<double> dots = RowSelfDots(reps);
  BiasedSubgraphConfig cfg;
  cfg.k = 12;
  SubgraphWorkspace ws;
  // Warm-up sweep: scratch reaches steady state for every centre.
  for (int center = 0; center < g.num_nodes; ++center) {
    BuildBiasedSubgraph(g, reps, center, cfg, &ws, &dots);
  }
  const uint64_t growths = ws.buffer_growths();
  for (int center = 0; center < g.num_nodes; ++center) {
    const uint64_t before = t_allocs;
    BiasedSubgraph sub = BuildBiasedSubgraph(g, reps, center, cfg, &ws, &dots);
    const uint64_t during = t_allocs - before;
    // The only allocations are the returned subgraph's own storage: the
    // per_relation vector, plus per relation the nodes vector, the
    // adjacency's arrays (indptr sentinel {0} from Csr's default ctor, the
    // sized indptr, the indices buffer, and the moved-over temporary's
    // sentinel) and the inv_sqrt_degree values — no scratch.
    const uint64_t output_allocs =
        1 + 6 * static_cast<uint64_t>(sub.per_relation.size());
    EXPECT_LE(during, output_allocs) << "centre " << center;
  }
  EXPECT_EQ(ws.buffer_growths(), growths);
}

TEST(SubgraphWorkspaceAssembly, ConcurrentPerThreadReuseIsRaceFreeAndExact) {
  // Four raw threads assemble disjoint centre ranges through their own
  // thread-local workspaces against one shared read-only graph; results
  // must equal a fresh-workspace serial sweep. TSan (CI) checks the "no
  // shared scratch" claim.
  HeteroGraph g = TwoRelationGraph(64, 17);
  Rng rng(23);
  Matrix reps = Matrix::RandomNormal(g.num_nodes, 8, 1.0, &rng);
  const std::vector<double> dots = RowSelfDots(reps);
  BiasedSubgraphConfig cfg;
  cfg.k = 10;

  std::vector<BiasedSubgraph> serial(g.num_nodes);
  for (int v = 0; v < g.num_nodes; ++v) {
    SubgraphWorkspace fresh;
    serial[v] = BuildBiasedSubgraph(g, reps, v, cfg, &fresh, &dots);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;  // repeated rounds exercise warm reuse
  std::vector<BiasedSubgraph> parallel(g.num_nodes);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Disjoint centre stripe per thread: every slot has one writer.
      for (int round = 0; round < kRounds; ++round) {
        for (int center = w; center < g.num_nodes; center += kThreads) {
          BiasedSubgraph sub = BuildBiasedSubgraph(
              g, reps, center, cfg, &ThreadLocalSubgraphWorkspace(), &dots);
          if (round + 1 == kRounds) parallel[center] = std::move(sub);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int v = 0; v < g.num_nodes; ++v) {
    ExpectSubgraphBitEqual(serial[v], parallel[v]);
  }
}

TEST(SubgraphWorkspaceAssembly, ParallelForSweepMatchesSerial) {
  // BuildAllSubgraphs drives the pool with thread-local workspaces; the
  // result must be identical at any thread count (the broader invariant is
  // also asserted in test_parallel.cc — this pins the workspace path).
  HeteroGraph g = TwoRelationGraph(48, 29);
  Rng rng(41);
  Matrix reps = Matrix::RandomNormal(g.num_nodes, 8, 1.0, &rng);
  BiasedSubgraphConfig cfg;
  cfg.k = 6;
  SetNumThreads(1);
  std::vector<BiasedSubgraph> s1 = BuildAllSubgraphs(g, reps, cfg);
  SetNumThreads(4);
  std::vector<BiasedSubgraph> s4 = BuildAllSubgraphs(g, reps, cfg);
  SetNumThreads(0);
  ASSERT_EQ(s1.size(), s4.size());
  for (size_t v = 0; v < s1.size(); ++v) ExpectSubgraphBitEqual(s1[v], s4[v]);
}

TEST(SubgraphWorkspaceAssembly, EveryScoringRemainderMatchesReference) {
  // Disjoint stars, the one centred at `centres[c]` with c = 8m + r leaves
  // (r = 0..7, m = 0..2): every leaf settles mass, so that centre has
  // exactly c candidates and the eight-wide Eq. 6 loop runs m times before
  // the remainder loop runs r times. Two all-zero rows exercise the
  // cosine's zero-norm branch.
  constexpr int kMaxLeaves = 23;
  std::vector<int> centres;
  std::vector<std::pair<int, int>> edges;
  int n = 0;
  for (int c = 0; c <= kMaxLeaves; ++c) {
    centres.push_back(n);
    for (int leaf = 1; leaf <= c; ++leaf) edges.emplace_back(n, n + leaf);
    n += c + 1;
  }
  HeteroGraph g;
  g.name = "stars";
  g.num_nodes = n;
  g.relation_names = {"a"};
  g.relations.push_back(Csr::FromEdgesSymmetric(n, edges));
  Rng rng(43);
  Matrix reps = Matrix::RandomNormal(n, 32, 1.0, &rng);
  for (int zero_row : {centres[9] + 4, centres[17]}) {
    for (int c = 0; c < reps.cols(); ++c) reps(zero_row, c) = 0.0;
  }
  const std::vector<double> dots = RowSelfDots(reps);
  SubgraphWorkspace ws;
  for (int c = 0; c <= kMaxLeaves; ++c) {
    for (int k : {3, c}) {
      for (double lambda : {0.0, 0.5}) {
        BiasedSubgraphConfig cfg;
        cfg.k = k;
        cfg.lambda = lambda;
        ExpectSubgraphBitEqual(
            ReferenceBiasedSubgraph(g, reps, centres[c], cfg),
            BuildBiasedSubgraph(g, reps, centres[c], cfg, &ws, &dots));
        EXPECT_EQ(static_cast<int>(ws.ppr().result().size()), c + 1);
      }
    }
  }
}

TEST(SubgraphWorkspaceAssembly, EveryCentreOfATwibot22WorldMatchesReference) {
  // The realistic shape: a TwiBot-22 simulant of 1,500 accounts and the
  // 32-dimensional hidden states of its trained pre-classifier. Every
  // centre's subgraph from BuildAllSubgraphs must equal the reference
  // assembly (hash-map PPR, scalar cosine, partial_sort) for lambda = 0,
  // 0.5 and 1, the PPR-only ablation and k = 1, 32 and above every
  // support, with the self-dots supplied and computed by the sweep; and
  // BuildBiasedSubgraph with an explicit workspace is checked on every
  // centre for two configs.
  DatasetConfig dc = Twibot22Sim();
  dc.num_users = 1500;
  const HeteroGraph g = BuildBenchmarkGraph(dc);
  PretrainConfig pc;
  pc.epochs = 20;
  const Matrix reps = PretrainClassifier(g, pc).hidden_reps;
  ASSERT_EQ(reps.cols(), 32);
  const std::vector<double> dots = RowSelfDots(reps);

  // The oracle PPR depends only on (centre, relation): compute it once.
  std::vector<std::vector<SparseVec>> pis(g.num_nodes);
  size_t max_support = 0;
  for (int v = 0; v < g.num_nodes; ++v) {
    for (const Csr& relation : g.relations) {
      pis[v].push_back(ApproximatePpr(relation, v, PprConfig{}));
      max_support = std::max(max_support, pis[v].back().size());
    }
  }
  ASSERT_GT(max_support, 33u);  // k = 32 must select, not take everything
  auto reference = [&](int v, const BiasedSubgraphConfig& cfg) {
    BiasedSubgraph out;
    out.center = v;
    for (int r = 0; r < g.num_relations(); ++r) {
      out.per_relation.push_back(ReferenceRelationSubgraph(
          g.relations[r], pis[v][r], reps, v, cfg));
    }
    return out;
  };

  // Each lambda, the PPR-only ablation and each k, through both sweep
  // entry points. A k above every support keeps whole neighbourhoods,
  // whose reference adjacencies are the costly part, so it runs once.
  struct Case {
    bool ppr_only;
    double lambda;
    int k;
    bool supply_dots;
  };
  const int above = static_cast<int>(max_support) + 1;
  const Case cases[] = {
      {false, 0.0, 1, true},      {false, 0.5, 1, false},
      {false, 1.0, 1, true},      {true, 0.5, 1, false},
      {false, 0.0, 32, false},    {false, 0.5, 32, true},
      {false, 1.0, 32, false},    {true, 0.5, 32, true},
      {false, 0.5, above, true},
  };
  for (const Case& c : cases) {
    BiasedSubgraphConfig cfg;
    cfg.k = c.k;
    cfg.lambda = c.lambda;
    cfg.ppr_only = c.ppr_only;
    const std::vector<BiasedSubgraph> subs =
        c.supply_dots ? BuildAllSubgraphs(g, reps, cfg, &dots)
                      : BuildAllSubgraphs(g, reps, cfg);
    ASSERT_EQ(static_cast<int>(subs.size()), g.num_nodes);
    for (int v = 0; v < g.num_nodes; ++v) {
      ExpectSubgraphBitEqual(reference(v, cfg), subs[v]);
    }
  }

  // One workspace reused across every centre and both configs.
  SubgraphWorkspace ws;
  for (const double lambda : {0.0, 0.5}) {
    BiasedSubgraphConfig cfg;
    cfg.lambda = lambda;
    for (int v = 0; v < g.num_nodes; ++v) {
      ExpectSubgraphBitEqual(reference(v, cfg),
                             BuildBiasedSubgraph(g, reps, v, cfg, &ws, &dots));
    }
  }
}

// --- Csr::FromSortedRows ----------------------------------------------------

TEST(CsrFromSortedRows, MatchesFromAdjacencyListsAndIgnoresExtraRows) {
  std::vector<std::vector<int>> rows = {{1, 2}, {0}, {0, 3}, {2}, {9, 9, 9}};
  Csr a = Csr::FromSortedRows(4, rows);  // row 4 ignored
  std::vector<std::vector<int>> lists(rows.begin(), rows.begin() + 4);
  Csr b = Csr::FromAdjacencyLists(std::move(lists));
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.indptr(), b.indptr());
  EXPECT_EQ(a.indices(), b.indices());
  EXPECT_TRUE(a.Validate().ok());
}

}  // namespace
}  // namespace bsg
