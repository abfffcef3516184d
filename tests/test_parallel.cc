// Parallel substrate: ParallelFor range coverage, and bit-exact equivalence
// of every parallelised kernel at 1 vs N threads (the determinism contract
// of util/parallel.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/biased_subgraph.h"
#include "features/kmeans.h"
#include "tensor/ops.h"
#include "test_common.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bsg {
namespace {

using bsg::testing::SameBits;
using bsg::testing::ThreadGuard;

TEST(ParallelFor, CoversExactRangeOnce) {
  ThreadGuard guard;
  for (int threads : {1, 3, 4}) {
    SetNumThreads(threads);
    for (int64_t grain : {1, 3, 7, 100}) {
      std::vector<std::atomic<int>> hits(57);
      for (auto& h : hits) h.store(0);
      ParallelFor(0, 57, grain, [&](int64_t lo, int64_t hi) {
        EXPECT_LE(lo, hi);
        EXPECT_LE(hi - lo, grain);
        for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
      }
    }
  }
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  ThreadGuard guard;
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(0, 0, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(9, 2, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, GrainLargerThanRangeIsOneChunk) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(3, 10, 100, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(lo, 3);
    EXPECT_EQ(hi, 10);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, UnevenSplitLastChunkIsShort) {
  ThreadGuard guard;
  SetNumThreads(2);
  std::vector<std::pair<int64_t, int64_t>> chunks(4, {-1, -1});
  ParallelFor(0, 10, 3, [&](int64_t lo, int64_t hi) {
    chunks[static_cast<size_t>(lo / 3)] = {lo, hi};
  });
  std::vector<std::pair<int64_t, int64_t>> want = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(chunks, want);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::atomic<bool> nested_seen_worker{false};
  ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    // Inside a region: nested loops must not deadlock and must report the
    // region flag on pool workers.
    ParallelFor(0, 4, 1, [&](int64_t, int64_t) {
      if (InParallelRegion()) nested_seen_worker.store(true);
    });
  });
  SUCCEED();  // completion without deadlock is the assertion
  (void)nested_seen_worker;
}

TEST(ParallelFor, BackToBackTinyRegionsStress) {
  // Regression stress for the straggler window: a worker notified for
  // region N can wake after N completed, while region N+1 is being armed.
  // Thousands of tiny consecutive regions maximise that overlap.
  ThreadGuard guard;
  SetNumThreads(4);
  std::atomic<int64_t> total{0};
  int64_t expected = 0;
  for (int r = 0; r < 5000; ++r) {
    int64_t n = 1 + (r % 7);
    expected += n;
    ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
      total.fetch_add(hi - lo);
    });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelFor, ConcurrentOrchestratorsSerializeSafely) {
  // Two plain application threads each launch many regions; the pool's
  // single task slot serializes them, and every region must still cover
  // its own range exactly.
  ThreadGuard guard;
  SetNumThreads(4);
  auto hammer = [](std::atomic<int64_t>* total, int64_t* expected) {
    for (int r = 0; r < 800; ++r) {
      int64_t n = 1 + (r % 11);
      *expected += n;
      ParallelFor(0, n, 2, [&](int64_t lo, int64_t hi) {
        total->fetch_add(hi - lo);
      });
    }
  };
  std::atomic<int64_t> total_a{0}, total_b{0};
  int64_t expected_a = 0, expected_b = 0;
  std::thread ta(hammer, &total_a, &expected_a);
  std::thread tb(hammer, &total_b, &expected_b);
  ta.join();
  tb.join();
  EXPECT_EQ(total_a.load(), expected_a);
  EXPECT_EQ(total_b.load(), expected_b);
}

TEST(ParallelSum, ChunkOrderedReductionIsThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(5);
  std::vector<double> values(10001);
  for (auto& v : values) v = rng.Normal(0.0, 1.0);
  auto chunk_sum = [&](int64_t lo, int64_t hi) {
    double s = 0.0;
    for (int64_t i = lo; i < hi; ++i) s += values[i];
    return s;
  };
  SetNumThreads(1);
  double serial = ParallelSum(0, 10001, 64, chunk_sum);
  for (int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    double parallel = ParallelSum(0, 10001, 64, chunk_sum);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(ParallelConfig, SetAndResetThreads) {
  ThreadGuard guard;
  SetNumThreads(4);
  EXPECT_EQ(NumThreads(), 4);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
  EXPECT_FALSE(InParallelRegion());
}

// --- bit-exact 1 vs N equivalence of the wired substrates -----------------

TEST(ParallelEquivalence, MatMulAndTransposed) {
  ThreadGuard guard;
  Rng rng(9);
  // Odd shapes so row chunks split unevenly.
  Matrix a = Matrix::RandomNormal(130, 71, 1.0, &rng);
  Matrix b = Matrix::RandomNormal(71, 93, 1.0, &rng);
  SetNumThreads(1);
  Matrix prod1 = a.MatMul(b);
  Matrix t1 = a.Transposed();
  for (int threads : {2, 4}) {
    SetNumThreads(threads);
    EXPECT_TRUE(SameBits(a.MatMul(b), prod1)) << "threads=" << threads;
    EXPECT_TRUE(SameBits(a.Transposed(), t1)) << "threads=" << threads;
  }
}

TEST(ParallelEquivalence, ColStats) {
  ThreadGuard guard;
  Rng rng(21);
  Matrix m = Matrix::RandomNormal(301, 45, 2.0, &rng);
  SetNumThreads(1);
  std::vector<double> means1 = m.ColMeans();
  std::vector<double> sd1 = m.ColStddevs();
  SetNumThreads(4);
  EXPECT_EQ(m.ColMeans(), means1);
  EXPECT_EQ(m.ColStddevs(), sd1);
}

TEST(ParallelEquivalence, SpMMForwardAndBackward) {
  ThreadGuard guard;
  Rng rng(33);
  const int n = 500;
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int e = 0; e < 6; ++e) {
      edges.emplace_back(u, static_cast<int>(rng.UniformInt(n)));
    }
  }
  SpMat adj =
      MakeSpMat(Csr::FromEdgesSymmetric(n, edges).Normalized(CsrNorm::kSym));
  Matrix x_val = Matrix::RandomNormal(n, 24, 1.0, &rng);

  auto run = [&](int threads) {
    SetNumThreads(threads);
    Tensor x = MakeTensor(x_val, /*requires_grad=*/true);
    Tensor y = ops::SpMM(adj, x);
    Tensor loss = ops::SumAll(ops::Mul(y, y));
    Backward(loss);
    return std::make_pair(y->value, x->grad);
  };
  auto [y1, g1] = run(1);
  for (int threads : {2, 4}) {
    auto [yn, gn] = run(threads);
    EXPECT_TRUE(SameBits(yn, y1)) << "threads=" << threads;
    EXPECT_TRUE(SameBits(gn, g1)) << "threads=" << threads;
  }
}

TEST(ParallelEquivalence, SegmentSumValueAndGradient) {
  ThreadGuard guard;
  Rng rng(41);
  const int edges = 777, segments = 130;
  auto seg_ptr = std::make_shared<std::vector<int64_t>>();
  seg_ptr->push_back(0);
  for (int s = 1; s < segments; ++s) {
    seg_ptr->push_back(static_cast<int64_t>(rng.UniformInt(edges)));
  }
  seg_ptr->push_back(edges);
  std::sort(seg_ptr->begin(), seg_ptr->end());
  Matrix msgs_val = Matrix::RandomNormal(edges, 12, 1.0, &rng);

  auto run = [&](int threads) {
    SetNumThreads(threads);
    Tensor msgs = MakeTensor(msgs_val, /*requires_grad=*/true);
    Tensor y = ops::SegmentSum(msgs, seg_ptr);
    Backward(ops::SumAll(ops::Mul(y, y)));
    return std::make_pair(y->value, msgs->grad);
  };
  auto [y1, g1] = run(1);
  auto [y4, g4] = run(4);
  EXPECT_TRUE(SameBits(y4, y1));
  EXPECT_TRUE(SameBits(g4, g1));
}

TEST(ParallelEquivalence, BuildAllSubgraphs) {
  ThreadGuard guard;
  const HeteroGraph& g = bsg::testing::SmallGraph();
  Rng rng(55);
  Matrix reps = Matrix::RandomNormal(g.num_nodes, 16, 1.0, &rng);
  BiasedSubgraphConfig cfg;
  cfg.k = 16;

  SetNumThreads(1);
  std::vector<BiasedSubgraph> s1 = BuildAllSubgraphs(g, reps, cfg);
  SetNumThreads(4);
  std::vector<BiasedSubgraph> s4 = BuildAllSubgraphs(g, reps, cfg);

  ASSERT_EQ(s1.size(), s4.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].center, s4[i].center);
    ASSERT_EQ(s1[i].per_relation.size(), s4[i].per_relation.size());
    for (size_t r = 0; r < s1[i].per_relation.size(); ++r) {
      EXPECT_EQ(s1[i].per_relation[r].nodes, s4[i].per_relation[r].nodes);
      EXPECT_EQ(s1[i].per_relation[r].adj.indptr(),
                s4[i].per_relation[r].adj.indptr());
      EXPECT_EQ(s1[i].per_relation[r].adj.indices(),
                s4[i].per_relation[r].adj.indices());
    }
  }
}

TEST(ParallelEquivalence, MatrixReductions) {
  ThreadGuard guard;
  Rng rng(77);
  // Bigger than the 4096-element reduction grain, so several chunks run.
  Matrix big = Matrix::RandomNormal(150, 120, 1.0, &rng);
  // At or below one grain: must reproduce the serial reference loop bit
  // for bit (this path carries the training-time MeanAll/SumAll calls).
  Matrix small = Matrix::RandomNormal(11, 13, 1.0, &rng);
  double small_sum = 0.0, small_sq = 0.0, small_max = 0.0;
  for (size_t i = 0; i < small.size(); ++i) {
    small_sum += small.data()[i];
    small_sq += small.data()[i] * small.data()[i];
    small_max = std::max(small_max, std::fabs(small.data()[i]));
  }

  SetNumThreads(1);
  double sum1 = big.Sum(), fro1 = big.FrobeniusNorm(), max1 = big.AbsMax();
  SetNumThreads(4);
  EXPECT_EQ(big.Sum(), sum1);            // fixed-grain chunk combine: exact
  EXPECT_EQ(big.FrobeniusNorm(), fro1);  // thread-count invariant
  EXPECT_EQ(big.AbsMax(), max1);
  EXPECT_EQ(small.Sum(), small_sum);
  EXPECT_EQ(small.FrobeniusNorm(), std::sqrt(small_sq));
  EXPECT_EQ(small.AbsMax(), small_max);
  // Serial chunked result is sane against a plain serial total.
  double plain = 0.0;
  for (size_t i = 0; i < big.size(); ++i) plain += big.data()[i];
  EXPECT_NEAR(big.Sum(), plain, 1e-9);
}

TEST(ParallelEquivalence, KMeansFullRun) {
  ThreadGuard guard;
  Rng data_rng(66);
  Matrix points = Matrix::RandomNormal(900, 8, 1.0, &data_rng);
  KMeansConfig cfg;
  cfg.k = 7;
  cfg.max_iters = 12;

  SetNumThreads(1);
  Rng rng1(123);
  KMeansResult r1 = RunKMeans(points, cfg, &rng1);
  SetNumThreads(4);
  Rng rng4(123);
  KMeansResult r4 = RunKMeans(points, cfg, &rng4);

  EXPECT_EQ(r1.assignment, r4.assignment);
  EXPECT_EQ(r1.iters_run, r4.iters_run);
  EXPECT_EQ(r1.inertia, r4.inertia);  // chunk-ordered reduction: exact
  EXPECT_TRUE(SameBits(r1.centers, r4.centers));

  std::vector<int> a1 = AssignToCenters(points, r1.centers);
  SetNumThreads(1);
  std::vector<int> a4 = AssignToCenters(points, r1.centers);
  EXPECT_EQ(a1, a4);
}

}  // namespace
}  // namespace bsg
