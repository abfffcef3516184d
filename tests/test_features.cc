// K-means, z-score and the feature pipeline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "features/kmeans.h"
#include "features/kmeans_lanes.h"
#include "features/zscore.h"
#include "test_common.h"
#include "util/parallel.h"

namespace bsg {
namespace {

TEST(KMeans, RecoversWellSeparatedClusters) {
  Rng rng(1);
  // Three tight blobs far apart.
  Matrix points(90, 2);
  for (int i = 0; i < 90; ++i) {
    int c = i / 30;
    points(i, 0) = c * 20.0 + rng.Normal(0, 0.3);
    points(i, 1) = -c * 15.0 + rng.Normal(0, 0.3);
  }
  KMeansConfig cfg;
  cfg.k = 3;
  KMeansResult res = RunKMeans(points, cfg, &rng);
  // All points of a blob share one cluster id.
  for (int blob = 0; blob < 3; ++blob) {
    std::set<int> ids;
    for (int i = blob * 30; i < (blob + 1) * 30; ++i) {
      ids.insert(res.assignment[i]);
    }
    EXPECT_EQ(ids.size(), 1u) << "blob " << blob;
  }
  // Distinct blobs get distinct ids.
  std::set<int> all(res.assignment.begin(), res.assignment.end());
  EXPECT_EQ(all.size(), 3u);
}

TEST(KMeans, InertiaNonIncreasingAcrossRuns) {
  Rng rng(2);
  Matrix points = Matrix::RandomNormal(200, 4, 1.0, &rng);
  KMeansConfig one_iter;
  one_iter.k = 5;
  one_iter.max_iters = 1;
  KMeansConfig many;
  many.k = 5;
  many.max_iters = 25;
  Rng r1(7), r2(7);
  double inertia1 = RunKMeans(points, one_iter, &r1).inertia;
  double inertia2 = RunKMeans(points, many, &r2).inertia;
  EXPECT_LE(inertia2, inertia1 + 1e-9);
}

TEST(KMeans, AssignToCentersMatchesTraining) {
  Rng rng(3);
  Matrix points = Matrix::RandomNormal(100, 3, 1.0, &rng);
  KMeansConfig cfg;
  cfg.k = 4;
  KMeansResult res = RunKMeans(points, cfg, &rng);
  std::vector<int> re = AssignToCenters(points, res.centers);
  EXPECT_EQ(re, res.assignment);
}

TEST(KMeans, EveryClusterIdInRange) {
  Rng rng(4);
  Matrix points = Matrix::RandomNormal(50, 2, 1.0, &rng);
  KMeansConfig cfg;
  cfg.k = 7;
  KMeansResult res = RunKMeans(points, cfg, &rng);
  for (int a : res.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 7);
  }
}

// A scalar copy of k-means, the oracle for every width of the vector
// kernel in kmeans.cc: SqDist per point and centre, strict-< argmin over
// the centres in order, inertia summed in point order per 256-point chunk
// and then over chunks, as ParallelSum does; k-means++ seeding with
// std::min and a serial running total; the update in point order.
namespace scalar_kmeans {

double SqDist(const double* a, const double* b, int d) {
  double s = 0.0;
  for (int c = 0; c < d; ++c) {
    double diff = a[c] - b[c];
    s += diff * diff;
  }
  return s;
}

double Assign(const Matrix& points, const Matrix& centers,
              std::vector<int>* assignment) {
  const int n = points.rows(), d = points.cols(), k = centers.rows();
  double total = 0.0;
  for (int lo = 0; lo < n; lo += 256) {
    double inertia = 0.0;
    for (int i = lo; i < std::min(n, lo + 256); ++i) {
      int best = 0;
      double best_d = SqDist(points.row(i), centers.row(0), d);
      for (int c = 1; c < k; ++c) {
        double d2 = SqDist(points.row(i), centers.row(c), d);
        if (d2 < best_d) {
          best_d = d2;
          best = c;
        }
      }
      (*assignment)[i] = best;
      inertia += best_d;
    }
    total += inertia;
  }
  return total;
}

Matrix SeedPlusPlus(const Matrix& points, int k, Rng* rng) {
  const int n = points.rows(), d = points.cols();
  Matrix centers(k, d);
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  int first = static_cast<int>(rng->UniformInt(n));
  std::copy(points.row(first), points.row(first) + d, centers.row(0));
  for (int c = 1; c < k; ++c) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      double d2 = SqDist(points.row(i), centers.row(c - 1), d);
      dist2[i] = std::min(dist2[i], d2);
      total += dist2[i];
    }
    int chosen = n - 1;
    if (total > 0.0) {
      double x = rng->Uniform() * total;
      double acc = 0.0;
      for (int i = 0; i < n; ++i) {
        acc += dist2[i];
        if (x < acc) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<int>(rng->UniformInt(n));
    }
    std::copy(points.row(chosen), points.row(chosen) + d, centers.row(c));
  }
  return centers;
}

KMeansResult Run(const Matrix& points, const KMeansConfig& cfg, Rng* rng) {
  const int n = points.rows(), d = points.cols(), k = cfg.k;
  KMeansResult res;
  res.centers = SeedPlusPlus(points, k, rng);
  res.assignment.assign(n, 0);
  for (int it = 0; it < cfg.max_iters; ++it) {
    res.inertia = Assign(points, res.centers, &res.assignment);
    Matrix next(k, d);
    std::vector<int> counts(k, 0);
    for (int i = 0; i < n; ++i) {
      int c = res.assignment[i];
      counts[c]++;
      for (int j = 0; j < d; ++j) next(c, j) += points(i, j);
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        int i = static_cast<int>(rng->UniformInt(n));
        std::copy(points.row(i), points.row(i) + d, next.row(c));
      } else {
        for (int j = 0; j < d; ++j) next(c, j) /= counts[c];
      }
    }
    double movement = 0.0;
    for (int c = 0; c < k; ++c) {
      movement += SqDist(next.row(c), res.centers.row(c), d);
    }
    res.centers = std::move(next);
    res.iters_run = it + 1;
    if (std::sqrt(movement) < cfg.tol) break;
  }
  return res;
}

}  // namespace scalar_kmeans

// Random normal points, every third one an exact copy of an earlier point:
// duplicate points, and centres seeded on duplicates, tie exactly.
Matrix PointsWithDuplicates(int n, int d, Rng* rng) {
  Matrix m = Matrix::RandomNormal(n, d, 1.0, rng);
  for (int i = 3; i < n; i += 3) {
    const int src = static_cast<int>(rng->UniformInt(i));
    std::copy(m.row(src), m.row(src) + d, m.row(i));
  }
  return m;
}

TEST(KMeans, MatchesTheScalarLoopBitwise) {
  bsg::testing::ThreadGuard guard;
  Rng data_rng(91);
  for (int d : {1, 3, 12}) {
    for (int k : {1, 5, 12, 13, 20, 25}) {
      const Matrix points = PointsWithDuplicates(700, d, &data_rng);
      KMeansConfig cfg;
      cfg.k = k;
      cfg.max_iters = 8;
      Rng want_rng(1000 + k * 7 + d);
      const KMeansResult want = scalar_kmeans::Run(points, cfg, &want_rng);
      const uint64_t want_next = want_rng.NextU64();  // the RNG position
      // Centres with exact duplicates (tied rows): the lowest index wins.
      Matrix tied = want.centers;
      if (k > 2) {
        std::copy(tied.row(0), tied.row(0) + d, tied.row(k - 1));
        std::copy(tied.row(1), tied.row(1) + d, tied.row(2));
      }
      std::vector<int> want_tied(points.rows());
      scalar_kmeans::Assign(points, tied, &want_tied);
      for (int threads : {1, 4}) {
        SetNumThreads(threads);
        SCOPED_TRACE("d=" + std::to_string(d) + " k=" + std::to_string(k) +
                     " threads=" + std::to_string(threads));
        Rng got_rng(1000 + k * 7 + d);
        const KMeansResult got = RunKMeans(points, cfg, &got_rng);
        EXPECT_EQ(got.assignment, want.assignment);
        EXPECT_TRUE(bsg::testing::SameBits(got.inertia, want.inertia));
        EXPECT_TRUE(bsg::testing::SameBits(got.centers, want.centers));
        EXPECT_EQ(got.iters_run, want.iters_run);
        EXPECT_EQ(got_rng.NextU64(), want_next);
        EXPECT_EQ(AssignToCenters(points, tied), want_tied);
      }
    }
  }
}

// The k-means kernel widths this build and CPU can run; an unsupported one
// is reported as skipped.
std::vector<kmeans::Width> SupportedWidths() {
  std::vector<kmeans::Width> out;
  for (kmeans::Width w : {kmeans::Width::kSse2, kmeans::Width::kAvx512f}) {
    if (kmeans::WidthSupported(w)) {
      out.push_back(w);
    } else {
      std::printf("[  SKIPPED ] %s k-means width: not supported on this "
                  "build/CPU\n",
                  kmeans::WidthName(w));
    }
  }
  return out;
}

// kmeans::Run at `width` against the scalar loop, at 1 and 4 threads:
// assignment, inertia and centre bits, iters_run and the RNG position.
void ExpectScalarRun(kmeans::Width width, const Matrix& points,
                     const KMeansConfig& cfg, uint64_t seed) {
  Rng want_rng(seed);
  const KMeansResult want = scalar_kmeans::Run(points, cfg, &want_rng);
  const uint64_t want_next = want_rng.NextU64();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE(std::string(kmeans::WidthName(width)) +
                 " threads=" + std::to_string(threads));
    Rng got_rng(seed);
    const KMeansResult got = kmeans::Run(width, points, cfg, &got_rng);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_TRUE(bsg::testing::SameBits(got.inertia, want.inertia));
    EXPECT_TRUE(bsg::testing::SameBits(got.centers, want.centers));
    EXPECT_EQ(got.iters_run, want.iters_run);
    EXPECT_EQ(got_rng.NextU64(), want_next);
  }
}

TEST(KMeansWidths, EachMatchesTheScalarLoopBitwise) {
  bsg::testing::ThreadGuard guard;
  Rng data_rng(92);
  for (int d : {1, 3, 12, 17, 40}) {
    // 256 + r points: the last 256-point chunk and the last vector hold
    // r points, every remainder 0-7 (a whole chunk and vector for r = 0).
    for (int r = 0; r < 8; ++r) {
      const Matrix points = PointsWithDuplicates(256 + r, d, &data_rng);
      for (int k : {1, 6, 20}) {
        KMeansConfig cfg;
        cfg.k = k;
        cfg.max_iters = 6;
        for (kmeans::Width width : SupportedWidths()) {
          SCOPED_TRACE("d=" + std::to_string(d) + " n=" +
                       std::to_string(256 + r) + " k=" + std::to_string(k));
          ExpectScalarRun(width, points, cfg, 2000 + d * 31 + r * 7 + k);
        }
      }
    }
  }
}

TEST(KMeansWidths, DegenerateInputsTakeTheScalarBranches) {
  bsg::testing::ThreadGuard guard;
  // All points identical: every seeding step after the first finds a total
  // of 0 and draws a uniform point, every distance ties, so all points go
  // to centre 0 and the other clusters are re-seeded each iteration.
  Matrix same(43, 3);
  for (int i = 0; i < same.rows(); ++i) {
    same(i, 0) = 1.5;
    same(i, 1) = -2.0;
    same(i, 2) = 0.25;
  }
  // Two distinct points, repeated: the third centre is seeded with a total
  // of 0 onto a copy of one of them, so its cluster empties on a tie.
  Matrix two(21, 2);
  for (int i = 0; i < two.rows(); ++i) {
    two(i, 0) = i % 2 == 0 ? 3.0 : -1.0;
    two(i, 1) = i % 2 == 0 ? 0.5 : 7.0;
  }
  for (kmeans::Width width : SupportedWidths()) {
    for (int k : {1, 4, 9}) {
      KMeansConfig cfg;
      cfg.k = k;
      cfg.max_iters = 5;
      SCOPED_TRACE("identical points, k=" + std::to_string(k));
      ExpectScalarRun(width, same, cfg, 300 + k);
    }
    for (int k : {2, 3, 5}) {
      KMeansConfig cfg;
      cfg.k = k;
      cfg.max_iters = 5;
      SCOPED_TRACE("two distinct points, k=" + std::to_string(k));
      ExpectScalarRun(width, two, cfg, 400 + k);
    }
  }
}

TEST(KMeansWidths, AssignResolvesTiesAndNaNAsTheScalarScan) {
  bsg::testing::ThreadGuard guard;
  Rng rng(93);
  for (int d : {1, 3, 12, 17, 40}) {
    Matrix points = PointsWithDuplicates(523, d, &rng);
    Matrix centers = Matrix::RandomNormal(11, d, 1.0, &rng);
    // Exact ties: duplicated centre rows, the lower index must win, and
    // points sitting exactly on a centre.
    std::copy(centers.row(2), centers.row(2) + d, centers.row(9));
    std::copy(centers.row(0), centers.row(0) + d, centers.row(5));
    std::copy(centers.row(9), centers.row(9) + d, points.row(7));
    // A NaN distance never wins nor loses (a NaN or infinite coordinate),
    // and a NaN or +Inf distance to centre 0 is kept.
    points(3, d - 1) = std::numeric_limits<double>::quiet_NaN();
    points(4, 0) = std::numeric_limits<double>::infinity();
    points(5, 0) = -std::numeric_limits<double>::infinity();
    Matrix with_inf = centers;
    with_inf(4, 0) = std::numeric_limits<double>::infinity();
    with_inf(0, 0) = std::numeric_limits<double>::quiet_NaN();
    for (const Matrix* c : {&centers, &with_inf}) {
      std::vector<int> want(points.rows());
      scalar_kmeans::Assign(points, *c, &want);
      for (kmeans::Width width : SupportedWidths()) {
        for (int threads : {1, 4}) {
          SetNumThreads(threads);
          SCOPED_TRACE(std::string(kmeans::WidthName(width)) + " d=" +
                       std::to_string(d) +
                       " threads=" + std::to_string(threads));
          EXPECT_EQ(kmeans::Assign(width, points, *c), want);
        }
      }
    }
  }
}

TEST(KMeansWidths, DispatchesTheWidestSupportedWidth) {
  const kmeans::Width width = kmeans::DispatchedWidth();
  std::printf("dispatched k-means width: %s\n", kmeans::WidthName(width));
  EXPECT_TRUE(kmeans::WidthSupported(width));
  EXPECT_TRUE(kmeans::WidthSupported(kmeans::Width::kSse2));
  if (kmeans::WidthSupported(kmeans::Width::kAvx512f)) {
    EXPECT_EQ(width, kmeans::Width::kAvx512f);
  }
}

TEST(ZScore, TransformedColumnsAreStandard) {
  Rng rng(5);
  Matrix data(500, 3);
  for (int i = 0; i < 500; ++i) {
    data(i, 0) = rng.Normal(10.0, 2.0);
    data(i, 1) = rng.Normal(-3.0, 0.5);
    data(i, 2) = 42.0;  // constant column
  }
  ZScoreScaler scaler;
  Matrix z = scaler.FitTransform(data);
  auto means = z.ColMeans();
  auto sds = z.ColStddevs();
  EXPECT_NEAR(means[0], 0.0, 1e-9);
  EXPECT_NEAR(sds[0], 1.0, 1e-9);
  EXPECT_NEAR(means[1], 0.0, 1e-9);
  // Constant column: centred, not exploded.
  EXPECT_NEAR(z(0, 2), 0.0, 1e-9);
}

TEST(ZScore, TransformUsesFittedStats) {
  Matrix fit_data = Matrix::FromRows({{0.0}, {10.0}});
  ZScoreScaler scaler;
  scaler.Fit(fit_data);
  Matrix other = Matrix::FromRows({{5.0}});
  Matrix z = scaler.Transform(other);
  EXPECT_NEAR(z(0, 0), 0.0, 1e-12);  // 5 is the fitted mean
}

TEST(FeaturePipeline, BuildsValidatedGraphWithAllBlocks) {
  DatasetConfig cfg = MgtabSim();
  cfg.num_users = 400;
  cfg.tweets_per_user = 10;
  FeatureReport report;
  HeteroGraph g = BuildBenchmarkGraph(cfg, &report);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.num_nodes, 400);
  EXPECT_EQ(g.num_relations(), 7);
  for (const char* block :
       {"desc", "tweet", "num", "cat", "category", "temporal"}) {
    EXPECT_TRUE(g.feature_blocks.count(block)) << block;
  }
  // Blocks tile the feature matrix exactly.
  int total = 0;
  for (const auto& [name, blk] : g.feature_blocks) {
    (void)name;
    total += blk.len;
  }
  EXPECT_EQ(total, g.feature_dim());
  // Expected width: desc(12) + tweet(12) + num(5) + cat(3) +
  // category(1+20) + temporal(12).
  EXPECT_EQ(g.feature_dim(), 12 + 12 + 5 + 3 + 21 + 12);
  EXPECT_EQ(report.num_categories_per_user.size(), 400u);
}

TEST(FeaturePipeline, SplitsArePartition) {
  DatasetConfig cfg = Twibot20Sim();
  cfg.num_users = 300;
  cfg.tweets_per_user = 8;
  HeteroGraph g = BuildBenchmarkGraph(cfg);
  std::vector<int> all;
  all.insert(all.end(), g.train_idx.begin(), g.train_idx.end());
  all.insert(all.end(), g.val_idx.begin(), g.val_idx.end());
  all.insert(all.end(), g.test_idx.begin(), g.test_idx.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), 300u);
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());  // unique
}

TEST(FeaturePipeline, SplitsAreStratified) {
  DatasetConfig cfg = Twibot22Sim();
  cfg.num_users = 1000;
  cfg.tweets_per_user = 6;
  HeteroGraph g = BuildBenchmarkGraph(cfg);
  auto bot_frac = [&](const std::vector<int>& idx) {
    int bots = 0;
    for (int v : idx) bots += g.labels[v];
    return static_cast<double>(bots) / idx.size();
  };
  double train_frac = bot_frac(g.train_idx);
  double test_frac = bot_frac(g.test_idx);
  EXPECT_NEAR(train_frac, test_frac, 0.05);
}

TEST(FeaturePipeline, CategoryFeatureSeparatesBotsFromHumans) {
  // The paper's Fig. 2 regularity must survive the pipeline: bots hit
  // fewer distinct categories than humans on average.
  DatasetConfig cfg = Twibot20Sim();
  cfg.num_users = 600;
  cfg.tweets_per_user = 30;
  FeatureReport report;
  HeteroGraph g = BuildBenchmarkGraph(cfg, &report);
  double bot_mean = 0.0, human_mean = 0.0;
  int bots = 0, humans = 0;
  for (int u = 0; u < g.num_nodes; ++u) {
    if (g.labels[u] == 1) {
      bot_mean += report.num_categories_per_user[u];
      ++bots;
    } else {
      human_mean += report.num_categories_per_user[u];
      ++humans;
    }
  }
  ASSERT_GT(bots, 0);
  ASSERT_GT(humans, 0);
  EXPECT_LT(bot_mean / bots + 1.5, human_mean / humans);
}

TEST(FeaturePipeline, TemporalPercentagesSumToOne) {
  DatasetConfig cfg = MgtabSim();
  cfg.num_users = 200;
  cfg.tweets_per_user = 6;
  HeteroGraph g = BuildBenchmarkGraph(cfg);
  FeatureBlock blk = g.feature_blocks.at("temporal");
  for (int u = 0; u < g.num_nodes; ++u) {
    double total = 0.0;
    for (int c = 0; c < blk.len; ++c) total += g.features(u, blk.start + c);
    EXPECT_NEAR(total, 1.0, 1e-9) << "user " << u;
  }
}

TEST(FeaturePipeline, DeterministicAcrossRuns) {
  DatasetConfig cfg = Twibot20Sim();
  cfg.num_users = 150;
  cfg.tweets_per_user = 6;
  HeteroGraph a = BuildBenchmarkGraph(cfg);
  HeteroGraph b = BuildBenchmarkGraph(cfg);
  ASSERT_EQ(a.features.size(), b.features.size());
  for (size_t i = 0; i < a.features.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.features.data()[i], b.features.data()[i]);
  }
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.train_idx, b.train_idx);
}

}  // namespace
}  // namespace bsg
