#include "features/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/parallel.h"
#include "util/status.h"

// Loops start on 64-byte boundaries, as in tensor/matrix.cc (see the reason
// there): the assignment step's distance loops are as short as the GEMM's.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=64")
#endif

namespace bsg {

namespace {

// Point-range grain for the parallel assignment step. Fixed (independent of
// thread count) so the chunk-ordered inertia reduction is deterministic.
constexpr int kAssignGrain = 256;

double SqDist(const double* a, const double* b, int d) {
  double s = 0.0;
  for (int c = 0; c < d; ++c) {
    double diff = a[c] - b[c];
    s += diff * diff;
  }
  return s;
}

// Nearest-centre scan for points [lo, hi): writes assignments, returns the
// summed squared distance of the range. Shared by the Lloyd assignment
// step and AssignToCenters so the assignment rule lives in one place.
double AssignRange(const Matrix& points, const Matrix& centers, int64_t lo,
                   int64_t hi, std::vector<int>* assignment) {
  const int d = points.cols(), k = centers.rows();
  double inertia = 0.0;
  for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
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
  return inertia;
}

// k-means++ seeding: first centre uniform, next centres proportional to
// squared distance from the nearest chosen centre.
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

}  // namespace

KMeansResult RunKMeans(const Matrix& points, const KMeansConfig& cfg,
                       Rng* rng) {
  const int n = points.rows(), d = points.cols(), k = cfg.k;
  BSG_CHECK(n >= k && k > 0, "k-means needs at least k points");
  KMeansResult res;
  res.centers = SeedPlusPlus(points, k, rng);
  res.assignment.assign(n, 0);

  for (int it = 0; it < cfg.max_iters; ++it) {
    // Assignment step: parallel over point ranges (each point's slot is
    // written by exactly one chunk); the inertia is reduced in chunk order,
    // so it is bit-identical at any thread count.
    res.inertia = ParallelSum(0, n, kAssignGrain, [&](int64_t i0, int64_t i1) {
      return AssignRange(points, res.centers, i0, i1, &res.assignment);
    });
    // Update step.
    Matrix next(k, d);
    std::vector<int> counts(k, 0);
    for (int i = 0; i < n; ++i) {
      int c = res.assignment[i];
      counts[c]++;
      const double* p = points.row(i);
      double* ctr = next.row(c);
      for (int j = 0; j < d; ++j) ctr[j] += p[j];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        int i = static_cast<int>(rng->UniformInt(n));
        std::copy(points.row(i), points.row(i) + d, next.row(c));
      } else {
        double* ctr = next.row(c);
        for (int j = 0; j < d; ++j) ctr[j] /= counts[c];
      }
    }
    // Convergence check.
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

std::vector<int> AssignToCenters(const Matrix& points, const Matrix& centers) {
  BSG_CHECK(points.cols() == centers.cols(), "dimension mismatch");
  const int n = points.rows();
  std::vector<int> out(n, 0);
  ParallelFor(0, n, kAssignGrain, [&](int64_t i0, int64_t i1) {
    AssignRange(points, centers, i0, i1, &out);
  });
  return out;
}

}  // namespace bsg
