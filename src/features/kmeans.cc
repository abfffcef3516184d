#include "features/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/simd.h"
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

// The assignment step's view of the centres: transposed to d x kp, where
// kp is k rounded up to a whole number of kCenterBlock-wide blocks (the
// padding lanes hold zeros and are never read back), so one dimension of
// consecutive centres is contiguous.
constexpr int kCenterBlock = 12;

struct CentersByDim {
  int k = 0, kp = 0;
  std::vector<double> t;  // t[j * kp + c] = centre c's coordinate j

  explicit CentersByDim(const Matrix& centers)
      : k(centers.rows()),
        kp((centers.rows() + kCenterBlock - 1) / kCenterBlock * kCenterBlock),
        t(static_cast<size_t>(centers.cols()) * kp, 0.0) {
    for (int c = 0; c < k; ++c) {
      for (int j = 0; j < centers.cols(); ++j) t[j * kp + c] = centers(c, j);
    }
  }
};

// Nearest-centre scan for points [lo, hi): writes assignments, returns the
// summed squared distance of the range. Shared by the Lloyd assignment
// step and AssignToCenters so the assignment rule lives in one place.
//
// A point's distances to a block of kCenterBlock centres accumulate in
// Double2 lanes, one lane per centre, each over the dimensions in order
// from +0.0: the sums of SqDist(point, centre), bit for bit. The scan then
// keeps the first centre with the strictly smallest distance.
double AssignRange(const Matrix& points, const CentersByDim& centers,
                   int64_t lo, int64_t hi, std::vector<int>* assignment) {
  constexpr int kVecs = kCenterBlock / 2;
  const int d = points.cols(), k = centers.k, kp = centers.kp;
  std::vector<double> dist(kp);
  double inertia = 0.0;
  for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
    const double* p = points.row(i);
    for (int c0 = 0; c0 < kp; c0 += kCenterBlock) {
      Double2 acc[kVecs] = {};
      for (int j = 0; j < d; ++j) {
        const double* cj = centers.t.data() + j * kp + c0;
        for (int v = 0; v < kVecs; ++v) {
          const Double2 diff = p[j] - LoadVec<Double2>(cj + 2 * v);
          acc[v] += diff * diff;
        }
      }
      for (int v = 0; v < kVecs; ++v) StoreVec(&dist[c0 + 2 * v], acc[v]);
    }
    int best = 0;
    double best_d = dist[0];
    for (int c = 1; c < k; ++c) {
      if (dist[c] < best_d) {
        best_d = dist[c];
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
    const CentersByDim centers(res.centers);
    res.inertia = ParallelSum(0, n, kAssignGrain, [&](int64_t i0, int64_t i1) {
      return AssignRange(points, centers, i0, i1, &res.assignment);
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
  const CentersByDim by_dim(centers);
  ParallelFor(0, n, kAssignGrain, [&](int64_t i0, int64_t i1) {
    AssignRange(points, by_dim, i0, i1, &out);
  });
  return out;
}

}  // namespace bsg
