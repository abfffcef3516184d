#include "features/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "features/kmeans_lanes.h"
#include "tensor/simd.h"
#include "util/parallel.h"
#include "util/status.h"

// Loops start on 64-byte boundaries, as in tensor/matrix.cc (see the reason
// there): the distance loops are as short as the GEMM's.
//
// Never contract a multiply and an add into an FMA in this file, whatever
// the build flags say: the AVX-512F kernel below is compiled for a target
// that has FMA, and a fused `acc + diff * diff` would round differently
// from SqDist and from the SSE2 kernel. CMakeLists.txt passes
// -ffp-contract=off, but a build that compiles src/ with its own flags may
// not.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("align-loops=64", "fp-contract=off")
#endif

namespace bsg {

namespace {

// Point-range grain for the parallel passes over the points. Fixed
// (independent of thread count) so the chunk-ordered inertia reduction is
// deterministic.
constexpr int kAssignGrain = 256;

double SqDist(const double* a, const double* b, int d) {
  double s = 0.0;
  for (int c = 0; c < d; ++c) {
    double diff = a[c] - b[c];
    s += diff * diff;
  }
  return s;
}

// The kernel (kmeans_lanes.h): kLanes<V> consecutive points sit in the
// lanes of a vector, and every lane does the scalar arithmetic of its own
// point, so the vector kernel gives SqDist's bits and the scalar scan's
// choices. It is one template, run with Double2 or Double8 (RunAtWidth,
// tensor/simd.h); the helpers are always_inline so the wide instantiation
// is compiled for the avx512f target, and take vectors by pointer or
// reference (see BSG_SIMD_INLINE). On an x86-64 Xeon VM (one
// thread, medians of 3-8 runs), RunKMeans on 237,446 x 12 points, k = 20,
// 30 iterations, took 0.33-0.39 s at AVX-512F width and 0.87-1.08 s at
// SSE2 width, against 0.65-1.08 s for a kernel with centres across lanes.
template <class V>
using LaneMask = decltype(V{} < V{});

// Centres whose distance sums run at once. One sum is a chain of d
// dependent adds; four independent chains hide the add latency. One chain
// at a time took the SSE2 kernel above to 1.14-1.50 s.
constexpr int kCentreGroup = 4;

// *x = mask ? y : *x, lane by lane and bit for bit: Select (tensor/simd.h)
// for vectors passed by reference.
template <class M, class V>
BSG_SIMD_INLINE void SelectInto(const M& mask, const V& y, V* x) {
  *x = (V)(((M)y & mask) | ((M)*x & ~mask));
}

// Copies points [i0, i0 + w) into `pt` transposed, pt[j * kLanes<V> + l]
// = coordinate j of point i0 + l, so one dimension of the block is one
// vector. Lanes at and past w repeat point i0 + w - 1; their results are
// never read. Each vector is assembled in a register and stored whole, so
// the kernel's vector loads of `pt` are forwarded from single stores.
template <class V>
BSG_SIMD_INLINE void TransposeBlock(const Matrix& points, int64_t i0, int w,
                                    double* pt) {
  constexpr int kW = kLanes<V>;
  const double* rows[kW];
  for (int l = 0; l < kW; ++l) {
    rows[l] = points.row(static_cast<int>(i0) + std::min(l, w - 1));
  }
  for (int j = 0; j < points.cols(); ++j) {
    V v;
    for (int l = 0; l < kW; ++l) v[l] = rows[l][j];
    std::memcpy(pt + j * kW, &v, sizeof(V));
  }
}

// acc[g] = each lane's SqDist(point, centre g), for the kG centres stored
// row-major from `ctr`: the squared differences summed over the dimensions
// in order from +0.0.
template <class V, int kG>
BSG_SIMD_INLINE void SqDistLanes(const double* pt, const double* ctr, int d,
                                 V* acc) {
  for (int g = 0; g < kG; ++g) acc[g] = V{};
  for (int j = 0; j < d; ++j) {
    V p;
    std::memcpy(&p, pt + j * kLanes<V>, sizeof(V));
    for (int g = 0; g < kG; ++g) {
      const V diff = p - ctr[g * d + j];
      acc[g] += diff * diff;
    }
  }
}

// Folds centres [c0, c0 + kG) into each lane's nearest centre so far
// (distance `best`, index `idx`), in ascending centre order: centre 0 sets
// it, and a later centre replaces it only when strictly nearer, as the
// scalar `if (d2 < best_d)` scan does. Ties keep the lower index, and a
// NaN distance never replaces nor is replaced.
template <class V, int kG>
BSG_SIMD_INLINE void FoldCentres(const double* pt, const Matrix& centers,
                                 int c0, V* best, LaneMask<V>* idx) {
  V acc[kG];
  SqDistLanes<V, kG>(pt, centers.row(c0), centers.cols(), acc);
  for (int g = 0; g < kG; ++g) {
    if (c0 + g == 0) {
      *best = acc[g];
      *idx = LaneMask<V>{};
      continue;
    }
    const LaneMask<V> nearer = acc[g] < *best;
    SelectInto(nearer, acc[g], best);
    SelectInto(nearer, LaneMask<V>{} + (c0 + g), idx);
  }
}

// Folds the last k - c0 < kG centres in one group.
template <class V, int kG>
BSG_SIMD_INLINE void FoldLast(const double* pt, const Matrix& centers, int c0,
                              V* best, LaneMask<V>* idx) {
  if constexpr (kG > 0) {
    if (centers.rows() - c0 == kG) {
      FoldCentres<V, kG>(pt, centers, c0, best, idx);
    } else {
      FoldLast<V, kG - 1>(pt, centers, c0, best, idx);
    }
  }
}

// Nearest-centre scan for points [lo, hi): writes assignments and returns
// the nearest squared distances summed in point order.
struct AssignLanes {
  template <class V>
  static BSG_SIMD_INLINE double Run(const Matrix& points,
                                    const Matrix& centers, int64_t lo,
                                    int64_t hi, int* assignment) {
    constexpr int kW = kLanes<V>;
    const int k = centers.rows();
    std::vector<double> pt(static_cast<size_t>(points.cols()) * kW);
    double inertia = 0.0;
    for (int64_t i0 = lo; i0 < hi; i0 += kW) {
      const int w = static_cast<int>(std::min<int64_t>(kW, hi - i0));
      TransposeBlock<V>(points, i0, w, pt.data());
      V best{};
      LaneMask<V> idx{};
      int c = 0;
      for (; c + kCentreGroup <= k; c += kCentreGroup) {
        FoldCentres<V, kCentreGroup>(pt.data(), centers, c, &best, &idx);
      }
      FoldLast<V, kCentreGroup - 1>(pt.data(), centers, c, &best, &idx);
      for (int l = 0; l < w; ++l) {
        assignment[i0 + l] = static_cast<int>(idx[l]);
        inertia += best[l];
      }
    }
    return inertia;
  }
};

// dist2[i] = std::min(dist2[i], SqDist(point i, centre)) for points
// [lo, hi): the lane select is std::min's `d2 < dist2[i] ? d2 : dist2[i]`.
// The last vector may run past hi: `dist2` must have room for it, and the
// slots past the last point are never read.
struct MinDistLanes {
  template <class V>
  static BSG_SIMD_INLINE void Run(const Matrix& points, const double* centre,
                                  int64_t lo, int64_t hi, double* dist2) {
    constexpr int kW = kLanes<V>;
    std::vector<double> pt(static_cast<size_t>(points.cols()) * kW);
    for (int64_t i0 = lo; i0 < hi; i0 += kW) {
      const int w = static_cast<int>(std::min<int64_t>(kW, hi - i0));
      TransposeBlock<V>(points, i0, w, pt.data());
      V d2;
      SqDistLanes<V, 1>(pt.data(), centre, points.cols(), &d2);
      V min;
      std::memcpy(&min, dist2 + i0, sizeof(V));
      SelectInto(d2 < min, d2, &min);
      std::memcpy(dist2 + i0, &min, sizeof(V));
    }
  }
};

// Every point's nearest centre, in parallel over point ranges (each point's
// slot is written by exactly one chunk); the inertia is reduced in chunk
// order, so it is bit-identical at any thread count.
double AssignAll(SimdWidth width, const Matrix& points,
                 const Matrix& centers, std::vector<int>* assignment) {
  return ParallelSum(0, points.rows(), kAssignGrain,
                     [&](int64_t i0, int64_t i1) {
                       return RunAtWidth<AssignLanes>(width, points, centers,
                                                      i0, i1,
                                                      assignment->data());
                     });
}

// k-means++ seeding: first centre uniform, next centres proportional to
// squared distance from the nearest chosen centre. The distance pass runs
// on the kernel; the running total and the sampling scan stay serial and
// in point order.
Matrix SeedPlusPlus(SimdWidth width, const Matrix& points, int k,
                    Rng* rng) {
  const int n = points.rows(), d = points.cols();
  Matrix centers(k, d);
  // Padded by a vector's lanes for MinDistLanes.
  std::vector<double> dist2(n + kLanes<Double8> - 1,
                            std::numeric_limits<double>::max());
  int first = static_cast<int>(rng->UniformInt(n));
  std::copy(points.row(first), points.row(first) + d, centers.row(0));
  for (int c = 1; c < k; ++c) {
    ParallelFor(0, n, kAssignGrain, [&](int64_t i0, int64_t i1) {
      RunAtWidth<MinDistLanes>(width, points, centers.row(c - 1), i0, i1,
                               dist2.data());
    });
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += dist2[i];
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

namespace kmeans {

KMeansResult Run(SimdWidth width, const Matrix& points,
                 const KMeansConfig& cfg, Rng* rng) {
  const int n = points.rows(), d = points.cols(), k = cfg.k;
  BSG_CHECK(n >= k && k > 0, "k-means needs at least k points");
  KMeansResult res;
  res.centers = SeedPlusPlus(width, points, k, rng);
  res.assignment.assign(n, 0);

  for (int it = 0; it < cfg.max_iters; ++it) {
    res.inertia = AssignAll(width, points, res.centers, &res.assignment);
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

std::vector<int> Assign(SimdWidth width, const Matrix& points,
                        const Matrix& centers) {
  BSG_CHECK(points.cols() == centers.cols(), "dimension mismatch");
  BSG_CHECK(centers.rows() > 0, "no centres to assign to");
  std::vector<int> out(points.rows(), 0);
  AssignAll(width, points, centers, &out);
  return out;
}

}  // namespace kmeans

KMeansResult RunKMeans(const Matrix& points, const KMeansConfig& cfg,
                       Rng* rng) {
  return kmeans::Run(DispatchedSimdWidth(), points, cfg, rng);
}

std::vector<int> AssignToCenters(const Matrix& points, const Matrix& centers) {
  return kmeans::Assign(DispatchedSimdWidth(), points, centers);
}

}  // namespace bsg
