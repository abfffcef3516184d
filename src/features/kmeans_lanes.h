// The k-means kernel behind RunKMeans and AssignToCenters
// (features/kmeans.cc), at each SimdWidth (tensor/simd.h).
//
// The kernel puts consecutive points across the lanes of a vector: 2 points
// at SSE2 width, 8 at AVX-512F width. The public functions use
// DispatchedSimdWidth(). Each lane computes its point's squared distance to
// a centre as SqDist does, over the dimensions in order from +0.0, and
// keeps the first centre with the strictly smallest distance, so both
// widths give the same assignments, centres, inertia and RNG draws.
//
// Internal: library code calls RunKMeans and AssignToCenters. Tests include
// this header to run each width directly.
#pragma once

#include <vector>

#include "features/kmeans.h"
#include "tensor/simd.h"

namespace bsg {
namespace kmeans {

/// RunKMeans through `width`, which must be supported.
KMeansResult Run(SimdWidth width, const Matrix& points,
                 const KMeansConfig& cfg, Rng* rng);
/// AssignToCenters through `width`, which must be supported.
std::vector<int> Assign(SimdWidth width, const Matrix& points,
                        const Matrix& centers);

}  // namespace kmeans
}  // namespace bsg
