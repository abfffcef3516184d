// The compiled variants of the k-means kernel behind RunKMeans and
// AssignToCenters (features/kmeans.cc).
//
// One kernel template puts consecutive points across the lanes of a vector
// and is compiled twice: at SSE2 width (2 points per vector, every x86-64
// target) and, on x86-64 GCC/Clang, at AVX-512F width (8 points). The
// public functions use DispatchedWidth(), chosen once from the CPU's
// features by the same check as the GEMM tile (tensor/gemm.h); there is no
// flag to change it. Each lane computes its point's squared distance to a
// centre as SqDist does, over the dimensions in order from +0.0, and keeps
// the first centre with the strictly smallest distance, so both widths give
// the same assignments, centres, inertia and RNG draws.
//
// Internal: library code calls RunKMeans and AssignToCenters. Tests include
// this header to run each width directly.
#pragma once

#include <vector>

#include "features/kmeans.h"

namespace bsg {
namespace kmeans {

enum class Width { kSse2, kAvx512f };

/// "sse2 2 points" or "avx512f 8 points".
const char* WidthName(Width width);
/// Whether this build and this CPU can run `width`.
bool WidthSupported(Width width);
/// The width RunKMeans and AssignToCenters use: kAvx512f where supported,
/// else kSse2.
Width DispatchedWidth();

/// RunKMeans through `width`, which must be supported.
KMeansResult Run(Width width, const Matrix& points, const KMeansConfig& cfg,
                 Rng* rng);
/// AssignToCenters through `width`, which must be supported.
std::vector<int> Assign(Width width, const Matrix& points,
                        const Matrix& centers);

}  // namespace kmeans
}  // namespace bsg
