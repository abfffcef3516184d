// GCC/Clang vector types at SSE2 width (16 bytes, which every x86-64 target
// has; elsewhere the compiler lowers them to what the target offers), the
// AVX-512F width the run-time dispatched kernels add (the f64 GEMM tile in
// tensor/gemm.h, the k-means assignment in features/kmeans_lanes.h), and
// the lane helpers the branch-free kernels are written with.
//
// A comparison of two vectors yields integer lanes that are all ones or all
// zeros, so Select picks each lane of `a` or `b` bit for bit: a kernel
// written as "compute both sides, then Select" gives exactly the scalar
// ternary's result (-0.0, NaN and +-Inf included) without a branch on the
// data. GCC 12 compiles the scalar ternaries of these kernels to a compare
// and a conditional jump, which mispredicts on random signs.
#pragma once

#include <cstddef>
#include <cstring>

// The AVX-512F kernels need GCC/Clang's function-level target attribute and
// __builtin_cpu_supports, both x86-specific.
#if defined(__x86_64__) && defined(__GNUC__)
#define BSG_SIMD_AVX512F 1
#else
#define BSG_SIMD_AVX512F 0
#endif

namespace bsg {

using Double2 = double __attribute__((vector_size(16)));
using Float4 = float __attribute__((vector_size(16)));
using U64x2 = unsigned long long __attribute__((vector_size(16)));
/// Eight doubles / eight 64-bit integers: use only inside target("avx512f")
/// functions.
using Double8 = double __attribute__((vector_size(64)));
using U64x8 = unsigned long long __attribute__((vector_size(64)));

// For the helpers of the AVX-512F kernels: always inlined, so that inside
// a target("avx512f") function they are compiled for that target too. They
// take Double8 vectors by pointer, since a generic-target function cannot
// pass one by value without an ABI change (GCC's -Wpsabi); the helpers
// below are for the SSE2-width types.
#define BSG_SIMD_INLINE inline __attribute__((always_inline))

template <class V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(V{}[0]));

/// Unaligned load of kLanes<V> elements from `p`.
template <class V, class T>
inline V LoadVec(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Unaligned store of kLanes<V> elements to `p`.
template <class V, class T>
inline void StoreVec(T* p, V v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Lane-wise `mask ? a : b`, bit for bit; `mask` comes from a comparison.
template <class V, class M>
inline V Select(M mask, V a, V b) {
  return (V)(((M)a & mask) | ((M)b & ~mask));
}

/// The f64 leaky ReLU of Matrix::LeakyReluInPlace and ops::AddLeakyRelu,
/// lane-wise: `v < 0.0 ? v * slope : v`.
inline Double2 LeakyReluLanes(Double2 v, double slope) {
  return Select(v < Double2{}, v * slope, v);
}

}  // namespace bsg
