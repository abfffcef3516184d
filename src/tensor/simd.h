// GCC/Clang vector types at SSE2 width (16 bytes, which every x86-64 target
// has; elsewhere the compiler lowers them to what the target offers) and
// the lane helpers the branch-free elementwise kernels are written with.
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

namespace bsg {

using Double2 = double __attribute__((vector_size(16)));
using Float4 = float __attribute__((vector_size(16)));

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
