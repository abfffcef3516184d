// GCC/Clang vector types at SSE2 width (16 bytes, which every x86-64 target
// has; elsewhere the compiler lowers them to what the target offers) and at
// the AVX-512F width of the run-time dispatched kernels, the one dispatch
// between them, and the lane helpers the branch-free kernels are written
// with.
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
#include <type_traits>
#include <utility>

#include "util/status.h"

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

/// The 64-bit integer vector as wide as the double vector V.
template <class V>
using U64Lanes =
    std::conditional_t<sizeof(V) == sizeof(Double2), U64x2, U64x8>;

// For kernel bodies and their helpers: always inlined, so that inside the
// target("avx512f") runner below they are compiled for that target too.
// They take Double8 vectors by pointer or reference, since a generic-target
// function cannot pass one by value without an ABI change (GCC's -Wpsabi);
// the helpers below are for the SSE2-width types.
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

/// The vector width a lane kernel runs at: Double2 (every x86-64 target)
/// or Double8 (x86-64 GCC/Clang on a CPU with avx512f). Every kernel
/// computes each element with the same operations in the same order at
/// both widths, so both give the same bits.
enum class SimdWidth { kSse2, kAvx512f };

/// "sse2" or "avx512f".
inline const char* SimdWidthName(SimdWidth width) {
  return width == SimdWidth::kAvx512f ? "avx512f" : "sse2";
}

/// Whether this build and this CPU can run `width`.
inline bool SimdWidthSupported(SimdWidth width) {
  if (width == SimdWidth::kSse2) return true;
#if BSG_SIMD_AVX512F
  __builtin_cpu_init();  // may run before libgcc's own constructor
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

/// The width every kernel runs at: kAvx512f where supported, else kSse2.
/// Chosen once from the CPU's features; there is no flag to change it.
inline SimdWidth DispatchedSimdWidth() {
  static const SimdWidth width = SimdWidthSupported(SimdWidth::kAvx512f)
                                     ? SimdWidth::kAvx512f
                                     : SimdWidth::kSse2;
  return width;
}

// The runners: RunDouble2 and RunDouble8 are the only places a kernel is
// instantiated, and RunAtWidth picks one. A header template does not
// inherit the optimize pragma of the file that includes it, so these set
// their own: no multiply-add is contracted into an FMA (the avx512f target
// has FMA, and a fused kernel would round differently from the SSE2 one
// and from the scalar loops the tests pin them to; a build that compiles
// src/ without -ffp-contract=off would fuse here), and every loop starts
// on a 64-byte boundary (see tensor/matrix.cc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("align-loops=64", "fp-contract=off")
#endif

template <class Kernel, class... Args>
auto RunDouble2(Args&&... args) {
  return Kernel::template Run<Double2>(std::forward<Args>(args)...);
}

#if BSG_SIMD_AVX512F
template <class Kernel, class... Args>
__attribute__((target("avx512f"))) auto RunDouble8(Args&&... args) {
  return Kernel::template Run<Double8>(std::forward<Args>(args)...);
}
#endif

/// Kernel::Run<V>(args...) at `width`, which must be supported. A kernel is
/// a struct with `template <class V> static BSG_SIMD_INLINE ... Run(...)`,
/// written over the double vector V; its arguments are not vectors.
template <class Kernel, class... Args>
auto RunAtWidth(SimdWidth width, Args&&... args) {
#if BSG_SIMD_AVX512F
  if (width == SimdWidth::kAvx512f) {
    BSG_CHECK(DispatchedSimdWidth() == SimdWidth::kAvx512f,
              "SIMD width not supported here");
    return RunDouble8<Kernel>(std::forward<Args>(args)...);
  }
#endif
  BSG_CHECK(width == SimdWidth::kSse2, "SIMD width not supported here");
  return RunDouble2<Kernel>(std::forward<Args>(args)...);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

}  // namespace bsg
