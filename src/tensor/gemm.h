// The f64 GEMM tile behind Matrix::MatMul,
// MatMulAddBias, MatMulAddBiasLeakyRelu, MatMulTN and MatMulNT and their
// accumulating AddTo forms (tensor/matrix.cc).
//
// One tile template runs at each SimdWidth (tensor/simd.h): 4 x 8 outputs
// in SSE2 two-double vectors, or 4 x 16 in AVX-512F eight-double vectors.
// The Matrix methods use DispatchedSimdWidth(). Both widths compute every
// output element as the same k-ascending sum from +0.0 (then + bias) with
// each product and sum rounded on its own, so they give the same bits.
//
// Internal: library code calls the Matrix methods. Tests include this
// header to run each width directly.
#pragma once

#include <cstdint>
#include <optional>

#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace bsg {
namespace gemm {

/// a * b (+ the 1 x b.cols() bias row when `bias` is non-null, then the
/// leaky ReLU with `leaky_slope` when that is set, which needs a bias, and
/// records its sign test in `leaky_keep` when that is non-null) through
/// `width`, which must be supported: Matrix::MatMul / MatMulAddBias /
/// MatMulAddBiasLeakyRelu.
Matrix MatMul(SimdWidth width, const Matrix& a, const Matrix& b,
              const Matrix* bias,
              std::optional<double> leaky_slope = std::nullopt,
              uint8_t* leaky_keep = nullptr);
/// *out += a * b through `width`, which must be supported: Matrix::
/// MatMulNTAddTo, with b = the transposed operand.
void MatMulAddTo(SimdWidth width, const Matrix& a, const Matrix& b,
                 Matrix* out);
/// a^T * b through `width`, which must be supported: Matrix::MatMulTN.
Matrix MatMulTN(SimdWidth width, const Matrix& a, const Matrix& b);
/// *out += a^T * b through `width`, which must be supported:
/// Matrix::MatMulTNAddTo.
void MatMulTNAddTo(SimdWidth width, const Matrix& a, const Matrix& b,
                   Matrix* out);

}  // namespace gemm
}  // namespace bsg
