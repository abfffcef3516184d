// The compiled variants of the f64 GEMM tile behind Matrix::MatMul,
// MatMulAddBias, MatMulTN and MatMulNT (tensor/matrix.cc).
//
// One tile template is compiled twice: at SSE2 width (4 x 8 outputs in
// two-double vectors, every x86-64 target) and, on x86-64 GCC/Clang, at
// AVX-512F width (4 x 16 outputs in eight-double vectors). The Matrix
// methods use DispatchedTile(), chosen once from the CPU's features; there
// is no flag to change it. Both variants compute every output element as
// the same k-ascending sum from +0.0 (then + bias) with each product and
// sum rounded on its own, so they give the same bits.
//
// Internal: library code calls the Matrix methods. Tests include this
// header to run each variant directly.
#pragma once

#include "tensor/matrix.h"

namespace bsg {
namespace gemm {

enum class Tile { kSse2, kAvx512f };

/// "sse2 4x8" or "avx512f 4x16".
const char* TileName(Tile tile);
/// Whether this build and this CPU can run `tile`.
bool TileSupported(Tile tile);
/// The tile the Matrix GEMMs use: kAvx512f where supported, else kSse2.
Tile DispatchedTile();

/// a * b (+ the 1 x b.cols() bias row when `bias` is non-null) through
/// `tile`, which must be supported: Matrix::MatMul / MatMulAddBias.
Matrix MatMul(Tile tile, const Matrix& a, const Matrix& b,
              const Matrix* bias);
/// a^T * b through `tile`, which must be supported: Matrix::MatMulTN.
Matrix MatMulTN(Tile tile, const Matrix& a, const Matrix& b);

}  // namespace gemm
}  // namespace bsg
