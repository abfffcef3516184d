#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "util/parallel.h"
#include "util/string_util.h"

// Start every loop in this file on a 64-byte boundary, so the short
// vectorised inner loops of the GEMM kernels (~34 bytes) never straddle a
// cache line. Without it their speed depends on how much code the linker
// happens to place before this file: a 16-byte shift from an unrelated
// source file made f64 scoring ~25% slower on an x86-64 Xeon VM (4 vCPU).
// Padding only; the arithmetic is unchanged.
//
// Never contract a multiply and an add into an FMA in this file, whatever
// the build flags say: the AVX-512F tile below is compiled for a target
// that has FMA, and a fused tile would round differently from the SSE2 one
// and from the plain triple loop. CMakeLists.txt passes -ffp-contract=off,
// but a build that compiles src/ with its own flags may not.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("align-loops=64", "fp-contract=off")
#endif

namespace bsg {

namespace {

// Row-block grain for the parallel GEMMs and Transposed. The grain is fixed
// (never derived from the thread count) so the static chunk layout is
// identical at any thread count; for the GEMMs the layout does not matter
// anyway, since every output element is one sum of its own.
constexpr int kRowGrain = 16;
// Column-range grain for the per-column statistics.
constexpr int kColGrain = 8;
// The GEMM kernels (contract in matrix.h). Each product and sum is rounded
// on its own (no FMA contraction, see the top of this file). Zero terms are
// not skipped: an accumulator that starts at +0.0 never becomes -0.0
// (x + -x rounds to +0.0), so adding a finite +-0.0 product leaves it
// unchanged.
//
// Register tiling: a kTileRows x kCols block of outputs stays in vector
// registers for a whole k block (kCols / lanes vectors per row). A k block
// of kKTile keeps the tile's A and B panels in cache when `inner` is long
// (MatMulTN's inner dimension is the batch's row count); between k blocks
// the partial sums wait in the output, which does not change their bits.
// The tile is written with GCC/Clang vector types: written as plain scalar
// loops, GCC 12 at -march=native vectorised it along k instead, with
// shuffles, and the NN tile ran about 3x slower than the untiled kernel it
// replaces (x86-64 Xeon VM).
//
// The tile is one template, compiled at two widths (gemm.h): Double2 with
// kCols = 8, and Double8 with kCols = 16 inside a target("avx512f")
// function. The helpers are always_inline so the wide instantiation is
// compiled for that target. On an x86-64 Xeon VM (one thread, best of 30)
// the AVX-512F tile ran the 4224x65 * 65x32 product in 0.66 ms against
// 1.49 ms for SSE2, and the 65x4224 * 4224x32 MatMulTN in 1.01 against
// 2.40 ms.
constexpr int kTileRows = 4;
constexpr int kKTile = 128;

// A(i, k) for an A panel starting at `a`: A row-major with row stride
// `lda`, or, for kTransA, A^T read out of a row-major matrix with row
// stride `lda`.
template <bool kTransA>
BSG_SIMD_INLINE double PanelAt(const double* a, int64_t lda, int i, int k) {
  return kTransA ? a[k * lda + i] : a[i * lda + k];
}

// One tile: o (kRows x kCols, row stride ldo) += A panel * B panel over kn
// steps of k. Full row blocks take kRows = kTileRows; the bottom rows of a
// row range take kRows = their count.
template <class Vec, int kCols, bool kTransA, int kRows>
BSG_SIMD_INLINE void GemmTile(const double* a, int64_t lda, const double* b,
                              int64_t ldb, int kn, double* o, int64_t ldo) {
  constexpr int kW = kLanes<Vec>;
  constexpr int kVecs = kCols / kW;
  Vec acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&acc[r][v], o + r * ldo + v * kW, sizeof(Vec));
    }
  }
  for (int k = 0; k < kn; ++k) {
    Vec bk[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&bk[v], b + k * ldb + v * kW, sizeof(Vec));
    }
    for (int r = 0; r < kRows; ++r) {
      const double s = PanelAt<kTransA>(a, lda, r, k);
      for (int v = 0; v < kVecs; ++v) acc[r][v] += s * bk[v];
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(o + r * ldo + v * kW, &acc[r][v], sizeof(Vec));
    }
  }
}

// The column tiles of one row block of kRows rows: kCols-wide tiles, then
// 8-wide tiles of the same vector type; returns the first column left.
template <class Vec, int kCols, bool kTransA, int kRows>
BSG_SIMD_INLINE int GemmRowBlock(const double* a, int64_t lda,
                                 const double* b, int64_t ldb, int kn,
                                 double* o, int64_t ldo, int cols) {
  int j = 0;
  for (; j + kCols <= cols; j += kCols) {
    GemmTile<Vec, kCols, kTransA, kRows>(a, lda, b + j, ldb, kn, o + j, ldo);
  }
  for (; j + 8 <= cols; j += 8) {
    GemmTile<Vec, 8, kTransA, kRows>(a, lda, b + j, ldb, kn, o + j, ldo);
  }
  return j;
}

// The right edge, the last cols % 8 columns of a row block (mr x nr): the
// same sums, one element at a time.
template <bool kTransA>
BSG_SIMD_INLINE void GemmEdge(const double* a, int64_t lda, const double* b,
                              int64_t ldb, int kn, double* o, int64_t ldo,
                              int mr, int nr) {
  for (int r = 0; r < mr; ++r) {
    for (int c = 0; c < nr; ++c) {
      double acc = o[r * ldo + c];
      for (int k = 0; k < kn; ++k) {
        acc += PanelAt<kTransA>(a, lda, r, k) * b[k * ldb + c];
      }
      o[r * ldo + c] = acc;
    }
  }
}

// Output rows [r0, r1) of out += A * B, where A(i, k) is read from `a` as
// in PanelAt and B is row-major (inner x out->cols(), row stride ldb).
// `out` must hold +0.0 (or a partial sum) on entry. Every row block,
// the bottom one of 1 to 3 rows included, takes kCols-wide tiles, then
// 8-wide tiles of the same vector type; the last cols % 8 columns take the
// edge kernel.
template <class Vec, int kCols, bool kTransA>
BSG_SIMD_INLINE void GemmRows(const double* a, int64_t lda, const double* b,
                              int64_t ldb, int inner, int64_t r0, int64_t r1,
                              Matrix* out) {
  const int cols = out->cols();
  for (int k0 = 0; k0 < inner; k0 += kKTile) {
    const int kn = std::min(inner - k0, kKTile);
    for (int i = static_cast<int>(r0); i < r1; i += kTileRows) {
      const int mr = std::min(static_cast<int>(r1) - i, kTileRows);
      const double* ap = kTransA ? a + k0 * lda + i : a + i * lda + k0;
      const double* bp = b + k0 * ldb;
      double* op = out->row(i);
      static_assert(kTileRows == 4, "the switch covers 1 to kTileRows");
      int j = 0;
      switch (mr) {
        case 4:
          j = GemmRowBlock<Vec, kCols, kTransA, 4>(ap, lda, bp, ldb, kn, op,
                                                   cols, cols);
          break;
        case 3:
          j = GemmRowBlock<Vec, kCols, kTransA, 3>(ap, lda, bp, ldb, kn, op,
                                                   cols, cols);
          break;
        case 2:
          j = GemmRowBlock<Vec, kCols, kTransA, 2>(ap, lda, bp, ldb, kn, op,
                                                   cols, cols);
          break;
        default:
          j = GemmRowBlock<Vec, kCols, kTransA, 1>(ap, lda, bp, ldb, kn, op,
                                                   cols, cols);
          break;
      }
      if (j < cols) {
        GemmEdge<kTransA>(ap, lda, bp + j, ldb, kn, op + j, cols, mr,
                          cols - j);
      }
    }
  }
}

using GemmRowsFn = void (*)(const double* a, int64_t lda, const double* b,
                            int64_t ldb, int inner, int64_t r0, int64_t r1,
                            Matrix* out);

template <bool kTransA>
void GemmRowsSse2(const double* a, int64_t lda, const double* b, int64_t ldb,
                  int inner, int64_t r0, int64_t r1, Matrix* out) {
  GemmRows<Double2, 8, kTransA>(a, lda, b, ldb, inner, r0, r1, out);
}

#if BSG_SIMD_AVX512F
template <bool kTransA>
__attribute__((target("avx512f"))) void GemmRowsAvx512f(
    const double* a, int64_t lda, const double* b, int64_t ldb, int inner,
    int64_t r0, int64_t r1, Matrix* out) {
  GemmRows<Double8, 16, kTransA>(a, lda, b, ldb, inner, r0, r1, out);
}
#endif

template <bool kTransA>
GemmRowsFn RowsKernel(gemm::Tile tile) {
  BSG_CHECK(gemm::TileSupported(tile), "GEMM tile not supported here");
#if BSG_SIMD_AVX512F
  if (tile == gemm::Tile::kAvx512f) return &GemmRowsAvx512f<kTransA>;
#endif
  return &GemmRowsSse2<kTransA>;
}

// The leaky ReLU of n contiguous elements in place: LeakyReluInPlace, and
// MatMulAddBiasLeakyRelu's epilogue on one row block.
void LeakyReluSpan(double* p, size_t n, double slope) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    StoreVec(p + i, LeakyReluLanes(LoadVec<Double2>(p + i), slope));
  }
  if (i < n) p[i] = LeakyReluLanes(Double2{p[i]}, slope)[0];
}

// The leaky ReLU derivative's sign test of n pre-activations:
// keep[i] = (p[i] >= 0.0).
void LeakyKeepSpan(const double* p, size_t n, uint8_t* keep) {
  for (size_t i = 0; i < n; ++i) keep[i] = p[i] >= 0.0;
}

// Element grain for the whole-matrix reductions (Sum/AbsMax/Frobenius).
// Matrices at or below one grain reduce serially — bit-identical to the
// historical single-loop reference, which keeps the hot training path
// (per-batch 1x1 losses, semantic-attention score means) byte-stable —
// while bigger matrices chunk deterministically through ParallelSum.
constexpr int64_t kReduceGrain = 4096;

}  // namespace

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (size_t r = 0; r < rows.size(); ++r) {
    BSG_CHECK(rows[r].size() == rows[0].size(), "ragged FromRows input");
    for (size_t c = 0; c < rows[r].size(); ++c) {
      m(static_cast<int>(r), static_cast<int>(c)) = rows[r][c];
    }
  }
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomNormal(int rows, int cols, double stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal(0.0, stddev);
  return m;
}

Matrix Matrix::Xavier(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  double a = std::sqrt(6.0 / (rows + cols));
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-a, a);
  return m;
}

void Matrix::Add(const Matrix& other) {
  BSG_CHECK(SameShape(other), "Add shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  BSG_CHECK(SameShape(other), "Axpy shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Matrix::Scale(double alpha) {
  for (auto& v : data_) v *= alpha;
}

void Matrix::TanhInPlace() {
  for (auto& v : data_) v = std::tanh(v);
}

void Matrix::LeakyReluInPlace(double slope) {
  LeakyReluSpan(data(), size(), slope);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  return gemm::MatMul(gemm::DispatchedTile(), *this, other, nullptr);
}

Matrix Matrix::MatMulAddBias(const Matrix& other, const Matrix& bias) const {
  return gemm::MatMul(gemm::DispatchedTile(), *this, other, &bias);
}

Matrix Matrix::MatMulAddBiasLeakyRelu(const Matrix& other, const Matrix& bias,
                                      double slope, uint8_t* keep) const {
  return gemm::MatMul(gemm::DispatchedTile(), *this, other, &bias, slope,
                      keep);
}

Matrix Matrix::MatMulTN(const Matrix& other) const {
  return gemm::MatMulTN(gemm::DispatchedTile(), *this, other);
}

Matrix Matrix::MatMulNT(const Matrix& other) const {
  BSG_CHECK(cols_ == other.cols_, "MatMulNT inner dimension mismatch");
  // The tile wants B's rows contiguous, so B = other^T is materialised
  // (an exact copy, the size of `other`) and the product is MatMul's.
  return MatMul(other.Transposed());
}

void Matrix::MatMulTNAddTo(const Matrix& other, Matrix* out) const {
  gemm::MatMulTNAddTo(gemm::DispatchedTile(), *this, other, out);
}

void Matrix::MatMulNTAddTo(const Matrix& other, Matrix* out) const {
  BSG_CHECK(cols_ == other.cols_, "MatMulNT inner dimension mismatch");
  gemm::MatMulAddTo(gemm::DispatchedTile(), *this, other.Transposed(), out);
}

namespace gemm {

const char* TileName(Tile tile) {
  return tile == Tile::kAvx512f ? "avx512f 4x16" : "sse2 4x8";
}

bool TileSupported(Tile tile) {
  if (tile == Tile::kSse2) return true;
#if BSG_SIMD_AVX512F
  __builtin_cpu_init();  // may run before libgcc's own constructor
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

Tile DispatchedTile() {
  static const Tile tile =
      TileSupported(Tile::kAvx512f) ? Tile::kAvx512f : Tile::kSse2;
  return tile;
}

Matrix MatMul(Tile tile, const Matrix& a, const Matrix& b,
              const Matrix* bias, std::optional<double> leaky_slope,
              uint8_t* leaky_keep) {
  BSG_CHECK(a.cols() == b.rows(), "MatMul inner dimension mismatch");
  BSG_CHECK(bias == nullptr || (bias->rows() == 1 && bias->cols() == b.cols()),
            "MatMulAddBias bias shape mismatch");
  BSG_CHECK(bias != nullptr || !leaky_slope, "leaky ReLU epilogue needs a bias");
  BSG_CHECK(leaky_keep == nullptr || leaky_slope,
            "leaky ReLU keep mask needs the epilogue");
  const GemmRowsFn rows_kernel = RowsKernel</*kTransA=*/false>(tile);
  Matrix out(a.rows(), b.cols());
  const int out_cols = b.cols();
  // The bias, if any, is added by one pass over the block's finished rows:
  // per output element "k-ascending accumulation from +0.0, then + bias",
  // the float sequence of MatMul followed by a broadcast add. The leaky
  // ReLU, if any, then runs over the same rows while they are in cache:
  // per element the operation of LeakyReluInPlace.
  ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    rows_kernel(a.data(), a.cols(), b.data(), out_cols, a.cols(), r0, r1,
                &out);
    if (bias == nullptr) return;
    const double* b_bias = bias->row(0);
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      double* o_row = out.row(i);
      for (int j = 0; j < out_cols; ++j) o_row[j] += b_bias[j];
    }
    if (leaky_slope) {
      double* first = out.row(static_cast<int>(r0));
      const size_t n = static_cast<size_t>(r1 - r0) * out_cols;
      if (leaky_keep != nullptr) {
        LeakyKeepSpan(first, n, leaky_keep + (first - out.data()));
      }
      LeakyReluSpan(first, n, *leaky_slope);
    }
  });
  return out;
}

void MatMulAddTo(Tile tile, const Matrix& a, const Matrix& b, Matrix* out) {
  BSG_CHECK(a.cols() == b.rows(), "MatMul inner dimension mismatch");
  BSG_CHECK(out->rows() == a.rows() && out->cols() == b.cols(),
            "MatMulAddTo output shape mismatch");
  const GemmRowsFn rows_kernel = RowsKernel</*kTransA=*/false>(tile);
  ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    rows_kernel(a.data(), a.cols(), b.data(), b.cols(), a.cols(), r0, r1,
                out);
  });
}

Matrix MatMulTN(Tile tile, const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  MatMulTNAddTo(tile, a, b, &out);
  return out;
}

void MatMulTNAddTo(Tile tile, const Matrix& a, const Matrix& b, Matrix* out) {
  BSG_CHECK(a.rows() == b.rows(), "MatMulTN inner dimension mismatch");
  BSG_CHECK(out->rows() == a.cols() && out->cols() == b.cols(),
            "MatMulTNAddTo output shape mismatch");
  const GemmRowsFn rows_kernel = RowsKernel</*kTransA=*/true>(tile);
  // A^T's row i is A's column i: the tile reads A(k, i..i+3), contiguous.
  ParallelFor(0, a.cols(), kRowGrain, [&](int64_t r0, int64_t r1) {
    rows_kernel(a.data(), a.cols(), b.data(), b.cols(), a.rows(), r0, r1,
                out);
  });
}

}  // namespace gemm

Matrix Matrix::Transposed() const {
  Matrix out = Matrix::Uninit(cols_, rows_);  // every (j, i) is stored
  // Parallel over output rows: chunk j writes rows [j0, j1) of the result
  // (contiguous stores, strided loads).
  ParallelFor(0, cols_, 2 * kRowGrain, [&](int64_t j0, int64_t j1) {
    for (int j = static_cast<int>(j0); j < static_cast<int>(j1); ++j) {
      double* o_row = out.row(j);
      for (int i = 0; i < rows_; ++i) o_row[i] = (*this)(i, j);
    }
  });
  return out;
}

double Matrix::Sum() const {
  const double* p = data_.data();
  const int64_t n = static_cast<int64_t>(data_.size());
  // Small matrices (everything on the per-batch training path) keep the
  // exact serial reference; larger ones reduce through ParallelSum, whose
  // fixed grain and ascending chunk-combine order make the result
  // bit-identical at any thread count.
  if (n <= kReduceGrain) {
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i) s += p[i];
    return s;
  }
  return ParallelSum(0, n, kReduceGrain, [p](int64_t lo, int64_t hi) {
    double s = 0.0;
    for (int64_t i = lo; i < hi; ++i) s += p[i];
    return s;
  });
}

double Matrix::Mean() const { return data_.empty() ? 0.0 : Sum() / data_.size(); }

double Matrix::AbsMax() const {
  const double* p = data_.data();
  const int64_t n = static_cast<int64_t>(data_.size());
  if (n <= kReduceGrain) {
    double m = 0.0;
    for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
    return m;
  }
  // max is exact and order-independent, so chunking cannot change the
  // result; the chunk partials reuse the ParallelSum layout for the
  // conflict-free writes.
  const int64_t chunks = (n + kReduceGrain - 1) / kReduceGrain;
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  ParallelFor(0, n, kReduceGrain, [&](int64_t lo, int64_t hi) {
    double m = 0.0;
    for (int64_t i = lo; i < hi; ++i) m = std::max(m, std::fabs(p[i]));
    partial[static_cast<size_t>(lo / kReduceGrain)] = m;
  });
  double m = 0.0;
  for (double v : partial) m = std::max(m, v);
  return m;
}

double Matrix::FrobeniusNorm() const {
  const double* p = data_.data();
  const int64_t n = static_cast<int64_t>(data_.size());
  if (n <= kReduceGrain) {
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i) s += p[i] * p[i];
    return std::sqrt(s);
  }
  return std::sqrt(ParallelSum(0, n, kReduceGrain,
                               [p](int64_t lo, int64_t hi) {
                                 double s = 0.0;
                                 for (int64_t i = lo; i < hi; ++i) {
                                   s += p[i] * p[i];
                                 }
                                 return s;
                               }));
}

double Matrix::RowNorm(int r) const {
  const double* p = row(r);
  double s = 0.0;
  for (int c = 0; c < cols_; ++c) s += p[c] * p[c];
  return std::sqrt(s);
}

double Matrix::RowCosine(int r, const Matrix& other, int s) const {
  BSG_CHECK(cols_ == other.cols_, "RowCosine dimension mismatch");
  const double* a = row(r);
  const double* b = other.row(s);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int c = 0; c < cols_; ++c) {
    dot += a[c] * b[c];
    na += a[c] * a[c];
    nb += b[c] * b[c];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

Matrix Matrix::GatherRows(const std::vector<int>& indices) const {
  // Full-write kernel: row i of the output is copied wholesale.
  Matrix out = Matrix::Uninit(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    int r = indices[i];
    BSG_CHECK(r >= 0 && r < rows_, "GatherRows index out of range");
    std::copy(row(r), row(r) + cols_, out.row(static_cast<int>(i)));
  }
  return out;
}

std::vector<double> Matrix::ColMeans() const {
  std::vector<double> means(cols_, 0.0);
  if (rows_ == 0) return means;
  // Parallel over column ranges: each chunk accumulates its columns over
  // all rows in row order, so every column's sum is bit-identical to the
  // serial row-major scan at any thread count. Sums build in a chunk-local
  // buffer and store once — adjacent chunks' output slots can share a
  // cache line, and repeated read-modify-writes there would ping-pong it.
  ParallelFor(0, cols_, kColGrain, [&](int64_t c0, int64_t c1) {
    const int w = static_cast<int>(c1 - c0);
    double acc[kColGrain] = {0.0};  // w <= kColGrain: grain above bounds it
    BSG_CHECK(w <= kColGrain, "column chunk wider than grain");
    for (int i = 0; i < rows_; ++i) {
      const double* p = row(i) + c0;
      for (int c = 0; c < w; ++c) acc[c] += p[c];
    }
    for (int c = 0; c < w; ++c) means[c0 + c] = acc[c];
  });
  for (auto& m : means) m /= rows_;
  return means;
}

std::vector<double> Matrix::ColStddevs() const {
  std::vector<double> sd(cols_, 0.0);
  if (rows_ == 0) return sd;
  std::vector<double> means = ColMeans();
  ParallelFor(0, cols_, kColGrain, [&](int64_t c0, int64_t c1) {
    const int w = static_cast<int>(c1 - c0);
    double acc[kColGrain] = {0.0};  // w <= kColGrain: grain above bounds it
    BSG_CHECK(w <= kColGrain, "column chunk wider than grain");
    for (int i = 0; i < rows_; ++i) {
      const double* p = row(i) + c0;
      for (int c = 0; c < w; ++c) {
        double d = p[c] - means[c0 + c];
        acc[c] += d * d;
      }
    }
    for (int c = 0; c < w; ++c) sd[c0 + c] = acc[c];
  });
  for (auto& v : sd) v = std::sqrt(v / rows_);
  return sd;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  return bsg::ConcatCols({this, &other});
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  BSG_CHECK(!parts.empty(), "ConcatCols on no parts");
  const int rows = parts[0]->rows();
  int total_cols = 0;
  for (const Matrix* p : parts) {
    BSG_CHECK(p->rows() == rows, "ConcatCols row mismatch");
    total_cols += p->cols();
  }
  // Full-write kernel: the copies cover every output column.
  Matrix out = Matrix::Uninit(rows, total_cols);
  for (int i = 0; i < rows; ++i) {
    double* o = out.row(i);
    for (const Matrix* p : parts) {
      o = std::copy(p->row(i), p->row(i) + p->cols(), o);
    }
  }
  return out;
}

std::string Matrix::DebugString() const {
  std::string s = StrFormat("Matrix(%dx%d)[", rows_, cols_);
  size_t show = std::min<size_t>(data_.size(), 6);
  for (size_t i = 0; i < show; ++i) {
    s += StrFormat("%s%.4g", i ? ", " : "", data_[i]);
  }
  if (data_.size() > show) s += ", ...";
  return s + "]";
}

}  // namespace bsg
