#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/parallel.h"
#include "util/string_util.h"

// Start every loop in this file on a 64-byte boundary, so the short
// vectorised inner loops of the GEMM kernels (~34 bytes) never straddle a
// cache line. Without it their speed depends on how much code the linker
// happens to place before this file: a 16-byte shift from an unrelated
// source file made f64 scoring ~25% slower on an x86-64 Xeon VM (4 vCPU).
// Padding only; the arithmetic is unchanged.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=64")
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
// on its own because the build turns off FMA contraction. Zero terms are
// not skipped: an accumulator that starts at +0.0 never becomes -0.0
// (x + -x rounds to +0.0), so adding a finite +-0.0 product leaves it
// unchanged.
//
// Register tiling: a kTileRows x kTileCols block of outputs stays in
// registers for a whole k block (kTileCols / 2 two-double vectors per row,
// the width of an SSE2 register, which every x86-64 target has). A k block
// of kKTile keeps the tile's A and B panels in cache when `inner` is long
// (MatMulTN's inner dimension is the batch's row count); between k blocks
// the partial sums wait in the output, which does not change their bits.
// The tile is written with GCC/Clang vector types: written as plain scalar
// loops, GCC 12 at -march=native vectorised it along k instead, with
// shuffles, and the NN tile ran about 3x slower than the untiled kernel it
// replaces (x86-64 Xeon VM).
constexpr int kTileRows = 4;
constexpr int kTileCols = 8;
constexpr int kKTile = 128;
using Double2 = double __attribute__((vector_size(16)));
constexpr int kTileVecs = kTileCols / 2;

// A(i, k) for an A panel starting at `a`: A row-major with row stride
// `lda`, or, for kTransA, A^T read out of a row-major matrix with row
// stride `lda`.
template <bool kTransA>
inline double PanelAt(const double* a, int64_t lda, int i, int k) {
  return kTransA ? a[k * lda + i] : a[i * lda + k];
}

// One full tile: o (kTileRows x kTileCols, row stride ldo) += A panel * B
// panel over kn steps of k.
template <bool kTransA>
inline void GemmTile(const double* a, int64_t lda, const double* b,
                     int64_t ldb, int kn, double* o, int64_t ldo) {
  Double2 acc[kTileRows][kTileVecs];
  for (int r = 0; r < kTileRows; ++r) {
    std::memcpy(acc[r], o + r * ldo, sizeof(acc[r]));
  }
  for (int k = 0; k < kn; ++k) {
    Double2 bk[kTileVecs];
    std::memcpy(bk, b + k * ldb, sizeof(bk));
    for (int r = 0; r < kTileRows; ++r) {
      const double s = PanelAt<kTransA>(a, lda, r, k);
      const Double2 av = {s, s};
      for (int v = 0; v < kTileVecs; ++v) acc[r][v] += av * bk[v];
    }
  }
  for (int r = 0; r < kTileRows; ++r) {
    std::memcpy(o + r * ldo, acc[r], sizeof(acc[r]));
  }
}

// A partial tile at the bottom or right edge (mr x nr): the same sums, one
// element at a time.
template <bool kTransA>
void GemmEdge(const double* a, int64_t lda, const double* b, int64_t ldb,
              int kn, double* o, int64_t ldo, int mr, int nr) {
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
// `out` must hold +0.0 (or a partial sum) on entry.
template <bool kTransA>
void GemmRows(const double* a, int64_t lda, const double* b, int64_t ldb,
              int inner, int64_t r0, int64_t r1, Matrix* out) {
  const int cols = out->cols();
  for (int k0 = 0; k0 < inner; k0 += kKTile) {
    const int kn = std::min(inner - k0, kKTile);
    for (int i = static_cast<int>(r0); i < r1; i += kTileRows) {
      const int mr = std::min(static_cast<int>(r1) - i, kTileRows);
      const double* ap = kTransA ? a + k0 * lda + i : a + i * lda + k0;
      for (int j = 0; j < cols; j += kTileCols) {
        const int nr = std::min(cols - j, kTileCols);
        const double* bp = b + k0 * ldb + j;
        double* op = out->row(i) + j;
        if (mr == kTileRows && nr == kTileCols) {
          GemmTile<kTransA>(ap, lda, bp, ldb, kn, op, cols);
        } else {
          GemmEdge<kTransA>(ap, lda, bp, ldb, kn, op, cols, mr, nr);
        }
      }
    }
  }
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

void Matrix::LeakyReluInPlace(double slope) {
  for (auto& v : data_) {
    if (v < 0.0) v *= slope;
  }
}

Matrix Matrix::MatMul(const Matrix& other) const {
  BSG_CHECK(cols_ == other.rows_, "MatMul inner dimension mismatch");
  Matrix out(rows_, other.cols_);
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    GemmRows</*kTransA=*/false>(data(), cols_, other.data(), other.cols_,
                                cols_, r0, r1, &out);
  });
  return out;
}

Matrix Matrix::MatMulAddBias(const Matrix& other, const Matrix& bias) const {
  BSG_CHECK(cols_ == other.rows_, "MatMulAddBias inner dimension mismatch");
  BSG_CHECK(bias.rows() == 1 && bias.cols() == other.cols_,
            "MatMulAddBias bias shape mismatch");
  Matrix out(rows_, other.cols_);
  const int out_cols = other.cols_;
  const double* b_bias = bias.row(0);
  // The MatMul kernel, then one pass over the block's finished rows adds
  // the bias: per output element "k-ascending accumulation from +0.0, then
  // + bias", the float sequence of MatMul followed by a broadcast add.
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    GemmRows</*kTransA=*/false>(data(), cols_, other.data(), out_cols, cols_,
                                r0, r1, &out);
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      double* o_row = out.row(i);
      for (int j = 0; j < out_cols; ++j) o_row[j] += b_bias[j];
    }
  });
  return out;
}

Matrix Matrix::MatMulTN(const Matrix& other) const {
  BSG_CHECK(rows_ == other.rows_, "MatMulTN inner dimension mismatch");
  Matrix out(cols_, other.cols_);
  // A^T's row i is A's column i: the tile reads A(k, i..i+3), contiguous.
  ParallelFor(0, cols_, kRowGrain, [&](int64_t r0, int64_t r1) {
    GemmRows</*kTransA=*/true>(data(), cols_, other.data(), other.cols_,
                               rows_, r0, r1, &out);
  });
  return out;
}

Matrix Matrix::MatMulNT(const Matrix& other) const {
  BSG_CHECK(cols_ == other.cols_, "MatMulNT inner dimension mismatch");
  // The tile wants B's rows contiguous, so B = other^T is materialised
  // (an exact copy, the size of `other`) and the product is MatMul's.
  return MatMul(other.Transposed());
}

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
  BSG_CHECK(rows_ == other.rows_, "ConcatCols row mismatch");
  // Full-write kernel: the two copies cover every output column.
  Matrix out = Matrix::Uninit(rows_, cols_ + other.cols_);
  for (int i = 0; i < rows_; ++i) {
    std::copy(row(i), row(i) + cols_, out.row(i));
    std::copy(other.row(i), other.row(i) + other.cols_, out.row(i) + cols_);
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
