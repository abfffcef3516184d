#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

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

// Row-block grain for parallel MatMul / Transposed and the k-tile edge of
// the MatMul kernel. The grain is fixed (never derived from the thread
// count) so the static chunk layout — and therefore every bit of the
// result — is identical at any thread count.
constexpr int kRowGrain = 16;
constexpr int kKTile = 64;
// Column-range grain for the per-column statistics.
constexpr int kColGrain = 8;
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
  const int inner = cols_;
  const int out_cols = other.cols_;
  // Row-blocked and k-tiled i-k-j kernel: each chunk owns a block of output
  // rows (no write conflicts), and the k-tile keeps a slab of `other` hot
  // in cache while the block's rows stream over it. Per output element the
  // accumulation order is k-ascending regardless of tiling or threads, so
  // the product is bit-identical to the plain serial triple loop.
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int k0 = 0; k0 < inner; k0 += kKTile) {
      const int k1 = std::min(inner, k0 + kKTile);
      for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
        const double* a_row = row(i);
        double* o_row = out.row(i);
        for (int k = k0; k < k1; ++k) {
          double a = a_row[k];
          if (a == 0.0) continue;
          const double* b_row = other.row(k);
          for (int j = 0; j < out_cols; ++j) o_row[j] += a * b_row[j];
        }
      }
    }
  });
  return out;
}

Matrix Matrix::MatMulAddBias(const Matrix& other, const Matrix& bias) const {
  BSG_CHECK(cols_ == other.rows_, "MatMulAddBias inner dimension mismatch");
  BSG_CHECK(bias.rows() == 1 && bias.cols() == other.cols_,
            "MatMulAddBias bias shape mismatch");
  Matrix out(rows_, other.cols_);
  const int inner = cols_;
  const int out_cols = other.cols_;
  const double* b_bias = bias.row(0);
  // The MatMul kernel with the bias row folded into the same row block:
  // after a block's rows finish all k tiles, one extra pass adds the bias.
  // Per output element that is exactly "k-ascending accumulation from 0,
  // then + bias" — the same float sequence as the unfused MatMul followed
  // by a broadcast add, so the fusion cannot change a single bit.
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int k0 = 0; k0 < inner; k0 += kKTile) {
      const int k1 = std::min(inner, k0 + kKTile);
      for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
        const double* a_row = row(i);
        double* o_row = out.row(i);
        for (int k = k0; k < k1; ++k) {
          double a = a_row[k];
          if (a == 0.0) continue;
          const double* b_row = other.row(k);
          for (int j = 0; j < out_cols; ++j) o_row[j] += a * b_row[j];
        }
      }
    }
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
  const int inner = rows_;
  const int out_cols = other.cols_;
  // Same blocked i-k-j structure as MatMul, but A is read down its column i
  // (A^T's row i). Per output element the accumulation order is k-ascending
  // with the identical zero-skip, so the product matches
  // Transposed().MatMul(other) bit for bit.
  ParallelFor(0, cols_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int k0 = 0; k0 < inner; k0 += kKTile) {
      const int k1 = std::min(inner, k0 + kKTile);
      for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
        double* o_row = out.row(i);
        for (int k = k0; k < k1; ++k) {
          double a = (*this)(k, i);
          if (a == 0.0) continue;
          const double* b_row = other.row(k);
          for (int j = 0; j < out_cols; ++j) o_row[j] += a * b_row[j];
        }
      }
    }
  });
  return out;
}

Matrix Matrix::MatMulNT(const Matrix& other) const {
  BSG_CHECK(cols_ == other.cols_, "MatMulNT inner dimension mismatch");
  Matrix out = Matrix::Uninit(rows_, other.rows_);  // every (i, j) is stored
  const int inner = cols_;
  const int out_cols = other.rows_;
  // Row-dot-row kernel: output (i, j) is <this.row(i), other.row(j)>, two
  // contiguous streams. The k-ascending accumulation reproduces
  // MatMul(other.Transposed()) bit for bit. Unlike the saxpy-style kernels
  // above (whose zero test guards a whole row pass), a per-element
  // `if (a == 0.0) continue` here would sit inside the dot loop, blocking
  // vectorization and mispredicting on dense data — and on finite operands
  // (the library-wide precondition; MatMul's kernel likewise multiplies
  // by exact zeros) skipping the term cannot change the result: acc starts
  // at +0.0 and adding a (+/-)0.0 product leaves every accumulator bit
  // intact (the signed-zero edge is pinned by test_matmul_transpose).
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const double* a_row = row(i);
      double* o_row = out.row(i);
      for (int j = 0; j < out_cols; ++j) {
        const double* b_row = other.row(j);
        double acc = 0.0;
        for (int k = 0; k < inner; ++k) acc += a_row[k] * b_row[k];
        o_row[j] = acc;
      }
    }
  });
  return out;
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
