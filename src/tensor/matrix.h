// Dense row-major matrix of doubles: the storage type underlying the autograd
// engine and all feature pipelines.
//
// Kept deliberately dependency-free (no BLAS): kernels are plain loops (the
// GEMMs register-tiled) and run over the util/parallel.h thread pool.
// Results are bit-identical at any thread count (each output row is owned
// by one chunk; see util/parallel.h for the determinism contract).
//
// Storage comes from the global BufferPool (util/buffer_pool.h): a matrix
// acquires a size-bucketed slab on construction and releases it on
// destruction, so the training hot path recycles warm pages instead of
// hitting the heap allocator per op. The API is unchanged — data()/row()/
// At() behave exactly as with vector storage, and the constructor still
// fills (Uninit is the explicit opt-out for kernels that overwrite every
// element).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/status.h"

namespace bsg {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  using Scalar = double;

  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols) {
    BSG_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
    Fill(fill);
  }

  /// Pool-backed matrix with *stale* contents. Strictly for kernels that
  /// provably write every element before any read (fused ops, transposes,
  /// gathers); everything else wants the filling constructor.
  static Matrix Uninit(int rows, int cols) {
    Matrix m;
    BSG_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = PoolSlab(static_cast<size_t>(rows) * cols);
    return m;
  }

  /// Builds a matrix from nested initializer data (row major), mostly for
  /// tests. All rows must have equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(int n);

  /// Entries drawn i.i.d. from N(0, stddev^2).
  static Matrix RandomNormal(int rows, int cols, double stddev, Rng* rng);

  /// Xavier/Glorot uniform initialisation: U(-a, a), a = sqrt(6/(fan_in+out)).
  static Matrix Xavier(int rows, int cols, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(int r, int c) {
    BSG_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "At out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    BSG_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "At out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  /// Unchecked element access for hot loops.
  double& operator()(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(double v) {
    double* p = data_.data();
    for (size_t i = 0, n = data_.size(); i < n; ++i) p[i] = v;
  }
  void Zero() { Fill(0.0); }

  /// this += other (shapes must match).
  void Add(const Matrix& other);
  /// this += alpha * other.
  void Axpy(double alpha, const Matrix& other);
  /// this *= alpha elementwise.
  void Scale(double alpha);

  /// Elementwise leaky ReLU in place: negative entries times `slope` (the
  /// forward of ops::LeakyRelu).
  void LeakyReluInPlace(double slope);
  /// Elementwise tanh in place (the forward of ops::Tanh).
  void TanhInPlace();

  // The GEMMs share one contract. Each output element (i, j) is summed in
  // its own accumulator, from +0.0, over k = 0, 1, ... in ascending order,
  // every product and sum rounded on its own; only MatMulAddBias then adds
  // bias(j) (and MatMulAddBiasLeakyRelu then applies the leaky ReLU to that
  // sum). So every result is the plain triple
  // loop's bit for bit, at any thread count, tiling and vector width (the
  // SimdWidth forms in tensor/gemm.h), and a row of the output depends only
  // on the same row of `this` (of this^T for MatMulTN). Operands must be
  // finite: then a term with an exact zero factor cannot change an
  // accumulator, and whether a kernel skips such terms is a no-op
  // (tests/test_matmul_transpose.cc pins both).

  /// Dense matrix product: returns this * other.
  Matrix MatMul(const Matrix& other) const;
  /// Fused linear-layer kernel: returns this * other + bias broadcast over
  /// rows (bias is 1 x other.cols()), with no intermediate product matrix.
  /// Bit-identical to MatMul(other) followed by adding the bias row.
  Matrix MatMulAddBias(const Matrix& other, const Matrix& bias) const;
  /// MatMulAddBias with the leaky ReLU applied to each row block by the
  /// thread that computed it (the Eq. 9 and Eq. 10 layers): bit-identical
  /// to MatMulAddBias followed by LeakyReluInPlace(slope), without the
  /// second pass over the whole matrix. With `keep` (rows() x other.cols()
  /// bytes, row-major) it also records the derivative's sign test for the
  /// backward: keep = (pre-activation >= 0.0), which the output cannot tell
  /// (a -0.0 output comes from a -0.0 pre-activation, slope 1, and from a
  /// negative one whose product with the slope underflows, slope `slope`).
  Matrix MatMulAddBiasLeakyRelu(const Matrix& other, const Matrix& bias,
                                double slope, uint8_t* keep = nullptr) const;
  /// Transpose-aware product: returns this^T * other without materialising
  /// this^T. Bit-identical to Transposed().MatMul(other).
  Matrix MatMulTN(const Matrix& other) const;
  /// Transpose-aware product: returns this * other^T. Bit-identical to
  /// MatMul(other.Transposed()), which is how it is computed.
  Matrix MatMulNT(const Matrix& other) const;
  /// The accumulating forms of MatMulTN and MatMulNT, for gradients:
  /// *out += the product, each element's k-ascending sum continuing from its
  /// value in `out`. On an `out` of +0.0s the result is bit for bit
  /// out->Add(product) (a sum from +0.0 is never -0.0, so +0.0 + it is it),
  /// without the product matrix.
  void MatMulTNAddTo(const Matrix& other, Matrix* out) const;
  void MatMulNTAddTo(const Matrix& other, Matrix* out) const;
  /// Returns the transpose.
  Matrix Transposed() const;

  /// Sum of all entries.
  double Sum() const;
  /// Mean of all entries (0 for empty).
  double Mean() const;
  /// Maximum absolute entry (0 for empty).
  double AbsMax() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Euclidean (L2) norm of one row.
  double RowNorm(int r) const;
  /// Cosine similarity between row r of this and row s of other. Returns 0
  /// when either row is the zero vector.
  double RowCosine(int r, const Matrix& other, int s) const;

  /// Extracts rows by index into a new matrix.
  Matrix GatherRows(const std::vector<int>& indices) const;

  /// Column-wise mean / stddev (population), used by the standardiser.
  std::vector<double> ColMeans() const;
  std::vector<double> ColStddevs() const;

  /// Horizontal concatenation [this | other] (row counts must match).
  Matrix ConcatCols(const Matrix& other) const;

  /// Compact debug representation (shape + a few entries).
  std::string DebugString() const;

 private:
  int rows_;
  int cols_;
  PoolSlab data_;
};

/// Multi-way horizontal concatenation [parts[0] | parts[1] | ...] (row
/// counts must match).
Matrix ConcatCols(const std::vector<const Matrix*>& parts);

}  // namespace bsg
