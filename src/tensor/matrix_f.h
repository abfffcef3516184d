// Dense row-major matrix of floats: the storage type of the mixed-precision
// serving path.
//
// MatrixF is the inference-only f32 counterpart of Matrix. It exists for one
// reason: the frozen model's forward pass is memory-bandwidth bound, and
// float halves every stream the kernels touch while letting the compiler
// vectorize twice as many lanes per register. There is no autograd on top of
// it and no bit-exactness contract — the f64 path stays the accuracy oracle
// (serve/engine.h asserts per-logit agreement within tolerance) — so these
// kernels are free to seed accumulators with the bias and to keep every
// inner loop a straight-line contiguous stream the auto-vectorizer can
// unroll (BSG_MARCH_NATIVE=ON builds with -march=native
// for full-width SIMD).
//
// Storage is the same global BufferPool as Matrix: a PoolSlabF is a float
// view over a pooled *double* slab (two floats per double, 8-byte aligned),
// so the f32 working set recycles through the identical free lists and the
// serving arena accounting sees it with no new pool plumbing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/buffer_pool.h"
#include "util/status.h"

namespace bsg {

class Matrix;

/// RAII float view over one pooled double slab (capacity in floats is twice
/// the double bucket). Value semantics mirror PoolSlab: deep copies, moving
/// transfers ownership, destruction releases the slab. Acquire returns stale
/// contents — callers fill.
class PoolSlabF {
 public:
  PoolSlabF() = default;
  /// Acquires backing for n floats ((n + 1) / 2 doubles). Stale contents.
  explicit PoolSlabF(size_t n) : size_(n) {
    size_t cap_doubles = 0;
    data_ = reinterpret_cast<float*>(
        BufferPool::Global().Acquire((n + 1) / 2, &cap_doubles));
    capacity_doubles_ = cap_doubles;
  }
  PoolSlabF(const PoolSlabF& other) : PoolSlabF(other.size_) {
    for (size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  }
  PoolSlabF(PoolSlabF&& other) noexcept {
    *this = static_cast<PoolSlabF&&>(other);
  }
  PoolSlabF& operator=(const PoolSlabF& other);
  PoolSlabF& operator=(PoolSlabF&& other) noexcept;
  ~PoolSlabF() {
    BufferPool::Global().Release(reinterpret_cast<double*>(data_),
                                 capacity_doubles_);
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

 private:
  float* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_doubles_ = 0;
};

/// Dense row-major matrix of floats (inference kernels only — no autograd).
class MatrixF {
 public:
  MatrixF() : rows_(0), cols_(0) {}
  MatrixF(int rows, int cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols) {
    BSG_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
    Fill(fill);
  }

  /// Pool-backed matrix with stale contents, for kernels that provably
  /// write every element before any read.
  static MatrixF Uninit(int rows, int cols) {
    MatrixF m;
    BSG_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = PoolSlabF(static_cast<size_t>(rows) * cols);
    return m;
  }

  /// Narrowing conversion from the f64 oracle (the one-time checkpoint-load
  /// weight conversion of the serving shadow).
  static MatrixF FromDouble(const Matrix& m);
  /// Widening conversion back (exact: every float is a double).
  Matrix ToDouble() const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(int r, int c) {
    BSG_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "At out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    BSG_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "At out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  /// Unchecked element access for hot loops.
  float& operator()(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  bool SameShape(const MatrixF& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(float v) {
    float* p = data_.data();
    for (size_t i = 0, n = data_.size(); i < n; ++i) p[i] = v;
  }

  /// this += alpha * other (the semantic-attention fusion axpy).
  void Axpy(float alpha, const MatrixF& other);
  /// this *= alpha elementwise.
  void Scale(float alpha);

  /// Dense product this * other. Branch-free i-k-j saxpy kernel: the inner
  /// loop vectorizes cleanly and non-finite operands (NaN/Inf) propagate
  /// unconditionally.
  MatrixF MatMul(const MatrixF& other) const;
  /// Fused affine layer: this * other + bias (1 x other.cols()) broadcast
  /// over rows. The bias seeds the accumulator (one pass, no epilogue).
  MatrixF MatMulAddBias(const MatrixF& other, const MatrixF& bias) const;

  /// Elementwise leaky ReLU in place.
  void LeakyReluInPlace(float slope);
  /// Elementwise tanh in place (semantic-attention projection).
  void TanhInPlace();

  /// Sum / mean over all entries (float accumulation — serving matrices are
  /// small; tolerance covers the difference vs the f64 oracle).
  float Sum() const;
  float Mean() const;

  /// Euclidean norm of one row.
  float RowNorm(int r) const;
  /// Cosine similarity between row r of this and row s of other; 0 when
  /// either row is the zero vector (mirrors Matrix::RowCosine).
  float RowCosine(int r, const MatrixF& other, int s) const;

  /// Extracts rows by index.
  MatrixF GatherRows(const std::vector<int>& indices) const;

  /// Horizontal concatenation [this | other].
  MatrixF ConcatCols(const MatrixF& other) const;

 private:
  int rows_;
  int cols_;
  PoolSlabF data_;
};

/// Fused elementwise (a + b) -> leaky ReLU (the residual-activation kernel;
/// f32 counterpart of ops::AddLeakyRelu's forward).
MatrixF AddLeakyReluF(const MatrixF& a, const MatrixF& b, float slope);

/// Sparse-dense product out = A * x over a CSR adjacency. When `w32` is
/// non-null it must hold A's edge weights pre-cast to float (one cast at
/// stacking time, 4-byte streams at scoring time); otherwise the Csr's
/// double weights are cast per edge (unit weight when the Csr is
/// unweighted). When `rows` is non-null, row i of the result is row
/// rows[i] of A * x (the same CSR-order sum), and only those rows are
/// computed.
MatrixF SpmmF(const Csr& a, const std::vector<float>* w32, const MatrixF& x,
              const std::vector<int>* rows = nullptr);

/// Segment sum: out.row(s) = sum of msgs rows [seg_ptr[s], seg_ptr[s+1]).
/// seg_ptr must be a monotone partition of [0, msgs.rows()].
MatrixF SegmentSumF(const MatrixF& msgs, const std::vector<int64_t>& seg_ptr);

/// Multi-way horizontal concatenation (Eq. 11 centre-layer concat).
MatrixF ConcatColsF(const std::vector<const MatrixF*>& parts);

/// Per-row self dot products (f32 twin of pretrain.h's RowSelfDots).
std::vector<float> RowSelfDotsF(const MatrixF& m);

}  // namespace bsg
