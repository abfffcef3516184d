#include "tensor/matrix_f.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "util/parallel.h"

// Loops start on 64-byte boundaries, as in matrix.cc (see the reason there),
// and a multiply and an add are never contracted into an FMA, whatever the
// build flags say, so the f32 bits are the same in every build.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("align-loops=64", "fp-contract=off")
#endif

namespace bsg {

namespace {

// Same fixed grains as the f64 kernels: the static chunk layout stays
// thread-count invariant, and each output row is owned by one chunk.
constexpr int kRowGrain = 16;
constexpr int kSpRowGrain = 64;

// The f32 leaky ReLU, lane-wise: `s > 0.0f ? s : slope * s`. NaN fails the
// comparison and takes the slope side, staying NaN either way.
inline Float4 LeakyReluLanesF(Float4 s, float slope) {
  return Select(s > Float4{}, s, slope * s);
}

// The f32 leaky ReLU of n contiguous elements in place: LeakyReluInPlace,
// and MatMulAddBiasLeakyRelu's epilogue on one row block.
void LeakyReluSpanF(float* p, size_t n, float slope) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    StoreVec(p + i, LeakyReluLanesF(LoadVec<Float4>(p + i), slope));
  }
  for (; i < n; ++i) p[i] = LeakyReluLanesF(Float4{p[i]}, slope)[0];
}

// a * w + bias (1 x w.cols()) broadcast over rows, the bias seeding each
// accumulator, then, with `leaky_slope`, the leaky ReLU of each row block
// in the chunk that computed it: MatMulAddBias / MatMulAddBiasLeakyRelu.
MatrixF AffineRows(const MatrixF& a, const MatrixF& w, const MatrixF& bias,
                   std::optional<float> leaky_slope) {
  BSG_CHECK(a.cols() == w.rows(), "MatMulAddBias inner dimension mismatch");
  BSG_CHECK(bias.rows() == 1 && bias.cols() == w.cols(),
            "MatMulAddBias bias shape mismatch");
  MatrixF out = MatrixF::Uninit(a.rows(), w.cols());
  const int inner = a.cols();
  const int out_cols = w.cols();
  const float* b_bias = bias.row(0);
  ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* a_row = a.row(i);
      float* o_row = out.row(i);
      for (int j = 0; j < out_cols; ++j) o_row[j] = b_bias[j];
      for (int k = 0; k < inner; ++k) {
        const float s = a_row[k];
        const float* w_row = w.row(k);
        for (int j = 0; j < out_cols; ++j) o_row[j] += s * w_row[j];
      }
    }
    if (leaky_slope) {
      LeakyReluSpanF(out.row(static_cast<int>(r0)),
                     static_cast<size_t>(r1 - r0) * out_cols, *leaky_slope);
    }
  });
  return out;
}

}  // namespace

PoolSlabF& PoolSlabF::operator=(const PoolSlabF& other) {
  if (this == &other) return *this;
  // Reuse the held slab when its double capacity covers the floats.
  if (capacity_doubles_ * 2 < other.size_) {
    BufferPool::Global().Release(reinterpret_cast<double*>(data_),
                                 capacity_doubles_);
    data_ = reinterpret_cast<float*>(BufferPool::Global().Acquire(
        (other.size_ + 1) / 2, &capacity_doubles_));
  }
  size_ = other.size_;
  BSG_POISON_SLACK(data_, size_ * sizeof(float),
                   capacity_doubles_ * sizeof(double));
  for (size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  return *this;
}

PoolSlabF& PoolSlabF::operator=(PoolSlabF&& other) noexcept {
  if (this == &other) return *this;
  BufferPool::Global().Release(reinterpret_cast<double*>(data_),
                               capacity_doubles_);
  data_ = other.data_;
  size_ = other.size_;
  capacity_doubles_ = other.capacity_doubles_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.capacity_doubles_ = 0;
  return *this;
}

MatrixF MatrixF::FromDouble(const Matrix& m) {
  MatrixF out = MatrixF::Uninit(m.rows(), m.cols());
  const double* src = m.data();
  float* dst = out.data();
  for (size_t i = 0, n = out.size(); i < n; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
  return out;
}

Matrix MatrixF::ToDouble() const {
  Matrix out = Matrix::Uninit(rows_, cols_);
  const float* src = data();
  double* dst = out.data();
  for (size_t i = 0, n = size(); i < n; ++i) {
    dst[i] = static_cast<double>(src[i]);
  }
  return out;
}

void MatrixF::Axpy(float alpha, const MatrixF& other) {
  BSG_CHECK(SameShape(other), "Axpy shape mismatch");
  float* a = data();
  const float* b = other.data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] += alpha * b[i];
}

void MatrixF::Scale(float alpha) {
  float* a = data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] *= alpha;
}

MatrixF MatrixF::MatMul(const MatrixF& other) const {
  BSG_CHECK(cols_ == other.rows_, "MatMul inner dimension mismatch");
  MatrixF out(rows_, other.cols_);
  const int inner = cols_;
  const int out_cols = other.cols_;
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* a_row = row(i);
      float* o_row = out.row(i);
      for (int k = 0; k < inner; ++k) {
        const float a = a_row[k];
        const float* b_row = other.row(k);
        for (int j = 0; j < out_cols; ++j) o_row[j] += a * b_row[j];
      }
    }
  });
  return out;
}

MatrixF MatrixF::MatMulAddBias(const MatrixF& other, const MatrixF& bias) const {
  return AffineRows(*this, other, bias, std::nullopt);
}

MatrixF MatrixF::MatMulAddBiasLeakyRelu(const MatrixF& other,
                                        const MatrixF& bias,
                                        float slope) const {
  return AffineRows(*this, other, bias, slope);
}

void MatrixF::LeakyReluInPlace(float slope) {
  LeakyReluSpanF(data(), size(), slope);
}

void MatrixF::TanhInPlace() {
  float* p = data();
  for (size_t i = 0, n = size(); i < n; ++i) p[i] = std::tanh(p[i]);
}

float MatrixF::Sum() const {
  const float* p = data();
  float s = 0.0f;
  for (size_t i = 0, n = size(); i < n; ++i) s += p[i];
  return s;
}

float MatrixF::Mean() const {
  return empty() ? 0.0f : Sum() / static_cast<float>(size());
}

MatrixF MatrixF::GatherRows(const std::vector<int>& indices) const {
  MatrixF out = MatrixF::Uninit(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    int r = indices[i];
    BSG_CHECK(r >= 0 && r < rows_, "GatherRows index out of range");
    std::copy(row(r), row(r) + cols_, out.row(static_cast<int>(i)));
  }
  return out;
}

MatrixF SpmmF(const SymBlocks& a, const std::vector<float>* w32,
              const MatrixF& x, const std::vector<int>* rows,
              const std::vector<int>* x_rows) {
  a.Validate();
  const int n_rows = a.rows();
  // Where each block's f32 weights start: its stored edges', then its
  // self-loop weights (SubgraphBatch::rel_weights_f32).
  std::vector<int64_t> w_begin;
  if (w32 != nullptr) {
    w_begin.reserve(a.blocks.size() + 1);
    w_begin.push_back(0);
    for (const SymBlock& b : a.blocks) {
      w_begin.push_back(w_begin.back() + b.adj->num_edges() +
                        b.adj->num_nodes());
    }
    BSG_CHECK(static_cast<int64_t>(w32->size()) == w_begin.back(),
              "SpmmF f32 weight count mismatch");
  }
  if (rows != nullptr) {
    for (int u : *rows) {
      BSG_CHECK(u >= 0 && u < n_rows, "SpmmF row out of range");
    }
  }
  if (x_rows != nullptr) {
    BSG_CHECK(static_cast<int>(x_rows->size()) == n_rows,
              "SpmmF row map size mismatch");
    for (int s : *x_rows) {
      BSG_CHECK(s >= 0 && s < x.rows(), "SpmmF row map entry out of range");
    }
  } else {
    BSG_CHECK(n_rows == x.rows(), "SpmmF shape mismatch");
  }
  const int n = rows != nullptr ? static_cast<int>(rows->size()) : n_rows;
  MatrixF out(n, x.cols());
  const int d = x.cols();
  ParallelFor(0, n, kSpRowGrain, [&](int64_t i0, int64_t i1) {
    for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
      const int s = rows != nullptr ? (*rows)[i] : i;
      const int b = a.BlockOf(s);
      const int off = a.offsets[b];
      const int u = s - off;
      const float* wb = w32 != nullptr ? w32->data() + w_begin[b] : nullptr;
      const float* w_edges =
          wb != nullptr ? wb + a.blocks[b].adj->indptr()[u] : nullptr;
      const float* w_self =
          wb != nullptr ? wb + a.blocks[b].adj->num_edges() + u : nullptr;
      float* o = out.row(i);
      auto add = [&](int v, double weight, int j) {
        const float w = wb == nullptr ? static_cast<float>(weight)
                        : j < 0       ? *w_self
                                      : w_edges[j];
        const float* xr =
            x.row(x_rows != nullptr ? (*x_rows)[off + v] : off + v);
        for (int c = 0; c < d; ++c) o[c] += w * xr[c];
      };
      ForEachSymTerm(a.blocks[b], u, add);
    }
  });
  return out;
}

MatrixF ConcatCols(const std::vector<const MatrixF*>& parts) {
  BSG_CHECK(!parts.empty(), "ConcatCols on no parts");
  const int rows = parts[0]->rows();
  int total_cols = 0;
  for (const MatrixF* p : parts) {
    BSG_CHECK(p->rows() == rows, "ConcatCols row mismatch");
    total_cols += p->cols();
  }
  MatrixF out = MatrixF::Uninit(rows, total_cols);
  for (int i = 0; i < rows; ++i) {
    float* o = out.row(i);
    for (const MatrixF* p : parts) {
      o = std::copy(p->row(i), p->row(i) + p->cols(), o);
    }
  }
  return out;
}

}  // namespace bsg
