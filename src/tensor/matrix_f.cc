#include "tensor/matrix_f.h"

#include <algorithm>
#include <cmath>

#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "util/parallel.h"

// Loops start on 64-byte boundaries, as in matrix.cc (see the reason there).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=64")
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
  BSG_CHECK(cols_ == other.rows_, "MatMulAddBias inner dimension mismatch");
  BSG_CHECK(bias.rows() == 1 && bias.cols() == other.cols_,
            "MatMulAddBias bias shape mismatch");
  MatrixF out = MatrixF::Uninit(rows_, other.cols_);
  const int inner = cols_;
  const int out_cols = other.cols_;
  const float* b_bias = bias.row(0);
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* a_row = row(i);
      float* o_row = out.row(i);
      for (int j = 0; j < out_cols; ++j) o_row[j] = b_bias[j];
      for (int k = 0; k < inner; ++k) {
        const float a = a_row[k];
        const float* b_row = other.row(k);
        for (int j = 0; j < out_cols; ++j) o_row[j] += a * b_row[j];
      }
    }
  });
  return out;
}

void MatrixF::LeakyReluInPlace(float slope) {
  float* p = data();
  const size_t n = size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    StoreVec(p + i, LeakyReluLanesF(LoadVec<Float4>(p + i), slope));
  }
  for (; i < n; ++i) p[i] = LeakyReluLanesF(Float4{p[i]}, slope)[0];
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

float MatrixF::RowNorm(int r) const {
  const float* p = row(r);
  float s = 0.0f;
  for (int c = 0; c < cols_; ++c) s += p[c] * p[c];
  return std::sqrt(s);
}

float MatrixF::RowCosine(int r, const MatrixF& other, int s) const {
  BSG_CHECK(cols_ == other.cols_, "RowCosine dimension mismatch");
  const float* a = row(r);
  const float* b = other.row(s);
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (int c = 0; c < cols_; ++c) {
    dot += a[c] * b[c];
    na += a[c] * a[c];
    nb += b[c] * b[c];
  }
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return dot / std::sqrt(na * nb);
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

MatrixF MatrixF::ConcatCols(const MatrixF& other) const {
  BSG_CHECK(rows_ == other.rows_, "ConcatCols row mismatch");
  MatrixF out = MatrixF::Uninit(rows_, cols_ + other.cols_);
  for (int i = 0; i < rows_; ++i) {
    std::copy(row(i), row(i) + cols_, out.row(i));
    std::copy(other.row(i), other.row(i) + other.cols_, out.row(i) + cols_);
  }
  return out;
}

MatrixF AddLeakyReluF(const MatrixF& a, const MatrixF& b, float slope) {
  BSG_CHECK(a.SameShape(b), "AddLeakyReluF shape mismatch");
  MatrixF out = MatrixF::Uninit(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const size_t n = out.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Float4 s = LoadVec<Float4>(pa + i) + LoadVec<Float4>(pb + i);
    StoreVec(po + i, LeakyReluLanesF(s, slope));
  }
  for (; i < n; ++i) po[i] = LeakyReluLanesF(Float4{pa[i] + pb[i]}, slope)[0];
  return out;
}

MatrixF SpmmF(const Csr& a, const std::vector<float>* w32, const MatrixF& x,
              const std::vector<int>* rows) {
  BSG_CHECK(a.num_nodes() == x.rows(), "SpmmF shape mismatch");
  BSG_CHECK(w32 == nullptr ||
                static_cast<int64_t>(w32->size()) == a.num_edges(),
            "SpmmF f32 weight count mismatch");
  if (rows != nullptr) {
    for (int u : *rows) {
      BSG_CHECK(u >= 0 && u < a.num_nodes(), "SpmmF row out of range");
    }
  }
  const int n = rows != nullptr ? static_cast<int>(rows->size())
                                : a.num_nodes();
  MatrixF out(n, x.cols());
  const int d = x.cols();
  const float* wf = w32 != nullptr ? w32->data() : nullptr;
  ParallelFor(0, n, kSpRowGrain, [&](int64_t i0, int64_t i1) {
    for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
      const int u = rows != nullptr ? (*rows)[i] : i;
      float* o = out.row(i);
      const int* nb = a.NeighborsBegin(u);
      const int* ne = a.NeighborsEnd(u);
      const double* wd = a.WeightsBegin(u);
      const float* wrow = wf != nullptr ? wf + (nb - a.indices().data()) : nullptr;
      for (const int* p = nb; p != ne; ++p) {
        const float weight =
            wrow != nullptr
                ? wrow[p - nb]
                : (wd != nullptr ? static_cast<float>(wd[p - nb]) : 1.0f);
        const float* xr = x.row(*p);
        for (int c = 0; c < d; ++c) o[c] += weight * xr[c];
      }
    }
  });
  return out;
}

MatrixF SegmentSumF(const MatrixF& msgs, const std::vector<int64_t>& seg_ptr) {
  const int num_segments = static_cast<int>(seg_ptr.size()) - 1;
  BSG_CHECK(num_segments >= 0 && seg_ptr.front() == 0 &&
                seg_ptr.back() == msgs.rows(),
            "SegmentSumF seg_ptr mismatch");
  MatrixF out(num_segments, msgs.cols());
  const int d = msgs.cols();
  ParallelFor(0, num_segments, kSpRowGrain, [&](int64_t s0, int64_t s1) {
    for (int s = static_cast<int>(s0); s < static_cast<int>(s1); ++s) {
      float* o = out.row(s);
      for (int64_t e = seg_ptr[s]; e < seg_ptr[s + 1]; ++e) {
        const float* m = msgs.row(static_cast<int>(e));
        for (int c = 0; c < d; ++c) o[c] += m[c];
      }
    }
  });
  return out;
}

MatrixF ConcatColsF(const std::vector<const MatrixF*>& parts) {
  BSG_CHECK(!parts.empty(), "ConcatColsF on no parts");
  const int rows = parts[0]->rows();
  int total_cols = 0;
  for (const MatrixF* p : parts) {
    BSG_CHECK(p->rows() == rows, "ConcatColsF row mismatch");
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

std::vector<float> RowSelfDotsF(const MatrixF& m) {
  std::vector<float> dots(static_cast<size_t>(m.rows()));
  for (int r = 0; r < m.rows(); ++r) {
    const float* p = m.row(r);
    float s = 0.0f;
    for (int c = 0; c < m.cols(); ++c) s += p[c] * p[c];
    dots[static_cast<size_t>(r)] = s;
  }
  return dots;
}

}  // namespace bsg
