#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"
#include "util/parallel.h"

// Loops start on 64-byte boundaries, as in matrix.cc (see the reason there):
// the SpMM kernels' inner loops are as short as the GEMM's.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=64")
#endif

namespace bsg {

SpMat MakeSpMat(Csr a) {
  auto fwd = std::make_shared<Csr>(std::move(a));
  auto bwd = std::make_shared<Csr>(fwd->Transposed());
  return SpMat{fwd, bwd};
}

namespace ops {

namespace {

// The leaky-ReLU derivative applied to an upstream gradient, lane-wise:
// `(s >= 0.0 ? 1.0 : slope) * g` for the pre-activation s (-0.0 >= 0.0
// holds; NaN takes the slope).
inline Double2 LeakyReluGradLanes(Double2 s, Double2 g, double slope) {
  return Select(s >= Double2{}, Double2{1.0, 1.0}, Double2{slope, slope}) * g;
}

// Creates a result node wired to its parents with requires_grad propagated.
Tensor NewNode(Matrix value, std::vector<Tensor> parents) {
  auto node = std::make_shared<TensorNode>();
  node->value = std::move(value);
  node->parents = std::move(parents);
  for (const Tensor& p : node->parents) {
    BSG_CHECK(p != nullptr, "null parent tensor");
    node->requires_grad = node->requires_grad || p->requires_grad;
  }
  return node;
}

// Destination-row grain for SpMM / segment ops: each chunk owns a range of
// output rows, so there are no write conflicts by construction and results
// are bit-identical at any thread count.
constexpr int kSpRowGrain = 64;

// Raw SpMM: out row i += row rows[i] of A * x (row i when `rows` is null),
// using per-edge weights (unit if unweighted). Parallel over output rows;
// per-row edge accumulation keeps CSR order, so the result matches the
// serial loop bit for bit, and a restricted row equals the same row of the
// full product.
void SpmmAccumulate(const Csr& a, const Matrix& x,
                    const std::vector<int>* rows, Matrix* out) {
  const int d = x.cols();
  const int n = rows != nullptr ? static_cast<int>(rows->size())
                                : a.num_nodes();
  ParallelFor(0, n, kSpRowGrain, [&](int64_t i0, int64_t i1) {
    for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
      const int u = rows != nullptr ? (*rows)[i] : i;
      double* o = out->row(i);
      const int* nb = a.NeighborsBegin(u);
      const int* ne = a.NeighborsEnd(u);
      const double* w = a.WeightsBegin(u);
      for (const int* p = nb; p != ne; ++p) {
        double weight = w ? w[p - nb] : 1.0;
        const double* xr = x.row(*p);
        for (int c = 0; c < d; ++c) o[c] += weight * xr[c];
      }
    }
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  BSG_CHECK(a->cols() == b->rows(), "MatMul shape mismatch");
  Tensor out = NewNode(a->value.MatMul(b->value), {a, b});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* b = self->parents[1].get();
    // Transpose-aware kernels: dL/dA = G B^T, dL/dB = A^T G, with no
    // Transposed() materialisation on the backward hot path.
    if (a->requires_grad) {
      a->grad.Add(self->grad.MatMulNT(b->value));
    }
    if (b->requires_grad) {
      b->grad.Add(a->value.MatMulTN(self->grad));
    }
  };
  return out;
}

Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  BSG_CHECK(x->cols() == w->rows(), "Linear shape mismatch");
  BSG_CHECK(bias->rows() == 1 && bias->cols() == w->cols(),
            "Linear bias shape mismatch");
  Tensor out = NewNode(x->value.MatMulAddBias(w->value, bias->value),
                       {x, w, bias});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* x = self->parents[0].get();
    TensorNode* w = self->parents[1].get();
    TensorNode* bias = self->parents[2].get();
    // The chain rule of the unfused pair, with the product node's gradient
    // (== self->grad) never materialised: dX = G W^T, dW = X^T G,
    // db = column sums of G in the same row-major order AddRowVec used.
    if (x->requires_grad) x->grad.Add(self->grad.MatMulNT(w->value));
    if (w->requires_grad) w->grad.Add(x->value.MatMulTN(self->grad));
    if (bias->requires_grad) {
      double* g = bias->grad.row(0);
      for (int i = 0; i < self->grad.rows(); ++i) {
        const double* r = self->grad.row(i);
        for (int c = 0; c < self->grad.cols(); ++c) g[c] += r[c];
      }
    }
  };
  return out;
}

Tensor AddLeakyRelu(const Tensor& a, const Tensor& b, double slope) {
  BSG_CHECK(a->value.SameShape(b->value), "AddLeakyRelu shape mismatch");
  Matrix v = Matrix::Uninit(a->rows(), a->cols());
  const double* pa = a->value.data();
  const double* pb = b->value.data();
  double* pv = v.data();
  const size_t n = v.size();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Double2 s = LoadVec<Double2>(pa + i) + LoadVec<Double2>(pb + i);
    StoreVec(pv + i, LeakyReluLanes(s, slope));
  }
  if (i < n) pv[i] = LeakyReluLanes(Double2{pa[i] + pb[i]}, slope)[0];
  Tensor out = NewNode(std::move(v), {a, b});
  out->backward_fn = [slope](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* b = self->parents[1].get();
    if (!a->requires_grad && !b->requires_grad) return;
    const double* pa = a->value.data();
    const double* pb = b->value.data();
    const double* g = self->grad.data();
    double* ga = a->requires_grad ? a->grad.data() : nullptr;
    double* gb = b->requires_grad ? b->grad.data() : nullptr;
    // Recomputing the sum is exact, so the sign test sees the identical
    // pre-activation the unfused LeakyRelu backward reads from its input
    // node (including -0.0 >= 0.0 being true).
    const size_t n = self->grad.size();
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const Double2 d = LeakyReluGradLanes(
          LoadVec<Double2>(pa + i) + LoadVec<Double2>(pb + i),
          LoadVec<Double2>(g + i), slope);
      if (ga != nullptr) StoreVec(ga + i, LoadVec<Double2>(ga + i) + d);
      if (gb != nullptr) StoreVec(gb + i, LoadVec<Double2>(gb + i) + d);
    }
    if (i < n) {
      const double d =
          LeakyReluGradLanes(Double2{pa[i] + pb[i]}, Double2{g[i]}, slope)[0];
      if (ga != nullptr) ga[i] += d;
      if (gb != nullptr) gb[i] += d;
    }
  };
  return out;
}

Tensor AddRelu(const Tensor& a, const Tensor& b) {
  return AddLeakyRelu(a, b, 0.0);
}

Tensor Add(const Tensor& a, const Tensor& b) {
  BSG_CHECK(a->value.SameShape(b->value), "Add shape mismatch");
  Matrix v = a->value;
  v.Add(b->value);
  Tensor out = NewNode(std::move(v), {a, b});
  out->backward_fn = [](TensorNode* self) {
    for (int k = 0; k < 2; ++k) {
      TensorNode* p = self->parents[k].get();
      if (p->requires_grad) p->grad.Add(self->grad);
    }
  };
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  BSG_CHECK(a->value.SameShape(b->value), "Sub shape mismatch");
  Matrix v = a->value;
  v.Axpy(-1.0, b->value);
  Tensor out = NewNode(std::move(v), {a, b});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* b = self->parents[1].get();
    if (a->requires_grad) a->grad.Add(self->grad);
    if (b->requires_grad) b->grad.Axpy(-1.0, self->grad);
  };
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  BSG_CHECK(a->value.SameShape(b->value), "Mul shape mismatch");
  Matrix v = a->value;
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] *= b->value.data()[i];
  Tensor out = NewNode(std::move(v), {a, b});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* b = self->parents[1].get();
    if (a->requires_grad) {
      for (size_t i = 0; i < a->grad.size(); ++i) {
        a->grad.data()[i] += self->grad.data()[i] * b->value.data()[i];
      }
    }
    if (b->requires_grad) {
      for (size_t i = 0; i < b->grad.size(); ++i) {
        b->grad.data()[i] += self->grad.data()[i] * a->value.data()[i];
      }
    }
  };
  return out;
}

Tensor AddRowVec(const Tensor& a, const Tensor& bias) {
  BSG_CHECK(bias->rows() == 1 && bias->cols() == a->cols(),
            "AddRowVec shape mismatch");
  Matrix v = a->value;
  for (int i = 0; i < v.rows(); ++i) {
    double* r = v.row(i);
    const double* b = bias->value.row(0);
    for (int c = 0; c < v.cols(); ++c) r[c] += b[c];
  }
  Tensor out = NewNode(std::move(v), {a, bias});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* bias = self->parents[1].get();
    if (a->requires_grad) a->grad.Add(self->grad);
    if (bias->requires_grad) {
      double* g = bias->grad.row(0);
      for (int i = 0; i < self->grad.rows(); ++i) {
        const double* r = self->grad.row(i);
        for (int c = 0; c < self->grad.cols(); ++c) g[c] += r[c];
      }
    }
  };
  return out;
}

Tensor Scale(const Tensor& a, double alpha) {
  Matrix v = a->value;
  v.Scale(alpha);
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [alpha](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (a->requires_grad) a->grad.Axpy(alpha, self->grad);
  };
  return out;
}

Tensor LeakyRelu(const Tensor& a, double slope) {
  Matrix v = a->value;
  v.LeakyReluInPlace(slope);
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [slope](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    const double* s = a->value.data();
    const double* g = self->grad.data();
    double* ga = a->grad.data();
    const size_t n = a->grad.size();
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const Double2 d = LeakyReluGradLanes(LoadVec<Double2>(s + i),
                                           LoadVec<Double2>(g + i), slope);
      StoreVec(ga + i, LoadVec<Double2>(ga + i) + d);
    }
    if (i < n) {
      ga[i] += LeakyReluGradLanes(Double2{s[i]}, Double2{g[i]}, slope)[0];
    }
  };
  return out;
}

Tensor Relu(const Tensor& a) { return LeakyRelu(a, 0.0); }

Tensor Tanh(const Tensor& a) {
  Matrix v = a->value;
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] = std::tanh(v.data()[i]);
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    for (size_t i = 0; i < a->grad.size(); ++i) {
      double y = self->value.data()[i];
      a->grad.data()[i] += (1.0 - y * y) * self->grad.data()[i];
    }
  };
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Matrix v = a->value;
  for (size_t i = 0; i < v.size(); ++i) {
    v.data()[i] = 1.0 / (1.0 + std::exp(-v.data()[i]));
  }
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    for (size_t i = 0; i < a->grad.size(); ++i) {
      double y = self->value.data()[i];
      a->grad.data()[i] += y * (1.0 - y) * self->grad.data()[i];
    }
  };
  return out;
}

std::shared_ptr<std::vector<double>> MakeDropoutMask(size_t n, double p,
                                                     Rng* rng) {
  BSG_CHECK(p >= 0.0 && p < 1.0, "dropout probability out of range");
  auto mask = std::make_shared<std::vector<double>>(n);
  double* m = mask->data();
  // Element i is `rng->Bernoulli(p) ? 0.0 : keep_scale`: the same Uniform()
  // draws in the same order, then a select instead of a branch on each
  // random draw (+0.0 is the all-zero bit pattern).
  const double keep_scale = 1.0 / (1.0 - p);
  const Double2 keep = {keep_scale, keep_scale};
  const Double2 pv = {p, p};
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double u0 = rng->Uniform();
    const double u1 = rng->Uniform();
    StoreVec(m + i, Select(Double2{u0, u1} < pv, Double2{}, keep));
  }
  if (i < n) m[i] = Select(Double2{rng->Uniform()} < pv, Double2{}, keep)[0];
  return mask;
}

Tensor DropoutWithMask(const Tensor& a,
                       std::shared_ptr<const std::vector<double>> mask) {
  BSG_CHECK(mask != nullptr && mask->size() == a->value.size(),
            "dropout mask size mismatch");
  // One fused copy-and-mask pass into a pooled destination instead of a
  // full memcpy followed by an in-place multiply over the same bytes.
  Matrix v = Matrix::Uninit(a->rows(), a->cols());
  const double* src = a->value.data();
  const double* m = mask->data();
  double* dst = v.data();
  for (size_t i = 0; i < v.size(); ++i) dst[i] = src[i] * m[i];
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [mask](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    for (size_t i = 0; i < a->grad.size(); ++i) {
      a->grad.data()[i] += (*mask)[i] * self->grad.data()[i];
    }
  };
  return out;
}

Tensor Dropout(const Tensor& a, double p, bool training, Rng* rng) {
  BSG_CHECK(p >= 0.0 && p < 1.0, "dropout probability out of range");
  if (!training || p == 0.0) return a;
  return DropoutWithMask(a, MakeDropoutMask(a->value.size(), p, rng));
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  BSG_CHECK(!parts.empty(), "ConcatCols on empty list");
  int rows = parts[0]->rows();
  int total_cols = 0;
  for (const Tensor& t : parts) {
    BSG_CHECK(t->rows() == rows, "ConcatCols row mismatch");
    total_cols += t->cols();
  }
  Matrix v(rows, total_cols);
  int offset = 0;
  for (const Tensor& t : parts) {
    for (int i = 0; i < rows; ++i) {
      std::copy(t->value.row(i), t->value.row(i) + t->cols(),
                v.row(i) + offset);
    }
    offset += t->cols();
  }
  Tensor out = NewNode(std::move(v), parts);
  out->backward_fn = [](TensorNode* self) {
    int offset = 0;
    for (auto& parent : self->parents) {
      TensorNode* p = parent.get();
      if (p->requires_grad) {
        for (int i = 0; i < p->grad.rows(); ++i) {
          const double* g = self->grad.row(i) + offset;
          double* pg = p->grad.row(i);
          for (int c = 0; c < p->cols(); ++c) pg[c] += g[c];
        }
      }
      offset += p->cols();
    }
  };
  return out;
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  BSG_CHECK(start >= 0 && len >= 0 && start + len <= a->cols(),
            "SliceCols out of range");
  Matrix v(a->rows(), len);
  for (int i = 0; i < a->rows(); ++i) {
    std::copy(a->value.row(i) + start, a->value.row(i) + start + len,
              v.row(i));
  }
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [start, len](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    for (int i = 0; i < self->grad.rows(); ++i) {
      const double* g = self->grad.row(i);
      double* ag = a->grad.row(i) + start;
      for (int c = 0; c < len; ++c) ag[c] += g[c];
    }
  };
  return out;
}

Tensor GatherRows(const Tensor& a, std::vector<int> indices) {
  auto idx = std::make_shared<std::vector<int>>(std::move(indices));
  Tensor out = NewNode(a->value.GatherRows(*idx), {a});
  out->backward_fn = [idx](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    for (size_t i = 0; i < idx->size(); ++i) {
      const double* g = self->grad.row(static_cast<int>(i));
      double* ag = a->grad.row((*idx)[i]);
      for (int c = 0; c < self->grad.cols(); ++c) ag[c] += g[c];
    }
  };
  return out;
}

Tensor SpMM(const SpMat& a, const Tensor& x) {
  BSG_CHECK(a.fwd != nullptr && a.bwd != nullptr, "SpMM null operand");
  BSG_CHECK(a.fwd->num_nodes() == x->rows(), "SpMM shape mismatch");
  // Pooled, zero-filled destination: the accumulating kernel needs the
  // zeros, but the slab itself recycles from the previous step, so the
  // fill runs over warm pages instead of fresh first-touch faults.
  Matrix v(a.fwd->num_nodes(), x->cols());
  SpmmAccumulate(*a.fwd, x->value, nullptr, &v);
  Tensor out = NewNode(std::move(v), {x});
  std::shared_ptr<const Csr> bwd = a.bwd;
  out->backward_fn = [bwd](TensorNode* self) {
    TensorNode* x = self->parents[0].get();
    if (!x->requires_grad) return;
    SpmmAccumulate(*bwd, self->grad, nullptr, &x->grad);
  };
  return out;
}

Tensor SpMM(const SpMat& a, const Tensor& x, std::vector<int> rows) {
  BSG_CHECK(a.fwd != nullptr, "SpMM null operand");
  BSG_CHECK(a.fwd->num_nodes() == x->rows(), "SpMM shape mismatch");
  for (int u : rows) {
    BSG_CHECK(u >= 0 && u < a.fwd->num_nodes(), "SpMM row out of range");
  }
  auto rows_p = std::make_shared<const std::vector<int>>(std::move(rows));
  Matrix v(static_cast<int>(rows_p->size()), x->cols());
  SpmmAccumulate(*a.fwd, x->value, rows_p.get(), &v);
  Tensor out = NewNode(std::move(v), {x});
  std::shared_ptr<const Csr> fwd = a.fwd;
  out->backward_fn = [fwd, rows_p](TensorNode* self) {
    TensorNode* x = self->parents[0].get();
    if (!x->requires_grad) return;
    // Serial scatter: two restricted rows may share a neighbour, so the
    // writes conflict; the loop is |rows| x degree x d, small next to the
    // dense layers around it.
    const int d = self->grad.cols();
    for (size_t i = 0; i < rows_p->size(); ++i) {
      const int u = (*rows_p)[i];
      const double* g = self->grad.row(static_cast<int>(i));
      const int* nb = fwd->NeighborsBegin(u);
      const int* ne = fwd->NeighborsEnd(u);
      const double* w = fwd->WeightsBegin(u);
      for (const int* p = nb; p != ne; ++p) {
        double weight = w ? w[p - nb] : 1.0;
        double* xg = x->grad.row(*p);
        for (int c = 0; c < d; ++c) xg[c] += weight * g[c];
      }
    }
  };
  return out;
}

Tensor SegmentSum(const Tensor& msgs,
                  std::shared_ptr<const std::vector<int64_t>> seg_ptr) {
  int num_segments = static_cast<int>(seg_ptr->size()) - 1;
  BSG_CHECK(seg_ptr->back() == msgs->rows(), "SegmentSum seg_ptr mismatch");
  Matrix v(num_segments, msgs->cols());
  // Parallel over segments: segment s owns output row s, and the edge rows
  // of distinct segments are disjoint (seg_ptr is a monotone partition of
  // [0, E)), so both directions are conflict-free.
  ParallelFor(0, num_segments, kSpRowGrain, [&](int64_t s0, int64_t s1) {
    for (int s = static_cast<int>(s0); s < static_cast<int>(s1); ++s) {
      double* o = v.row(s);
      for (int64_t e = (*seg_ptr)[s]; e < (*seg_ptr)[s + 1]; ++e) {
        const double* m = msgs->value.row(static_cast<int>(e));
        for (int c = 0; c < msgs->cols(); ++c) o[c] += m[c];
      }
    }
  });
  Tensor out = NewNode(std::move(v), {msgs});
  out->backward_fn = [seg_ptr](TensorNode* self) {
    TensorNode* msgs = self->parents[0].get();
    if (!msgs->requires_grad) return;
    int num_segments = static_cast<int>(seg_ptr->size()) - 1;
    ParallelFor(0, num_segments, kSpRowGrain, [&](int64_t s0, int64_t s1) {
      for (int s = static_cast<int>(s0); s < static_cast<int>(s1); ++s) {
        const double* g = self->grad.row(s);
        for (int64_t e = (*seg_ptr)[s]; e < (*seg_ptr)[s + 1]; ++e) {
          double* mg = msgs->grad.row(static_cast<int>(e));
          for (int c = 0; c < msgs->grad.cols(); ++c) mg[c] += g[c];
        }
      }
    });
  };
  return out;
}

Tensor SegmentSoftmax(const Tensor& scores,
                      std::shared_ptr<const std::vector<int64_t>> seg_ptr) {
  BSG_CHECK(scores->cols() == 1, "SegmentSoftmax expects a column vector");
  BSG_CHECK(seg_ptr->back() == scores->rows(),
            "SegmentSoftmax seg_ptr mismatch");
  int num_segments = static_cast<int>(seg_ptr->size()) - 1;
  Matrix v(scores->rows(), 1);
  // Parallel over segments: a segment owns its edge rows (seg_ptr is a
  // monotone partition of [0, E)), so chunks never share an output slot and
  // the result is bit-identical at any thread count.
  ParallelFor(0, num_segments, kSpRowGrain, [&](int64_t s0, int64_t s1) {
    for (int s = static_cast<int>(s0); s < static_cast<int>(s1); ++s) {
      int64_t lo = (*seg_ptr)[s], hi = (*seg_ptr)[s + 1];
      if (lo == hi) continue;
      double mx = -1e300;
      for (int64_t e = lo; e < hi; ++e) {
        mx = std::max(mx, scores->value(static_cast<int>(e), 0));
      }
      double total = 0.0;
      for (int64_t e = lo; e < hi; ++e) {
        double z = std::exp(scores->value(static_cast<int>(e), 0) - mx);
        v(static_cast<int>(e), 0) = z;
        total += z;
      }
      for (int64_t e = lo; e < hi; ++e) v(static_cast<int>(e), 0) /= total;
    }
  });
  Tensor out = NewNode(std::move(v), {scores});
  out->backward_fn = [seg_ptr](TensorNode* self) {
    TensorNode* scores = self->parents[0].get();
    if (!scores->requires_grad) return;
    int num_segments = static_cast<int>(seg_ptr->size()) - 1;
    ParallelFor(0, num_segments, kSpRowGrain, [&](int64_t s0, int64_t s1) {
      for (int s = static_cast<int>(s0); s < static_cast<int>(s1); ++s) {
        int64_t lo = (*seg_ptr)[s], hi = (*seg_ptr)[s + 1];
        double dot = 0.0;
        for (int64_t e = lo; e < hi; ++e) {
          int i = static_cast<int>(e);
          dot += self->grad(i, 0) * self->value(i, 0);
        }
        for (int64_t e = lo; e < hi; ++e) {
          int i = static_cast<int>(e);
          scores->grad(i, 0) += self->value(i, 0) * (self->grad(i, 0) - dot);
        }
      }
    });
  };
  return out;
}

Tensor MulColVec(const Tensor& a, const Tensor& s) {
  BSG_CHECK(s->cols() == 1 && s->rows() == a->rows(),
            "MulColVec shape mismatch");
  Matrix v = a->value;
  for (int i = 0; i < v.rows(); ++i) {
    double w = s->value(i, 0);
    double* r = v.row(i);
    for (int c = 0; c < v.cols(); ++c) r[c] *= w;
  }
  Tensor out = NewNode(std::move(v), {a, s});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* s = self->parents[1].get();
    for (int i = 0; i < self->grad.rows(); ++i) {
      const double* g = self->grad.row(i);
      if (a->requires_grad) {
        double w = s->value(i, 0);
        double* ag = a->grad.row(i);
        for (int c = 0; c < self->grad.cols(); ++c) ag[c] += w * g[c];
      }
      if (s->requires_grad) {
        const double* ar = a->value.row(i);
        double acc = 0.0;
        for (int c = 0; c < self->grad.cols(); ++c) acc += g[c] * ar[c];
        s->grad(i, 0) += acc;
      }
    }
  };
  return out;
}

Tensor SoftmaxRows(const Tensor& a) {
  Tensor out = NewNode(SoftmaxRowsValue(a->value), {a});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    // Parallel over rows: each row's Jacobian-vector product is independent.
    ParallelFor(0, self->grad.rows(), kSpRowGrain, [&](int64_t r0, int64_t r1) {
      for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
        const double* y = self->value.row(i);
        const double* g = self->grad.row(i);
        double dot = 0.0;
        for (int c = 0; c < self->grad.cols(); ++c) dot += y[c] * g[c];
        double* ag = a->grad.row(i);
        for (int c = 0; c < self->grad.cols(); ++c) {
          ag[c] += y[c] * (g[c] - dot);
        }
      }
    });
  };
  return out;
}

Tensor MeanAll(const Tensor& a) {
  Matrix v(1, 1);
  v(0, 0) = a->value.Mean();
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    double g = self->grad(0, 0) / static_cast<double>(a->value.size());
    for (size_t i = 0; i < a->grad.size(); ++i) a->grad.data()[i] += g;
  };
  return out;
}

Tensor SumAll(const Tensor& a) {
  Matrix v(1, 1);
  v(0, 0) = a->value.Sum();
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    double g = self->grad(0, 0);
    for (size_t i = 0; i < a->grad.size(); ++i) a->grad.data()[i] += g;
  };
  return out;
}

Tensor ElementAt(const Tensor& a, int r, int c) {
  Matrix v(1, 1);
  v(0, 0) = a->value.At(r, c);
  Tensor out = NewNode(std::move(v), {a});
  out->backward_fn = [r, c](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    if (!a->requires_grad) return;
    a->grad(r, c) += self->grad(0, 0);
  };
  return out;
}

Tensor ScaleByScalar(const Tensor& a, const Tensor& s) {
  BSG_CHECK(s->rows() == 1 && s->cols() == 1, "ScaleByScalar needs 1x1");
  Matrix v = a->value;
  v.Scale(s->value(0, 0));
  Tensor out = NewNode(std::move(v), {a, s});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* s = self->parents[1].get();
    if (a->requires_grad) a->grad.Axpy(s->value(0, 0), self->grad);
    if (s->requires_grad) {
      double acc = 0.0;
      for (size_t i = 0; i < self->grad.size(); ++i) {
        acc += self->grad.data()[i] * a->value.data()[i];
      }
      s->grad(0, 0) += acc;
    }
  };
  return out;
}

Tensor SoftmaxCrossEntropy(const Tensor& logits, std::vector<int> labels,
                           std::vector<int> mask) {
  BSG_CHECK(static_cast<int>(labels.size()) == logits->rows(),
            "labels size mismatch");
  BSG_CHECK(!mask.empty(), "empty loss mask");
  auto labels_p = std::make_shared<std::vector<int>>(std::move(labels));
  auto mask_p = std::make_shared<std::vector<int>>(std::move(mask));
  auto probs = std::make_shared<Matrix>(SoftmaxRowsValue(logits->value));
  double loss = 0.0;
  for (int i : *mask_p) {
    BSG_CHECK(i >= 0 && i < logits->rows(), "mask index out of range");
    int y = (*labels_p)[i];
    BSG_CHECK(y >= 0 && y < logits->cols(), "label out of range");
    loss -= std::log(std::max(probs->At(i, y), 1e-300));
  }
  loss /= static_cast<double>(mask_p->size());
  Matrix v(1, 1);
  v(0, 0) = loss;
  Tensor out = NewNode(std::move(v), {logits});
  out->backward_fn = [labels_p, mask_p, probs](TensorNode* self) {
    TensorNode* logits = self->parents[0].get();
    if (!logits->requires_grad) return;
    double scale = self->grad(0, 0) / static_cast<double>(mask_p->size());
    for (int i : *mask_p) {
      int y = (*labels_p)[i];
      double* g = logits->grad.row(i);
      const double* p = probs->row(i);
      for (int c = 0; c < logits->cols(); ++c) {
        g[c] += scale * (p[c] - (c == y ? 1.0 : 0.0));
      }
    }
  };
  return out;
}

}  // namespace ops

Matrix SpmmValue(const Csr& a, const Matrix& x, const std::vector<int>* rows) {
  BSG_CHECK(a.num_nodes() == x.rows(), "SpmmValue shape mismatch");
  if (rows != nullptr) {
    for (int u : *rows) {
      BSG_CHECK(u >= 0 && u < a.num_nodes(), "SpmmValue row out of range");
    }
  }
  Matrix out(rows != nullptr ? static_cast<int>(rows->size()) : a.num_nodes(),
             x.cols());
  ops::SpmmAccumulate(a, x, rows, &out);
  return out;
}

Matrix SoftmaxRowsValue(const Matrix& logits) {
  Matrix out = logits;
  if (out.cols() == 0) return out;
  // Parallel over rows: each row normalises independently, so chunks never
  // share an output slot and the result is thread-count invariant.
  ParallelFor(0, out.rows(), 64, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      double* r = out.row(i);
      double mx = r[0];
      for (int c = 1; c < out.cols(); ++c) mx = std::max(mx, r[c]);
      double total = 0.0;
      for (int c = 0; c < out.cols(); ++c) {
        r[c] = std::exp(r[c] - mx);
        total += r[c];
      }
      for (int c = 0; c < out.cols(); ++c) r[c] /= total;
    }
  });
  return out;
}

std::vector<int> ArgmaxRows(const Matrix& m) {
  std::vector<int> out(m.rows(), 0);
  for (int i = 0; i < m.rows(); ++i) {
    const double* r = m.row(i);
    int best = 0;
    for (int c = 1; c < m.cols(); ++c) {
      if (r[c] > r[best]) best = c;
    }
    out[i] = best;
  }
  return out;
}

}  // namespace bsg
