#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/simd.h"
#include "util/parallel.h"

// Loops start on 64-byte boundaries, as in matrix.cc (see the reason there):
// the SpMM kernels' inner loops are as short as the GEMM's. And, as there,
// a multiply and an add are never contracted into an FMA: the AVX-512F
// SpMM kernel below is compiled for a target that has FMA, and a fused
// kernel would round differently from the SSE2 one and the scalar loop.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("align-loops=64", "fp-contract=off")
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

// Adds a product to `node`'s gradient: `product(out)` accumulates it into
// `out` through one of Matrix's AddTo GEMMs. A grad with one contribution
// (TensorNode::grad_contributions) gets it on Backward()'s +0.0 fill, so
// the GEMM runs straight into the grad: the bits of grad.Add(product),
// without the product matrix or the pass. Any other grad gets the product
// separately, then adds it, so its sum keeps the unfused rounding.
template <class Product>
void AddGradProduct(TensorNode* node, const Product& product) {
  if (node->grad_contributions == 1) {
    product(&node->grad);
    return;
  }
  Matrix tmp(node->rows(), node->cols());
  product(&tmp);
  node->grad.Add(tmp);
}

// The sign test of a fused leaky ReLU, one byte per output element, in a
// pooled slab (the doubles of a PoolSlab viewed as bytes).
class LeakyKeep {
 public:
  explicit LeakyKeep(size_t n) : slab_((n + 7) / 8) {}
  uint8_t* data() { return reinterpret_cast<uint8_t*>(slab_.data()); }

 private:
  PoolSlab slab_;
};

// Destination-row grain for SpMM / segment ops: each chunk owns a range of
// output rows, so there are no write conflicts by construction and results
// are bit-identical at any thread count.
constexpr int kSpRowGrain = 64;

// The SpMM lane kernel (SpmmAccumulate in ops.h). An output row's columns
// are taken kGroupVecs vectors at a time: the group is loaded once, every
// term's weight * x row is added to it in the row's order, and it is
// stored once, so each element is the scalar loop's sum, term for term.
// Columns past the last full vector go through the scalar loop. The
// kernel is one template over the vector type, run at SSE2 width (Double2)
// or AVX-512F width (Double8) by RunAtWidth (tensor/simd.h); the helpers
// are always_inline so the wide instantiation is compiled for the avx512f
// target.
constexpr int kGroupVecs = 4;

// kVecs vectors of an output row's columns, held in registers.
template <class Vec, int kVecs>
struct LaneAcc {
  Vec v[kVecs];

  BSG_SIMD_INLINE void Load(const double* o) {
    for (int k = 0; k < kVecs; ++k) {
      std::memcpy(&v[k], o + k * kLanes<Vec>, sizeof(Vec));
    }
  }
  // v += weight * x[0, kVecs vectors).
  BSG_SIMD_INLINE void Add(double weight, const double* x) {
    for (int k = 0; k < kVecs; ++k) {
      Vec xv;
      std::memcpy(&xv, x + k * kLanes<Vec>, sizeof(Vec));
      v[k] += weight * xv;
    }
  }
  BSG_SIMD_INLINE void Store(double* o) const {
    for (int k = 0; k < kVecs; ++k) {
      std::memcpy(o + k * kLanes<Vec>, &v[k], sizeof(Vec));
    }
  }
};

// Runs `row` over the d columns of an output row: Group<kVecs>(c) for each
// run of kGroupVecs vectors, then for the one shorter run, then Tail(c) for
// the columns past the last full vector.
template <class Vec, class Row>
BSG_SIMD_INLINE void ForColumnGroups(const Row& row, int d) {
  constexpr int kW = kLanes<Vec>;
  int c = 0;
  for (; c + kGroupVecs * kW <= d; c += kGroupVecs * kW) {
    row.template Group<kGroupVecs>(c);
  }
  const int vecs = (d - c) / kW;
  static_assert(kGroupVecs == 4, "the switch covers 1 to kGroupVecs - 1");
  switch (vecs) {
    case 3:
      row.template Group<3>(c);
      break;
    case 2:
      row.template Group<2>(c);
      break;
    case 1:
      row.template Group<1>(c);
      break;
    default:
      break;
  }
  c += vecs * kW;
  if (c < d) row.Tail(c);
}

// One CSR row: o += sum over the neighbours [nb, ne), in CSR order, of
// weight * x row (x row of neighbour p is row x_rows[p], or p).
template <class Vec>
struct CsrRow {
  const int* nb;
  const int* ne;
  const double* w;  // null: unit weights
  const Matrix& x;
  const int* x_rows;
  double* o;

  BSG_SIMD_INLINE const double* XRow(int p) const {
    return x.row(x_rows != nullptr ? x_rows[p] : p);
  }
  template <int kVecs>
  BSG_SIMD_INLINE void Group(int c) const {
    LaneAcc<Vec, kVecs> acc;
    acc.Load(o + c);
    for (const int* p = nb; p != ne; ++p) {
      acc.Add(w != nullptr ? w[p - nb] : 1.0, XRow(*p) + c);
    }
    acc.Store(o + c);
  }
  BSG_SIMD_INLINE void Tail(int c) const {
    for (const int* p = nb; p != ne; ++p) {
      const double weight = w != nullptr ? w[p - nb] : 1.0;
      const double* xr = XRow(*p);
      for (int k = c; k < x.cols(); ++k) o[k] += weight * xr[k];
    }
  }
};

// One row u of a SymBlocks block, its terms as ForEachSymTerm lists them.
// Local column v is operand row off + v, so it reads x row map[v] (map
// non-null) or off + v.
template <class Vec>
struct SymRowTerms {
  const SymBlock& block;
  int u;
  const Matrix& x;
  const int* map;
  int off;
  double* o;

  BSG_SIMD_INLINE const double* XRow(int v) const {
    return x.row(map != nullptr ? map[v] : off + v);
  }
  template <int kVecs>
  struct GroupAdd {
    const SymRowTerms& row;
    int c;
    LaneAcc<Vec, kVecs> acc;
    BSG_SIMD_INLINE void operator()(int v, double weight, int) {
      acc.Add(weight, row.XRow(v) + c);
    }
  };
  template <int kVecs>
  BSG_SIMD_INLINE void Group(int c) const {
    GroupAdd<kVecs> g{*this, c, {}};
    g.acc.Load(o + c);
    ForEachSymTerm(block, u, g);
    g.acc.Store(o + c);
  }
  struct TailAdd {
    const SymRowTerms& row;
    int c;
    BSG_SIMD_INLINE void operator()(int v, double weight, int) {
      const double* xr = row.XRow(v);
      for (int k = c; k < row.x.cols(); ++k) row.o[k] += weight * xr[k];
    }
  };
  BSG_SIMD_INLINE void Tail(int c) const {
    TailAdd t{*this, c};
    ForEachSymTerm(block, u, t);
  }
};

// Output rows [i0, i1) of out += A * X (see SpmmAccumulate), for a Csr or
// the block-diagonal SymBlocks A.
struct SpmmRows {
  template <class Vec>
  static BSG_SIMD_INLINE void Run(const Csr& a, const Matrix& x,
                                  const int* rows, const int* x_rows,
                                  int64_t i0, int64_t i1, Matrix* out) {
    for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
      const int u = rows != nullptr ? rows[i] : i;
      ForColumnGroups<Vec>(CsrRow<Vec>{a.NeighborsBegin(u), a.NeighborsEnd(u),
                                       a.WeightsBegin(u), x, x_rows,
                                       out->row(i)},
                           x.cols());
    }
  }

  template <class Vec>
  static BSG_SIMD_INLINE void Run(const SymBlocks& a, const Matrix& x,
                                  const int* rows, const int* x_rows,
                                  int64_t i0, int64_t i1, Matrix* out) {
    int b = -1;
    for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
      const int s = rows != nullptr ? rows[i] : i;
      b = a.BlockOf(s, b);
      const int off = a.offsets[b];
      ForColumnGroups<Vec>(
          SymRowTerms<Vec>{a.blocks[b], s - off, x,
                           x_rows != nullptr ? x_rows + off : nullptr, off,
                           out->row(i)},
          x.cols());
    }
  }
};

// The shared body of both SpmmAccumulate forms: checks the shapes and runs
// the kernel over the output rows at `width`. `n` is the operand's
// row (and column) count.
template <class A>
void SpmmDispatch(SimdWidth width, const A& a, int n, const Matrix& x,
                  const std::vector<int>* rows,
                  const std::vector<int>* x_rows, Matrix* out) {
  const int m = rows != nullptr ? static_cast<int>(rows->size()) : n;
  BSG_CHECK(out->rows() == m && out->cols() == x.cols(),
            "SpMM output shape mismatch");
  if (rows != nullptr) {
    for (int u : *rows) {
      BSG_CHECK(u >= 0 && u < n, "SpMM row out of range");
    }
  }
  if (x_rows != nullptr) {
    BSG_CHECK(static_cast<int>(x_rows->size()) == n,
              "SpMM row map size mismatch");
    for (int s : *x_rows) {
      BSG_CHECK(s >= 0 && s < x.rows(), "SpMM row map entry out of range");
    }
  } else {
    BSG_CHECK(n == x.rows(), "SpMM shape mismatch");
  }
  const int* rows_p = rows != nullptr ? rows->data() : nullptr;
  const int* x_rows_p = x_rows != nullptr ? x_rows->data() : nullptr;
  // Parallel over output rows: each chunk owns its rows, so the result is
  // the serial loop's at any thread count.
  ParallelFor(0, m, kSpRowGrain, [&](int64_t i0, int64_t i1) {
    RunAtWidth<SpmmRows>(width, a, x, rows_p, x_rows_p, i0, i1, out);
  });
}

// The counter-drawn dropout gather (GatherDropoutRows in ops.h), one
// template over the double vector and the 64-bit integer vector as wide
// (U64Lanes). Lane l of a vector holds draw j + l of the row: its counter is
// z = z0 + (j + l) * kGamma with z0 = state + (first draw of the row + 1) *
// kGamma, SplitMix64's Mix runs lane-wise, and `(Mix(z) >> 11) >=
// threshold` keeps the entry. A kept entry is src * keep_scale, a dropped one
// src * 0.0: the product DropoutWithMask forms with the mask value.
constexpr int64_t kPrefetchRows = 4;

struct GatherDropoutLanes {
  template <class DVec>
  static BSG_SIMD_INLINE void Run(const Matrix& table, const int* ids,
                                  uint64_t state, uint64_t first,
                                  uint64_t threshold, double keep_scale,
                                  int64_t i0, int64_t i1, Matrix* out) {
    using UVec = U64Lanes<DVec>;
    constexpr int kW = kLanes<DVec>;
    const int d = table.cols();
    UVec lane_offsets;
    for (int l = 0; l < kW; ++l) lane_offsets[l] = l * Rng::kGamma;
    const UVec step = UVec{} + static_cast<uint64_t>(kW) * Rng::kGamma;
    const UVec tv = UVec{} + threshold;
    uint64_t ks_bits;
    std::memcpy(&ks_bits, &keep_scale, sizeof(ks_bits));
    const UVec ksv = UVec{} + ks_bits;
    for (int64_t i = i0; i < i1; ++i) {
      // The rows are scattered over a table larger than the caches, and the
      // draws leave the out-of-order window too short to reach the next
      // row's loads: fetch a few rows ahead.
      if (i + kPrefetchRows < i1) {
        const char* ahead =
            reinterpret_cast<const char*>(table.row(ids[i + kPrefetchRows]));
        for (int64_t byte = 0; byte < int64_t{d} * 8 + 63; byte += 64) {
          __builtin_prefetch(ahead + byte);
        }
      }
      const double* src = table.row(ids[i]);
      double* dst = out->row(static_cast<int>(i));
      const uint64_t z0 =
          state + (first + static_cast<uint64_t>(i) * d + 1) * Rng::kGamma;
      UVec z = lane_offsets + z0;
      int j = 0;
      for (; j + kW <= d; j += kW) {
        UVec m = z;
        m = (m ^ (m >> 30)) * 0xBF58476D1CE4E5B9ULL;
        m = (m ^ (m >> 27)) * 0x94D049BB133111EBULL;
        m = m ^ (m >> 31);
        const UVec kept = (UVec)((m >> 11) >= tv);
        DVec sv;
        std::memcpy(&sv, src + j, sizeof(DVec));
        const DVec o = sv * (DVec)(ksv & kept);
        std::memcpy(dst + j, &o, sizeof(DVec));
        z += step;
      }
      for (; j < d; ++j) {
        const uint64_t m =
            Rng::Mix(z0 + static_cast<uint64_t>(j) * Rng::kGamma);
        dst[j] = src[j] * ((m >> 11) >= threshold ? keep_scale : 0.0);
      }
    }
  }
};

// The g ⊙ leaky' pass of a fused affine + leaky ReLU backward
// (LeakyGradRows in ops.h), one template over the double vector and the
// 64-bit integer vector as wide (U64Lanes): gp = keep ? g : g * slope, bit for bit LeakyReluGradLanes'
// `(s >= 0.0 ? 1.0 : slope) * g` (1.0 * g is g), with lane l of a vector
// reading keep byte l of its span; then each gp row is added to db (when
// non-null) in column order, rows ascending.
struct LeakyGradLanes {
  template <class DVec>
  static BSG_SIMD_INLINE void Run(const Matrix& g, const uint8_t* keep,
                                  double slope, Matrix* gp, double* db) {
    using UVec = U64Lanes<DVec>;
    constexpr int kW = kLanes<DVec>;
    const int cols = g.cols();
    UVec byte_lanes;
    for (int l = 0; l < kW; ++l) byte_lanes[l] = 0xFFULL << (8 * l);
    for (int i = 0; i < g.rows(); ++i) {
      const double* gr = g.row(i);
      const uint8_t* k = keep + static_cast<size_t>(i) * cols;
      double* o = gp->row(i);
      int c = 0;
      for (; c + kW <= cols; c += kW) {
        uint64_t bytes = 0;
        std::memcpy(&bytes, k + c, kW);
        const UVec kept = (UVec)(((UVec{} + bytes) & byte_lanes) != UVec{});
        DVec gv;
        std::memcpy(&gv, gr + c, sizeof(DVec));
        const DVec sv = gv * slope;
        const DVec ov = (DVec)(((UVec)gv & kept) | ((UVec)sv & ~kept));
        std::memcpy(o + c, &ov, sizeof(DVec));
      }
      for (; c < cols; ++c) o[c] = k[c] != 0 ? gr[c] : gr[c] * slope;
      if (db != nullptr) {
        for (int j = 0; j < cols; ++j) db[j] += o[j];
      }
    }
  }
};

// The backward of a fused y = LeakyRelu(x W + b) node: one pass over the
// rows (LeakyGradRows) forms gp = g ⊙ leaky'(s) and adds each row to db in
// the row-major order of Linear's backward; then dX = gp W^T (when `x` is
// non-null and requires grad) and dW = X^T gp. The unfused pair passes
// 0.0 + d instead of d, which differs only for d = -0.0, and a zero term
// changes neither a GEMM sum nor a bias sum (both start at +0.0).
void LinearLeakyReluBackward(TensorNode* self, const Matrix& x_value,
                             TensorNode* x, TensorNode* w, TensorNode* bias,
                             const uint8_t* keep, double slope) {
  Matrix gp = Matrix::Uninit(self->grad.rows(), self->grad.cols());
  LeakyGradRows(DispatchedSimdWidth(), self->grad, keep, slope, &gp,
                bias->requires_grad ? bias->grad.row(0) : nullptr);
  if (x != nullptr && x->requires_grad) {
    AddGradProduct(x, [&](Matrix* out) { gp.MatMulNTAddTo(w->value, out); });
  }
  if (w->requires_grad) {
    AddGradProduct(w, [&](Matrix* out) { x_value.MatMulTNAddTo(gp, out); });
  }
}

}  // namespace

void SpmmAccumulate(SimdWidth width, const Csr& a, const Matrix& x,
                    const std::vector<int>* rows,
                    const std::vector<int>* x_rows, Matrix* out) {
  SpmmDispatch(width, a, a.num_nodes(), x, rows, x_rows, out);
}

void SpmmAccumulate(SimdWidth width, const SymBlocks& a, const Matrix& x,
                    const std::vector<int>* rows,
                    const std::vector<int>* x_rows, Matrix* out) {
  a.Validate();
  SpmmDispatch(width, a, a.rows(), x, rows, x_rows, out);
}

void GatherDropoutRows(SimdWidth width, const Matrix& table,
                       const std::vector<int>& ids,
                       const CounterDropout& dropout, Matrix* out) {
  BSG_CHECK(dropout.p >= 0.0 && dropout.p < 1.0,
            "dropout probability out of range");
  const int n = static_cast<int>(ids.size());
  BSG_CHECK(out->rows() == n && out->cols() == table.cols(),
            "dropout gather output shape mismatch");
  for (int id : ids) {
    BSG_CHECK(id >= 0 && id < table.rows(), "GatherRows index out of range");
  }
  if (dropout.p == 0.0) {
    for (int i = 0; i < n; ++i) {
      std::copy(table.row(ids[i]), table.row(ids[i]) + table.cols(),
                out->row(i));
    }
    return;
  }
  const uint64_t threshold = Rng::UniformThreshold(dropout.p);
  const double keep_scale = 1.0 / (1.0 - dropout.p);
  // Parallel over rows: a row's draws are a pure function of its index.
  ParallelFor(0, n, kSpRowGrain, [&](int64_t i0, int64_t i1) {
    RunAtWidth<GatherDropoutLanes>(width, table, ids.data(), dropout.state,
                                   dropout.first, threshold, keep_scale, i0,
                                   i1, out);
  });
}

void LeakyGradRows(SimdWidth width, const Matrix& g, const uint8_t* keep,
                   double slope, Matrix* gp, double* db) {
  BSG_CHECK(gp->SameShape(g), "leaky ReLU gradient shape mismatch");
  RunAtWidth<LeakyGradLanes>(width, g, keep, slope, gp, db);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  BSG_CHECK(a->cols() == b->rows(), "MatMul shape mismatch");
  Tensor out = NewNode(a->value.MatMul(b->value), {a, b});
  out->backward_fn = [](TensorNode* self) {
    TensorNode* a = self->parents[0].get();
    TensorNode* b = self->parents[1].get();
    // Transpose-aware kernels: dL/dA = G B^T, dL/dB = A^T G, with no
    // Transposed() materialisation on the backward hot path.
    if (a->requires_grad) {
      AddGradProduct(a, [&](Matrix* o) {
        self->grad.MatMulNTAddTo(b->value, o);
      });
    }
    if (b->requires_grad) {
      AddGradProduct(b, [&](Matrix* o) {
        a->value.MatMulTNAddTo(self->grad, o);
      });
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
    if (x->requires_grad) {
      AddGradProduct(x, [&](Matrix* o) {
        self->grad.MatMulNTAddTo(w->value, o);
      });
    }
    if (w->requires_grad) {
      AddGradProduct(w, [&](Matrix* o) {
        x->value.MatMulTNAddTo(self->grad, o);
      });
    }
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

Tensor LinearLeakyRelu(const Tensor& x, const Tensor& w, const Tensor& bias,
                       double slope) {
  BSG_CHECK(x->cols() == w->rows(), "Linear shape mismatch");
  BSG_CHECK(bias->rows() == 1 && bias->cols() == w->cols(),
            "Linear bias shape mismatch");
  auto keep = std::make_shared<LeakyKeep>(static_cast<size_t>(x->rows()) *
                                          w->cols());
  Tensor out = NewNode(x->value.MatMulAddBiasLeakyRelu(w->value, bias->value,
                                                       slope, keep->data()),
                       {x, w, bias});
  out->backward_fn = [keep, slope](TensorNode* self) {
    TensorNode* x = self->parents[0].get();
    LinearLeakyReluBackward(self, x->value, x, self->parents[1].get(),
                            self->parents[2].get(), keep->data(), slope);
  };
  return out;
}

Tensor GatherDropoutLinearLeakyRelu(const Matrix& table,
                                    const std::vector<int>& ids,
                                    const CounterDropout& dropout,
                                    const Tensor& w, const Tensor& bias,
                                    double slope) {
  BSG_CHECK(table.cols() == w->rows(), "Linear shape mismatch");
  BSG_CHECK(bias->rows() == 1 && bias->cols() == w->cols(),
            "Linear bias shape mismatch");
  const int rows = static_cast<int>(ids.size());
  auto x = std::make_shared<Matrix>(Matrix::Uninit(rows, table.cols()));
  GatherDropoutRows(DispatchedSimdWidth(), table, ids, dropout, x.get());
  auto keep = std::make_shared<LeakyKeep>(static_cast<size_t>(rows) *
                                          w->cols());
  Matrix v = x->MatMulAddBiasLeakyRelu(w->value, bias->value, slope,
                                       keep->data());
  Tensor out = NewNode(std::move(v), {w, bias});
  out->backward_fn = [x, keep, slope](TensorNode* self) {
    LinearLeakyReluBackward(self, *x, nullptr, self->parents[0].get(),
                            self->parents[1].get(), keep->data(), slope);
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
  v.TanhInPlace();
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
  std::vector<const Matrix*> values;
  values.reserve(parts.size());
  for (const Tensor& t : parts) values.push_back(&t->value);
  Tensor out = NewNode(bsg::ConcatCols(values), parts);
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
  SpmmAccumulate(DispatchedSimdWidth(), *a.fwd, x->value, nullptr, nullptr,
                 &v);
  Tensor out = NewNode(std::move(v), {x});
  std::shared_ptr<const Csr> bwd = a.bwd;
  out->backward_fn = [bwd](TensorNode* self) {
    TensorNode* x = self->parents[0].get();
    if (!x->requires_grad) return;
    SpmmAccumulate(DispatchedSimdWidth(), *bwd, self->grad, nullptr, nullptr,
                   &x->grad);
  };
  return out;
}

Tensor SpMM(const SymBlocks& a, const Tensor& x) {
  auto op = std::make_shared<const SymBlocks>(a);
  Matrix v(op->rows(), x->cols());
  SpmmAccumulate(DispatchedSimdWidth(), *op, x->value, nullptr, nullptr, &v);
  Tensor out = NewNode(std::move(v), {x});
  out->backward_fn = [op](TensorNode* self) {
    TensorNode* x = self->parents[0].get();
    if (!x->requires_grad) return;
    // S is symmetric bit for bit: the transpose's rows are S's rows.
    SpmmAccumulate(DispatchedSimdWidth(), *op, self->grad, nullptr, nullptr,
                   &x->grad);
  };
  return out;
}

Tensor SpMM(const SymBlocks& a, const Tensor& x, std::vector<int> rows) {
  auto op = std::make_shared<const SymBlocks>(a);
  auto rows_p = std::make_shared<const std::vector<int>>(std::move(rows));
  Matrix v(static_cast<int>(rows_p->size()), x->cols());
  SpmmAccumulate(DispatchedSimdWidth(), *op, x->value, rows_p.get(), nullptr,
                 &v);
  Tensor out = NewNode(std::move(v), {x});
  out->backward_fn = [op, rows_p](TensorNode* self) {
    TensorNode* x = self->parents[0].get();
    if (!x->requires_grad) return;
    // Serial scatter: two restricted rows may share a neighbour, so the
    // writes conflict; the loop is |rows| x row length x d, small next to
    // the dense layers around it.
    const int d = self->grad.cols();
    int b = -1;
    for (size_t i = 0; i < rows_p->size(); ++i) {
      const int s = (*rows_p)[i];
      b = op->BlockOf(s, b);
      const int off = op->offsets[b];
      const double* g = self->grad.row(static_cast<int>(i));
      auto scatter = [&](int v, double weight, int) {
        double* xg = x->grad.row(off + v);
        for (int c = 0; c < d; ++c) xg[c] += weight * g[c];
      };
      ForEachSymTerm(op->blocks[b], s - off, scatter);
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

Matrix SpmmValue(const SymBlocks& a, const Matrix& x,
                 const std::vector<int>* rows,
                 const std::vector<int>* x_rows) {
  Matrix out(rows != nullptr ? static_cast<int>(rows->size()) : a.rows(),
             x.cols());
  ops::SpmmAccumulate(DispatchedSimdWidth(), a, x, rows, x_rows, &out);
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
