// Differentiable operations over Tensors.
//
// Every op builds a new graph node whose backward_fn applies the chain rule
// into its parents. Gradient computation for a parent is skipped when that
// parent (transitively) contains no trainable leaf (`requires_grad` is
// propagated forward through ops).
//
// Sparse ops take `std::shared_ptr<const Csr>` so the adjacency outlives the
// graph; `MakeSpMat` packages a normalised adjacency with its transpose.
#pragma once

#include <memory>
#include <vector>

#include "graph/csr.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bsg {

/// A sparse operand for SpMM: forward matrix and its transpose (needed for
/// the backward pass). bwd may alias fwd when the matrix is symmetric, as
/// every stacked subgraph batch is (core/subgraph_batch.h).
struct SpMat {
  std::shared_ptr<const Csr> fwd;
  std::shared_ptr<const Csr> bwd;  // = fwd^T
};

/// Packages `a` (typically a normalised adjacency) as an SpMM operand,
/// computing the transpose once.
SpMat MakeSpMat(Csr a);

namespace ops {

/// Dense product: a (n x k) * b (k x m).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Fused affine layer: x (n x k) * w (k x m) + bias (1 x m) broadcast over
/// rows, as ONE graph node over the one-pass MatMulAddBias kernel — no
/// intermediate product matrix, no intermediate gradient. Forward and
/// backward are bit-identical to AddRowVec(MatMul(x, w), bias).
Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& bias);

/// Fused affine layer + leaky ReLU: LeakyRelu(Linear(x, w, bias), slope)
/// as ONE graph node (the Eq. 10 layer). The forward runs the activation in
/// the GEMM's epilogue and keeps one byte per output, the pre-activation's
/// sign test (>= 0.0); the backward forms g ⊙ leaky' in the one pass that
/// feeds the dX / dW GEMMs and the bias sum. Value and every gradient are
/// bit-identical to the unfused pair.
Tensor LinearLeakyRelu(const Tensor& x, const Tensor& w, const Tensor& bias,
                       double slope);

/// Inverted dropout drawn in counter form (Rng::state()): entry e of the
/// row-major masked matrix takes draw `first + e` of the stream that starts
/// at `state`, and is zeroed when that draw's Uniform() < p and scaled by
/// 1 / (1 - p) otherwise: the mask MakeDropoutMask draws from an Rng at
/// `state` after `first` draws, without the mask vector. p == 0 draws
/// nothing and masks nothing.
struct CounterDropout {
  double p = 0.0;
  uint64_t state = 0;
  uint64_t first = 0;
};

/// The Eq. 9 input layer as ONE graph node:
///   LeakyRelu(Linear(DropoutWithMask(GatherRows(table, ids), mask), w,
///                    bias), slope)
/// with the mask of `dropout`. The masked rows are written once, and kept
/// for dW; `table` is a constant (features), so the backward computes only
/// dW and db. Value and both gradients are bit-identical to the unfused
/// chain over MakeDropoutMask's mask.
Tensor GatherDropoutLinearLeakyRelu(const Matrix& table,
                                    const std::vector<int>& ids,
                                    const CounterDropout& dropout,
                                    const Tensor& w, const Tensor& bias,
                                    double slope);

/// Fused elementwise a + b followed by leaky ReLU, as one node with no
/// intermediate sum matrix; the backward recomputes the (exact) sum to
/// recover the activation sign. Bit-identical to LeakyRelu(Add(a, b)).
Tensor AddLeakyRelu(const Tensor& a, const Tensor& b, double slope = 0.01);
/// Fused a + b followed by ReLU (AddLeakyRelu with slope 0).
Tensor AddRelu(const Tensor& a, const Tensor& b);

/// Elementwise sum (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) product (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// Adds a 1 x c bias row to every row of a (n x c).
Tensor AddRowVec(const Tensor& a, const Tensor& bias);
/// Multiplies by a compile-time constant.
Tensor Scale(const Tensor& a, double alpha);

/// Leaky ReLU with the given negative slope.
Tensor LeakyRelu(const Tensor& a, double slope = 0.01);
Tensor Relu(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);

/// Inverted dropout: at train time zeroes entries w.p. p and scales the
/// survivors by 1/(1-p); identity at eval time.
Tensor Dropout(const Tensor& a, double p, bool training, Rng* rng);

/// Pre-drawn inverted-dropout mask over n entries: entry i is 0 when the
/// i-th Uniform() draw is < p, else 1/(1-p) (Dropout's mask; CounterDropout
/// draws the same mask without storing it).
std::shared_ptr<std::vector<double>> MakeDropoutMask(size_t n, double p,
                                                     Rng* rng);

/// Applies a pre-drawn dropout mask (mask->size() == a's entry count).
Tensor DropoutWithMask(const Tensor& a,
                       std::shared_ptr<const std::vector<double>> mask);

/// Horizontal concatenation of tensors with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Column slice [start, start+len).
Tensor SliceCols(const Tensor& a, int start, int len);
/// Row gather: out[i] = a[indices[i]]. Backward scatter-adds.
Tensor GatherRows(const Tensor& a, std::vector<int> indices);

/// Sparse-dense product: out = A * x, using A's per-edge weights (unit
/// weights if A is unweighted). Forward and backward run SpmmAccumulate.
Tensor SpMM(const SpMat& a, const Tensor& x);

/// Row-restricted SpMM: row i of the result is row rows[i] of A * x, the
/// same CSR-order sum as that row of SpMM(a, x). The backward scatters
/// w * g into x's gradient serially, in `rows` order and CSR order within a
/// row. With `rows` strictly ascending, every x-gradient entry sums the
/// terms of the full product's backward in the same order, minus the ones
/// from rows outside `rows`, which add zero: the gradient is bit-identical
/// to that of GatherRows(SpMM(a, x), rows). Only a.fwd is read.
Tensor SpMM(const SpMat& a, const Tensor& x, std::vector<int> rows);

/// Segment sum: rows of `msgs` (E x d) are summed into `num_segments`
/// output rows; edge e belongs to segment s iff seg_ptr[s] <= e <
/// seg_ptr[s+1]. seg_ptr must be monotone with seg_ptr[S] == E.
Tensor SegmentSum(const Tensor& msgs, std::shared_ptr<const std::vector<int64_t>> seg_ptr);

/// Per-segment softmax over a column vector of scores (E x 1), segments as
/// in SegmentSum. Numerically stabilised per segment.
Tensor SegmentSoftmax(const Tensor& scores,
                      std::shared_ptr<const std::vector<int64_t>> seg_ptr);

/// Broadcast multiply: out[i, j] = a[i, j] * s[i, 0].
Tensor MulColVec(const Tensor& a, const Tensor& s);

/// Row-wise softmax (numerically stabilised).
Tensor SoftmaxRows(const Tensor& a);

/// Mean of all entries, as a 1 x 1 tensor.
Tensor MeanAll(const Tensor& a);
/// Sum of all entries, as a 1 x 1 tensor.
Tensor SumAll(const Tensor& a);

/// Extracts a single entry as a 1 x 1 tensor (differentiable).
Tensor ElementAt(const Tensor& a, int r, int c);

/// Multiplies every entry of `a` by the scalar tensor `s` (1 x 1).
Tensor ScaleByScalar(const Tensor& a, const Tensor& s);

/// Mean softmax cross-entropy over the rows listed in `mask`:
///   L = -1/|mask| * sum_{i in mask} log softmax(logits[i])[labels[i]].
/// Returns a 1 x 1 loss tensor. Rows outside `mask` receive no gradient.
Tensor SoftmaxCrossEntropy(const Tensor& logits, std::vector<int> labels,
                           std::vector<int> mask);

// The SpMM kernel behind SpMM and SpmmValue. One kernel template keeps up
// to four vectors of an output row's columns in registers while it adds
// the row's neighbours, and is compiled twice: at SSE2 width (two doubles
// per vector, every x86-64 target) and, on x86-64 GCC/Clang, at AVX-512F
// width (eight). SpMM and SpmmValue use DispatchedSpmmWidth(), chosen once
// by the GEMM tile's CPU check (tensor/gemm.h); there is no flag to change
// it. Every output element is the scalar loop's sum: its value on entry,
// plus weight * x for each neighbour in CSR order, each product and sum
// rounded on its own, so both widths give the same bits. The counter-drawn
// dropout gather (GatherDropoutRows) is built and dispatched the same way.
// Internal: tests run each width directly.
enum class SpmmWidth { kSse2, kAvx512f };

/// "sse2 2 columns" or "avx512f 8 columns".
const char* SpmmWidthName(SpmmWidth width);
/// Whether this build and this CPU can run `width`.
bool SpmmWidthSupported(SpmmWidth width);
/// The width SpMM and SpmmValue use: kAvx512f where supported, else kSse2.
SpmmWidth DispatchedSpmmWidth();

/// out row i += row rows[i] of A * X (row i when `rows` is null), through
/// `width`, which must be supported. X is x itself, or, with the row map
/// `x_rows` (one entry per node of A), the rows of x it lists: A's column
/// p reads x row x_rows[p]. `out` is |rows| (or A's node count) x x.cols()
/// and may hold non-zero values. Parallel over output rows.
void SpmmAccumulate(SpmmWidth width, const Csr& a, const Matrix& x,
                    const std::vector<int>* rows,
                    const std::vector<int>* x_rows, Matrix* out);

/// Row i of `out` = row ids[i] of `table`, masked by `dropout` (the forward
/// of GatherDropoutLinearLeakyRelu), through `width`, which must be
/// supported: each draw is SplitMix64's, computed in vector lanes, and its
/// keep test is the integer form of `Uniform() < p`
/// (Rng::UniformThreshold). `out` is |ids| x table.cols(); every element is
/// written. Parallel over rows.
void GatherDropoutRows(SpmmWidth width, const Matrix& table,
                       const std::vector<int>& ids,
                       const CounterDropout& dropout, Matrix* out);

}  // namespace ops

/// Non-differentiable SpMM for the inference forward: row i of the result is
/// row rows[i] of A * X, or row i when `rows` is null, where X is x or,
/// with the row map `x_rows`, the rows of x it lists (A's column p reads x
/// row x_rows[p]). The inference forward's first layer aggregates the Eq. 9
/// table through the batch's node ids this way, with no gathered copy.
/// Each row is summed in CSR order from zero, so it is bit-identical to the
/// same row of ops::SpMM over the gathered rows.
Matrix SpmmValue(const Csr& a, const Matrix& x,
                 const std::vector<int>* rows = nullptr,
                 const std::vector<int>* x_rows = nullptr);

/// Non-differentiable helper: row-wise softmax of a plain matrix (inference).
Matrix SoftmaxRowsValue(const Matrix& logits);

/// Non-differentiable helper: per-row argmax (prediction).
std::vector<int> ArgmaxRows(const Matrix& m);

}  // namespace bsg
