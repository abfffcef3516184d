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
/// the backward pass).
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

/// Pre-drawn inverted-dropout mask over n entries: each is 0 w.p. p, else
/// 1/(1-p). Lets callers consume the RNG stream in a fixed order on the
/// orchestrating thread and apply the mask from a parallel task later.
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
/// weights if A is unweighted).
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

}  // namespace ops

/// Non-differentiable SpMM for the inference forward: row i of the result is
/// row rows[i] of A * x, or row i when `rows` is null. Each row is summed in
/// CSR order from zero, so it is bit-identical to the same row of ops::SpMM.
Matrix SpmmValue(const Csr& a, const Matrix& x,
                 const std::vector<int>* rows = nullptr);

/// Non-differentiable helper: row-wise softmax of a plain matrix (inference).
Matrix SoftmaxRowsValue(const Matrix& logits);

/// Non-differentiable helper: per-row argmax (prediction).
std::vector<int> ArgmaxRows(const Matrix& m);

}  // namespace bsg
