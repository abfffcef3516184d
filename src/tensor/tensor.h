// Reverse-mode automatic differentiation over dense matrices.
//
// A `Tensor` is a shared handle to a node in a dynamically-built computation
// graph. Ops (see tensor/ops.h) create new nodes whose `backward_fn`
// accumulates gradients into their parents. `Backward(loss)` topologically
// sorts the graph reachable from `loss`, seeds d(loss)/d(loss) = 1 and runs
// the chain rule. One Backward call per optimisation step; it (re)initialises
// to zero the gradient of every node a backward writes: the nodes that
// require grad, and the root.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace bsg {

struct TensorNode;

/// Shared handle to an autograd node.
using Tensor = std::shared_ptr<TensorNode>;

/// One node of the computation graph.
struct TensorNode {
  Matrix value;
  /// d(root)/d(value). Backward() gives a grad storage, zero-filled, only to
  /// the nodes of its graph that require grad (`requires_grad`: trainable
  /// leaves and every node computed from one) and to the root. No backward
  /// writes or reads the grad of any other node, so a constant leaf or a
  /// node computed only from constants keeps an empty grad however large
  /// its value; an op that needs a constant operand's values in its
  /// backward reads `value`.
  Matrix grad;
  bool requires_grad = false;
  /// Set by Backward() for the nodes of its graph: how many parent slots
  /// name this node, i.e. how many backward contributions its grad
  /// receives. At 1 the one contribution lands on the zero fill, so an op
  /// may compute it straight into `grad`. A node no Backward() has reached
  /// has 0, which means unknown.
  int grad_contributions = 0;
  std::vector<Tensor> parents;
  std::function<void(TensorNode*)> backward_fn;  // accumulates into parents

  int rows() const { return value.rows(); }
  int cols() const { return value.cols(); }
};

/// Wraps a value as a leaf node. `requires_grad = true` marks a parameter.
Tensor MakeTensor(Matrix value, bool requires_grad = false);

/// Convenience: constant leaf from shape + fill.
Tensor MakeConstant(int rows, int cols, double fill = 0.0);

/// Runs reverse-mode differentiation from `root`. `root` is typically a 1x1
/// loss; for non-scalar roots the seed gradient is all-ones.
void Backward(const Tensor& root);

/// Zeroes the gradients of the given tensors (used between optimiser steps
/// when graphs are retained; normally Backward() handles initialisation).
void ZeroGrad(const std::vector<Tensor>& tensors);

}  // namespace bsg
