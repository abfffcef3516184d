#include "tensor/tensor.h"

#include <unordered_set>

namespace bsg {

Tensor MakeTensor(Matrix value, bool requires_grad) {
  auto node = std::make_shared<TensorNode>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return node;
}

Tensor MakeConstant(int rows, int cols, double fill) {
  return MakeTensor(Matrix(rows, cols, fill), false);
}

namespace {

// Iterative post-order DFS producing a topological order (parents before
// children in the returned vector's *reverse*). Counts each node's
// grad_contributions on the way: every parent slot is examined once.
void TopoSort(const Tensor& root, std::vector<TensorNode*>* order) {
  std::unordered_set<TensorNode*> visited;
  struct Frame {
    TensorNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  visited.insert(root.get());
  root->grad_contributions = 0;
  stack.push_back({root.get(), 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      TensorNode* parent = top.node->parents[top.next_parent++].get();
      if (visited.insert(parent).second) {
        parent->grad_contributions = 1;
        stack.push_back({parent, 0});
      } else {
        ++parent->grad_contributions;
      }
    } else {
      order->push_back(top.node);
      stack.pop_back();
    }
  }
}

// Zero-fills node->grad in its value's shape. A grad that already has the
// shape (parameter leaves live across steps; retained graphs get repeated
// Backward calls) is zeroed in place — same bits, no storage churn. A
// fresh one acquires pooled storage that the previous step's dropped graph
// just released.
void InitGrad(TensorNode* node) {
  if (node->grad.rows() == node->rows() && node->grad.cols() == node->cols()) {
    node->grad.Zero();
  } else {
    node->grad = Matrix(node->rows(), node->cols(), 0.0);
  }
}

}  // namespace

void Backward(const Tensor& root) {
  BSG_CHECK(root != nullptr, "Backward on null tensor");
  std::vector<TensorNode*> order;  // post-order: parents precede children
  TopoSort(root, &order);
  InitGrad(root.get());
  root->grad.Fill(1.0);
  // Children first: iterate post-order in reverse. Only the gradients a
  // backward writes are (re)initialised: those of the nodes that require
  // grad. Every op skips a parent that does not require grad, and a node
  // that does not require grad has no parent that does, so no other grad
  // is ever read or written. Each is zero-filled just before the first
  // backward that adds into it runs, so the fill is still in cache when the
  // contributions arrive.
  std::unordered_set<TensorNode*> initialised;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorNode* node = *it;
    if (!node->requires_grad) continue;
    for (const Tensor& parent : node->parents) {
      if (parent->requires_grad && initialised.insert(parent.get()).second) {
        InitGrad(parent.get());
      }
    }
    if (node->backward_fn) node->backward_fn(node);
  }
}

void ZeroGrad(const std::vector<Tensor>& tensors) {
  for (const Tensor& t : tensors) {
    if (!t->grad.empty()) t->grad.Zero();
  }
}

}  // namespace bsg
