// The inference forward of a frozen BSG4Bot model, written once for both
// scoring precisions.
//
// InferenceTables<M> is an immutable snapshot of everything the forward
// reads, in the matrix type M: the Eq. 9 table (LeakyReLU(X W_in + b_in)
// for every node, since Eq. 9 depends only on the node once dropout is
// off), the per-relation GCN weights (Eq. 10), the semantic-attention
// projection and vector (Eq. 12) and the classifier head (Eq. 15). Bsg4Bot
// builds the Matrix (f64) tables from its parameters; Narrow() converts
// them once into the MatrixF (f32) serving shadow.
//
// InferenceForward(tables, batch) runs Eq. 9-15 over one assembled batch
// with plain matrix kernels: no autograd graph and no mutable state, so any
// number of threads may score through the same tables at once. Each
// relation tower's first Eq. 10 layer aggregates the Eq. 9 table in place
// through the batch's node ids (no gathered copy), each layer adds its bias
// and applies the LeakyReLU in the GEMM's epilogue, and the last layer runs
// on the centre rows only (the rows Eq. 11 reads). On Matrix,
// every op is the value computation of the autograd forward, in the same
// order, so the logits are bit-identical to the all-rows forward
// (tests/reference_forward.h). On MatrixF the logits agree with the f64
// ones within the tolerance of README "Mixed-precision serving"
// (tests/test_f32_parity).
#pragma once

#include <vector>

#include "core/subgraph_batch.h"
#include "tensor/matrix.h"
#include "tensor/matrix_f.h"

namespace bsg {

/// One affine layer: w is in_dim x out_dim, b is 1 x out_dim.
template <class M>
struct AffineWeights {
  M w;
  M b;
};

/// The architecture knobs the forward branches on.
struct InferenceArch {
  int num_relations = 0;
  int gnn_layers = 0;
  bool use_intermediate_concat = true;  ///< Eq. 11
  bool use_semantic_attention = true;   ///< Eq. 12-14 vs mean pooling
  double leaky_slope = 0.0;
};

/// Everything the inference forward reads, in matrix type M.
template <class M>
struct InferenceTables {
  InferenceArch arch;
  M eq9;  ///< Eq. 9 rows for every node (num_nodes x hidden)
  std::vector<std::vector<AffineWeights<M>>> gcn;  ///< [relation][layer]
  AffineWeights<M> sem_proj;  ///< Eq. 12 W, b (semantic attention only)
  M sem_q;                    ///< Eq. 12 q, att_dim x 1
  AffineWeights<M> head;      ///< Eq. 15
};

/// The f32 serving shadow: every matrix of `t` narrowed once.
InferenceTables<MatrixF> Narrow(const InferenceTables<Matrix>& t);

/// Logits (|batch centres| x 2, widened to f64) of one assembled batch.
/// Stateless: safe to call from any number of threads at once.
template <class M>
Matrix InferenceForward(const InferenceTables<M>& tables,
                        const SubgraphBatch& batch);

}  // namespace bsg
