// The mixed-precision serving shadow of a frozen BSG4Bot model.
//
// Training and the serving oracle stay double precision (the bit-identity
// harness depends on it); this struct is the one-time f32 conversion of
// everything the inference forward pass reads — the Eq. 9 table, the GCN
// layer weights, semantic attention, the classifier head and the
// pre-classifier state. Bsg4Bot materialises it on EnsureF32Shadow() and
// refreshes it wherever the parameters become final (the end of Fit(),
// RestoreFromCheckpoint(), the target of TransferEvaluate()), so the shadow
// can never drift from the doubles it mirrors.
//
// The shadow is read-only at scoring time: Bsg4Bot::ScoreBatchF32 runs the
// forward (Eq. 10-15 over gathered Eq. 9 rows, the last Eq. 10 layer on the
// centre rows only) over MatrixF kernels with no autograd graph and no
// per-call conversion work.
#pragma once

#include <vector>

#include "tensor/matrix_f.h"

namespace bsg {

/// One affine layer's weights, narrowed to f32.
struct LinearF32 {
  MatrixF w;  ///< in_dim x out_dim
  MatrixF b;  ///< 1 x out_dim
};

/// Everything the f32 forward pass reads, converted once from the f64 model.
struct Bsg4BotF32 {
  /// LeakyReLU(features * W_in + b_in) for every node, num_nodes x hidden
  /// (Eq. 9, computed in f32 from the narrowed features and weights).
  MatrixF eq9;

  std::vector<std::vector<LinearF32>> gcn;  ///< [relation][layer] (Eq. 10)
  LinearF32 sem_proj;  ///< semantic-attention projection W, b (Eq. 12)
  MatrixF sem_q;       ///< semantic vector q, att_dim x 1 (Eq. 12)
  LinearF32 head;      ///< classifier head (Eq. 15)

  /// Pre-classifier hidden representations and their cached self dots
  /// (f32 twins of pretrain_.hidden_reps / hidden_self_dots_). Subgraph
  /// assembly itself stays f64 — both precisions must share cache entries —
  /// but the shadow carries them so f32 similarity scoring never reaches
  /// back into the doubles.
  MatrixF hidden_reps;
  std::vector<float> hidden_self_dots;
};

}  // namespace bsg
