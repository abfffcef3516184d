// Phase 1 of BSG4Bot (§III-C): pre-train a coarse MLP classifier on node
// features over the train+validation sets, then expose
//   - hidden representations h^p = leakyrelu(W0 x + b0)   (Eq. 5)
//   - class probabilities                                  (Eq. 4)
// The hidden space defines the node similarity (Eq. 6) used to bias the
// subgraph construction.
#pragma once

#include "graph/hetero_graph.h"
#include "train/metrics.h"

namespace bsg {

/// Pre-classifier hyperparameters.
struct PretrainConfig {
  int hidden = 32;
  int epochs = 80;
  double lr = 0.01;
  double weight_decay = 5e-4;
  double dropout = 0.3;
  uint64_t seed = 11;
};

/// Output of the pre-training phase.
struct PretrainResult {
  Matrix hidden_reps;  ///< n x hidden (Eq. 5)
  Matrix probs;        ///< n x 2 softmax outputs
  EvalResult fit;      ///< quality on the train+val nodes it was fit on
  double seconds = 0.0;
};

/// Trains the coarse classifier (MLP on features only) on train+val nodes.
PretrainResult PretrainClassifier(const HeteroGraph& g,
                                  const PretrainConfig& cfg);

/// Similarity in the pre-classifier's hidden space (Eq. 6):
///   s_ij = (1 + cos(h_i, h_j)) / 2   in [0, 1].
double NodeSimilarity(const Matrix& hidden_reps, int i, int j);

/// Per-row self inner products <h_r, h_r> of `m`, accumulated in exactly
/// the order RowCosine's fused loop uses — precompute once per model and
/// the subgraph assembler's Eq. 6 scoring (its hot path) computes only the
/// cross dot product per candidate, bit-identical to NodeSimilarity.
std::vector<double> RowSelfDots(const Matrix& m);

}  // namespace bsg
