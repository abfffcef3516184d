// Personalized PageRank: the shared configuration and sparse-vector types,
// and top-k selection over a PPR vector.
//
// The forward push itself (Andersen-Chung-Lang, the sequential
// instantiation of the approximate scheme the paper cites [29]) lives in
// PprWorkspace::ApproximatePpr (ppr_workspace.h), over a reusable
// epoch-stamped dense workspace. Its hash-map and power-iteration oracles
// are test code (tests/ppr_oracle.h).
//
// Convention: scores follow the random walk with restart
//   pi = alpha * e_s + (1 - alpha) * pi * D^-1 A
// (push distributes mass along *out*-edges; for the social graphs here
// relations are symmetrised before PPR).
#pragma once

#include <utility>
#include <vector>

namespace bsg {

/// Configuration for PPR computations.
struct PprConfig {
  double alpha = 0.15;     ///< teleport (restart) probability
  double epsilon = 1e-4;   ///< push threshold: stop when r[u] < eps * deg(u)
  int max_pushes = 1 << 20;  ///< hard safety cap on push operations
};

/// Sparse PPR vector: (node, score) pairs with score > 0.
using SparseVec = std::vector<std::pair<int, double>>;

/// Top-k entries of a sparse vector by score (descending; source excluded if
/// `exclude` >= 0), written into `*out` (cleared first; its capacity is
/// reused, so a caller-owned warm buffer makes the call allocation-free).
/// Ties broken by node id for determinism. When k covers every candidate
/// the partial-sort + truncate pass is skipped and the candidates are
/// sorted directly in the output buffer.
void TopKInto(const SparseVec& vec, int k, SparseVec* out, int exclude = -1);

/// TopKInto into a freshly allocated vector.
SparseVec TopK(const SparseVec& vec, int k, int exclude = -1);

}  // namespace bsg
