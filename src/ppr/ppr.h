// Personalized PageRank: the shared configuration and sparse-vector types.
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

/// Sparse PPR vector: (node, score) pairs with score > 0, each node once.
/// The order is the producer's: PprWorkspace::ApproximatePpr leaves its
/// entries in the order the nodes first settled mass (deterministic, not by
/// node id); the test oracles sort by node id.
using SparseVec = std::vector<std::pair<int, double>>;

}  // namespace bsg
