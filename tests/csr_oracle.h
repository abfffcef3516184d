// The unfused batch-stacking oracle: Csr::BlockDiagonal, as it stood in
// src/ before batch stacking became one fused pass. The tests check
// Csr::StackSymNormalizedInto, MakeSubgraphBatch and BatchStacker against
// BlockDiagonal(blocks).Normalized(CsrNorm::kSym), built from independent
// parts. CsrPeer reaches the Csr internals.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace bsg::testing {

class CsrPeer {
 public:
  /// Stacks graphs block-diagonally: node ids of graph g are shifted by the
  /// total node count of the preceding graphs. Weights carried through.
  static Csr BlockDiagonal(const std::vector<const Csr*>& graphs) {
    int total_nodes = 0;
    int64_t total_edges = 0;
    bool any_weights = false;
    for (const Csr* g : graphs) {
      total_nodes += g->num_nodes_;
      total_edges += g->num_edges();
      any_weights = any_weights || !g->weights_.empty();
    }
    Csr out;
    out.num_nodes_ = total_nodes;
    out.indptr_.assign(1, 0);
    out.indptr_.reserve(total_nodes + 1);
    out.indices_.reserve(total_edges);
    if (any_weights) out.weights_.reserve(total_edges);
    int offset = 0;
    for (const Csr* g : graphs) {
      for (int u = 0; u < g->num_nodes_; ++u) {
        for (int64_t e = g->indptr_[u]; e < g->indptr_[u + 1]; ++e) {
          out.indices_.push_back(g->indices_[e] + offset);
          if (any_weights) {
            out.weights_.push_back(g->weights_.empty() ? 1.0 : g->weights_[e]);
          }
        }
        out.indptr_.push_back(static_cast<int64_t>(out.indices_.size()));
      }
      offset += g->num_nodes_;
    }
    return out;
  }
};

inline Csr BlockDiagonal(const std::vector<const Csr*>& graphs) {
  return CsrPeer::BlockDiagonal(graphs);
}

}  // namespace bsg::testing
