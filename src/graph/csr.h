// Compressed-sparse-row adjacency structure: the storage format for every
// relation graph in the library.
//
// A Csr stores a directed adjacency (out-edges). Normalisation produces
// per-edge weights used by SpMM-based GNN layers:
//   kSym:  D^-1/2 (A+I) D^-1/2   (GCN convention; self loops added)
//   kRow:  D^-1 A                (mean aggregation; no self loops)
//   kNone: unit weights
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace bsg {

namespace testing {
class CsrPeer;  // test-only access for the stacking oracles (tests/)
}  // namespace testing

/// Edge-weight normalisation schemes for message passing.
enum class CsrNorm { kNone, kSym, kRow };

/// Directed adjacency in CSR form with optional per-edge weights.
class Csr {
 public:
  Csr() = default;

  /// Builds a CSR from an edge list (src, dst). Duplicate edges are
  /// deduplicated; self loops preserved as given. `num_nodes` must exceed
  /// every endpoint.
  static Csr FromEdges(int num_nodes,
                       const std::vector<std::pair<int, int>>& edges);

  /// Builds the CSR plus a symmetrised version (adds reverse edges).
  static Csr FromEdgesSymmetric(int num_nodes,
                                const std::vector<std::pair<int, int>>& edges);

  /// Builds a CSR from adjacency lists. Each list is sorted and
  /// deduplicated in place.
  static Csr FromAdjacencyLists(std::vector<std::vector<int>> adj);

  /// Builds a CSR from `num_nodes` adjacency rows that are already sorted
  /// and deduplicated (checked); rows beyond `num_nodes` are ignored. Rows
  /// are copied, not consumed, so callers can keep them as pooled scratch —
  /// the zero-scratch-allocation path of the subgraph assembler. The
  /// result's two arrays are the only allocations performed.
  static Csr FromSortedRows(int num_nodes,
                            const std::vector<std::vector<int>>& rows);

  int num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return static_cast<int64_t>(indices_.size()); }

  /// Out-degree of node u.
  int Degree(int u) const {
    return static_cast<int>(indptr_[u + 1] - indptr_[u]);
  }

  /// Neighbour span of node u.
  const int* NeighborsBegin(int u) const {
    return indices_.data() + indptr_[u];
  }
  const int* NeighborsEnd(int u) const {
    return indices_.data() + indptr_[u + 1];
  }
  /// Weight span aligned with the neighbour span (empty if unweighted).
  const double* WeightsBegin(int u) const {
    return weights_.empty() ? nullptr : weights_.data() + indptr_[u];
  }

  const std::vector<int64_t>& indptr() const { return indptr_; }
  const std::vector<int>& indices() const { return indices_; }
  const std::vector<double>& weights() const { return weights_; }

  bool HasEdge(int u, int v) const;

  /// Returns the reverse graph (in-edges become out-edges; weights carried).
  Csr Transposed() const;

  /// Returns a copy with edge weights assigned per the scheme. kSym adds a
  /// self loop to every node first (GCN convention).
  Csr Normalized(CsrNorm norm) const;

  /// Returns a copy with a self loop added for every node lacking one.
  Csr WithSelfLoops() const;

  /// Returns the graph restricted to `nodes`; node i of the result is
  /// nodes[i]. Edges between selected nodes are kept (weights dropped).
  Csr InducedSubgraph(const std::vector<int>& nodes) const;

  /// Exact 2-hop neighbourhood graph (u -> w when a path u->v->w exists,
  /// excluding w == u). Per-node fan-out is capped at `cap` neighbours
  /// (closest by accumulation order) to bound memory on dense graphs.
  Csr TwoHop(int cap = 64) const;

  /// Uniformly samples up to `fanout` out-neighbours per node.
  Csr SampleNeighbors(int fanout, Rng* rng) const;

  /// Validates structural invariants (sorted indptr, in-range indices).
  Status Validate() const;

 private:
  friend class testing::CsrPeer;

  int num_nodes_ = 0;
  std::vector<int64_t> indptr_ = {0};
  std::vector<int> indices_;
  std::vector<double> weights_;  // empty => unweighted
};

}  // namespace bsg
