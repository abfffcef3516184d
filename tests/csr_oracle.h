// The batch-stacking oracles. Batches are no longer stacked: the SpMM reads
// each stored subgraph in place as one block of a block-diagonal operand
// (tensor/sym_blocks.h). Its matrix is pinned to the stacked one built two
// ways, as src/ once built it:
//
//   - BlockDiagonal(blocks).Normalized(CsrNorm::kSym), the unfused
//     composition of independent parts (Csr::BlockDiagonal as it stood in
//     src/ before stacking became one fused pass), and
//   - StackSymNormalizedInto, that fused pass (stacking, self-loop
//     insertion and normalisation in one), as it stood in src/ before the
//     blocks were read in place.
//
// CsrPeer reaches the Csr internals.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "tensor/sym_blocks.h"

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

  /// Writes into *out the graphs stacked block-diagonally, then
  /// Normalized(CsrNorm::kSym), in one pass; out's arrays and the
  /// inv_sqrt_deg scratch are resized, never shrunk. The blocks must be
  /// unweighted with sorted, deduplicated rows.
  static void StackSymNormalizedInto(const std::vector<const Csr*>& graphs,
                                     Csr* out,
                                     std::vector<double>* inv_sqrt_deg) {
    BSG_CHECK(out != nullptr && inv_sqrt_deg != nullptr,
              "null stacking destination");
    int total_nodes = 0;
    for (const Csr* g : graphs) total_nodes += g->num_nodes_;
    out->num_nodes_ = total_nodes;
    out->indptr_.resize(static_cast<size_t>(total_nodes) + 1);
    out->indptr_[0] = 0;
    // Pass 1: row widths with the self loop counted in — exactly
    // WithSelfLoops' counting pass, applied per block.
    int64_t total = 0;
    int row = 0;
    for (const Csr* g : graphs) {
      BSG_CHECK(g->weights_.empty(),
                "StackSymNormalizedInto on weighted block");
      for (int u = 0; u < g->num_nodes_; ++u) {
        total += g->Degree(u) + (g->HasEdge(u, u) ? 0 : 1);
        out->indptr_[++row] = total;
      }
    }
    out->indices_.resize(static_cast<size_t>(total));
    out->weights_.resize(static_cast<size_t>(total));
    inv_sqrt_deg->resize(static_cast<size_t>(total_nodes));
    // Pass 2: offset indices with the self loop merged into each sorted row
    // (WithSelfLoops' merge), plus the per-node D^-1/2 of the result. The
    // self-looped degree is always >= 1, so the d > 0 guard Normalized
    // carries is vacuously identical here.
    int64_t w = 0;
    int offset = 0;
    for (const Csr* g : graphs) {
      for (int u = 0; u < g->num_nodes_; ++u) {
        const int* begin = g->NeighborsBegin(u);
        const int* end = g->NeighborsEnd(u);
        const int* pos = std::lower_bound(begin, end, u);
        for (const int* p = begin; p != pos; ++p) {
          out->indices_[w++] = *p + offset;
        }
        out->indices_[w++] = u + offset;    // the (possibly new) self loop
        if (pos != end && *pos == u) ++pos; // skip the original copy
        for (const int* p = pos; p != end; ++p) {
          out->indices_[w++] = *p + offset;
        }
        const int gu = offset + u;
        const int64_t d = out->indptr_[gu + 1] - out->indptr_[gu];
        (*inv_sqrt_deg)[gu] = 1.0 / std::sqrt(static_cast<double>(d));
      }
      offset += g->num_nodes_;
    }
    // Pass 3: w_uv = d_u^-1/2 * d_v^-1/2, the same double products
    // Normalized(kSym) writes.
    for (int u = 0; u < total_nodes; ++u) {
      const double du = (*inv_sqrt_deg)[u];
      for (int64_t e = out->indptr_[u]; e < out->indptr_[u + 1]; ++e) {
        out->weights_[e] = du * (*inv_sqrt_deg)[out->indices_[e]];
      }
    }
  }
};

inline Csr BlockDiagonal(const std::vector<const Csr*>& graphs) {
  return CsrPeer::BlockDiagonal(graphs);
}

inline void StackSymNormalizedInto(const std::vector<const Csr*>& graphs,
                                   Csr* out,
                                   std::vector<double>* inv_sqrt_deg) {
  CsrPeer::StackSymNormalizedInto(graphs, out, inv_sqrt_deg);
}

/// The stacked matrix of a block-diagonal operand, unfused:
/// BlockDiagonal(its blocks).Normalized(CsrNorm::kSym).
inline Csr StackedSymNormalized(const SymBlocks& a) {
  std::vector<const Csr*> graphs;
  for (const SymBlock& b : a.blocks) graphs.push_back(b.adj);
  return BlockDiagonal(graphs).Normalized(CsrNorm::kSym);
}

}  // namespace bsg::testing
