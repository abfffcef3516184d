// A block-diagonal sparse operand read in place from stored graphs.
//
// SymBlocks is the matrix diag(S(A_0), S(A_1), ...), where S(A) =
// D^-1/2 (A + I) D^-1/2 is block A under the GCN normalisation
// (Csr::Normalized(CsrNorm::kSym)). Block b's local row u is row
// offsets[b] + u. Nothing is stacked and no edge weight is stored: each
// block carries the d^-1/2 of its rows (SymInvSqrtDegrees), and a kernel
// walks row u as ForEachSymTerm lists it, the stored neighbours with the
// self loop merged in at its sorted position, forming each weight
// d_u^-1/2 * d_v^-1/2 as it reads the edge. That is the row
// Normalized(kSym) writes over the stacked blocks, term for term: the same
// columns in the same order, and the same double products of the same
// 1 / sqrt(d). Every block is symmetric, and so is each weight, so S is
// its own transpose bit for bit and a backward reads the forward operand.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"

namespace bsg {

/// Per row u of `adj`, 1 / sqrt(d_u) for its degree d_u in A + I: its
/// stored length, plus one unless it holds its self loop already. The
/// values Normalized(kSym) computes.
inline std::vector<double> SymInvSqrtDegrees(const Csr& adj) {
  std::vector<double> out(static_cast<size_t>(adj.num_nodes()));
  for (int u = 0; u < adj.num_nodes(); ++u) {
    const int d = adj.Degree(u) + (adj.HasEdge(u, u) ? 0 : 1);
    out[u] = 1.0 / std::sqrt(static_cast<double>(d));
  }
  return out;
}

/// One block: an unweighted adjacency with sorted, deduplicated and
/// symmetric rows, and its SymInvSqrtDegrees.
struct SymBlock {
  const Csr* adj = nullptr;
  const std::vector<double>* inv_sqrt_degree = nullptr;
};

/// The block-diagonal operand. It points at its blocks, which must outlive
/// every use of it, a backward pass included.
struct SymBlocks {
  std::vector<SymBlock> blocks;
  std::vector<int> offsets = {0};  ///< first row of each block, then rows()

  int rows() const { return offsets.back(); }
  /// Clears to zero blocks, keeping the vectors' capacity.
  void Clear() {
    blocks.clear();
    offsets.assign(1, 0);
  }
  /// Appends a block after the current last row.
  void Add(const Csr* adj, const std::vector<double>* inv_sqrt_degree) {
    blocks.push_back({adj, inv_sqrt_degree});
    offsets.push_back(offsets.back() + adj->num_nodes());
  }
  /// The block holding row `row` (0 <= row < rows()), looked up from block
  /// `hint` on: the hint itself or the next block when the row is there
  /// (rows visited in order), else a binary search.
  int BlockOf(int row, int hint = -1) const {
    const int n = static_cast<int>(blocks.size());
    for (int b = hint; b >= 0 && b < n && b <= hint + 1; ++b) {
      if (row >= offsets[b] && row < offsets[b + 1]) return b;
    }
    int lo = 0;
    int hi = n;  // offsets[lo] <= row < offsets[hi]
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (offsets[mid] <= row) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  /// Checks the shape invariants: one offset per block boundary, row counts
  /// that match the blocks, unweighted blocks, one d^-1/2 per row.
  void Validate() const {
    BSG_CHECK(offsets.size() == blocks.size() + 1 && offsets[0] == 0,
              "SymBlocks offsets do not match its blocks");
    for (size_t b = 0; b < blocks.size(); ++b) {
      const SymBlock& blk = blocks[b];
      BSG_CHECK(blk.adj != nullptr && blk.inv_sqrt_degree != nullptr,
                "SymBlocks null block");
      BSG_CHECK(blk.adj->weights().empty(), "SymBlocks weighted block");
      BSG_CHECK(offsets[b + 1] - offsets[b] == blk.adj->num_nodes() &&
                    blk.inv_sqrt_degree->size() ==
                        static_cast<size_t>(blk.adj->num_nodes()),
                "SymBlocks block size mismatch");
    }
  }
};

/// Calls term(v, w, j) for each term of row u of `block`, in the order
/// Normalized(kSym) lists them: the stored neighbours in order, with the
/// self loop before the first one above u, or after the last. v is the
/// local column, w = d_u^-1/2 * d_v^-1/2 (the product Normalized(kSym)
/// writes) and j the term's position in the stored row, or -1 for the
/// self loop when the row does not hold it. A stored self loop is the self
/// loop's term: its weight d_u^-1/2 * d_u^-1/2 is the same product.
template <class Term>
inline __attribute__((always_inline)) void ForEachSymTerm(
    const SymBlock& block, int u, Term& term) {
  const double* dinv = block.inv_sqrt_degree->data();
  const double du = dinv[u];
  const int* nb = block.adj->NeighborsBegin(u);
  const int* ne = block.adj->NeighborsEnd(u);
  bool self_pending = true;
  for (const int* p = nb; p != ne; ++p) {
    if (self_pending && *p >= u) {
      if (*p > u) term(u, du * du, -1);
      self_pending = false;
    }
    term(*p, du * dinv[*p], static_cast<int>(p - nb));
  }
  if (self_pending) term(u, du * du, -1);
}

}  // namespace bsg
