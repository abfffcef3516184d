// Random block-diagonal operands (tensor/sym_blocks.h) for the SpMM tests:
// symmetric blocks with the shapes a stored subgraph can take and a few it
// cannot, each owned next to the operand that points into it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "tensor/sym_blocks.h"
#include "util/rng.h"

namespace bsg::testing {

/// Blocks and the operand over them. Moving it keeps `op` valid (the
/// vectors' buffers move with them); copying does not.
struct OwnedSymBlocks {
  std::vector<Csr> adjs;
  std::vector<std::vector<double>> inv_sqrt_degrees;
  SymBlocks op;

  OwnedSymBlocks() = default;
  OwnedSymBlocks(OwnedSymBlocks&&) = default;
  OwnedSymBlocks(const OwnedSymBlocks&) = delete;
};

/// Owns `adjs` and builds the operand over them, in order.
inline OwnedSymBlocks MakeSymBlocks(std::vector<Csr> adjs) {
  OwnedSymBlocks out;
  out.adjs = std::move(adjs);
  for (const Csr& a : out.adjs) {
    out.inv_sqrt_degrees.push_back(SymInvSqrtDegrees(a));
  }
  for (size_t b = 0; b < out.adjs.size(); ++b) {
    out.op.Add(&out.adjs[b], &out.inv_sqrt_degrees[b]);
  }
  return out;
}

/// `num_blocks` random symmetric blocks of 1 to `max_nodes` nodes: a star
/// to local row 0 (the subgraph shape) plus random extra edges, some of
/// them self loops (a relation with self loops gives a subgraph those),
/// plus a block with an isolated row. With `wide_star`, one block is a
/// 100-node star, whose centre row has more terms than the kernels take
/// in one piece.
inline OwnedSymBlocks RandomSymBlocks(Rng* rng, int num_blocks, int max_nodes,
                                      bool wide_star) {
  std::vector<Csr> adjs;
  for (int b = 0; b < num_blocks; ++b) {
    const int n = 1 + static_cast<int>(rng->UniformInt(max_nodes));
    std::vector<std::pair<int, int>> edges;
    for (int i = 1; i < n; ++i) edges.emplace_back(0, i);
    const int extra = static_cast<int>(rng->UniformInt(2 * n + 1));
    for (int e = 0; e < extra; ++e) {
      const int u = static_cast<int>(rng->UniformInt(n));
      const int v = e % 5 == 0 ? u : static_cast<int>(rng->UniformInt(n));
      edges.emplace_back(u, v);
    }
    adjs.push_back(Csr::FromEdgesSymmetric(n, edges));
  }
  // Rows 1 and 3 linked, row 2 isolated, row 0 with its self loop only.
  adjs.push_back(Csr::FromEdgesSymmetric(4, {{1, 3}, {0, 0}}));
  if (wide_star) {
    std::vector<std::pair<int, int>> star;
    for (int i = 1; i < 100; ++i) star.emplace_back(0, i);
    adjs.insert(adjs.begin() + adjs.size() / 2,
                Csr::FromEdgesSymmetric(100, star));
  }
  return MakeSymBlocks(std::move(adjs));
}

}  // namespace bsg::testing
