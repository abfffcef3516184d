#include "graph/csr.h"

#include <algorithm>
#include <cmath>

namespace bsg {

Csr Csr::FromAdjacencyLists(std::vector<std::vector<int>> adj) {
  int num_nodes = static_cast<int>(adj.size());
  Csr out;
  out.num_nodes_ = num_nodes;
  out.indptr_.assign(num_nodes + 1, 0);
  int64_t total = 0;
  for (int u = 0; u < num_nodes; ++u) {
    auto& nbrs = adj[u];
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (int v : nbrs) {
      BSG_CHECK(v >= 0 && v < num_nodes, "adjacency index out of range");
    }
    total += static_cast<int64_t>(nbrs.size());
    out.indptr_[u + 1] = total;
  }
  out.indices_.reserve(total);
  for (int u = 0; u < num_nodes; ++u) {
    for (int v : adj[u]) out.indices_.push_back(v);
  }
  return out;
}

namespace {
Csr PackFromAdjacency(int num_nodes, std::vector<std::vector<int>>* adj) {
  (void)num_nodes;
  return Csr::FromAdjacencyLists(std::move(*adj));
}
}  // namespace

Csr Csr::FromEdges(int num_nodes,
                   const std::vector<std::pair<int, int>>& edges) {
  BSG_CHECK(num_nodes >= 0, "negative node count");
  std::vector<std::vector<int>> adj(num_nodes);
  for (const auto& [u, v] : edges) {
    BSG_CHECK(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes,
              "edge endpoint out of range");
    adj[u].push_back(v);
  }
  return PackFromAdjacency(num_nodes, &adj);
}

Csr Csr::FromEdgesSymmetric(int num_nodes,
                            const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> adj(num_nodes);
  for (const auto& [u, v] : edges) {
    BSG_CHECK(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes,
              "edge endpoint out of range");
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  return PackFromAdjacency(num_nodes, &adj);
}

Csr Csr::FromSortedRows(int num_nodes,
                        const std::vector<std::vector<int>>& rows) {
  BSG_CHECK(num_nodes >= 0 && static_cast<size_t>(num_nodes) <= rows.size(),
            "FromSortedRows: fewer rows than nodes");
  Csr out;
  out.num_nodes_ = num_nodes;
  out.indptr_.assign(num_nodes + 1, 0);
  int64_t total = 0;
  for (int u = 0; u < num_nodes; ++u) {
    const std::vector<int>& row = rows[u];
    for (size_t i = 0; i < row.size(); ++i) {
      BSG_CHECK(row[i] >= 0 && row[i] < num_nodes,
                "FromSortedRows: index out of range");
      BSG_CHECK(i == 0 || row[i - 1] < row[i],
                "FromSortedRows: row not sorted and deduplicated");
    }
    total += static_cast<int64_t>(row.size());
    out.indptr_[u + 1] = total;
  }
  out.indices_.reserve(total);
  for (int u = 0; u < num_nodes; ++u) {
    out.indices_.insert(out.indices_.end(), rows[u].begin(), rows[u].end());
  }
  return out;
}

bool Csr::HasEdge(int u, int v) const {
  BSG_CHECK(u >= 0 && u < num_nodes_, "HasEdge src out of range");
  return std::binary_search(NeighborsBegin(u), NeighborsEnd(u), v);
}

Csr Csr::Transposed() const {
  std::vector<int64_t> indptr(num_nodes_ + 1, 0);
  for (int v : indices_) indptr[v + 1]++;
  for (int u = 0; u < num_nodes_; ++u) indptr[u + 1] += indptr[u];
  std::vector<int> indices(indices_.size());
  std::vector<double> weights;
  if (!weights_.empty()) weights.resize(indices_.size());
  std::vector<int64_t> cursor(indptr.begin(), indptr.end() - 1);
  for (int u = 0; u < num_nodes_; ++u) {
    for (int64_t e = indptr_[u]; e < indptr_[u + 1]; ++e) {
      int v = indices_[e];
      int64_t slot = cursor[v]++;
      indices[slot] = u;
      if (!weights_.empty()) weights[slot] = weights_[e];
    }
  }
  Csr out;
  out.num_nodes_ = num_nodes_;
  out.indptr_ = std::move(indptr);
  out.indices_ = std::move(indices);
  out.weights_ = std::move(weights);
  return out;
}

Csr Csr::WithSelfLoops() const {
  // CSR-native: rows are already sorted and deduplicated (the invariant
  // HasEdge relies on), so the self loop merges into each row in one pass —
  // no per-row vectors, no re-sort. Same result as appending u to every
  // adjacency list and re-packing. It serves Normalized(kSym) on the
  // baselines' graphs and GAT; the block-diagonal SpMM over stored
  // subgraphs replays the same merge row by row (tensor/sym_blocks.h).
  Csr out;
  out.num_nodes_ = num_nodes_;
  out.indptr_.assign(num_nodes_ + 1, 0);
  int64_t total = 0;
  for (int u = 0; u < num_nodes_; ++u) {
    total += Degree(u) + (HasEdge(u, u) ? 0 : 1);
    out.indptr_[u + 1] = total;
  }
  out.indices_.resize(total);
  int64_t w = 0;
  for (int u = 0; u < num_nodes_; ++u) {
    const int* begin = NeighborsBegin(u);
    const int* end = NeighborsEnd(u);
    const int* pos = std::lower_bound(begin, end, u);
    for (const int* p = begin; p != pos; ++p) out.indices_[w++] = *p;
    out.indices_[w++] = u;                 // the (possibly new) self loop
    if (pos != end && *pos == u) ++pos;    // skip the original copy
    for (const int* p = pos; p != end; ++p) out.indices_[w++] = *p;
  }
  return out;
}

Csr Csr::Normalized(CsrNorm norm) const {
  if (norm == CsrNorm::kNone) {
    Csr out = *this;
    out.weights_.assign(indices_.size(), 1.0);
    return out;
  }
  if (norm == CsrNorm::kRow) {
    Csr out = *this;
    out.weights_.resize(indices_.size());
    for (int u = 0; u < num_nodes_; ++u) {
      int d = Degree(u);
      double w = d > 0 ? 1.0 / d : 0.0;
      for (int64_t e = indptr_[u]; e < indptr_[u + 1]; ++e) {
        out.weights_[e] = w;
      }
    }
    return out;
  }
  // kSym: add self loops, then D^-1/2 (A+I) D^-1/2.
  Csr with_loops = WithSelfLoops();
  std::vector<double> inv_sqrt_deg(num_nodes_);
  for (int u = 0; u < num_nodes_; ++u) {
    int d = with_loops.Degree(u);
    inv_sqrt_deg[u] = d > 0 ? 1.0 / std::sqrt(static_cast<double>(d)) : 0.0;
  }
  with_loops.weights_.resize(with_loops.indices_.size());
  for (int u = 0; u < num_nodes_; ++u) {
    for (int64_t e = with_loops.indptr_[u]; e < with_loops.indptr_[u + 1];
         ++e) {
      int v = with_loops.indices_[e];
      with_loops.weights_[e] = inv_sqrt_deg[u] * inv_sqrt_deg[v];
    }
  }
  return with_loops;
}

Csr Csr::InducedSubgraph(const std::vector<int>& nodes) const {
  std::vector<int> position(num_nodes_, -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    BSG_CHECK(nodes[i] >= 0 && nodes[i] < num_nodes_,
              "InducedSubgraph node out of range");
    position[nodes[i]] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> adj(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    int u = nodes[i];
    for (const int* p = NeighborsBegin(u); p != NeighborsEnd(u); ++p) {
      int pos = position[*p];
      if (pos >= 0) adj[i].push_back(pos);
    }
  }
  return PackFromAdjacency(static_cast<int>(nodes.size()), &adj);
}

Csr Csr::TwoHop(int cap) const {
  std::vector<std::vector<int>> adj(num_nodes_);
  std::vector<int> mark(num_nodes_, -1);
  for (int u = 0; u < num_nodes_; ++u) {
    auto& out = adj[u];
    for (const int* p = NeighborsBegin(u); p != NeighborsEnd(u); ++p) {
      int v = *p;
      for (const int* q = NeighborsBegin(v); q != NeighborsEnd(v); ++q) {
        int w = *q;
        if (w == u || mark[w] == u) continue;
        mark[w] = u;
        out.push_back(w);
        if (static_cast<int>(out.size()) >= cap) break;
      }
      if (static_cast<int>(out.size()) >= cap) break;
    }
  }
  return PackFromAdjacency(num_nodes_, &adj);
}

Csr Csr::SampleNeighbors(int fanout, Rng* rng) const {
  BSG_CHECK(fanout > 0, "non-positive fanout");
  std::vector<std::vector<int>> adj(num_nodes_);
  std::vector<int> pool;
  for (int u = 0; u < num_nodes_; ++u) {
    int d = Degree(u);
    if (d <= fanout) {
      adj[u].assign(NeighborsBegin(u), NeighborsEnd(u));
      continue;
    }
    pool.assign(NeighborsBegin(u), NeighborsEnd(u));
    // Partial Fisher-Yates: first `fanout` entries become the sample.
    for (int i = 0; i < fanout; ++i) {
      size_t j = i + rng->UniformInt(pool.size() - i);
      std::swap(pool[i], pool[j]);
    }
    adj[u].assign(pool.begin(), pool.begin() + fanout);
  }
  return PackFromAdjacency(num_nodes_, &adj);
}

Status Csr::Validate() const {
  if (static_cast<int>(indptr_.size()) != num_nodes_ + 1) {
    return Status::Internal("indptr size mismatch");
  }
  if (indptr_.front() != 0 ||
      indptr_.back() != static_cast<int64_t>(indices_.size())) {
    return Status::Internal("indptr endpoints invalid");
  }
  for (int u = 0; u < num_nodes_; ++u) {
    if (indptr_[u] > indptr_[u + 1]) {
      return Status::Internal("indptr not monotone");
    }
  }
  for (int v : indices_) {
    if (v < 0 || v >= num_nodes_) {
      return Status::Internal("neighbour index out of range");
    }
  }
  if (!weights_.empty() && weights_.size() != indices_.size()) {
    return Status::Internal("weights size mismatch");
  }
  return Status::OK();
}

}  // namespace bsg
