#include "core/biased_subgraph.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/pretrain.h"
#include "util/parallel.h"
#include "util/status.h"

// Never contract a multiply and an add into an FMA in this file, whatever
// the build flags say: the Eq. 6 dot products and the Eq. 8 mix must round
// as NodeSimilarity and the reference assembly do, or the top-k selection
// can change. CMakeLists.txt passes -ffp-contract=off, but a build that
// compiles src/ with its own flags may not.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace bsg {

SubgraphWorkspace& ThreadLocalSubgraphWorkspace() {
  // One workspace per thread: BuildAllSubgraphs' pool workers, the serving
  // front-end's workers and direct callers each keep their own warm
  // scratch. Pool threads are leaked at exit (util/parallel.cc), so
  // their workspaces are too — the usual leak-at-exit policy.
  static thread_local SubgraphWorkspace ws;
  return ws;
}

// Builds the relation-local adjacency: star edges to the centre plus the
// original relation edges among selected nodes (Algorithm 1, lines 8-13).
// Produces exactly the Csr that FromEdgesSymmetric over the star + induced
// edge list used to: the same per-row neighbour multisets, sorted and
// deduplicated, so every downstream bit (normalisation, SpMM) is unchanged.
Csr SubgraphWorkspace::BuildAdjacency(const Csr& relation,
                                      const std::vector<int>& nodes) {
  const int m = static_cast<int>(nodes.size());
  if (rows_.size() < static_cast<size_t>(m)) {
    ++growths_;
    rows_.resize(m);
  }
  for (int i = 0; i < m; ++i) rows_[i].clear();  // capacity retained

  // Stamp the selected nodes into the global->local map (no O(|V|) clear).
  const int n = relation.num_nodes();
  if (static_cast<int>(map_stamp_.size()) < n) {
    ++growths_;
    map_stamp_.resize(n, 0u);
    local_index_.resize(n);
  }
  if (++map_epoch_ == 0) {  // uint32 wrap: bulk-clear once, restart at 1
    std::fill(map_stamp_.begin(), map_stamp_.end(), 0u);
    map_epoch_ = 1;
  }
  for (int i = 0; i < m; ++i) {
    BSG_CHECK(nodes[i] >= 0 && nodes[i] < n, "subgraph node out of range");
    map_stamp_[nodes[i]] = map_epoch_;
    local_index_[nodes[i]] = i;
  }

  // Star: every selected node connects to the centre (local id 0).
  for (int i = 1; i < m; ++i) {
    rows_[0].push_back(i);
    rows_[i].push_back(0);
  }
  // Induced original edges, both directions (the relations are handed in
  // symmetrised, but symmetry is enforced here regardless — the same
  // contract FromEdgesSymmetric provided).
  for (int i = 0; i < m; ++i) {
    const int u = nodes[i];
    for (const int* p = relation.NeighborsBegin(u);
         p != relation.NeighborsEnd(u); ++p) {
      const int v = *p;
      if (map_stamp_[v] != map_epoch_) continue;
      const int j = local_index_[v];
      rows_[i].push_back(j);
      rows_[j].push_back(i);
    }
  }
  for (int i = 0; i < m; ++i) {
    std::vector<int>& row = rows_[i];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return Csr::FromSortedRows(m, rows_);
}

namespace {

// Lines 4-5 of Algorithm 1 over `scored` = (pi_norm, node) pairs: rewrites
// each entry to (-p_u, node), with p_u the Eq. 8 mix of pi_norm and the
// Eq. 6 similarity of node to the centre. The Eq. 6 dot products run eight
// candidates at a time with eight independent accumulators; each starts at
// +0.0 and sums in dimension order, as RowCosine's `dot` does, and the self
// dots are RowSelfDot's, so every similarity is bit-identical to
// NodeSimilarity.
void ScoreCandidates(const Matrix& reps, int center,
                     const BiasedSubgraphConfig& cfg,
                     const std::vector<double>& self_dots,
                     std::vector<std::pair<double, int>>* scored) {
  std::pair<double, int>* s = scored->data();
  const int m = static_cast<int>(scored->size());
  if (cfg.ppr_only) {
    for (int i = 0; i < m; ++i) s[i].first = -s[i].first;
    return;
  }
  const int d = reps.cols();
  const double* a = reps.row(center);
  const double center_dot = self_dots[center];
  auto finish = [&](int i, double dot) {
    const double node_dot = self_dots[s[i].second];
    const double cosine = (center_dot <= 0.0 || node_dot <= 0.0)
                              ? 0.0
                              : dot / std::sqrt(center_dot * node_dot);
    const double sim = (1.0 + cosine) / 2.0;
    s[i].first = -(cfg.lambda * s[i].first + (1.0 - cfg.lambda) * sim);
  };
  constexpr int kLanes = 8;
  int i = 0;
  for (; i + kLanes <= m; i += kLanes) {
    const double* b[kLanes];
    for (int j = 0; j < kLanes; ++j) b[j] = reps.row(s[i + j].second);
    double dot[kLanes] = {};
    for (int c = 0; c < d; ++c) {
      const double ac = a[c];
      for (int j = 0; j < kLanes; ++j) dot[j] += ac * b[j][c];
    }
    for (int j = 0; j < kLanes; ++j) finish(i + j, dot[j]);
  }
  for (; i < m; ++i) {
    const double* b = reps.row(s[i].second);
    double dot = 0.0;
    for (int c = 0; c < d; ++c) dot += a[c] * b[c];
    finish(i, dot);
  }
}

}  // namespace

BiasedSubgraph BuildBiasedSubgraph(const HeteroGraph& g,
                                   const Matrix& hidden_reps, int center,
                                   const BiasedSubgraphConfig& cfg,
                                   SubgraphWorkspace* ws,
                                   const std::vector<double>* reps_self_dots) {
  BSG_CHECK(ws != nullptr, "null subgraph workspace");
  BSG_CHECK(center >= 0 && center < g.num_nodes, "centre out of range");
  BSG_CHECK(hidden_reps.rows() == g.num_nodes, "hidden reps size mismatch");
  BSG_CHECK(reps_self_dots != nullptr &&
                static_cast<int>(reps_self_dots->size()) == g.num_nodes,
            "self-dots missing or of the wrong size");
  BiasedSubgraph out;
  out.center = center;
  out.per_relation.reserve(g.relations.size());

  for (const Csr& relation : g.relations) {
    // Line 3: PPR vector and candidate neighbourhood (workspace push is
    // bit-identical to the hash-map reference; its order is the settle
    // order, which nothing below depends on).
    const SparseVec& pi = ws->ppr_.ApproximatePpr(relation, center, cfg.ppr);
    // Max-normalise PPR so both score components live on [0, 1].
    double pi_max = 0.0;
    for (const auto& [node, score] : pi) {
      if (node != center) pi_max = std::max(pi_max, score);
    }
    if (pi_max <= 0.0) pi_max = 1.0;

    // Lines 4-5: combined score over candidates (centre excluded). Each
    // entry holds its normalised PPR score until ScoreCandidates turns it
    // into the negated Eq. 8 score.
    std::vector<std::pair<double, int>>& scored = ws->scored_;
    scored.clear();
    if (scored.capacity() < pi.size()) {
      ++ws->growths_;
      scored.reserve(pi.size());
    }
    for (const auto& [node, score] : pi) {
      if (node != center) scored.emplace_back(score / pi_max, node);
    }
    ScoreCandidates(hidden_reps, center, cfg, *reps_self_dots, &scored);
    // Line 6: top-k (deterministic tie-break by node id — elements are
    // distinct pairs, so the selected prefix is unique, whatever order the
    // candidates arrived in).
    int take = std::min<int>(cfg.k, static_cast<int>(scored.size()));
    std::nth_element(scored.begin(), scored.begin() + take, scored.end());
    std::sort(scored.begin(), scored.begin() + take);

    RelationSubgraph rel;
    rel.nodes.reserve(static_cast<size_t>(take) + 1);
    rel.nodes.push_back(center);
    for (int i = 0; i < take; ++i) rel.nodes.push_back(scored[i].second);
    rel.adj = ws->BuildAdjacency(relation, rel.nodes);
    rel.inv_sqrt_degree = SymInvSqrtDegrees(rel.adj);
    out.per_relation.push_back(std::move(rel));
  }
  return out;
}

std::vector<BiasedSubgraph> BuildAllSubgraphs(
    const HeteroGraph& g, const Matrix& hidden_reps,
    const BiasedSubgraphConfig& cfg,
    const std::vector<double>* reps_self_dots) {
  // Embarrassingly parallel over centre nodes: every centre runs its own
  // PPR + scoring against read-only inputs and writes a pre-sized slot, so
  // the output order (and every subgraph) is identical to the serial loop.
  // Each pool worker assembles through its own thread-local
  // SubgraphWorkspace, so the sweep allocates only the subgraphs it
  // returns once the per-thread scratch is warm; the Eq. 6 self-dots are
  // hoisted once for the whole sweep (or supplied by the caller).
  std::vector<double> local_dots;
  if (reps_self_dots == nullptr) {
    local_dots = RowSelfDots(hidden_reps);
    reps_self_dots = &local_dots;
  }
  std::vector<BiasedSubgraph> out(g.num_nodes);
  ParallelFor(0, g.num_nodes, 1, [&](int64_t v0, int64_t v1) {
    for (int v = static_cast<int>(v0); v < static_cast<int>(v1); ++v) {
      out[v] = BuildBiasedSubgraph(g, hidden_reps, v, cfg,
                                   &ThreadLocalSubgraphWorkspace(),
                                   reps_self_dots);
    }
  });
  return out;
}

double SubgraphCenterHomophily(const BiasedSubgraph& sub,
                               const std::vector<int>& labels) {
  std::set<int> neighbours;
  for (const RelationSubgraph& rel : sub.per_relation) {
    for (size_t i = 1; i < rel.nodes.size(); ++i) {
      neighbours.insert(rel.nodes[i]);
    }
  }
  if (neighbours.empty()) return -1.0;
  int same = 0;
  for (int u : neighbours) {
    if (labels[u] == labels[sub.center]) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(neighbours.size());
}

}  // namespace bsg
