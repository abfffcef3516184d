// PPR oracles for the tests:
//  - ApproximatePpr: the Andersen-Chung-Lang forward push over per-call hash
//    maps. Visits only the neighbourhood where mass concentrates, so cost is
//    independent of graph size for fixed epsilon. PprWorkspace (src/ppr/
//    ppr_workspace.h) replays its push sequence over dense stamped arrays
//    and is pinned to it bit for bit.
//  - ExactPpr: dense power iteration, the reference the push approximates.
#pragma once

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "ppr/ppr.h"
#include "util/status.h"

namespace bsg::testing {

/// Forward-push approximate PPR from `source` over per-call hash maps.
/// Returned entries are the settled mass p[u]; they sum to <= 1 and
/// approximate the true PPR up to eps * deg(u) per node. The source itself
/// is included.
inline SparseVec ApproximatePpr(const Csr& graph, int source,
                                const PprConfig& cfg) {
  BSG_CHECK(source >= 0 && source < graph.num_nodes(), "bad PPR source");
  BSG_CHECK(cfg.alpha > 0.0 && cfg.alpha < 1.0, "alpha out of range");
  BSG_CHECK(cfg.epsilon > 0.0, "epsilon must be positive");

  // Sparse maps: residual r and settled mass p, touched nodes only. The
  // queue membership set is an unordered_set (not a map<int,bool>) and all
  // reads go through find/emplace, so bookkeeping never litters the maps
  // with zero entries for merely-touched nodes.
  std::unordered_map<int, double> p, r;
  r.emplace(source, 1.0);
  std::deque<int> queue{source};
  std::unordered_set<int> in_queue{source};

  const double eps = cfg.epsilon;
  int pushes = 0;
  while (!queue.empty() && pushes < cfg.max_pushes) {
    int u = queue.front();
    queue.pop_front();
    in_queue.erase(u);
    // u was queued, so its residual entry exists.
    auto ru_it = r.find(u);
    double ru = ru_it->second;
    int deg = graph.Degree(u);
    if (deg == 0) {
      // Dangling node: settle all residual mass here.
      p[u] += ru;
      ru_it->second = 0.0;
      continue;
    }
    if (ru < eps * deg) continue;
    ++pushes;
    p[u] += cfg.alpha * ru;
    double push_mass = (1.0 - cfg.alpha) * ru / deg;
    ru_it->second = 0.0;
    for (const int* q = graph.NeighborsBegin(u); q != graph.NeighborsEnd(u);
         ++q) {
      int v = *q;
      double& rv = r[v];  // single hash op: insert-or-find, then accumulate
      rv += push_mass;
      // Short-circuit so Degree(v) is only computed for nodes not queued.
      if (in_queue.count(v) == 0 &&
          rv >= eps * std::max(graph.Degree(v), 1)) {
        queue.push_back(v);
        in_queue.insert(v);
      }
    }
  }

  SparseVec out;
  out.reserve(p.size());
  for (const auto& [node, score] : p) {
    if (score > 0.0) out.emplace_back(node, score);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Dense power-iteration PPR from `source` (O(iters * |E|)).
inline std::vector<double> ExactPpr(const Csr& graph, int source,
                                    double alpha, int iters = 100) {
  const int n = graph.num_nodes();
  BSG_CHECK(source >= 0 && source < n, "bad PPR source");
  std::vector<double> pi(n, 0.0), next(n, 0.0);
  pi[source] = 1.0;
  // Degrees are loop-invariant: fetch them once instead of per iteration.
  std::vector<int> degree(n);
  for (int u = 0; u < n; ++u) degree[u] = graph.Degree(u);
  for (int it = 0; it < iters; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    // `moving` (total walking mass) is accumulated during the distribution
    // pass rather than re-summed in a second sweep; skipping zero entries
    // leaves the floating-point sum unchanged.
    double moving = 0.0;
    for (int u = 0; u < n; ++u) {
      double pu = pi[u];
      if (pu == 0.0) continue;
      moving += pu;
      int deg = degree[u];
      if (deg == 0) {
        dangling += pu;  // dangling mass restarts at the source
        continue;
      }
      double share = (1.0 - alpha) * pu / deg;
      for (const int* q = graph.NeighborsBegin(u); q != graph.NeighborsEnd(u);
           ++q) {
        next[*q] += share;
      }
    }
    // Restart mass: alpha of all walking mass, plus the non-teleport share
    // of dangling mass (a dangling walker restarts at the source).
    next[source] += alpha * moving + (1.0 - alpha) * dangling;
    std::swap(pi, next);
  }
  return pi;
}

}  // namespace bsg::testing
