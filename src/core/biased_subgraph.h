// Biased heterogeneous subgraph construction — Algorithm 1 of the paper.
//
// For a centre node v and each relation r:
//   1. approximate PPR from v on G_r (forward push) -> candidate set
//   2. similarity s_u = (1 + cos(h^p_v, h^p_u)) / 2 on pre-classifier
//      hidden states (Eq. 6)
//   3. combined score p_u = lambda * pi_u + (1 - lambda) * s_u (Eq. 8);
//      pi is max-normalised so both terms live on [0, 1] and lambda = 0.5
//      means "equally important" as the paper states
//   4. take the top-k candidates
//   5. edges: every selected node links to the centre (star), and original
//      G_r edges among selected nodes are retained -> connected subgraph
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/hetero_graph.h"
#include "ppr/ppr.h"
#include "ppr/ppr_workspace.h"
#include "tensor/matrix.h"

namespace bsg {

/// Knobs of Algorithm 1.
struct BiasedSubgraphConfig {
  int k = 32;            ///< neighbours selected per relation (Fig. 10 sweep)
  double lambda = 0.5;   ///< Eq. 8 mixing weight (PPR vs similarity)
  PprConfig ppr;         ///< forward-push parameters
  bool ppr_only = false; ///< Table V ablation: ignore similarity entirely
};

/// One relation's slice of a biased subgraph, in local ids.
/// nodes[0] is always the centre.
struct RelationSubgraph {
  std::vector<int> nodes;  ///< global node ids
  Csr adj;                 ///< local-id adjacency (star + induced edges)
};

/// The biased heterogeneous subgraph rooted at `center`.
struct BiasedSubgraph {
  int center = -1;
  std::vector<RelationSubgraph> per_relation;  ///< aligned with g.relations
};

class SubgraphWorkspace;

/// Runs Algorithm 1 for one centre node, with scratch from `ws` (callers
/// pass ThreadLocalSubgraphWorkspace(), or their own to control reuse and
/// observe allocation counters), so repeated calls on one workspace
/// allocate only the returned subgraph itself. `reps_self_dots` (non-null)
/// holds the RowSelfDots of `hidden_reps`, computed once per set of
/// representations: the Eq. 6 cosine reads its norm terms from there,
/// bit-identical to NodeSimilarity.
BiasedSubgraph BuildBiasedSubgraph(const HeteroGraph& g,
                                   const Matrix& hidden_reps, int center,
                                   const BiasedSubgraphConfig& cfg,
                                   SubgraphWorkspace* ws,
                                   const std::vector<double>* reps_self_dots);

/// Reusable scratch for zero-allocation subgraph assembly: the dense
/// epoch-stamped PPR workspace, the candidate scoring buffer, a stamped
/// global->local node-index map and pooled per-row edge buffers for the
/// CSR-native star + induced adjacency construction. Single-threaded
/// state: one workspace per thread. `ThreadLocalSubgraphWorkspace()` is
/// how production call sites get theirs — BuildAllSubgraphs' parallel
/// workers, the serving front-end's workers and any direct caller each
/// reuse their own across calls, graphs and configs.
class SubgraphWorkspace {
 public:
  PprWorkspace& ppr() { return ppr_; }

  /// Growth events of the workspace's scratch (PPR buffer growths plus the
  /// candidate buffer, node-index map and row table). Stabilises once the
  /// thread has assembled a representative set of targets; the exact
  /// zero-allocation check in tests/benches is an operator-new probe.
  uint64_t buffer_growths() const { return ppr_.buffer_growths() + growths_; }

 private:
  friend BiasedSubgraph BuildBiasedSubgraph(
      const HeteroGraph& g, const Matrix& hidden_reps, int center,
      const BiasedSubgraphConfig& cfg, SubgraphWorkspace* ws,
      const std::vector<double>* reps_self_dots);

  /// CSR-native star + induced adjacency over `nodes` (global ids, centre
  /// first): bit-identical to Csr::FromEdgesSymmetric over the star edges
  /// plus the relation's induced edges, built without the intermediate
  /// induced CSR, the per-call O(|V|) position vector or the edge-pair
  /// list. Only the returned Csr's two arrays are allocated when warm.
  Csr BuildAdjacency(const Csr& relation, const std::vector<int>& nodes);

  PprWorkspace ppr_;
  std::vector<std::pair<double, int>> scored_;  ///< (-score, node) buffer

  // Stamped global->local map (same trick as PprWorkspace: a slot is live
  // iff its stamp equals the current epoch, so no O(|V|) clear per call).
  uint32_t map_epoch_ = 0;
  std::vector<uint32_t> map_stamp_;
  std::vector<int> local_index_;
  std::vector<std::vector<int>> rows_;  ///< pooled per-local-row edge buffers

  uint64_t growths_ = 0;  ///< local (non-PPR) scratch growth events
};

/// The calling thread's lazily constructed workspace (thread_local; sized
/// to the largest graph the thread has assembled against).
SubgraphWorkspace& ThreadLocalSubgraphWorkspace();

/// Builds subgraphs for every node (the paper precomputes and stores them;
/// §III-F "for each node in the training set, we perform the subgraph
/// construction, and store the constructed subgraphs"). Pass the
/// RowSelfDots of `hidden_reps` if already computed; otherwise they are
/// computed once for the sweep.
std::vector<BiasedSubgraph> BuildAllSubgraphs(
    const HeteroGraph& g, const Matrix& hidden_reps,
    const BiasedSubgraphConfig& cfg,
    const std::vector<double>* reps_self_dots = nullptr);

/// Homophily of the centre within its biased subgraph: fraction of selected
/// neighbours (union over relations) sharing the centre's label. Returns -1
/// when no neighbours were selected. Drives the Fig. 8 study.
double SubgraphCenterHomophily(const BiasedSubgraph& sub,
                               const std::vector<int>& labels);

}  // namespace bsg
