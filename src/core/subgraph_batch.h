// Batching of biased subgraphs for training and serving (paper §III-F): the
// per-centre subgraphs of one batch are stacked block-diagonally per
// relation, so a single SpMM per relation drives message passing for the
// whole batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/biased_subgraph.h"
#include "tensor/ops.h"

namespace bsg {

/// One training/inference batch over a set of centres.
struct SubgraphBatch {
  std::vector<int> centers;  ///< global centre ids, batch order

  /// Per relation r: block-diagonal normalised adjacency over the stacked
  /// subgraphs of all centres (symmetric, so bwd aliases fwd).
  std::vector<SpMat> rel_adjs;
  /// Per relation r: global node id for every stacked local row.
  std::vector<std::vector<int>> rel_node_ids;
  /// Per relation r: row index of each centre within the stacking.
  std::vector<std::vector<int>> rel_center_rows;

  /// Per relation r: rel_adjs[r].fwd's edge weights pre-cast to float, so
  /// the f32 serving SpMM streams 4-byte weights. Empty unless a producer
  /// stacking for the f32 path filled it (SpmmF falls back to casting the
  /// doubles per edge); shared_ptr so recycling can pool the buffers.
  std::vector<std::shared_ptr<const std::vector<float>>> rel_weights_f32;

  /// The f32 weights of relation r, or nullptr when not populated.
  const std::vector<float>* RelWeightsF32(int r) const {
    return static_cast<size_t>(r) < rel_weights_f32.size() &&
                   rel_weights_f32[r] != nullptr
               ? rel_weights_f32[r].get()
               : nullptr;
  }
};

/// Assembles a batch from the precomputed subgraphs of `centers`.
/// `subgraphs` is indexed by global node id (BuildAllSubgraphs output).
SubgraphBatch MakeSubgraphBatch(const std::vector<BiasedSubgraph>& subgraphs,
                                const std::vector<int>& centers,
                                int num_relations);

/// Assembles a batch from per-centre subgraph pointers: subgraphs[i] is the
/// biased subgraph rooted at centers[i]. The one-shot form of
/// BatchStacker::Stack: same body, storage that dies with the batch.
SubgraphBatch MakeSubgraphBatch(
    const std::vector<const BiasedSubgraph*>& subgraphs,
    const std::vector<int>& centers, int num_relations);

/// Observability counters for one BatchStacker (cumulative).
struct BatchStackerStats {
  uint64_t batches_stacked = 0;   ///< Stack() calls
  uint64_t carcass_reuses = 0;    ///< batches rebuilt inside a recycled carcass
  uint64_t csr_reuses = 0;        ///< stacked adjacencies rebuilt in place
  uint64_t weights_f32_reuses = 0;  ///< pooled f32 weight buffers reused
};

/// The one batch stacker (paper §III-F): per relation, the block-diagonal
/// stacking of the centres' subgraph adjacencies under the GCN
/// normalisation D^-1/2 (A+I) D^-1/2, built by Csr::StackSymNormalizedInto
/// in one pass. Every SpMat's bwd aliases its fwd instead of holding a
/// materialised transpose. That is exact: each subgraph adjacency is
/// symmetric (its edges are inserted both ways when it is built), so the
/// stacked, normalised matrix equals its transpose bit for bit, and the
/// training backward reads the forward matrix.
///
/// Storage is recycled: Recycle() parks a consumed batch as a carcass that
/// keeps its vectors' capacity, its CSRs and its f32 weight buffers, and
/// Stack() rebuilds the next batch inside it. After one warm-up batch per
/// shape class, a Stack/Recycle loop performs zero heap allocations
/// (asserted by tests/test_batch_stacker.cc with the counting allocator).
///
/// Threading: Stack() and Recycle() run on one thread at a time (the
/// engine's per-call scratch); Stats() may be read from any thread.
class BatchStacker {
 public:
  /// `with_f32_weights` additionally materialises rel_weights_f32 on every
  /// stacked batch (one cast per edge at stacking time, pooled buffers).
  explicit BatchStacker(int num_relations, bool with_f32_weights = false);

  /// Stacks the batch for `centers` (subgraphs[i] rooted at centers[i]).
  SubgraphBatch Stack(const std::vector<const BiasedSubgraph*>& subgraphs,
                      const std::vector<int>& centers);

  /// Parks a consumed batch as a carcass for the next Stack(). A CSR or
  /// f32 buffer still shared elsewhere is dropped from the carcass, to die
  /// with its last owner instead of being rebuilt under its reader.
  void Recycle(SubgraphBatch&& batch);

  BatchStackerStats Stats() const;

 private:
  const int num_relations_;
  const bool with_f32_weights_;

  std::vector<const Csr*> blocks_;     // one relation's blocks, reused
  std::vector<double> inv_sqrt_deg_;   // StackSymNormalizedInto scratch
  std::vector<SubgraphBatch> carcasses_;

  // Written by the stacking thread only; relaxed atomics so Stats() can
  // be read from another.
  std::atomic<uint64_t> batches_stacked_{0};
  std::atomic<uint64_t> carcass_reuses_{0};
  std::atomic<uint64_t> csr_reuses_{0};
  std::atomic<uint64_t> weights_f32_reuses_{0};
};

}  // namespace bsg
