// Batching of biased subgraphs for training and serving (paper §III-F): the
// per-centre subgraphs of one batch are the diagonal blocks of one sparse
// operand per relation, read in place from the stored subgraphs, so a
// single SpMM per relation drives message passing for the whole batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/biased_subgraph.h"
#include "tensor/sym_blocks.h"

namespace bsg {

/// One training/inference batch over a set of centres. It points into the
/// centres' subgraphs, which must outlive it (and any backward pass run
/// over it).
struct SubgraphBatch {
  std::vector<int> centers;  ///< global centre ids, batch order

  /// Per relation r: the centres' relation-r adjacencies, in batch order,
  /// as the blocks of diag(D^-1/2 (A_i + I) D^-1/2) (tensor/sym_blocks.h).
  /// Symmetric, so the backward reads it too.
  std::vector<SymBlocks> rel_blocks;
  /// Per relation r: global node id for every row of rel_blocks[r].
  std::vector<std::vector<int>> rel_node_ids;
  /// Per relation r: the row of each centre (its block's first row).
  std::vector<std::vector<int>> rel_center_rows;

  /// Per relation r: the weights of rel_blocks[r] cast to float, so the f32
  /// serving SpMM streams 4-byte weights: per block, its stored edges' in
  /// CSR order, then one self-loop weight per row (SpmmF). Empty unless a
  /// producer stacking for the f32 path filled it (SpmmF falls back to
  /// casting each double weight as it forms it); shared_ptr so recycling
  /// can pool the buffers.
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
  uint64_t weights_f32_reuses = 0;  ///< pooled f32 weight buffers reused
};

/// The one batch builder (paper §III-F): per relation, the list of the
/// centres' stored subgraph adjacencies as the blocks of one block-diagonal
/// operand, their node ids and the centre rows. Nothing is stacked or
/// normalised here: the SpMM reads each block in place and forms the GCN
/// weights of D^-1/2 (A + I) D^-1/2 as it goes (tensor/sym_blocks.h), with
/// the bits of the stacked, normalised CSR. The training backward reads the
/// forward operand, which is exact: each subgraph adjacency is symmetric
/// (its edges are inserted both ways when it is built), and so is each
/// weight.
///
/// Storage is recycled: Recycle() parks a consumed batch as a carcass that
/// keeps its vectors' capacity and its f32 weight buffers, and Stack()
/// rebuilds the next batch inside it. After one warm-up batch per shape
/// class, a Stack/Recycle loop performs zero heap allocations (asserted by
/// tests/test_batch_stacker.cc with the counting allocator).
///
/// Threading: Stack() and Recycle() run on one thread at a time (the
/// engine's per-call scratch); Stats() may be read from any thread.
class BatchStacker {
 public:
  /// `with_f32_weights` additionally materialises rel_weights_f32 on every
  /// batch (one cast per edge and per row at Stack() time, pooled buffers).
  explicit BatchStacker(int num_relations, bool with_f32_weights = false);

  /// The batch for `centers` (subgraphs[i] rooted at centers[i]), pointing
  /// into the subgraphs.
  SubgraphBatch Stack(const std::vector<const BiasedSubgraph*>& subgraphs,
                      const std::vector<int>& centers);

  /// Parks a consumed batch as a carcass for the next Stack(). An f32
  /// buffer still shared elsewhere is dropped from the carcass, to die with
  /// its last owner instead of being rewritten under its reader.
  void Recycle(SubgraphBatch&& batch);

  BatchStackerStats Stats() const;

 private:
  const int num_relations_;
  const bool with_f32_weights_;

  std::vector<SubgraphBatch> carcasses_;

  // Written by the stacking thread only; relaxed atomics so Stats() can
  // be read from another.
  std::atomic<uint64_t> batches_stacked_{0};
  std::atomic<uint64_t> carcass_reuses_{0};
  std::atomic<uint64_t> weights_f32_reuses_{0};
};

}  // namespace bsg
