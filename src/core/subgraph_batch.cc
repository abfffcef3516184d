#include "core/subgraph_batch.h"

namespace bsg {

SubgraphBatch MakeSubgraphBatch(const std::vector<BiasedSubgraph>& subgraphs,
                                const std::vector<int>& centers,
                                int num_relations) {
  std::vector<const BiasedSubgraph*> ptrs;
  ptrs.reserve(centers.size());
  for (int c : centers) {
    BSG_CHECK(c >= 0 && static_cast<size_t>(c) < subgraphs.size(),
              "batch centre out of range");
    ptrs.push_back(&subgraphs[c]);
  }
  return MakeSubgraphBatch(ptrs, centers, num_relations);
}

SubgraphBatch MakeSubgraphBatch(
    const std::vector<const BiasedSubgraph*>& subgraphs,
    const std::vector<int>& centers, int num_relations) {
  return BatchStacker(num_relations).Stack(subgraphs, centers);
}

BatchStacker::BatchStacker(int num_relations, bool with_f32_weights)
    : num_relations_(num_relations), with_f32_weights_(with_f32_weights) {
  BSG_CHECK(num_relations_ > 0, "stacker needs at least one relation");
}

SubgraphBatch BatchStacker::Stack(
    const std::vector<const BiasedSubgraph*>& subgraphs,
    const std::vector<int>& centers) {
  BSG_CHECK(!centers.empty(), "empty batch");
  BSG_CHECK(subgraphs.size() == centers.size(),
            "one subgraph per centre required");
  batches_stacked_.fetch_add(1, std::memory_order_relaxed);
  SubgraphBatch batch;
  if (!carcasses_.empty()) {
    batch = std::move(carcasses_.back());
    carcasses_.pop_back();
    carcass_reuses_.fetch_add(1, std::memory_order_relaxed);
  }

  // Rebuild inside the carcass: assign/clear keep the vectors' capacity.
  const size_t num_rel = static_cast<size_t>(num_relations_);
  batch.centers.assign(centers.begin(), centers.end());
  batch.rel_blocks.resize(num_rel);
  batch.rel_node_ids.resize(num_rel);
  batch.rel_center_rows.resize(num_rel);
  batch.rel_weights_f32.resize(with_f32_weights_ ? num_rel : 0);

  for (size_t r = 0; r < num_rel; ++r) {
    SymBlocks& blocks = batch.rel_blocks[r];
    std::vector<int>& node_ids = batch.rel_node_ids[r];
    std::vector<int>& center_rows = batch.rel_center_rows[r];
    blocks.Clear();
    node_ids.clear();
    center_rows.clear();
    for (size_t i = 0; i < centers.size(); ++i) {
      const BiasedSubgraph& sub = *subgraphs[i];
      BSG_CHECK(sub.center == centers[i], "subgraph index mismatch");
      const RelationSubgraph& rel = sub.per_relation[r];
      BSG_CHECK(rel.nodes.size() == static_cast<size_t>(rel.adj.num_nodes()),
                "subgraph node count mismatch");
      center_rows.push_back(blocks.rows());  // centre is local row 0
      blocks.Add(&rel.adj, &rel.inv_sqrt_degree);
      node_ids.insert(node_ids.end(), rel.nodes.begin(), rel.nodes.end());
    }
    if (!with_f32_weights_) continue;
    // The carcass's f32 buffers were made mutable by this stacker and are
    // held by nothing else (Recycle dropped the shared ones).
    std::shared_ptr<const std::vector<float>>& w32 = batch.rel_weights_f32[r];
    if (w32 != nullptr) {
      weights_f32_reuses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      w32 = std::make_shared<std::vector<float>>();
    }
    std::vector<float>& wf = const_cast<std::vector<float>&>(*w32);
    wf.clear();
    for (const SymBlock& block : blocks.blocks) {
      const Csr& g = *block.adj;
      const double* dinv = block.inv_sqrt_degree->data();
      for (int u = 0; u < g.num_nodes(); ++u) {
        for (const int* p = g.NeighborsBegin(u); p != g.NeighborsEnd(u);
             ++p) {
          wf.push_back(static_cast<float>(dinv[u] * dinv[*p]));
        }
      }
      for (int u = 0; u < g.num_nodes(); ++u) {
        wf.push_back(static_cast<float>(dinv[u] * dinv[u]));
      }
    }
  }
  return batch;
}

void BatchStacker::Recycle(SubgraphBatch&& batch) {
  for (std::shared_ptr<const std::vector<float>>& w : batch.rel_weights_f32) {
    if (w.use_count() != 1) w.reset();
  }
  carcasses_.push_back(std::move(batch));
}

BatchStackerStats BatchStacker::Stats() const {
  BatchStackerStats s;
  s.batches_stacked = batches_stacked_.load(std::memory_order_relaxed);
  s.carcass_reuses = carcass_reuses_.load(std::memory_order_relaxed);
  s.weights_f32_reuses = weights_f32_reuses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bsg
