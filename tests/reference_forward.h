// Test oracle for the BSG4Bot inference forward: the all-rows forward
// (Eq. 9-15), replayed op for op with ops:: on constant tensors from the
// parameters in a checkpoint. It computes Eq. 9 for every stacked row from
// the gathered features and every Eq. 10 layer for every row, then gathers
// the centre rows. Bsg4Bot::ScoreBatch and PredictLogits, which skip the
// rows the logits never read, must match it bit for bit.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "core/subgraph_batch.h"
#include "io/checkpoint.h"
#include "tensor/ops.h"

namespace bsg::testing {

class ReferenceForward {
 public:
  /// Reads the architecture and every parameter from `ckpt` (as written by
  /// Bsg4Bot::ExportCheckpoint). `graph` supplies the node features.
  ReferenceForward(const Checkpoint& ckpt, const HeteroGraph& graph)
      : features_(MakeTensor(graph.features)),
        num_relations_(graph.num_relations()) {
    Result<Bsg4BotConfig> cfg = Bsg4Bot::CheckpointConfig(ckpt);
    EXPECT_TRUE(cfg.ok()) << cfg.status().ToString();
    cfg_ = cfg.MoveValueOrDie();
    in_ = LoadLinear(ckpt, "bsg.in");
    gcn_.resize(static_cast<size_t>(num_relations_));
    for (int r = 0; r < num_relations_; ++r) {
      for (int l = 0; l < cfg_.gnn_layers; ++l) {
        gcn_[r].push_back(LoadLinear(ckpt, "bsg.rel" + std::to_string(r) +
                                               ".l" + std::to_string(l)));
      }
    }
    if (cfg_.use_semantic_attention) {
      sem_proj_ = LoadLinear(ckpt, "bsg.sem.proj");
      sem_q_ = Load(ckpt, "bsg.sem.q");
    }
    head_ = LoadLinear(ckpt, "bsg.head");
  }

  /// Logits (|batch centres| x 2) for one assembled batch.
  Matrix Logits(const SubgraphBatch& batch) const {
    const double slope = cfg_.leaky_slope;
    std::vector<Tensor> per_relation;
    for (int r = 0; r < num_relations_; ++r) {
      Tensor x = ops::GatherRows(features_, batch.rel_node_ids[r]);
      Tensor h = ops::LeakyRelu(ops::Linear(x, in_.w, in_.b), slope);  // Eq. 9
      std::vector<Tensor> layer_outputs{h};
      Tensor cur = h;
      for (int l = 0; l < cfg_.gnn_layers; ++l) {
        const LinearParams& g = gcn_[r][l];
        cur = ops::LeakyRelu(
            ops::Linear(ops::SpMM(batch.rel_adjs[r], cur), g.w, g.b),
            slope);  // Eq. 10
        layer_outputs.push_back(cur);
      }
      if (cfg_.use_intermediate_concat) {  // Eq. 11
        std::vector<Tensor> center_layers;
        for (const Tensor& lo : layer_outputs) {
          center_layers.push_back(
              ops::GatherRows(lo, batch.rel_center_rows[r]));
        }
        per_relation.push_back(ops::ConcatCols(center_layers));
      } else {
        per_relation.push_back(
            ops::GatherRows(layer_outputs.back(), batch.rel_center_rows[r]));
      }
    }
    Tensor fused;
    if (cfg_.use_semantic_attention) {  // Eq. 12-14
      std::vector<Tensor> importances;
      for (const Tensor& hr : per_relation) {
        Tensor scores = ops::MatMul(
            ops::Tanh(ops::Linear(hr, sem_proj_.w, sem_proj_.b)), sem_q_);
        importances.push_back(ops::MeanAll(scores));
      }
      Tensor betas = ops::SoftmaxRows(ops::ConcatCols(importances));
      for (int r = 0; r < num_relations_; ++r) {
        Tensor scaled = ops::ScaleByScalar(per_relation[r],
                                           ops::ElementAt(betas, 0, r));
        fused = r == 0 ? scaled : ops::Add(fused, scaled);
      }
    } else {  // mean-pooling ablation
      fused = per_relation[0];
      for (int r = 1; r < num_relations_; ++r) {
        fused = ops::Add(fused, per_relation[r]);
      }
      fused = ops::Scale(fused, 1.0 / static_cast<double>(num_relations_));
    }
    return ops::Linear(fused, head_.w, head_.b)->value;  // Eq. 15
  }

  /// Logits for `centers` in batch_size chunks over precomputed subgraphs
  /// (indexed by node id), as Bsg4Bot::PredictLogits chunks them.
  Matrix PredictLogits(const std::vector<BiasedSubgraph>& subgraphs,
                       const std::vector<int>& centers) const {
    Matrix out(static_cast<int>(centers.size()), 2);
    const size_t width = static_cast<size_t>(cfg_.batch_size);
    for (size_t b = 0; b < centers.size(); b += width) {
      std::vector<int> chunk(
          centers.begin() + b,
          centers.begin() + std::min(centers.size(), b + width));
      Matrix logits =
          Logits(MakeSubgraphBatch(subgraphs, chunk, num_relations_));
      for (int i = 0; i < logits.rows(); ++i) {
        out(static_cast<int>(b) + i, 0) = logits(i, 0);
        out(static_cast<int>(b) + i, 1) = logits(i, 1);
      }
    }
    return out;
  }

 private:
  struct LinearParams {
    Tensor w;
    Tensor b;
  };

  static Tensor Load(const Checkpoint& ckpt, const std::string& name) {
    const Matrix* m = ckpt.FindTensor("param." + name);
    EXPECT_NE(m, nullptr) << "checkpoint has no parameter " << name;
    return MakeTensor(m != nullptr ? *m : Matrix());
  }
  static LinearParams LoadLinear(const Checkpoint& ckpt,
                                 const std::string& name) {
    return LinearParams{Load(ckpt, name + ".w"), Load(ckpt, name + ".b")};
  }

  Bsg4BotConfig cfg_;
  Tensor features_;
  int num_relations_;
  LinearParams in_;
  std::vector<std::vector<LinearParams>> gcn_;
  LinearParams sem_proj_;
  Tensor sem_q_;
  LinearParams head_;
};

}  // namespace bsg::testing
