// Test oracle for the BSG4Bot forward: the all-rows forward (Eq. 9-15),
// replayed op for op with ops::. It computes Eq. 9 for every stacked row
// from the gathered features and every Eq. 10 layer for every row, then
// gathers the centre rows of each layer after the layer loop. Its Eq. 10
// aggregation does not run the production SpMM: it stacks each relation's
// blocks into one CSR (tests/csr_oracle.h, BlockDiagonal then
// Normalized(kSym)) and aggregates with a scalar loop, whose backward
// scatters each edge's contribution (A^T g) rather than assuming symmetry.
//
//   - Inference: constant tensors from the parameters in a checkpoint.
//     Bsg4Bot::ScoreBatch and PredictLogits, which skip the rows the logits
//     never read, must match it bit for bit.
//   - Training: the model's own parameter tensors, dropout on, masks drawn
//     from the model's RNG in ForwardBatch's order. Bsg4Bot's training step
//     (centre-only last layer) must match its loss and every parameter
//     gradient bit for bit, and a Fit() driven by it must repeat the loss
//     history. Bsg4BotPeer reaches the private training step.
#pragma once

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "core/subgraph_batch.h"
#include "csr_oracle.h"
#include "io/checkpoint.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace bsg::testing {

class ReferenceForward {
 public:
  /// Parameter source: the tensor of a named parameter ("bsg.in.w", ...).
  using ParamLookup = std::function<Tensor(const std::string&)>;

  /// Reads the architecture and every parameter from `ckpt` (as written by
  /// Bsg4Bot::ExportCheckpoint). `graph` supplies the node features.
  ReferenceForward(const Checkpoint& ckpt, const HeteroGraph& graph)
      : ReferenceForward(ConfigOf(ckpt), graph,
                         [&ckpt](const std::string& name) {
                           const Matrix* m =
                               ckpt.FindTensor("param." + name);
                           EXPECT_NE(m, nullptr)
                               << "checkpoint has no parameter " << name;
                           return MakeTensor(m != nullptr ? *m : Matrix());
                         }) {}

  /// Architecture from `cfg`, parameters from `param` (for training, the
  /// model's own trainable tensors, so gradients land on them).
  ReferenceForward(const Bsg4BotConfig& cfg, const HeteroGraph& graph,
                   const ParamLookup& param)
      : cfg_(cfg),
        features_(MakeTensor(graph.features)),
        num_relations_(graph.num_relations()) {
    in_ = LoadLinear(param, "bsg.in");
    gcn_.resize(static_cast<size_t>(num_relations_));
    for (int r = 0; r < num_relations_; ++r) {
      for (int l = 0; l < cfg_.gnn_layers; ++l) {
        gcn_[r].push_back(LoadLinear(param, "bsg.rel" + std::to_string(r) +
                                                ".l" + std::to_string(l)));
      }
    }
    if (cfg_.use_semantic_attention) {
      sem_proj_ = LoadLinear(param, "bsg.sem.proj");
      sem_q_ = param("bsg.sem.q");
    }
    head_ = LoadLinear(param, "bsg.head");
  }

  /// Logits (|batch centres| x 2) for one assembled batch, dropout off.
  Matrix Logits(const SubgraphBatch& batch) const {
    return Forward(batch, nullptr)->value;
  }

  /// Eq. 16 loss of one training batch, as an autograd graph over the
  /// parameters: dropout (cfg.dropout) with masks drawn from `rng`, then
  /// the cross-entropy over every centre.
  Tensor TrainingLoss(const SubgraphBatch& batch,
                      const std::vector<int>& node_labels, Rng* rng) const {
    std::vector<int> labels(batch.centers.size());
    std::vector<int> mask(batch.centers.size());
    for (size_t i = 0; i < batch.centers.size(); ++i) {
      labels[i] = node_labels[batch.centers[i]];
      mask[i] = static_cast<int>(i);
    }
    return ops::SoftmaxCrossEntropy(Forward(batch, rng), labels, mask);
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

  static Bsg4BotConfig ConfigOf(const Checkpoint& ckpt) {
    Result<Bsg4BotConfig> cfg = Bsg4Bot::CheckpointConfig(ckpt);
    EXPECT_TRUE(cfg.ok()) << cfg.status().ToString();
    return cfg.ok() ? cfg.MoveValueOrDie() : Bsg4BotConfig{};
  }
  static LinearParams LoadLinear(const ParamLookup& param,
                                 const std::string& name) {
    return LinearParams{param(name + ".w"), param(name + ".b")};
  }

  // out = A x with a scalar loop: each row from +0.0, its terms added in
  // CSR order. The backward adds w * g[u] to x's gradient row v for every
  // edge (u, v, w), rows u ascending, each row in CSR order.
  static Tensor ScalarSpmm(std::shared_ptr<const Csr> a, const Tensor& x) {
    EXPECT_EQ(a->num_nodes(), x->rows());
    const int d = x->cols();
    Matrix value(a->num_nodes(), d);
    for (int u = 0; u < a->num_nodes(); ++u) {
      const int* nb = a->NeighborsBegin(u);
      const double* w = a->WeightsBegin(u);
      for (int j = 0; j < a->Degree(u); ++j) {
        for (int c = 0; c < d; ++c) value(u, c) += w[j] * x->value(nb[j], c);
      }
    }
    Tensor out = std::make_shared<TensorNode>();
    out->value = std::move(value);
    out->parents = {x};
    out->requires_grad = x->requires_grad;
    out->backward_fn = [a](TensorNode* self) {
      TensorNode* x = self->parents[0].get();
      if (!x->requires_grad) return;
      for (int u = 0; u < a->num_nodes(); ++u) {
        const int* nb = a->NeighborsBegin(u);
        const double* w = a->WeightsBegin(u);
        for (int j = 0; j < a->Degree(u); ++j) {
          for (int c = 0; c < self->grad.cols(); ++c) {
            x->grad(nb[j], c) += w[j] * self->grad(u, c);
          }
        }
      }
    };
    return out;
  }

  // The all-rows forward. With `rng`, training mode: the per-relation
  // input masks are drawn first, in relation order, then the fused mask.
  Tensor Forward(const SubgraphBatch& batch, Rng* rng) const {
    const double slope = cfg_.leaky_slope;
    const bool dropout_on = rng != nullptr && cfg_.dropout > 0.0;
    std::vector<std::shared_ptr<const std::vector<double>>> masks;
    for (int r = 0; dropout_on && r < num_relations_; ++r) {
      masks.push_back(ops::MakeDropoutMask(
          batch.rel_node_ids[r].size() *
              static_cast<size_t>(features_->cols()),
          cfg_.dropout, rng));
    }
    std::vector<Tensor> per_relation;
    for (int r = 0; r < num_relations_; ++r) {
      const auto stacked = std::make_shared<const Csr>(
          StackedSymNormalized(batch.rel_blocks[r]));
      Tensor x = ops::GatherRows(features_, batch.rel_node_ids[r]);
      if (dropout_on) x = ops::DropoutWithMask(x, masks[r]);
      Tensor h = ops::LeakyRelu(ops::Linear(x, in_.w, in_.b), slope);  // Eq. 9
      std::vector<Tensor> layer_outputs{h};
      Tensor cur = h;
      for (int l = 0; l < cfg_.gnn_layers; ++l) {
        const LinearParams& g = gcn_[r][l];
        cur = ops::LeakyRelu(
            ops::Linear(ScalarSpmm(stacked, cur), g.w, g.b),
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
    if (rng != nullptr) {
      fused = ops::Dropout(fused, cfg_.dropout, /*training=*/true, rng);
    }
    return ops::Linear(fused, head_.w, head_.b);  // Eq. 15
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

/// Test-only access to Bsg4Bot's private training step (a friend of
/// Bsg4Bot).
class Bsg4BotPeer {
 public:
  /// Gives `model` the result of `prepared`'s Prepare(): the pre-classifier
  /// state and the subgraphs. Prepare() is a pure function of the graph,
  /// the seed and the pre-training and subgraph settings, so for two models
  /// that share those this is what model->Prepare() would compute, without
  /// the cost.
  static void AdoptPreparation(const Bsg4Bot& prepared, Bsg4Bot* model) {
    EXPECT_TRUE(prepared.prepared_);
    EXPECT_EQ(&prepared.graph_, &model->graph_);
    EXPECT_EQ(prepared.cfg_.seed, model->cfg_.seed);
    EXPECT_EQ(prepared.cfg_.subgraph.k, model->cfg_.subgraph.k);
    EXPECT_EQ(prepared.cfg_.pretrain.epochs, model->cfg_.pretrain.epochs);
    model->cfg_.pretrain = prepared.cfg_.pretrain;
    model->pretrain_ = prepared.pretrain_;
    model->hidden_self_dots_ = prepared.hidden_self_dots_;
    model->subgraphs_ = prepared.subgraphs_;
    model->prepared_ = true;
  }
  /// Prepare() plus the fixed batch composition Fit() starts from.
  static void PrepareTraining(Bsg4Bot* model) {
    model->Prepare();
    model->EnsureBatchComposition();
  }
  static SubgraphBatch TrainBatch(const Bsg4Bot& model, int index) {
    return model.AssembleTrainBatch(index);
  }
  /// The model's training loss for one batch (its BatchLoss).
  static Tensor BatchLoss(Bsg4Bot* model, const SubgraphBatch& batch) {
    return model->BatchLoss(batch);
  }
  static Rng* rng(Bsg4Bot* model) { return &model->rng_; }
  /// The all-rows oracle over the model's own parameter tensors.
  static ReferenceForward TrainingOracle(const Bsg4Bot& model) {
    const ParamStore& store = model.store_;
    return ReferenceForward(
        model.cfg_, model.graph_, [&store](const std::string& name) {
          const auto& names = store.names();
          const auto it = std::find(names.begin(), names.end(), name);
          EXPECT_NE(it, names.end()) << "model has no parameter " << name;
          return it != names.end() ? store.params()[it - names.begin()]
                                   : MakeTensor(Matrix());
        });
  }
  static const ParamStore& params(const Bsg4Bot& model) {
    return model.store_;
  }

  /// The training loop of Fit() (same batches, visit order, validation and
  /// optimiser), with every step's loss from the all-rows oracle instead of
  /// BatchLoss. Returns TrainMiniBatch's result.
  static TrainResult FitWithOracle(Bsg4Bot* model) {
    PrepareTraining(model);
    const Bsg4BotConfig& cfg = model->cfg_;
    model->batch_order_.resize(model->train_batch_centers_.size());
    std::iota(model->batch_order_.begin(), model->batch_order_.end(), 0);
    TrainConfig tc;
    tc.max_epochs = cfg.max_epochs;
    tc.min_epochs = cfg.min_epochs;
    tc.patience = cfg.patience;
    tc.lr = cfg.lr;
    tc.weight_decay = cfg.weight_decay;
    OracleProgram program(model, TrainingOracle(*model));
    return TrainMiniBatch(&program, tc);
  }

 private:
  // Bsg4Bot's MiniBatchProgram with BatchLoss swapped for the oracle's.
  class OracleProgram : public MiniBatchProgram {
   public:
    OracleProgram(Bsg4Bot* model, ReferenceForward oracle)
        : model_(model), oracle_(std::move(oracle)) {}
    int NumTrainBatches() const override {
      return model_->NumTrainBatches();
    }
    SubgraphBatch AssembleTrainBatch(int index) const override {
      return model_->AssembleTrainBatch(index);
    }
    std::vector<int> EpochBatchOrder(int epoch) override {
      return model_->EpochBatchOrder(epoch);
    }
    Tensor BatchLoss(const SubgraphBatch& batch) override {
      return oracle_.TrainingLoss(batch, model_->graph_.labels,
                                  &model_->rng_);
    }
    EvalResult Validate() override { return model_->Validate(); }
    const std::vector<Tensor>& Parameters() const override {
      return model_->Parameters();
    }

   private:
    Bsg4Bot* model_;
    ReferenceForward oracle_;
  };
};

}  // namespace bsg::testing
