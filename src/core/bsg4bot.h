// BSG4Bot — the paper's full method (Fig. 5):
//
//   1. Pre-train a coarse MLP classifier on node features (§III-C).
//   2. Build a biased heterogeneous subgraph per node, combining PPR
//      importance and pre-classifier similarity (§III-D, Algorithm 1).
//   3. Train a heterogeneous GNN over batches of subgraphs: shared input
//      transform (Eq. 9), per-relation GCN stacks (Eq. 10), intermediate
//      representation concatenation (Eq. 11), semantic attention fusion
//      (Eq. 12-14), softmax head (Eq. 15), cross-entropy + L2 (Eq. 16).
//
// Ablation switches reproduce every Table V row.
#pragma once

#include <memory>

#include "core/biased_subgraph.h"
#include "core/inference.h"
#include "core/pretrain.h"
#include "core/semantic_attention.h"
#include "core/subgraph_batch.h"
#include "graph/hetero_graph.h"
#include "io/checkpoint.h"
#include "train/trainer.h"

namespace bsg {

namespace testing {
class Bsg4BotPeer;  // test-only access to the training step (tests/)
}  // namespace testing

/// Full configuration of the method.
struct Bsg4BotConfig {
  PretrainConfig pretrain;
  BiasedSubgraphConfig subgraph;

  int hidden = 32;
  int gnn_layers = 2;
  double dropout = 0.3;
  double leaky_slope = 0.01;

  int batch_size = 128;
  int max_epochs = 80;
  int min_epochs = 10;
  int patience = 8;
  double lr = 0.01;
  double weight_decay = 5e-4;

  bool use_intermediate_concat = true;  ///< Eq. 11 (Table V ablation)
  bool use_semantic_attention = true;   ///< Eq. 12-14 vs mean pooling

  uint64_t seed = 1;
  bool verbose = false;
};

/// The trained system. Construction is cheap; Prepare() runs phases 1-2,
/// Fit() trains the GNN, Predict*() runs inference over biased subgraphs.
///
/// Inference (ScoreBatch, PredictLogits, validation) runs InferenceForward()
/// over an f64 InferenceTables snapshot (core/inference.h): the first
/// Eq. 10 layer aggregates a per-model N x hidden Eq. 9 table in place
/// through the batch's node ids, each layer's bias and LeakyReLU run in the
/// GEMM's epilogue, the last Eq. 10 layer runs on the centre rows only, and
/// there is no autograd graph; bit-identical to the all-rows forward. The
/// snapshot is rebuilt wherever the parameters become final: construction,
/// the end of Fit(), RestoreFromCheckpoint() and the target of
/// TransferEvaluate() (Validate() rebuilds it per epoch). Training runs the
/// last Eq. 10 layer on the centre rows too; Eq. 9 still runs per batch
/// row there, since dropout makes it depend on the row.
///
/// Training is driven by TrainMiniBatch (train/trainer.h): Bsg4Bot
/// implements MiniBatchProgram privately — fixed batch composition, pure
/// per-index assembly, per-batch loss and batched validation.
class Bsg4Bot : private MiniBatchProgram {
 public:
  Bsg4Bot(const HeteroGraph& graph, Bsg4BotConfig cfg);

  /// Phase 1 + 2: pre-train the coarse classifier, construct and store the
  /// biased subgraphs for all nodes. Idempotent.
  void Prepare();

  /// Phase 3: batched subgraph training with early stopping on validation
  /// F1. Restores the best-epoch parameters before returning. Calls
  /// Prepare() if needed.
  TrainResult Fit();

  /// Logits for the given centre nodes (requires Prepare + Fit), scored in
  /// fixed batch_size chunks; bit-identical at any thread count. Each chunk
  /// is built by the model's held BatchStacker and recycled into it, so
  /// repeated calls reuse the batches' storage. One thread at a time (the
  /// stacker is single-threaded state); concurrent scoring goes through
  /// ScoreBatch.
  Matrix PredictLogits(const std::vector<int>& centers);

  /// Predicted labels for the given centres.
  std::vector<int> Predict(const std::vector<int>& centers);

  /// Cross-domain evaluation (Fig. 9): copies this model's learned GNN
  /// parameters into `other` (which must share the architecture — same
  /// relation count, feature layout and config) and returns the accuracy
  /// over `nodes` of other's graph. `other` is Prepare()d if necessary.
  double TransferEvaluate(Bsg4Bot* other, const std::vector<int>& nodes);

  // --- checkpointing (io/checkpoint.h is the container format) ---

  /// Packs architecture metadata, every trained parameter and the
  /// pre-classifier state (hidden representations drive biased-subgraph
  /// assembly, so serving needs them) into `ckpt`. Requires pre-training to
  /// have run (Prepare()/Fit()) or to have been restored.
  void ExportCheckpoint(Checkpoint* ckpt) const;

  /// ExportCheckpoint + SaveCheckpoint(io) in one step.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores parameters and pre-classifier state from a checkpoint
  /// produced by ExportCheckpoint. The architecture metadata must match
  /// this model (relation count, feature dim, hidden width, depth, fusion
  /// flags) — mismatches return kFailedPrecondition, missing records
  /// kInvalidArgument. The subgraph-assembly knobs (k, lambda, PPR
  /// parameters) travel with the model and overwrite this config's values,
  /// so restored inference assembles exactly the training-time subgraphs.
  /// Stored subgraphs are invalidated; Prepare() after a restore skips the
  /// pre-classifier fit and only rebuilds subgraphs.
  Status RestoreFromCheckpoint(const Checkpoint& ckpt);

  /// LoadCheckpoint(io) + RestoreFromCheckpoint in one step.
  Status LoadCheckpoint(const std::string& path);

  /// Reconstructs the architecture-defining Bsg4BotConfig from checkpoint
  /// metadata, so a serving process can construct a compatible model before
  /// restoring (serve_cli does exactly this).
  static Result<Bsg4BotConfig> CheckpointConfig(const Checkpoint& ckpt);

  // --- engine-facing inference (serve/engine.h) ---

  /// True once the pre-classifier state needed for on-demand subgraph
  /// assembly exists (after Prepare() or a checkpoint restore).
  bool inference_ready() const { return !pretrain_.hidden_reps.empty(); }

  /// Builds the biased subgraph for one centre on demand — no stored
  /// subgraph vector required. Pure given the model state and safe to call
  /// from any thread; the serving cache wraps this.
  BiasedSubgraph AssembleSubgraph(int center) const;

  /// Inference logits (|batch centres| x 2) over an externally assembled
  /// batch (the DetectionEngine's forward entry point): InferenceForward()
  /// over the f64 tables. Reads only the snapshot, so any number of threads
  /// may call it at once (while nothing mutates the model).
  Matrix ScoreBatch(const SubgraphBatch& batch) const;

  // --- mixed-precision serving (core/inference.h) ---

  /// Materialises the f32 shadow of the frozen model if absent: Narrow() of
  /// the f64 tables, one pass over the Eq. 9 table and every weight the
  /// forward reads. Every point where the parameters
  /// become final (the end of Fit(), RestoreFromCheckpoint(), the target
  /// of TransferEvaluate()) refreshes an existing shadow in place, so it
  /// never serves stale weights. During Fit() it is stale until Fit()
  /// returns.
  void EnsureF32Shadow();
  bool has_f32_shadow() const { return f32_ != nullptr; }

  /// f32 forward over an externally assembled batch, widened to f64 logits
  /// (|batch centres| x 2): InferenceForward() over the f32 tables, safe
  /// from any number of threads at once. Requires EnsureF32Shadow(). No
  /// bit-exactness contract: agrees with ScoreBatch within the tolerance
  /// documented in README "Mixed-precision serving" (asserted by
  /// tests/test_f32_parity); the f64 path remains the accuracy oracle.
  Matrix ScoreBatchF32(const SubgraphBatch& batch) const;

  const Bsg4BotConfig& config() const { return cfg_; }
  const HeteroGraph& graph() const { return graph_; }

  const PretrainResult& pretrain_result() const { return pretrain_; }
  const std::vector<BiasedSubgraph>& subgraphs() const { return subgraphs_; }
  double prepare_seconds() const { return prepare_seconds_; }
  int64_t NumParameters() const { return store_.NumParameters(); }
  /// Relation weights beta from the last *training* forward (diagnostics;
  /// the inference forward keeps no state).
  const std::vector<double>& relation_weights() const;

 private:
  friend class testing::Bsg4BotPeer;

  void BuildNetwork();
  /// Snapshots the current parameters into f64_.
  void RebuildF64Tables();
  /// The hook for "the parameters are final": rebuilds the f64 tables and
  /// refreshes an existing f32 shadow.
  void RefreshInferenceTables();
  /// Fixes batch composition (one shuffle of train_idx, and the validation
  /// chunks). Idempotent.
  void EnsureBatchComposition();
  /// Training forward: logits (|centers| x 2) for one assembled batch as an
  /// autograd graph, dropout on. Per-relation towers run as parallel pool
  /// tasks. Eq. 9 is one fused node per tower (gather, dropout, affine,
  /// LeakyReLU) and so is each Eq. 10 affine + LeakyReLU. The input dropout
  /// is drawn in counter form: tower r takes the draws after the earlier
  /// towers' and rng_ skips past them all first, so the RNG stream is
  /// consumed as by a serial loop in relation order and results are
  /// bit-identical at any thread count. The last Eq. 10 layer runs on the
  /// centre rows only; the loss and every gradient are bit-identical to the
  /// all-rows forward (tests/reference_forward.h).
  Tensor ForwardBatch(const SubgraphBatch& batch);

  // MiniBatchProgram (the TrainMiniBatch driver's view of this model).
  int NumTrainBatches() const override;
  SubgraphBatch AssembleTrainBatch(int index) const override;
  std::vector<int> EpochBatchOrder(int epoch) override;
  Tensor BatchLoss(const SubgraphBatch& batch) override;
  EvalResult Validate() override;
  const std::vector<Tensor>& Parameters() const override;
  std::string ProgramName() const override { return "BSG4Bot"; }

  const HeteroGraph& graph_;
  Bsg4BotConfig cfg_;
  Rng rng_;

  bool prepared_ = false;
  bool pretrain_restored_ = false;  ///< checkpoint restore replaced pretraining
  PretrainResult pretrain_;
  /// RowSelfDots of pretrain_.hidden_reps, refreshed whenever the hidden
  /// representations are (re)set: AssembleSubgraph hoists the Eq. 6 norm
  /// terms through it (bit-identical to the inline cosine).
  std::vector<double> hidden_self_dots_;
  std::vector<BiasedSubgraph> subgraphs_;
  double prepare_seconds_ = 0.0;

  // Batch composition is fixed after one shuffle of train_idx; only the
  // visit order reshuffles per epoch (the paper stores constructed
  // subgraphs and composes batches from them, §III-F). TrainMiniBatch
  // assembles and keeps the train batches; Validate() keeps the val ones.
  std::vector<std::vector<int>> train_batch_centers_;
  std::vector<int> batch_order_;  ///< persistent per-epoch shuffle state
  std::vector<std::vector<int>> val_batch_centers_;
  /// Assembled on first Validate(); they point into subgraphs_.
  std::vector<SubgraphBatch> val_batches_;
  BatchStacker predict_stacker_;  ///< PredictLogits' chunks, recycled

  ParamStore store_;
  Linear input_;                       // Eq. 9, shared across relations
  std::vector<std::vector<Linear>> gcn_;  // [relation][layer]
  SemanticAttention fuse_;
  Linear head_;

  /// The inference forward's snapshot of the parameters (ScoreBatch).
  InferenceTables<Matrix> f64_;
  /// Mixed-precision serving shadow (null until EnsureF32Shadow()).
  std::unique_ptr<InferenceTables<MatrixF>> f32_;
};

}  // namespace bsg
