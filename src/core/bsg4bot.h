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
#include "core/bsg4bot_f32.h"
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

  /// Stream training batches through the async double-buffered prefetcher
  /// (assembly on a producer thread overlaps the optimiser) instead of
  /// caching every assembled batch. Loss history and metrics are
  /// bit-identical either way, at any thread count.
  bool async_prefetch = false;
  int prefetch_depth = 2;  ///< assembled batches held at once (2 = double buffer)

  bool use_intermediate_concat = true;  ///< Eq. 11 (Table V ablation)
  bool use_semantic_attention = true;   ///< Eq. 12-14 vs mean pooling

  uint64_t seed = 1;
  bool verbose = false;
};

/// The trained system. Construction is cheap; Prepare() runs phases 1-2,
/// Fit() trains the GNN, Predict*() runs inference over biased subgraphs.
///
/// Inference (ScoreBatch, PredictLogits, validation) computes only what the
/// logits read. Eq. 9 depends only on the node once dropout is off, so its
/// rows come from a per-model N x hidden table; and the last Eq. 10 layer
/// runs only on the centre rows Eq. 11 gathers. Both are bit-identical to
/// the all-rows forward. The table is rebuilt wherever the parameters
/// become final: construction, the end of Fit(), RestoreFromCheckpoint()
/// and the target of TransferEvaluate() (Validate() rebuilds it per epoch).
/// Training runs the last Eq. 10 layer on the centre rows too; Eq. 9 still
/// runs per stacked row there, since dropout makes it depend on the row.
///
/// Training is driven by TrainMiniBatch (train/trainer.h): Bsg4Bot
/// implements MiniBatchProgram privately — fixed batch composition, pure
/// per-index assembly (prefetchable from a producer thread), per-batch loss
/// and batched validation.
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

  /// Logits for the given centre nodes (requires Prepare + Fit). Centres
  /// are scored in fixed batch_size chunks; with cfg.async_prefetch the
  /// chunks stream through a BatchPrefetcher (assembly on the producer
  /// thread overlaps the forward passes) — bit-identical to the
  /// synchronous sweep at any thread count, because chunk assembly is a
  /// pure function of the chunk index and the order is fixed.
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
  /// from a prefetcher producer thread; the serving cache wraps this.
  BiasedSubgraph AssembleSubgraph(int center) const;

  /// Inference logits (|batch centres| x 2) over an externally assembled
  /// batch (the DetectionEngine's forward entry point): the Eq. 9 table
  /// gather and the centre-only last layer, no autograd in the towers.
  Matrix ScoreBatch(const SubgraphBatch& batch) const;

  // --- mixed-precision serving (core/bsg4bot_f32.h) ---

  /// Materialises the f32 shadow of the frozen model if absent: one
  /// narrowing pass over every weight the forward reads, the f32 Eq. 9
  /// table and the pre-classifier state. Every point where the parameters
  /// become final (the end of Fit(), RestoreFromCheckpoint(), the target
  /// of TransferEvaluate()) refreshes an existing shadow in place, so it
  /// never serves stale weights. During Fit() it is stale until Fit()
  /// returns.
  void EnsureF32Shadow();
  bool has_f32_shadow() const { return f32_ != nullptr; }

  /// f32 forward over an externally assembled batch, widened to f64 logits
  /// (|batch centres| x 2). Requires EnsureF32Shadow(). No bit-exactness
  /// contract: agrees with ScoreBatch within the tolerance documented in
  /// README "Mixed-precision serving" (asserted by tests/test_f32_parity);
  /// the f64 path remains the accuracy oracle.
  Matrix ScoreBatchF32(const SubgraphBatch& batch) const;

  const Bsg4BotConfig& config() const { return cfg_; }
  const HeteroGraph& graph() const { return graph_; }

  const PretrainResult& pretrain_result() const { return pretrain_; }
  const std::vector<BiasedSubgraph>& subgraphs() const { return subgraphs_; }
  double prepare_seconds() const { return prepare_seconds_; }
  int64_t NumParameters() const { return store_.NumParameters(); }
  /// Relation weights beta from the last forward (diagnostics).
  const std::vector<double>& relation_weights() const;

 private:
  friend class testing::Bsg4BotPeer;

  void BuildNetwork();
  /// Rebuilds the f32 shadow from the current f64 state unconditionally.
  void RefreshF32Shadow();
  /// Rebuilds eq9_table_ from the current Eq. 9 weights.
  void RebuildEq9Table();
  /// The hook for "the parameters are final": rebuilds the Eq. 9 table and
  /// refreshes an existing f32 shadow.
  void RefreshInferenceTables();
  /// Fixes batch composition (one shuffle of train_idx) and assembles the
  /// validation batches. Idempotent.
  void EnsureBatchComposition();
  /// Training forward: logits (|centers| x 2) for one assembled batch as an
  /// autograd graph, dropout on. Per-relation towers run as parallel pool
  /// tasks; dropout masks are pre-drawn in relation order on the calling
  /// thread, so results are bit-identical at any thread count. The last
  /// Eq. 10 layer runs on the centre rows only; the loss and every gradient
  /// are bit-identical to the all-rows forward (tests/reference_forward.h).
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

  /// Assembles validation batch `index` (pure function of the index, like
  /// AssembleTrainBatch — prefetchable from a producer thread).
  SubgraphBatch AssembleValBatch(int index) const;

  // Batch composition is fixed after one shuffle of train_idx; only the
  // visit order reshuffles per epoch (the paper stores constructed
  // subgraphs and composes batches from them, §III-F). Whether assembled
  // batches are cached (sync) or streamed through the prefetcher (async)
  // is the trainer's choice. Validation follows the same policy: sync runs
  // keep the assembled val batches cached (the bit-exact oracle), async
  // runs stream them through val_prefetcher_ so evaluation overlaps
  // assembly and only O(prefetch_depth) val batches stay resident.
  std::vector<std::vector<int>> train_batch_centers_;
  std::vector<int> batch_order_;  ///< persistent per-epoch shuffle state
  std::vector<std::vector<int>> val_batch_centers_;
  std::vector<SubgraphBatch> val_batches_;  ///< cached (sync mode only)

  ParamStore store_;
  Tensor features_;
  Linear input_;                       // Eq. 9, shared across relations
  /// LeakyReLU(features * W_in + b_in) for every node (N x hidden): the
  /// inference forward's Eq. 9 rows. MatMulAddBias computes each row on its
  /// own, so a gathered row is bit-identical to computing it per batch.
  Matrix eq9_table_;
  std::vector<std::vector<Linear>> gcn_;  // [relation][layer]
  SemanticAttention fuse_;
  Linear head_;

  /// Mixed-precision serving shadow (null until EnsureF32Shadow()).
  std::unique_ptr<Bsg4BotF32> f32_;

  // Last member: the producer thread reads subgraphs_/val_batch_centers_,
  // so it must be torn down before them.
  std::unique_ptr<BatchPrefetcher> val_prefetcher_;
};

}  // namespace bsg
