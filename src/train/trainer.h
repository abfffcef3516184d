// Training loops with Adam, dropout and early stopping (the paper's §IV-A
// protocol), plus per-epoch wall-time accounting for Table III.
//
// Two drivers share TrainConfig:
//   - TrainModel: the full-graph loop over Model::BuildEpochLosses.
//   - TrainMiniBatch: the paper's §III-F mini-batch loop over subgraph
//     batches supplied by a MiniBatchProgram. Every batch is assembled once
//     and reused across epochs; loss histories and metrics are identical at
//     any thread count.
#pragma once

#include <string>
#include <vector>

#include "core/subgraph_batch.h"
#include "models/model.h"
#include "train/metrics.h"

namespace bsg {

/// Loop hyperparameters.
struct TrainConfig {
  int max_epochs = 150;
  int min_epochs = 15;       ///< no early stop before this many epochs
  int patience = 12;         ///< epochs without val-F1 improvement
  double lr = 0.01;
  double weight_decay = 5e-4;
  bool verbose = false;
  /// Optional training-set override (Fig. 7 low-sample study); empty means
  /// use graph.train_idx.
  std::vector<int> train_override;
};

/// Everything the experiment harness needs from one training run.
struct TrainResult {
  EvalResult val;          ///< metrics at the best-validation epoch
  EvalResult test;         ///< test metrics at the best-validation epoch
  Matrix best_logits;      ///< full-graph logits at that epoch
  int epochs_run = 0;      ///< epochs until early stop (or max)
  /// Wall time of the run: every epoch, plus (mini-batch driver) the
  /// one-time batch assembly before the first one.
  double total_seconds = 0.0;
  double seconds_per_epoch = 0.0;
  /// Where total_seconds went (mini-batch driver only; read off the run's
  /// clock): the one-time batch assembly, then over every step the forward
  /// (BatchLoss), Backward() and the optimizer update, and over every epoch
  /// the validation. The rest is bookkeeping (epoch order, snapshots).
  double assembly_seconds = 0.0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double optimizer_seconds = 0.0;
  double validation_seconds = 0.0;
  std::vector<double> loss_history;
  /// Buffer-pool traffic of the optimisation steps (TensorArena-scoped):
  /// average pooled acquisitions per step and the fraction served without
  /// the heap allocator, over the whole run (cold first step included).
  double pool_acquires_per_step = 0.0;
  double pool_hit_rate = 0.0;
};

/// Trains `model` on its graph with early stopping on validation F1
/// (accuracy as tie-breaker). Test metrics are reported at the best
/// validation epoch, never tuned on test.
TrainResult TrainModel(Model* model, const TrainConfig& cfg);

/// A mini-batch training program: fixed batch composition, pure assembly,
/// per-batch loss and validation supplied by the implementation; epoch
/// order, optimisation and early stopping owned by TrainMiniBatch.
class MiniBatchProgram {
 public:
  virtual ~MiniBatchProgram() = default;

  /// Number of train batches; composition must be fixed across epochs.
  virtual int NumTrainBatches() const = 0;

  /// Assembles train batch `index`: a pure function of the index (no RNG).
  /// TrainMiniBatch calls it once per batch, before the first epoch.
  virtual SubgraphBatch AssembleTrainBatch(int index) const = 0;

  /// Visit order over [0, NumTrainBatches()) for this epoch, drawn before
  /// any batch of the epoch; this is where epoch shuffling consumes the
  /// program's RNG.
  virtual std::vector<int> EpochBatchOrder(int epoch) = 0;

  /// Loss (1x1) for one assembled batch, training mode.
  virtual Tensor BatchLoss(const SubgraphBatch& batch) = 0;

  /// Validation metrics at the current parameters.
  virtual EvalResult Validate() = 0;

  /// Trainable parameters (snapshotted/restored around the best epoch).
  virtual const std::vector<Tensor>& Parameters() const = 0;

  /// Optional human-readable tag for verbose logging.
  virtual std::string ProgramName() const { return "minibatch"; }
};

/// Drives mini-batch epochs over `program` with Adam and early stopping on
/// validation F1. The batches are assembled once, inside the run's timer,
/// and reused every epoch. Restores the best-epoch parameters before
/// returning. TrainResult.test/best_logits are left to the caller.
TrainResult TrainMiniBatch(MiniBatchProgram* program, const TrainConfig& cfg);

}  // namespace bsg
