#include "train/trainer.h"

#include "tensor/optim.h"
#include "util/buffer_pool.h"
#include "util/logging.h"
#include "util/timer.h"

namespace bsg {

namespace {

// Per-epoch bookkeeping shared by both drivers: loss history, the
// early-stopping score (val F1 with accuracy as tie-break), patience and
// the verbose log line. Keeping it in one place keeps the two loops'
// model-selection behaviour from diverging.
class EpochTracker {
 public:
  explicit EpochTracker(const TrainConfig& cfg) : cfg_(cfg) {}

  /// Records one epoch; returns true when it is the new best (callers
  /// snapshot whatever "best" means for them — logits or parameters).
  bool Record(const std::string& tag, int epoch, double epoch_loss,
              const EvalResult& val, TrainResult* res) {
    res->loss_history.push_back(epoch_loss);
    res->epochs_run = epoch + 1;
    double score = val.f1 + 1e-6 * val.accuracy;
    bool improved = score > best_score_;
    if (improved) {
      best_score_ = score;
      since_best_ = 0;
      res->val = val;
    } else {
      ++since_best_;
    }
    if (cfg_.verbose) {
      BSG_LOG_INFO("[%s] epoch %d loss %.4f val acc %.4f f1 %.4f",
                   tag.c_str(), epoch, epoch_loss, val.accuracy, val.f1);
    }
    return improved;
  }

  bool ShouldStop(int epoch) const {
    return epoch + 1 >= cfg_.min_epochs && since_best_ >= cfg_.patience;
  }

 private:
  const TrainConfig& cfg_;
  double best_score_ = -1.0;
  int since_best_ = 0;
};

void FinalizeTiming(const WallTimer& timer, TrainResult* res) {
  res->total_seconds = timer.Seconds();
  res->seconds_per_epoch =
      res->epochs_run > 0 ? res->total_seconds / res->epochs_run : 0.0;
}

// Accumulates the TensorArena deltas of every optimisation step so the run
// reports its allocations/step and pool hit rate (the bench JSON and the
// allocation-regression test read these). The deltas come from the global
// pool counters, so they are exact only while nothing outside the step
// allocates pooled storage at the same time. That holds during training:
// the pool workers a step fans out to finish inside the step, and batch
// assembly runs before the first step.
struct StepPoolStats {
  uint64_t acquires = 0;
  uint64_t hits = 0;
  int64_t steps = 0;

  void Absorb(const TensorArena& arena) {
    acquires += arena.acquires();
    hits += arena.hits();
    ++steps;
  }
  void Finalize(TrainResult* res) const {
    res->pool_acquires_per_step =
        steps > 0 ? static_cast<double>(acquires) / steps : 0.0;
    res->pool_hit_rate =
        acquires > 0 ? static_cast<double>(hits) / acquires : 0.0;
  }
};

}  // namespace

TrainResult TrainModel(Model* model, const TrainConfig& cfg) {
  const HeteroGraph& g = model->graph();
  const std::vector<int>& train_idx =
      cfg.train_override.empty() ? g.train_idx : cfg.train_override;
  BSG_CHECK(!train_idx.empty(), "empty training set");
  BSG_CHECK(!g.val_idx.empty(), "empty validation set");

  Adam optimizer(model->Parameters(), cfg.lr, cfg.weight_decay);
  TrainResult res;
  EpochTracker tracker(cfg);

  WallTimer total_timer;
  StepPoolStats pool_stats;
  for (int epoch = 0; epoch < cfg.max_epochs; ++epoch) {
    model->OnEpochStart();
    double epoch_loss = 0.0;
    std::vector<Tensor> losses = model->BuildEpochLosses(train_idx);
    for (Tensor& loss : losses) {
      // Arena-scoped step: the backward pass and optimiser run inside one
      // TensorArena, and dropping the loss graph at the end of the loop
      // body returns every transient slab to the pool for the next step.
      TensorArena arena;
      Backward(loss);
      optimizer.Step();
      epoch_loss += loss->value(0, 0);
      loss = nullptr;  // release the step's graph (and its slabs) eagerly
      pool_stats.Absorb(arena);
    }
    if (!losses.empty()) epoch_loss /= static_cast<double>(losses.size());

    // Validation.
    Tensor logits = model->Forward(/*training=*/false);
    EvalResult val = Evaluate(logits->value, g.labels, g.val_idx);
    if (tracker.Record(model->name(), epoch, epoch_loss, val, &res)) {
      res.best_logits = logits->value;
    }
    if (tracker.ShouldStop(epoch)) break;
  }
  FinalizeTiming(total_timer, &res);
  pool_stats.Finalize(&res);
  if (!g.test_idx.empty()) {
    res.test = Evaluate(res.best_logits, g.labels, g.test_idx);
  }
  return res;
}

TrainResult TrainMiniBatch(MiniBatchProgram* program, const TrainConfig& cfg) {
  BSG_CHECK(program != nullptr, "null mini-batch program");
  // The training-set override knob belongs to the full-graph driver; batch
  // composition is the program's job, so silently ignoring it would be a
  // trap (e.g. a low-sample study that secretly trains on everything).
  BSG_CHECK(cfg.train_override.empty(),
            "train_override is not supported by the mini-batch driver");
  const int num_batches = program->NumTrainBatches();
  BSG_CHECK(num_batches > 0, "program has no train batches");

  Adam optimizer(program->Parameters(), cfg.lr, cfg.weight_decay);
  TrainResult res;
  EpochTracker tracker(cfg);
  std::vector<Matrix> best_params;

  // The batch composition is fixed, so each batch is assembled once and
  // reused every epoch. The assembly runs inside the timer: it is part of
  // what training costs.
  // `lap` reads the run's clock and charges the time since the previous
  // read to one of TrainResult's seconds.
  WallTimer total_timer;
  double last_read = 0.0;
  const auto lap = [&](double* seconds) {
    const double now = total_timer.Seconds();
    *seconds += now - last_read;
    last_read = now;
  };
  std::vector<SubgraphBatch> batches;
  batches.reserve(num_batches);
  for (int i = 0; i < num_batches; ++i) {
    batches.push_back(program->AssembleTrainBatch(i));
  }
  lap(&res.assembly_seconds);

  StepPoolStats pool_stats;
  double bookkeeping_seconds = 0.0;
  for (int epoch = 0; epoch < cfg.max_epochs; ++epoch) {
    const std::vector<int> order = program->EpochBatchOrder(epoch);
    BSG_CHECK(static_cast<int>(order.size()) == num_batches,
              "epoch order length mismatch");

    double epoch_loss = 0.0;
    for (int bi : order) {
      // Arena-scoped step: forward, backward and the optimiser update all
      // allocate inside one TensorArena; when `loss` goes out of scope the
      // whole batch graph returns its slabs, so a warm step runs almost
      // entirely on pool hits. Releasing the graph is charged to the
      // backward.
      TensorArena arena;
      lap(&bookkeeping_seconds);
      {
        Tensor loss = program->BatchLoss(batches[bi]);
        lap(&res.forward_seconds);
        Backward(loss);
        lap(&res.backward_seconds);
        optimizer.Step();
        lap(&res.optimizer_seconds);
        epoch_loss += loss->value(0, 0);
      }
      lap(&res.backward_seconds);
      pool_stats.Absorb(arena);
    }
    epoch_loss /= num_batches;

    lap(&bookkeeping_seconds);
    EvalResult val = program->Validate();
    lap(&res.validation_seconds);
    if (tracker.Record(program->ProgramName(), epoch, epoch_loss, val,
                       &res)) {
      best_params.clear();
      for (const Tensor& p : program->Parameters()) {
        best_params.push_back(p->value);
      }
    }
    if (tracker.ShouldStop(epoch)) break;
  }
  FinalizeTiming(total_timer, &res);
  pool_stats.Finalize(&res);

  if (!best_params.empty()) {
    const std::vector<Tensor>& params = program->Parameters();
    BSG_CHECK(best_params.size() == params.size(), "snapshot mismatch");
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_params[i];
    }
  }
  return res;
}

}  // namespace bsg
