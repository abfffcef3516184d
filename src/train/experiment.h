// Multi-seed experiment runners shared by the benchmark harness: each
// returns mean/std metrics in the paper's reporting style.
#pragma once

#include <string>
#include <vector>

#include "core/bsg4bot.h"
#include "models/model_factory.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace bsg {

/// Aggregated multi-seed outcome of one (model, dataset) cell.
struct ExperimentResult {
  MeanStd accuracy;       ///< test accuracy, percent
  MeanStd f1;             ///< test F1, percent
  double avg_epochs = 0.0;
  double avg_seconds = 0.0;
  double avg_seconds_per_epoch = 0.0;
};

/// Trains a named baseline for each seed; aggregates test metrics at the
/// best-validation epoch.
ExperimentResult RunBaseline(const std::string& model_name,
                             const HeteroGraph& graph, const ModelConfig& mc,
                             const TrainConfig& tc,
                             const std::vector<uint64_t>& seeds);

/// Trains BSG4Bot for each seed. `cfg.seed` is overwritten per run.
/// Total time per run includes the prepare phase (pre-training + subgraph
/// construction), matching how the paper accounts training cost.
ExperimentResult RunBsg4Bot(const HeteroGraph& graph, Bsg4BotConfig cfg,
                            const std::vector<uint64_t>& seeds);

/// Formats "mean(std)" with mean in percent, as in Table II; the mean
/// alone when fewer than two runs were made, since one run has no spread.
std::string FormatMeanStd(const MeanStd& ms);

}  // namespace bsg
