// Shared configuration for the experiment harness: scaled-down benchmark
// presets and the common hyperparameters used by every table/figure bench.
//
// Sizes are chosen so the full suite (`for b in build/bench/*; do $b; done`)
// completes in minutes on one CPU while preserving the paper's relative
// comparisons.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/bsg4bot.h"
#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "train/experiment.h"
#include "util/string_util.h"

namespace bsg::bench {

inline DatasetConfig BenchTwibot20() {
  DatasetConfig cfg = Twibot20Sim();
  cfg.num_users = 1800;
  cfg.tweets_per_user = 16;
  return cfg;
}

inline DatasetConfig BenchTwibot22() {
  DatasetConfig cfg = Twibot22Sim();
  cfg.num_users = 3000;
  cfg.tweets_per_user = 16;
  return cfg;
}

inline DatasetConfig BenchMgtab() {
  DatasetConfig cfg = MgtabSim();
  cfg.num_users = 1600;
  cfg.tweets_per_user = 16;
  return cfg;
}

/// Builds (and caches per-process) the three benchmark graphs.
inline const HeteroGraph& Graph20() {
  static const HeteroGraph* g =
      new HeteroGraph(BuildBenchmarkGraph(BenchTwibot20()));
  return *g;
}
inline const HeteroGraph& Graph22() {
  static const HeteroGraph* g =
      new HeteroGraph(BuildBenchmarkGraph(BenchTwibot22()));
  return *g;
}
inline const HeteroGraph& GraphMgtab() {
  static const HeteroGraph* g =
      new HeteroGraph(BuildBenchmarkGraph(BenchMgtab()));
  return *g;
}

inline ModelConfig BenchModelConfig() {
  ModelConfig mc;
  mc.hidden = 32;
  return mc;
}

inline TrainConfig BenchTrainConfig() {
  TrainConfig tc;
  tc.max_epochs = 120;
  tc.min_epochs = 60;   // full-graph GNNs break out of their plateau late
  tc.patience = 15;
  return tc;
}

inline Bsg4BotConfig BenchBsgConfig() {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 60;
  cfg.pretrain.hidden = 32;
  cfg.subgraph.k = 32;
  cfg.hidden = 32;
  cfg.dropout = 0.25;
  cfg.max_epochs = 80;
  cfg.min_epochs = 30;
  cfg.patience = 12;
  return cfg;
}

/// Seeds for mean(std) aggregation. The paper averages 5 runs; the harness
/// uses a single seed so the whole suite stays within minutes on one CPU
/// core — raise for tighter confidence intervals.
inline std::vector<uint64_t> BenchSeeds() { return {17}; }

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

}  // namespace bsg::bench
