// End-to-end demo CLI: generate a synthetic benchmark graph, run the full
// BSG4Bot pipeline (pre-train -> biased subgraphs -> hetero-GNN), and print
// test metrics plus wall-clock time.
//
//   bsg4bot_demo [--dataset=twibot20|twibot22|mgtab] [--users=N]
//                [--threads=T] [--seed=S] [--k=K] [--lambda=L] [--verbose]
//
// --threads (or the BSG_NUM_THREADS env var) sets the thread count for the
// parallel substrate; results are bit-identical at any value. --verbose
// logs every epoch and prints where the training time went.
#include <cstdio>

#include "core/bsg4bot.h"
#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/timer.h"

using namespace bsg;

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: bsg4bot_demo [--dataset=twibot20|twibot22|mgtab] "
        "[--users=N] [--threads=T] [--seed=S] [--k=K] [--lambda=L] "
        "[--verbose]\n");
    return 0;
  }
  SetNumThreads(flags.GetInt("threads", 0));

  std::string name = flags.GetString("dataset", "twibot20");
  DatasetConfig dc = name == "twibot22"  ? Twibot22Sim()
                     : name == "mgtab"   ? MgtabSim()
                                         : Twibot20Sim();
  dc.num_users = flags.GetInt("users", 1000);
  dc.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));

  std::printf("dataset=%s users=%d threads=%d\n", name.c_str(), dc.num_users,
              NumThreads());

  WallTimer timer;
  HeteroGraph g = BuildBenchmarkGraph(dc);
  std::printf("graph built: %d nodes, %lld edges, %d relations (%s)\n",
              g.num_nodes, static_cast<long long>(g.TotalEdges()),
              g.num_relations(), FormatDuration(timer.Seconds()).c_str());

  Bsg4BotConfig cfg;
  cfg.subgraph.k = flags.GetInt("k", 32);
  cfg.subgraph.lambda = flags.GetDouble("lambda", 0.5);
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  cfg.verbose = flags.GetBool("verbose", false);
  timer.Restart();
  Bsg4Bot model(g, cfg);
  const TrainResult res = model.Fit();
  std::printf("BSG4Bot: accuracy=%.2f f1=%.2f epochs=%d total=%s\n",
              res.test.accuracy * 100.0, res.test.f1 * 100.0, res.epochs_run,
              FormatDuration(timer.Seconds()).c_str());
  if (cfg.verbose) {
    std::printf(
        "training %.3fs over %d epochs: assembly %.3fs, forward %.3fs, "
        "backward %.3fs, optimizer %.3fs, validation %.3fs\n",
        res.total_seconds, res.epochs_run, res.assembly_seconds,
        res.forward_seconds, res.backward_seconds, res.optimizer_seconds,
        res.validation_seconds);
  }
  return 0;
}
