// Table II: Accuracy and F1 of all competitors on the three benchmarks.
//
// Expected shape (paper): BSG4Bot best on all three; MLP beats GCN;
// heterophily-aware baselines (H2GCN, GPR-GNN) beat plain GNNs.
#include "bench_common.h"

using namespace bsg;
using namespace bsg::bench;

int main() {
  PrintHeader("Table II: Accuracy / F1 of competitors on three benchmarks");
  const std::vector<const HeteroGraph*> graphs = {&Graph20(), &Graph22(),
                                                  &GraphMgtab()};
  ModelConfig mc = BenchModelConfig();
  TrainConfig tc = BenchTrainConfig();
  std::vector<uint64_t> seeds = BenchSeeds();

  TablePrinter t({"Model", "tw20 Acc", "tw20 F1", "tw22 Acc", "tw22 F1",
                  "mgtab Acc", "mgtab F1"});
  for (const std::string& name : BaselineModelNames()) {
    std::vector<std::string> row = {name};
    for (const HeteroGraph* g : graphs) {
      ExperimentResult r = RunBaseline(name, *g, mc, tc, seeds);
      row.push_back(FormatMeanStd(r.accuracy));
      row.push_back(FormatMeanStd(r.f1));
    }
    t.AddRow(row);
    std::fprintf(stderr, "  done: %s\n", name.c_str());
  }
  {
    std::vector<std::string> row = {"BSG4Bot (Ours)"};
    for (const HeteroGraph* g : graphs) {
      ExperimentResult r = RunBsg4Bot(*g, BenchBsgConfig(), seeds);
      row.push_back(FormatMeanStd(r.accuracy));
      row.push_back(FormatMeanStd(r.f1));
    }
    t.AddRow(row);
  }
  std::printf("%s\n", t.ToString().c_str());
  std::printf(
      "Shape to verify against the paper: BSG4Bot's F1 "
      "towers over the\nclassic GNN/sampling baselines on the imbalanced "
      "TwiBot-22 simulant; MLP > GCN/GAT there\n(mixed-pattern penalty). "
      "Known simulant deviation: the relation-aware full-graph models\n"
      "(BotRGCN/BotMoE) exceed BSG4Bot here because the synthetic edge "
      "process is cleaner than\ncrawled Twitter.\n");
  return 0;
}
