#include "train/experiment.h"

#include "util/status.h"
#include "util/string_util.h"

namespace bsg {

ExperimentResult RunBaseline(const std::string& model_name,
                             const HeteroGraph& graph, const ModelConfig& mc,
                             const TrainConfig& tc,
                             const std::vector<uint64_t>& seeds) {
  std::vector<double> accs, f1s;
  ExperimentResult out;
  for (uint64_t seed : seeds) {
    std::unique_ptr<Model> model = CreateModel(model_name, graph, mc, seed);
    BSG_CHECK(model != nullptr, "unknown model name");
    TrainResult res = TrainModel(model.get(), tc);
    accs.push_back(res.test.accuracy * 100.0);
    f1s.push_back(res.test.f1 * 100.0);
    out.avg_epochs += res.epochs_run;
    out.avg_seconds += res.total_seconds;
    out.avg_seconds_per_epoch += res.seconds_per_epoch;
  }
  double n = static_cast<double>(seeds.size());
  out.accuracy = ComputeMeanStd(accs);
  out.f1 = ComputeMeanStd(f1s);
  out.avg_epochs /= n;
  out.avg_seconds /= n;
  out.avg_seconds_per_epoch /= n;
  return out;
}

ExperimentResult RunBsg4Bot(const HeteroGraph& graph, Bsg4BotConfig cfg,
                            const std::vector<uint64_t>& seeds) {
  std::vector<double> accs, f1s;
  ExperimentResult out;
  for (uint64_t seed : seeds) {
    cfg.seed = seed;
    Bsg4Bot model(graph, cfg);
    TrainResult res = model.Fit();
    accs.push_back(res.test.accuracy * 100.0);
    f1s.push_back(res.test.f1 * 100.0);
    out.avg_epochs += res.epochs_run;
    out.avg_seconds += res.total_seconds + model.prepare_seconds();
    out.avg_seconds_per_epoch += res.seconds_per_epoch;
  }
  double n = static_cast<double>(seeds.size());
  out.accuracy = ComputeMeanStd(accs);
  out.f1 = ComputeMeanStd(f1s);
  out.avg_epochs /= n;
  out.avg_seconds /= n;
  out.avg_seconds_per_epoch /= n;
  return out;
}

std::string FormatMeanStd(const MeanStd& ms) {
  if (ms.count < 2) return StrFormat("%.2f", ms.mean);
  return StrFormat("%.2f(%.1f)", ms.mean, ms.std);
}

}  // namespace bsg
