// `train`: the paper's runtime table. Set-up generates and featurizes the
// world; the timed window is Prepare() (pretraining + the all-node biased
// subgraph sweep) and Fit() for a fixed epoch count, followed by scoring the
// test split in train-width batches (the evaluation that yields test F1).
#include <cmath>
#include <algorithm>

#include "core/biased_subgraph.h"
#include "core/pretrain.h"
#include "core/subgraph_batch.h"
#include "harness.h"
#include "ppr/ppr_workspace.h"
#include "train/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Traced-mode replay of the training layers, each call spanned from here:
// PretrainClassifier, BuildAllSubgraphs, per-centre builds and PPR on a
// sample, and MakeSubgraphBatch + ScoreBatch per train-width batch.
void TraceTrainLayers(const Args& args, const Scale& scale,
                      const bsg::HeteroGraph& g, bsg::Bsg4Bot* model,
                      const SpeedProbe& probe, double prepare_s,
                      double epoch_wall_s, SpanLog* log, Report* report) {
  const bsg::Bsg4BotConfig& cfg = model->config();
  bsg::PretrainResult pre;
  const auto p0 = Clock::now();
  {
    Scoped s(log, "pretrain.fit");
    pre = bsg::PretrainClassifier(g, cfg.pretrain);
  }
  const std::vector<double> dots = bsg::RowSelfDots(pre.hidden_reps);
  std::vector<bsg::BiasedSubgraph> subs;
  {
    Scoped s(log, "subgraph.build_all");
    subs = bsg::BuildAllSubgraphs(g, pre.hidden_reps, cfg.subgraph, &dots);
  }
  const double traced_prepare_s = probe.RefSeconds(p0, Clock::now());
  const double pretrain_s = log->DurationsUs("pretrain.fit")[0] * 1e-6;
  const double build_all_s = log->DurationsUs("subgraph.build_all")[0] * 1e-6;

  // Per-centre build and PPR on a seeded sample of centres.
  bsg::Rng rng(args.seed ^ 0x7A11CE5ULL);
  bsg::SubgraphWorkspace ws;
  bsg::PprWorkspace ppr_ws;
  std::vector<double> build_us, select_us, ppr_us, support;
  for (int i = 0; i < scale.train_sample_centres; ++i) {
    const int c = static_cast<int>(rng.UniformInt(g.num_nodes));
    const int b = log->Begin("subgraph.build", -1, i);
    bsg::BiasedSubgraph sub =
        bsg::BuildBiasedSubgraph(g, pre.hidden_reps, c, cfg.subgraph, &ws,
                                 &dots);
    log->End(b);
    double centre_ppr_us = 0.0;
    for (int r = 0; r < g.num_relations(); ++r) {
      const int p = log->Begin("ppr.push", -1, i);
      const bsg::SparseVec& pv =
          ppr_ws.ApproximatePpr(g.relations[r], c, cfg.subgraph.ppr);
      log->End(p);
      ppr_us.push_back(log->DurationUs(p));
      support.push_back(static_cast<double>(pv.size()));
      centre_ppr_us += log->DurationUs(p);
    }
    build_us.push_back(log->DurationUs(b));
    select_us.push_back(log->DurationUs(b) - centre_ppr_us);
  }

  // Stacking + inference forward per train-width batch.
  std::vector<double> stack_us, fwd_ms;
  const std::vector<int>& train = g.train_idx;
  const size_t width = static_cast<size_t>(cfg.batch_size);
  int batches = 0;
  double root_us = 0.0, root_self_us = 0.0;
  for (size_t b = 0; b < train.size(); b += width, ++batches) {
    const int root = log->Begin("replay.batch", -1, batches);
    std::vector<int> centres(train.begin() + b,
                             train.begin() + std::min(train.size(), b + width));
    const int s = log->Begin("stack.batch", root, batches);
    bsg::SubgraphBatch batch =
        bsg::MakeSubgraphBatch(subs, centres, g.num_relations());
    log->End(s);
    const int f = log->Begin("forward.f64_batch", root, batches);
    bsg::Matrix logits = model->ScoreBatch(batch);
    log->End(f);
    log->End(root);
    stack_us.push_back(log->DurationUs(s));
    fwd_ms.push_back(log->DurationUs(f) * 1e-3);
    root_us += log->DurationUs(root);
    root_self_us += log->SelfUs(root);
  }

  report->Set("pretrain.fit_s", pretrain_s);
  report->Set("subgraph.build_all_s", build_all_s);
  report->Set("ppr.push_us", Median(ppr_us));
  report->Set("ppr.support", Mean(support));
  report->Set("subgraph.build_us", Median(build_us));
  report->Set("subgraph.select_self_us", Median(select_us));
  report->Set("stack.batch_us", Median(stack_us));
  report->Set("forward.f64_batch_ms", Median(fwd_ms));
  report->Set("train.forward_share",
              batches * Median(fwd_ms) * 1e-3 / epoch_wall_s);
  report->Set("trace.replayed_requests", batches);
  report->Set("trace.unattributed_frac", root_self_us / root_us);
  report->Check(root_self_us <= 0.05 * root_us,
                "trace: stage self times leave more than 5% of the replayed "
                "batch time unattributed");
  // Tracing overhead: the spanned re-run of Prepare's two phases against
  // the untraced Prepare() of the timed window, both in reference time.
  report->Set("trace.overhead_frac", traced_prepare_s / prepare_s - 1.0);
}

}  // namespace

void RunTrain(const Args& args, const Scale& scale, Report* report) {
  SpeedProbe probe;  // every thread of the program runs on its CPU
  bsg::SetNumThreads(scale.pool_threads);
  SpanLog log;

  // Set-up: generate + featurize, several times; setup_s is the median.
  World world;
  std::vector<double> setup_s, setup_wall_s, gen_s, feat_s;
  for (int rep = 0; rep < scale.train_setup_reps; ++rep) {
    world = World{};  // release the previous world before building the next
    const auto t0 = Clock::now();
    world = MakeWorld(scale);
    const auto t1 = Clock::now();
    setup_s.push_back(probe.RefSeconds(t0, t1));
    setup_wall_s.push_back(SecondsBetween(t0, t1));
    gen_s.push_back(world.generate_s);
    feat_s.push_back(world.build_graph_s);
  }
  const bsg::HeteroGraph& g = *world.graph;

  // Timed window: Prepare(), then Fit() for a fixed epoch count.
  bsg::Bsg4Bot model(g, ModelConfig(scale, scale.train_epochs, kModelSeed));
  const auto t0 = Clock::now();
  model.Prepare();
  const auto t1 = Clock::now();
  bsg::TrainResult res = model.Fit();
  const auto t2 = Clock::now();
  const double prepare_s = probe.RefSeconds(t0, t1);
  const double epoch_s = probe.RefSeconds(t1, t2) / scale.train_epochs;

  // Evaluation: score the test split in train-width batches, pass after
  // pass for --seconds (each batch a latency sample; throughput is every
  // scored account over the whole evaluation). Pass 0's logits must
  // reproduce Fit()'s test F1 bit for bit.
  const std::vector<int>& test = g.test_idx;
  const size_t width = static_cast<size_t>(model.config().batch_size);
  std::vector<std::pair<Clock::time_point, Clock::time_point>> batch_times;
  bsg::Matrix logits(static_cast<int>(test.size()), 2);
  const auto e0 = Clock::now();
  int passes = 0;
  do {
    for (size_t b = 0; b < test.size(); b += width) {
      std::vector<int> chunk(test.begin() + b,
                             test.begin() + std::min(test.size(), b + width));
      const auto c0 = Clock::now();
      bsg::Matrix out = model.PredictLogits(chunk);
      batch_times.emplace_back(c0, Clock::now());
      if (passes == 0) {
        for (int i = 0; i < out.rows(); ++i) {
          logits(static_cast<int>(b) + i, 0) = out(i, 0);
          logits(static_cast<int>(b) + i, 1) = out(i, 1);
        }
      }
    }
    ++passes;
  } while (SecondsBetween(e0, Clock::now()) < args.seconds);
  const auto e1 = Clock::now();
  const double scored =
      static_cast<double>(test.size()) * static_cast<double>(passes);
  std::vector<double> lat_ms, lat_wall_ms;
  for (const auto& [c0, c1] : batch_times) {
    lat_ms.push_back(probe.RefMs(c0, c1));
    lat_wall_ms.push_back(MsBetween(c0, c1));
  }

  // Output checks.
  bool finite = !res.loss_history.empty();
  for (double l : res.loss_history) finite = finite && std::isfinite(l);
  report->Check(finite, "train: loss history is empty or not finite");
  report->Check(res.epochs_run == scale.train_epochs,
                "train: Fit ran " + std::to_string(res.epochs_run) +
                    " epochs, expected " + std::to_string(scale.train_epochs));
  std::vector<int> labels(test.size()), all(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    labels[i] = g.labels[test[i]];
    all[i] = static_cast<int>(i);
  }
  const bsg::EvalResult eval = bsg::Evaluate(logits, labels, all);
  report->Check(eval.f1 == res.test.f1,
                "train: batched test-split scoring does not reproduce Fit()'s "
                "test F1 bit for bit");
  report->Check(res.test.f1 > 0.0, "train: test F1 is 0");
  report->attempted = lat_ms.size();

  report->Set("setup_s", Median(setup_s));
  report->Set("prepare_s", prepare_s);
  report->Set("epoch_s", epoch_s);
  report->Set("test_f1", res.test.f1);
  report->Set("targets_per_s", scored / probe.RefSeconds(e0, e1));
  report->Set("latency_p50_ms", Quantile(lat_ms, 0.5));
  report->Set("latency_p95_ms", Quantile(lat_ms, 0.95));
  report->Set("peak_rss_mb", PeakRssMb());
  report->Meta("wall.setup_s", Median(setup_wall_s));
  report->Meta("wall.prepare_s", SecondsBetween(t0, t1));
  report->Meta("wall.epoch_s", SecondsBetween(t1, t2) / scale.train_epochs);
  report->Meta("wall.targets_per_s", scored / SecondsBetween(e0, e1));
  report->Meta("wall.latency_p50_ms", Quantile(lat_wall_ms, 0.5));
  report->Meta("wall.latency_p95_ms", Quantile(lat_wall_ms, 0.95));
  report->Set("host.probe_us", probe.MedianProbeUs());
  report->Set("latency.samples", static_cast<double>(lat_ms.size()));
  report->Set("datagen.generate_s", Median(gen_s));
  report->Set("features.build_graph_s", Median(feat_s));
  report->Set("train.pool_hit_rate", res.pool_hit_rate);
  report->Meta("train_epochs", scale.train_epochs);
  StampMeta(args, scale, g, 0, report);
  if (!args.trace) return;

  TraceTrainLayers(args, scale, g, &model, probe, prepare_s,
                   SecondsBetween(t1, t2) / scale.train_epochs, &log, report);
  report->Check(log.Write(args.out_dir + "/spans-train.jsonl"),
                "train: cannot write the span file");
}

}  // namespace perfbench
