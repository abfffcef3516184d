// Online serving driver: persist a trained detector, then answer score
// requests from a checkpoint — no retraining, no precomputed subgraph
// store.
//
// Train a tiny model and save a checkpoint (also emits the in-memory
// model's scores for the test split, the oracle for the serve smoke diff):
//
//   ./build/examples/serve_cli --train --ckpt=/tmp/bot.ckpt \
//       --dataset=twibot20 --users=400 --epochs=8 \
//       --score-out=/tmp/train_scores.jsonl
//
// Serve from the checkpoint (the dataset provenance saved inside it
// regenerates the identical graph; scores are bit-identical to the
// in-memory model's):
//
//   ./build/examples/serve_cli --ckpt=/tmp/bot.ckpt \
//       --score-out=/tmp/serve_scores.jsonl            # test split
//   echo "17" | ./build/examples/serve_cli --ckpt=/tmp/bot.ckpt -
//   ./build/examples/serve_cli --ckpt=/tmp/bot.ckpt --ids=3,17,255
//
// Output is JSON lines: one {"id","bot_prob","label","precision","logits"}
// object per scored account. --stats prints one metrics-registry snapshot
// to stderr as JSON (the --metrics-out JSON without traces: every gauge
// and histogram quantile) plus the request/target conservation line, and
// exits 1 when conservation fails. --metrics-out exports the same registry
// as Prometheus text + a JSON sibling, --trace-sample=N records a pipeline
// trace (queue wait, cache probe, build, stack, forward, ...) for every
// Nth request into the JSON export.
// --precision=f32 serves through the model's float shadow (vectorized
// mixed-precision path); the default f64 stays bit-identical to training.
//
// Every request goes through the ServingFrontend with --workers=N threads
// (default 1; bounded queue via --queue-cap, latency shedding via
// --shed-p95-ms). The target list is split into engine-width chunks — the
// compositions training's PredictLogits scores — so logits are
// bit-identical at any worker count (the CI smoke diffs --workers=4
// against --workers=1). --swap-demo exercises the hot-swap path: a SIGHUP
// handler restores a standby model from the same checkpoint and
// SwapModel()s to it mid-serve (the demo raises the signal itself; `kill
// -HUP` lands the same way), then verifies the purge counters and
// post-swap bit-identity.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/bsg4bot.h"
#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "io/checkpoint.h"
#include "obs/adapters.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/frontend.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/resource_governor.h"
#include "util/string_util.h"

using namespace bsg;

namespace {

// Set by the SIGHUP handler, polled by the serve path: the operator's
// "new graph snapshot is ready" signal.
volatile std::sig_atomic_t g_swap_requested = 0;

void OnSigHup(int) { g_swap_requested = 1; }

void PrintUsage() {
  std::printf(
      "serve_cli — online bot-detection serving from a model checkpoint\n"
      "  --ckpt=PATH           checkpoint to write (--train) or serve from\n"
      "  --train               train a model and save the checkpoint\n"
      "  --dataset=NAME --users=N --data-seed=S   dataset (train mode;\n"
      "                        serve mode reads provenance from the ckpt)\n"
      "  --epochs=N --k=N --hidden=N --seed=N     training knobs\n"
      "  --ids=1,2,3 | --ids-file=PATH | -        accounts to score\n"
      "                        (default: the test split)\n"
      "  --single              score one account per forward pass\n"
      "  --precision=f64|f32   serving arithmetic (default f64, the\n"
      "                        bit-exact oracle; f32 is the vectorized\n"
      "                        mixed-precision path)\n"
      "  --cache-capacity=N    max cached subgraphs (default 4096)\n"
      "  --mem-budget-mb=N     process-wide governor byte budget in MiB\n"
      "                        (0 = unconstrained counting; soft pressure\n"
      "                        reclaims pools/caches, the hard watermark\n"
      "                        sheds admission with kResourceExhausted)\n"
      "  --cache-budget-mb=N   subgraph-cache resident-byte cap in MiB\n"
      "                        (0 = entry-count cap only)\n"
      "  --cache-admit-cost-us=X   w_small admission threshold: under byte\n"
      "                        pressure, builds cheaper than X us per KiB\n"
      "                        are served but not cached (0 = admit all)\n"
      "  --workers=N           front-end worker threads (default 1, >= 1;\n"
      "                        logits are bit-identical at any count)\n"
      "  --queue-cap=N         bounded request queue depth (default 256);\n"
      "                        at most N requests are in flight at once\n"
      "  --shed-p95-ms=X       latency budget: shed when the estimated\n"
      "                        queueing delay exceeds X ms (0 = off)\n"
      "  --deadline-ms=X       per-request deadline in ms (0 = none);\n"
      "                        expired requests resolve kTimeout\n"
      "  --max-retries=N       retries for retryable engine failures\n"
      "                        (jittered exponential backoff; default 0)\n"
      "  --fault-spec=SPEC     arm deterministic fault injection, e.g.\n"
      "                        'engine.forward:p=0.1;ckpt.read.open:nth=1'\n"
      "                        (see src/util/fault.h for the grammar)\n"
      "  --fault-seed=S        seed for probabilistic fault triggers\n"
      "  --swap-demo           hot-swap on SIGHUP: restore a standby model\n"
      "                        from the same checkpoint, SwapModel() to it,\n"
      "                        verify the stale-version purge + bit-identity\n"
      "  --score-out=PATH      write JSON lines here instead of stdout\n"
      "  --metrics-out=PATH    export the metrics registry to PATH\n"
      "                        (Prometheus text) and PATH.json (JSON with\n"
      "                        sampled traces), atomically\n"
      "  --metrics-interval-ms=X   also re-export every X ms from a\n"
      "                        background thread (0 = only the final dump)\n"
      "  --trace-sample=N      record a pipeline trace for every Nth\n"
      "                        front-end request (0 = off; 1 = all)\n"
      "  --stats               one metrics-registry snapshot to stderr as\n"
      "                        JSON, then the conservation check (exit 1\n"
      "                        when it fails)\n");
}

// One scored account as a JSON line. %.17g on the logits round-trips the
// doubles, so diffing two of these files IS a bitwise logit comparison.
// Train mode (PredictLogits) and serve mode both print through here, so
// bot_prob and label are derived from the logits the same way.
void PrintScore(std::FILE* out, int id, double logit_human, double logit_bot,
                const char* precision) {
  const double m = logit_human > logit_bot ? logit_human : logit_bot;
  const double eh = std::exp(logit_human - m);
  const double eb = std::exp(logit_bot - m);
  std::fprintf(out,
               "{\"id\":%d,\"bot_prob\":%.6f,\"label\":%d,"
               "\"precision\":\"%s\",\"logits\":[%.17g,%.17g]}\n",
               id, eb / (eh + eb), logit_bot > logit_human ? 1 : 0, precision,
               logit_human, logit_bot);
}

// Accounts to score: --ids, --ids-file, "-" (stdin, one id per line), else
// the test split. Every id must be one whole integer (ParseInt) in
// [0, num_nodes); the first bad one fails the whole list, named.
Result<std::vector<int>> ResolveTargets(const FlagParser& flags,
                                        const HeteroGraph& graph) {
  std::vector<int> ids;
  const int num_nodes = graph.num_nodes;
  const auto add = [&ids, num_nodes](const std::string& token,
                                     const std::string& where) -> Status {
    Result<int> id = ParseInt(token);
    if (!id.ok()) {
      return Status::InvalidArgument("bad account id in " + where + ": " +
                                     id.status().message());
    }
    if (id.ValueOrDie() < 0 || id.ValueOrDie() >= num_nodes) {
      return Status::OutOfRange("account id " + token + " in " + where +
                                " out of range [0, " +
                                std::to_string(num_nodes) + ")");
    }
    ids.push_back(id.ValueOrDie());
    return Status::OK();
  };
  if (flags.Has("ids")) {
    for (const std::string& tok :
         SplitString(flags.GetString("ids", ""), ',')) {
      if (!tok.empty()) BSG_RETURN_NOT_OK(add(tok, "--ids"));
    }
    return ids;
  }
  const bool from_stdin = !flags.positional().empty() &&
                          flags.positional().front() == "-";
  if (!flags.Has("ids-file") && !from_stdin) return graph.test_idx;
  const std::string path = flags.GetString("ids-file", "");
  std::ifstream file;
  if (!from_stdin) {
    file.open(path);
    if (!file) return Status::NotFound("cannot open ids file '" + path + "'");
  }
  std::istream& in = from_stdin ? std::cin : file;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back()))) {
      line.pop_back();
    }
    if (line.empty()) continue;
    BSG_RETURN_NOT_OK(add(line, (from_stdin ? std::string("stdin") : path) +
                                    " line " + std::to_string(line_no)));
  }
  return ids;
}

// The pipeline's fitted normalisation state, persisted so a serving
// process can featurise new accounts exactly as training did.
Matrix RowVector(const std::vector<double>& v) {
  Matrix m(1, static_cast<int>(v.size()));
  for (size_t i = 0; i < v.size(); ++i) m(0, static_cast<int>(i)) = v[i];
  return m;
}

void AddScaler(Checkpoint* ckpt, const std::string& prefix,
               const ZScoreScaler& scaler) {
  ckpt->AddTensor(prefix + ".means", RowVector(scaler.means()));
  ckpt->AddTensor(prefix + ".stddevs", RowVector(scaler.stddevs()));
}

bool SameRowVector(const Matrix& a, const std::vector<double>& b) {
  if (a.rows() != 1 || static_cast<size_t>(a.cols()) != b.size()) return false;
  for (size_t i = 0; i < b.size(); ++i) {
    if (std::memcmp(&b[i], a.data() + i, sizeof(double)) != 0) return false;
  }
  return true;
}

bool VerifyScaler(const Checkpoint& ckpt, const std::string& prefix,
                  const ZScoreScaler& scaler) {
  const Matrix* means = ckpt.FindTensor(prefix + ".means");
  const Matrix* stddevs = ckpt.FindTensor(prefix + ".stddevs");
  return means != nullptr && stddevs != nullptr &&
         SameRowVector(*means, scaler.means()) &&
         SameRowVector(*stddevs, scaler.stddevs());
}

// Per-outcome tally of front-end requests that did not resolve kOk. These
// go to stderr only — the stdout JSON contract stays byte-identical on the
// fault-free path.
struct NonOkTally {
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  uint64_t Total() const { return shed + timed_out + failed + degraded; }

  void Report() const {
    if (Total() == 0) return;
    std::fprintf(stderr,
                 "front-end resolved %llu request(s) without fresh scores: "
                 "%llu shed, %llu timed out, %llu failed, %llu degraded\n",
                 static_cast<unsigned long long>(Total()),
                 static_cast<unsigned long long>(shed),
                 static_cast<unsigned long long>(timed_out),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(degraded));
  }
};

// Scores through the front-end, splitting the target list into
// engine-width chunks so every request carries the batch composition
// training's PredictLogits scores — that is what keeps logits bit-identical
// across worker counts. At most `max_in_flight` requests are outstanding:
// the oldest is awaited before another is submitted, so a list longer than
// the queue is never shed for a full queue. Non-kOk requests are tallied,
// not silently skipped; degraded (stale/fallback) scores are NOT merged into
// the fresh results, so the emitted JSON only ever carries model answers.
std::vector<Score> ScoreThroughFrontend(ServingFrontend* frontend, int width,
                                        size_t max_in_flight,
                                        const std::vector<int>& targets,
                                        bool single, NonOkTally* tally) {
  std::vector<Score> scores;
  scores.reserve(targets.size());
  std::deque<std::future<FrontendResult>> in_flight;
  const auto await_oldest = [&] {
    FrontendResult res = in_flight.front().get();
    in_flight.pop_front();
    switch (res.status) {
      case RequestStatus::kOk:
        scores.insert(scores.end(), res.scores.begin(), res.scores.end());
        break;
      case RequestStatus::kShed:
      case RequestStatus::kClosed:
        ++tally->shed;
        break;
      case RequestStatus::kTimeout:
        ++tally->timed_out;
        break;
      case RequestStatus::kFailed:
        std::fprintf(stderr, "request failed: %s\n",
                     res.detail.ToString().c_str());
        ++tally->failed;
        break;
      case RequestStatus::kDegraded:
        ++tally->degraded;
        break;
    }
  };
  const size_t step = single ? 1 : static_cast<size_t>(width);
  for (size_t b = 0; b < targets.size(); b += step) {
    if (in_flight.size() >= max_in_flight) await_oldest();
    in_flight.push_back(
        single ? frontend->SubmitOne(targets[b])
               : frontend->Submit(std::vector<int>(
                     targets.begin() + b,
                     targets.begin() + std::min(targets.size(), b + step))));
  }
  while (!in_flight.empty()) await_oldest();
  return scores;
}

bool SameLogits(const std::vector<Score>& a, const std::vector<Score>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].logit_human, &b[i].logit_human, sizeof(double)) !=
            0 ||
        std::memcmp(&a[i].logit_bot, &b[i].logit_bot, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

int TrainAndSave(const FlagParser& flags, const std::string& ckpt_path) {
  const std::string preset = flags.GetString("dataset", "twibot20");
  Result<DatasetConfig> dc = DatasetPreset(preset);
  if (!dc.ok()) {
    std::fprintf(stderr, "%s\n", dc.status().ToString().c_str());
    return 1;
  }
  DatasetConfig data_cfg = dc.MoveValueOrDie();
  data_cfg.num_users = flags.GetInt("users", 400);
  data_cfg.tweets_per_user = flags.GetInt("tweets", 12);
  data_cfg.seed = static_cast<uint64_t>(
      flags.GetInt("data-seed", static_cast<int>(data_cfg.seed)));
  FeatureReport report;
  HeteroGraph graph = BuildBenchmarkGraph(data_cfg, &report);

  Bsg4BotConfig cfg;
  cfg.subgraph.k = flags.GetInt("k", 16);
  cfg.hidden = flags.GetInt("hidden", 16);
  cfg.pretrain.epochs = flags.GetInt("pretrain-epochs", 20);
  cfg.max_epochs = flags.GetInt("epochs", 8);
  cfg.min_epochs = cfg.max_epochs;
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  Bsg4Bot model(graph, cfg);
  TrainResult res = model.Fit();
  std::fprintf(stderr, "trained: %d epochs, test acc %.4f f1 %.4f\n",
               res.epochs_run, res.test.accuracy, res.test.f1);

  // Compose the checkpoint: model state + dataset provenance (so serving
  // can regenerate the identical graph) + pipeline normalisation state.
  Checkpoint ckpt;
  model.ExportCheckpoint(&ckpt);
  ckpt.SetMeta("data.preset", preset);
  ckpt.SetMetaNum("data.users", data_cfg.num_users);
  ckpt.SetMetaNum("data.tweets_per_user", data_cfg.tweets_per_user);
  ckpt.SetMetaNum("data.seed", static_cast<double>(data_cfg.seed));
  AddScaler(&ckpt, "pipeline.num", report.num_scaler);
  AddScaler(&ckpt, "pipeline.count", report.count_scaler);
  Status st = SaveCheckpoint(ckpt, ckpt_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "checkpoint written to %s\n", ckpt_path.c_str());

  // Emit the in-memory model's scores — the oracle the serve path must
  // reproduce bit-for-bit.
  Result<std::vector<int>> resolved = ResolveTargets(flags, graph);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 1;
  }
  const std::vector<int>& targets = resolved.ValueOrDie();
  std::FILE* out = stdout;
  if (flags.Has("score-out")) {
    out = std::fopen(flags.GetString("score-out", "").c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open score-out\n");
      return 1;
    }
  }
  Matrix logits = model.PredictLogits(targets);
  for (size_t i = 0; i < targets.size(); ++i) {
    // PredictLogits is the f64 oracle by definition.
    PrintScore(out, targets[i], logits(static_cast<int>(i), 0),
               logits(static_cast<int>(i), 1), "f64");
  }
  if (out != stdout) std::fclose(out);
  return 0;
}

int Serve(const FlagParser& flags, const std::string& ckpt_path) {
  // Arm fault injection before the checkpoint load so the ckpt.read.*
  // sites cover it too.
  if (flags.Has("fault-spec")) {
    Status armed = FaultInjector::Global().Configure(
        flags.GetString("fault-spec", ""),
        static_cast<uint64_t>(flags.GetInt("fault-seed", 0)));
    if (!armed.ok()) {
      std::fprintf(stderr, "bad --fault-spec: %s\n",
                   armed.ToString().c_str());
      return 1;
    }
  }
  Result<Checkpoint> loaded = LoadCheckpoint(ckpt_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const Checkpoint& ckpt = loaded.ValueOrDie();

  // Regenerate the graph from the provenance stored at save time.
  const std::string* preset = ckpt.FindMeta("data.preset");
  if (preset == nullptr) {
    std::fprintf(stderr,
                 "checkpoint has no dataset provenance (data.* metadata)\n");
    return 1;
  }
  Result<DatasetConfig> dc = DatasetPreset(*preset);
  if (!dc.ok()) {
    std::fprintf(stderr, "%s\n", dc.status().ToString().c_str());
    return 1;
  }
  DatasetConfig data_cfg = dc.MoveValueOrDie();
  Result<double> users = ckpt.MetaNum("data.users");
  Result<double> tweets = ckpt.MetaNum("data.tweets_per_user");
  Result<double> data_seed = ckpt.MetaNum("data.seed");
  for (const Result<double>* r : {&users, &tweets, &data_seed}) {
    if (!r->ok()) {
      std::fprintf(stderr, "bad dataset provenance: %s\n",
                   r->status().ToString().c_str());
      return 1;
    }
  }
  data_cfg.num_users = static_cast<int>(users.ValueOrDie());
  data_cfg.tweets_per_user = static_cast<int>(tweets.ValueOrDie());
  data_cfg.seed = static_cast<uint64_t>(data_seed.ValueOrDie());
  FeatureReport report;
  HeteroGraph graph = BuildBenchmarkGraph(data_cfg, &report);

  // The regenerated pipeline must carry the exact normalisation the model
  // was trained on — a mismatch means the features drifted.
  if (!VerifyScaler(ckpt, "pipeline.num", report.num_scaler) ||
      !VerifyScaler(ckpt, "pipeline.count", report.count_scaler)) {
    std::fprintf(stderr,
                 "feature-pipeline normalisation state does not match the "
                 "checkpoint\n");
    return 1;
  }

  // Construct the architecture the checkpoint describes, then restore.
  Result<Bsg4BotConfig> cfg = Bsg4Bot::CheckpointConfig(ckpt);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    return 1;
  }
  Bsg4Bot model(graph, cfg.MoveValueOrDie());
  Status st = model.RestoreFromCheckpoint(ckpt);
  if (!st.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::string precision = flags.GetString("precision", "f64");
  if (precision != "f64" && precision != "f32") {
    std::fprintf(stderr, "bad --precision '%s' (want f64 or f32)\n",
                 precision.c_str());
    return 1;
  }

  // Memory governance: arm the process-wide budget before the engine is
  // built so its cache registrations (and the startup pool trim) run under
  // the armed watermarks.
  const double mem_budget_mb = flags.GetDouble("mem-budget-mb", 0.0);
  const double cache_budget_mb = flags.GetDouble("cache-budget-mb", 0.0);
  const double cache_admit_cost_us =
      flags.GetDouble("cache-admit-cost-us", 0.0);
  if (mem_budget_mb < 0.0 || cache_budget_mb < 0.0 ||
      cache_admit_cost_us < 0.0) {
    std::fprintf(stderr, "memory-governance flags must be >= 0\n");
    return 1;
  }
  if (mem_budget_mb > 0.0) {
    ResourceGovernor::Global().SetBudget(
        static_cast<uint64_t>(mem_budget_mb * (1 << 20)));
  }

  EngineConfig ecfg;
  ecfg.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache-capacity", 4096));
  ecfg.cache_byte_budget =
      static_cast<size_t>(cache_budget_mb * (1 << 20));
  ecfg.cache_admit_cost_us = cache_admit_cost_us;
  ecfg.precision = precision == "f32" ? EngineConfig::Precision::kF32
                                      : EngineConfig::Precision::kF64;
  DetectionEngine engine(&model, ecfg);
  // The hot-swap demo's standby model: declared before the front-end so it
  // outlives the workers that may be scoring through it.
  std::unique_ptr<Bsg4Bot> standby;

  const int workers = flags.GetInt("workers", 1);
  if (workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return 1;
  }
  const int queue_cap = flags.GetInt("queue-cap", 256);
  if (queue_cap < 1) {
    std::fprintf(stderr, "--queue-cap must be >= 1\n");
    return 1;
  }
  const int max_retries = flags.GetInt("max-retries", 0);
  if (max_retries < 0) {
    std::fprintf(stderr, "--max-retries must be >= 0\n");
    return 1;
  }
  FrontendConfig fcfg;
  fcfg.workers = workers;
  fcfg.queue_capacity = static_cast<size_t>(queue_cap);
  fcfg.shed_p95_ms = flags.GetDouble("shed-p95-ms", 0.0);
  fcfg.default_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  fcfg.max_retries = max_retries;
  ServingFrontend frontend(&engine, fcfg);

  // Observability: arm trace sampling before the first request, bridge
  // every component's stats into the metrics registry, and (optionally)
  // start the periodic file exporter. Declaration order matters — the
  // exporter is declared after the registrations so its thread stops (and
  // flushes one final export) while the provider callbacks' raw pointers
  // into `engine`/`frontend` are still alive.
  const int trace_sample = flags.GetInt("trace-sample", 0);
  if (trace_sample < 0) {
    std::fprintf(stderr, "--trace-sample must be >= 0\n");
    return 1;
  }
  if (trace_sample > 0) {
    obs::Tracer::Global().Enable(static_cast<uint32_t>(trace_sample));
  }
  std::vector<obs::GaugeRegistration> metric_regs;
  metric_regs.push_back(obs::RegisterEngineMetrics(&engine));
  metric_regs.push_back(obs::RegisterBufferPoolMetrics());
  metric_regs.push_back(obs::RegisterFaultMetrics());
  metric_regs.push_back(obs::RegisterCheckpointIoMetrics());
  metric_regs.push_back(obs::RegisterGovernorMetrics());
  metric_regs.push_back(obs::RegisterTracerMetrics());
  metric_regs.push_back(obs::RegisterFrontendMetrics(&frontend));
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (flags.Has("metrics-out")) {
    obs::MetricsExporter::Options mopts;
    mopts.path = flags.GetString("metrics-out", "");
    mopts.interval_ms = flags.GetDouble("metrics-interval-ms", 0.0);
    if (mopts.path.empty()) {
      std::fprintf(stderr, "--metrics-out needs a path\n");
      return 1;
    }
    exporter = std::make_unique<obs::MetricsExporter>(mopts);
  }

  Result<std::vector<int>> resolved = ResolveTargets(flags, graph);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 1;
  }
  const std::vector<int>& targets = resolved.ValueOrDie();
  std::FILE* out = stdout;
  if (flags.Has("score-out")) {
    out = std::fopen(flags.GetString("score-out", "").c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open score-out\n");
      return 1;
    }
  }
  const bool single = flags.Has("single");
  if (flags.Has("swap-demo")) std::signal(SIGHUP, OnSigHup);

  NonOkTally tally;
  const std::vector<Score> scores =
      ScoreThroughFrontend(&frontend, engine.batch_size(),
                           fcfg.queue_capacity, targets, single, &tally);
  tally.Report();
  if (tally.shed > 0) {
    std::fprintf(stderr,
                 "raise --queue-cap or --shed-p95-ms to serve the full "
                 "list\n");
  }
  for (const Score& s : scores) {
    PrintScore(out, s.target, s.logit_human, s.logit_bot, precision.c_str());
  }
  if (out != stdout) std::fclose(out);

  if (flags.Has("swap-demo")) {
    // The demo raises the operator's signal itself so the whole hot-swap
    // path runs unattended; an external `kill -HUP` takes the same route.
    std::raise(SIGHUP);
    if (g_swap_requested != 0) {
      g_swap_requested = 0;
      // Restore the standby from the same checkpoint: same weights, so the
      // swap's correctness is directly observable — stale entries purged,
      // post-swap logits bit-identical to the pre-swap pass.
      Result<Bsg4BotConfig> standby_cfg = Bsg4Bot::CheckpointConfig(ckpt);
      if (!standby_cfg.ok()) {
        std::fprintf(stderr, "%s\n", standby_cfg.status().ToString().c_str());
        return 1;
      }
      standby = std::make_unique<Bsg4Bot>(graph, standby_cfg.MoveValueOrDie());
      Status restore = standby->RestoreFromCheckpoint(ckpt);
      if (!restore.ok()) {
        std::fprintf(stderr, "standby restore failed: %s\n",
                     restore.ToString().c_str());
        return 1;
      }
      const SubgraphCacheStats before = engine.cache().Stats();
      const uint64_t next_version = engine.graph_version() + 1;
      engine.SwapModel(standby.get(), next_version);
      const SubgraphCacheStats after = engine.cache().Stats();
      const uint64_t stale_residents = after.entries;  // purge empties it

      NonOkTally swap_tally;
      const std::vector<Score> rescored =
          ScoreThroughFrontend(&frontend, engine.batch_size(),
                               fcfg.queue_capacity, targets, single,
                               &swap_tally);
      swap_tally.Report();
      const bool identical = SameLogits(scores, rescored);
      std::fprintf(
          stderr,
          "swap demo: SIGHUP -> graph version %llu; purged %llu stale "
          "subgraph(s) (version_evictions %llu -> %llu, residents after "
          "swap %llu); post-swap logits bit-identical: %s\n",
          static_cast<unsigned long long>(next_version),
          static_cast<unsigned long long>(after.version_evictions -
                                          before.version_evictions),
          static_cast<unsigned long long>(before.version_evictions),
          static_cast<unsigned long long>(after.version_evictions),
          static_cast<unsigned long long>(stale_residents),
          identical ? "yes" : "NO");
      if (!identical || stale_residents != 0) return 1;
    }
  }

  if (flags.Has("stats")) {
    std::fprintf(stderr, "%s\n",
                 obs::ToJson(obs::MetricsRegistry::Global().Snapshot(),
                             /*include_traces=*/false)
                     .c_str());
    // Conservation: every submitted request/target resolved exactly one
    // way. Exact here because every future has resolved, and each
    // resolution is counted before its future is set.
    const FrontendStats fs = frontend.Stats();
    const bool conserved = fs.submitted_requests == fs.AccountedRequests() &&
                           fs.targets_submitted == fs.AccountedTargets();
    std::fprintf(stderr,
                 "conservation: requests %llu submitted vs %llu resolved; "
                 "targets %llu vs %llu: %s\n",
                 static_cast<unsigned long long>(fs.submitted_requests),
                 static_cast<unsigned long long>(fs.AccountedRequests()),
                 static_cast<unsigned long long>(fs.targets_submitted),
                 static_cast<unsigned long long>(fs.AccountedTargets()),
                 conserved ? "OK" : "VIOLATED");
    if (!conserved) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Declaring the booleans keeps a bare `--stats ids.txt` from swallowing
  // the file as the flag's value (util/flags.h).
  FlagParser flags(argc, argv,
                   {"train", "single", "stats", "help", "swap-demo"});
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  const std::string ckpt_path = flags.GetString("ckpt", "");
  if (ckpt_path.empty()) {
    PrintUsage();
    return 1;
  }
  return flags.Has("train") ? TrainAndSave(flags, ckpt_path)
                            : Serve(flags, ckpt_path);
}
