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
// object per scored account; engine/cache stats go to stderr with --stats
// (a single metrics-registry snapshot, including latency quantiles and the
// request/target conservation check). --metrics-out exports the same
// registry as Prometheus text + a JSON sibling, --trace-sample=N records a
// pipeline trace (queue wait, cache probe, build, stack, forward, ...) for
// every Nth front-end request into the JSON export.
// --precision=f32 serves through the model's float shadow (vectorized
// mixed-precision path); the default f64 stays bit-identical to training.
//
// Concurrent serving: --workers=N routes requests through the
// ServingFrontend (bounded queue via --queue-cap, latency shedding via
// --shed-p95-ms). The target list is split into engine-width chunks — the
// same compositions the serial path scores — so logits are bit-identical
// at any worker count (the CI smoke diffs --workers=4 against
// --workers=1). --swap-demo exercises the hot-swap path: a SIGHUP handler
// restores a standby model from the same checkpoint and SwapModel()s to
// it mid-serve (the demo raises the signal itself; `kill -HUP` lands the
// same way), then verifies the purge counters and post-swap bit-identity.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
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
      "  --workers=N           serve through the concurrent front-end with\n"
      "                        N worker threads (0 = direct engine path;\n"
      "                        logits are bit-identical either way)\n"
      "  --queue-cap=N         bounded request queue depth (default 256;\n"
      "                        a full queue sheds, it never blocks)\n"
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
      "  --stats               one metrics-registry snapshot to stderr:\n"
      "                        engine/cache/front-end counters, latency\n"
      "                        quantiles, and the conservation check\n");
}

Result<DatasetConfig> PresetConfig(const std::string& preset) {
  if (preset == "twibot20") return Twibot20Sim();
  if (preset == "twibot22") return Twibot22Sim();
  if (preset == "mgtab") return MgtabSim();
  return Status::InvalidArgument("unknown dataset '" + preset + "'");
}

// One scored account as a JSON line. %.17g on the logits round-trips the
// doubles, so diffing two of these files IS a bitwise logit comparison.
// The raw-logit overload is for the train-mode oracle (PredictLogits has
// no Score objects); its softmax/argmax mirror DetectionEngine's, which
// the CI smoke diff pins: the two paths must print identical bytes.
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

void PrintScore(std::FILE* out, const Score& s, const char* precision) {
  std::fprintf(out,
               "{\"id\":%d,\"bot_prob\":%.6f,\"label\":%d,"
               "\"precision\":\"%s\",\"logits\":[%.17g,%.17g]}\n",
               s.target, s.bot_prob, s.label, precision, s.logit_human,
               s.logit_bot);
}

// Rejects ids outside [0, num_nodes) before they can index anything.
bool ValidateTargets(const std::vector<int>& targets, int num_nodes) {
  for (int t : targets) {
    if (t < 0 || t >= num_nodes) {
      std::fprintf(stderr, "id %d out of range [0, %d)\n", t, num_nodes);
      return false;
    }
  }
  return true;
}

// Accounts to score: --ids, --ids-file, "-" (stdin), else the test split.
std::vector<int> ResolveTargets(const FlagParser& flags,
                                const HeteroGraph& graph) {
  std::vector<int> ids;
  if (flags.Has("ids")) {
    for (const std::string& tok :
         SplitString(flags.GetString("ids", ""), ',')) {
      if (!tok.empty()) ids.push_back(std::atoi(tok.c_str()));
    }
    return ids;
  }
  const bool from_stdin = !flags.positional().empty() &&
                          flags.positional().front() == "-";
  if (flags.Has("ids-file") || from_stdin) {
    std::FILE* f = from_stdin
                       ? stdin
                       : std::fopen(flags.GetString("ids-file", "").c_str(),
                                    "r");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open ids file\n");
      return ids;
    }
    char line[64];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (line[0] != '\n' && line[0] != '\0') ids.push_back(std::atoi(line));
    }
    if (!from_stdin) std::fclose(f);
    return ids;
  }
  return graph.test_idx;
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
// engine-width chunks so every request carries the same batch composition
// the serial path would score — that is what keeps logits bit-identical
// across worker counts. Non-kOk requests are tallied, not silently
// skipped; degraded (stale/fallback) scores are NOT merged into the fresh
// results, so the emitted JSON only ever carries model answers.
std::vector<Score> ScoreThroughFrontend(ServingFrontend* frontend, int width,
                                        const std::vector<int>& targets,
                                        bool single, NonOkTally* tally) {
  std::vector<std::future<FrontendResult>> futures;
  if (single) {
    for (int t : targets) futures.push_back(frontend->SubmitOne(t));
  } else {
    for (size_t b = 0; b < targets.size(); b += static_cast<size_t>(width)) {
      const size_t e = std::min(targets.size(), b + static_cast<size_t>(width));
      futures.push_back(frontend->Submit(
          std::vector<int>(targets.begin() + b, targets.begin() + e)));
    }
  }
  std::vector<Score> scores;
  scores.reserve(targets.size());
  for (std::future<FrontendResult>& f : futures) {
    FrontendResult res = f.get();
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
  }
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
  Result<DatasetConfig> dc = PresetConfig(preset);
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
  std::vector<int> targets = ResolveTargets(flags, graph);
  if (!ValidateTargets(targets, graph.num_nodes)) return 1;
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
  Result<DatasetConfig> dc = PresetConfig(*preset);
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

  const int workers = flags.GetInt("workers", 0);
  if (workers < 0) {
    std::fprintf(stderr, "--workers must be >= 0\n");
    return 1;
  }
  const double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  const int max_retries = flags.GetInt("max-retries", 0);
  if (max_retries < 0) {
    std::fprintf(stderr, "--max-retries must be >= 0\n");
    return 1;
  }
  std::unique_ptr<ServingFrontend> frontend;
  if (workers >= 1) {
    FrontendConfig fcfg;
    fcfg.workers = workers;
    fcfg.queue_capacity = static_cast<size_t>(flags.GetInt("queue-cap", 256));
    fcfg.shed_p95_ms = flags.GetDouble("shed-p95-ms", 0.0);
    fcfg.default_deadline_ms = deadline_ms;
    fcfg.max_retries = max_retries;
    frontend = std::make_unique<ServingFrontend>(&engine, fcfg);
  }

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
  if (frontend != nullptr) {
    metric_regs.push_back(obs::RegisterFrontendMetrics(frontend.get()));
  }
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

  std::vector<int> targets = ResolveTargets(flags, graph);
  if (!ValidateTargets(targets, graph.num_nodes)) return 1;
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

  // The direct (workers == 0) engine path honours --deadline-ms and
  // --max-retries too, through the Status-returning API: a terminal
  // failure there is a hard error for the CLI (no degraded mode without
  // the front-end).
  const auto score_direct = [&](const std::vector<int>& list,
                                std::vector<Score>* out) -> Status {
    const ScoreOptions opts =
        deadline_ms > 0.0
            ? ScoreOptions::WithDeadline(
                  std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(deadline_ms)))
            : ScoreOptions::None();
    Status st;
    for (int attempt = 0;; ++attempt) {
      if (single) {
        out->clear();
        st = Status::OK();
        for (int t : list) {
          Score s;
          st = engine.TryScoreOne(t, opts, &s);
          if (!st.ok()) break;
          out->push_back(s);
        }
      } else {
        st = engine.TryScoreBatch(list, opts, out);
      }
      if (st.ok() || !IsRetryable(st.code()) || attempt >= max_retries) {
        return st;
      }
    }
  };

  std::vector<Score> scores;
  NonOkTally tally;
  if (frontend != nullptr) {
    scores = ScoreThroughFrontend(frontend.get(), engine.batch_size(),
                                  targets, single, &tally);
    tally.Report();
    if (tally.shed > 0) {
      std::fprintf(stderr,
                   "raise --queue-cap or --shed-p95-ms to serve the full "
                   "list\n");
    }
  } else {
    Status st = score_direct(targets, &scores);
    if (!st.ok()) {
      std::fprintf(stderr, "scoring failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  for (const Score& s : scores) PrintScore(out, s, precision.c_str());
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

      std::vector<Score> rescored;
      if (frontend != nullptr) {
        NonOkTally swap_tally;
        rescored = ScoreThroughFrontend(frontend.get(), engine.batch_size(),
                                        targets, single, &swap_tally);
        swap_tally.Report();
      } else {
        Status rescore = score_direct(targets, &rescored);
        if (!rescore.ok()) {
          std::fprintf(stderr, "post-swap scoring failed: %s\n",
                       rescore.ToString().c_str());
          return 1;
        }
      }
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
    // Everything below reads ONE registry snapshot — the same consistent
    // cut the Prometheus/JSON export would see — so derived invariants
    // (the conservation line) are computed from numbers of one instant,
    // not from per-component Stats() calls at slightly different times.
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::Global().Snapshot();
    const auto g = [&snap](const char* name) { return snap.Gauge(name); };
    const auto u = [&snap](const char* name) {
      return static_cast<unsigned long long>(snap.Gauge(name));
    };
    std::fprintf(stderr,
                 "engine: %llu targets in %llu batches (+%llu single), "
                 "pool hit rate %.3f, trimmed %.2f MiB at startup\n",
                 u("serve.engine.targets_scored"),
                 u("serve.engine.batches_run"),
                 u("serve.engine.single_requests"),
                 g("serve.engine.pool_hit_rate"),
                 g("serve.engine.pool_trimmed_bytes") / (1 << 20));
    std::fprintf(stderr,
                 "cache: %llu lookups, hit rate %.3f, %llu entries "
                 "(%.2f MiB), %llu evictions\n",
                 u("serve.cache.lookups"), g("serve.cache.hit_rate"),
                 u("serve.cache.entries"),
                 g("serve.cache.resident_bytes") / (1 << 20),
                 u("serve.cache.evictions"));
    std::fprintf(stderr,
                 "stacker: %llu batches, %llu carcass reuses, %llu csr "
                 "reuses, %llu f32-weight reuses\n",
                 u("serve.stacker.batches_stacked"),
                 u("serve.stacker.carcass_reuses"),
                 u("serve.stacker.csr_reuses"),
                 u("serve.stacker.weights_f32_reuses"));
    if (frontend != nullptr) {
      std::fprintf(
          stderr,
          "front-end: %d workers, %llu requests (%llu served, %llu shed "
          "[%llu queue-full, %llu latency, %llu resource], shed rate "
          "%.3f), queue depth peak %llu, %llu graph swap(s), est %.3f "
          "ms/target\n",
          workers, u("serve.frontend.submitted_requests"),
          u("serve.frontend.served_requests"),
          u("serve.frontend.shed_requests"),
          u("serve.frontend.shed_queue_full"),
          u("serve.frontend.shed_latency"),
          u("serve.frontend.shed_resource"), g("serve.frontend.shed_rate"),
          u("serve.frontend.queue_depth_peak"),
          u("serve.engine.graph_swaps"),
          g("serve.frontend.ms_per_target_estimate"));
      std::fprintf(stderr,
                   "failures: %llu timed out, %llu failed, %llu degraded, "
                   "%llu retries (%llu successful), %llu breaker trip(s)\n",
                   u("serve.frontend.timed_out_requests"),
                   u("serve.frontend.failed_requests"),
                   u("serve.frontend.degraded_requests"),
                   u("serve.frontend.retries"),
                   u("serve.frontend.retry_successes"),
                   u("serve.frontend.breaker_trips"));
      // Conservation: every submitted request/target resolved exactly one
      // way. Exact on this snapshot because the front-end is quiescent
      // (all futures were awaited above).
      const unsigned long long req_out =
          u("serve.frontend.served_requests") +
          u("serve.frontend.shed_requests") +
          u("serve.frontend.closed_requests") +
          u("serve.frontend.timed_out_requests") +
          u("serve.frontend.failed_requests") +
          u("serve.frontend.degraded_requests");
      const unsigned long long tgt_out =
          u("serve.frontend.targets_served") +
          u("serve.frontend.targets_shed") +
          u("serve.frontend.targets_closed") +
          u("serve.frontend.targets_timed_out") +
          u("serve.frontend.targets_failed") +
          u("serve.frontend.targets_degraded");
      const unsigned long long req_in =
          u("serve.frontend.submitted_requests");
      const unsigned long long tgt_in =
          u("serve.frontend.targets_submitted");
      std::fprintf(
          stderr,
          "conservation: requests %llu submitted vs %llu resolved "
          "(served+shed+closed+timed_out+failed+degraded) %s; targets "
          "%llu vs %llu %s\n",
          req_in, req_out, req_in == req_out ? "OK" : "VIOLATED", tgt_in,
          tgt_out, tgt_in == tgt_out ? "OK" : "VIOLATED");
    }
    std::fprintf(
        stderr,
        "governor: budget %.2f MiB (soft %.2f, hard %.2f), accounted "
        "%.2f MiB (peak %.2f), pressure %d, %llu soft / %llu hard "
        "transition(s), %llu recover(ies), reclaimed %.2f MiB in %llu "
        "invocation(s), %llu refusal(s) (%llu injected)\n",
        g("governor.budget_bytes") / (1 << 20),
        g("governor.soft_bytes") / (1 << 20),
        g("governor.hard_bytes") / (1 << 20),
        g("governor.total_bytes") / (1 << 20),
        g("governor.peak_total_bytes") / (1 << 20),
        static_cast<int>(g("governor.pressure")),
        u("governor.soft_transitions"), u("governor.hard_transitions"),
        u("governor.recoveries"), g("governor.reclaimed_bytes") / (1 << 20),
        u("governor.reclaim_invocations"), u("governor.refusals"),
        u("governor.injected_refusals"));
    std::fprintf(
        stderr,
        "governor accounts: pool %.2f MiB (peak %.2f), serve.cache %.2f "
        "MiB (peak %.2f), serve.queue %.2f MiB (peak %.2f)\n",
        g("governor.account.pool.resident_bytes") / (1 << 20),
        g("governor.account.pool.peak_bytes") / (1 << 20),
        g("governor.account.serve.cache.resident_bytes") / (1 << 20),
        g("governor.account.serve.cache.peak_bytes") / (1 << 20),
        g("governor.account.serve.queue.resident_bytes") / (1 << 20),
        g("governor.account.serve.queue.peak_bytes") / (1 << 20));
    // Latency quantiles from the registry histograms. Quantiles report the
    // containing bucket's upper bound, hence "<=".
    const auto latency_line = [&snap](const char* label, const char* name) {
      const obs::HistogramSnapshot* h = snap.FindHistogram(name);
      if (h == nullptr || h->count == 0) return;
      std::fprintf(stderr,
                   "latency %s: n=%llu mean %.3f ms, p50<=%.3g p95<=%.3g "
                   "p99<=%.3g\n",
                   label, static_cast<unsigned long long>(h->count),
                   h->sum / static_cast<double>(h->count), h->p50, h->p95,
                   h->p99);
    };
    latency_line("request", obs::metric::kRequestLatencyMs);
    latency_line("queue-wait", obs::metric::kQueueWaitMs);
    latency_line("forward", obs::metric::kForwardMs);
    latency_line("assemble", obs::metric::kAssembleMs);
    if (snap.Gauge("fault.armed") != 0.0) {
      for (const obs::GaugeSample& sample : snap.gauges) {
        const std::string& n = sample.name;
        const std::string suffix = ".evaluations";
        if (n.size() <= 6 + suffix.size() || n.compare(0, 6, "fault.") != 0 ||
            n.compare(n.size() - suffix.size(), suffix.size(), suffix) != 0 ||
            sample.value == 0.0) {
          continue;
        }
        const std::string site =
            n.substr(6, n.size() - 6 - suffix.size());
        std::fprintf(
            stderr, "fault site %s: %llu evaluation(s), %llu fired\n",
            site.c_str(), static_cast<unsigned long long>(sample.value),
            static_cast<unsigned long long>(
                snap.Gauge("fault." + site + ".fires")));
      }
    }
    if (trace_sample > 0) {
      std::fprintf(stderr,
                   "tracer: 1-in-%d sampling, %llu sampled, %llu completed, "
                   "%llu dropped (no slot), %llu truncated span(s)\n",
                   trace_sample, u("obs.tracer.sampled"),
                   u("obs.tracer.completed"), u("obs.tracer.dropped_no_slot"),
                   u("obs.tracer.truncated_spans"));
    }
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
