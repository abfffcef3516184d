// The serving workloads: `serve-hot` and `serve-single`, both closed loops
// (traced `serve-single` adds an open-loop phase). Set-up follows the
// serve_cli path: generate and featurize, Fit() one epoch, SaveCheckpoint,
// restore into a fresh Bsg4Bot and serve the restored model through a
// DetectionEngine behind a ServingFrontend.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "harness.h"
#include "io/checkpoint.h"
#include "ppr/ppr_workspace.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "util/parallel.h"
#include "util/resource_governor.h"
#include "util/rng.h"

namespace perfbench {
namespace {

enum class Kind { kHot, kSingle };

// The tail percentile of both serving workloads. serve-single has enough
// samples for p99, but its p99 measures how often the host stalls the one
// worker (each stall delays every request in flight): over 5 seeds its p99
// spread 0.47 (Q3 - Q1 over the median), its p95 about 0.13.
constexpr double kTailQuantile = 0.95;

// ----------------------------------------------------------------- set-up

struct Served {
  World world;
  std::unique_ptr<bsg::Bsg4Bot> model;
  std::unique_ptr<bsg::DetectionEngine> engine;
  double setup_s = 0.0;  // reference seconds (SpeedProbe)
  double setup_wall_s = 0.0;
  double prepare_s = 0.0;
  double epoch_s = 0.0;
  double test_f1 = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
};

bsg::EngineConfig EngineFor(Kind kind, const Scale& scale) {
  bsg::EngineConfig cfg;
  if (kind == Kind::kHot) {  // holds the whole hot set
    cfg.cache_capacity = static_cast<size_t>(scale.hot_set + scale.hot_set / 4);
  } else {  // 1/8 of accounts, f32 arithmetic
    cfg.cache_capacity = static_cast<size_t>(scale.accounts / 8);
    cfg.precision = bsg::EngineConfig::Precision::kF32;
  }
  return cfg;
}

// One set-up, timed end to end. `hot_set` non-empty = serve-hot's warm pass.
bool SetUpOnce(Kind kind, const Scale& scale, const std::string& ckpt_path,
               const std::vector<int>& hot_set, const SpeedProbe& probe,
               Served* s, Report* report) {
  const auto t0 = Clock::now();
  s->world = MakeWorld(scale);
  const bsg::HeteroGraph& g = *s->world.graph;
  {
    bsg::Bsg4Bot trainer(g, ModelConfig(scale, 1, kModelSeed));
    const auto p0 = Clock::now();
    trainer.Prepare();
    const auto f0 = Clock::now();
    bsg::TrainResult res = trainer.Fit();
    const auto c0 = Clock::now();
    s->prepare_s = probe.RefSeconds(p0, f0);
    s->epoch_s = probe.RefSeconds(f0, c0);
    s->test_f1 = res.test.f1;
    bsg::Status st = trainer.SaveCheckpoint(ckpt_path);
    s->save_s = SecondsBetween(c0, Clock::now());
    if (!st.ok()) {
      report->Fail("SaveCheckpoint: " + st.ToString());
      return false;
    }
  }
  const auto l0 = Clock::now();
  bsg::Result<bsg::Checkpoint> ckpt = bsg::LoadCheckpoint(ckpt_path);
  if (!ckpt.ok()) {
    report->Fail("LoadCheckpoint: " + ckpt.status().ToString());
    return false;
  }
  bsg::Result<bsg::Bsg4BotConfig> cfg =
      bsg::Bsg4Bot::CheckpointConfig(ckpt.ValueOrDie());
  if (!cfg.ok()) {
    report->Fail("CheckpointConfig: " + cfg.status().ToString());
    return false;
  }
  s->model = std::make_unique<bsg::Bsg4Bot>(g, cfg.MoveValueOrDie());
  bsg::Status st = s->model->RestoreFromCheckpoint(ckpt.ValueOrDie());
  s->load_s = SecondsBetween(l0, Clock::now());
  if (!st.ok()) {
    report->Fail("RestoreFromCheckpoint: " + st.ToString());
    return false;
  }
  std::remove(ckpt_path.c_str());

  s->engine = std::make_unique<bsg::DetectionEngine>(s->model.get(),
                                                     EngineFor(kind, scale));
  if (!hot_set.empty()) s->engine->ScoreBatch(hot_set);
  const auto t1 = Clock::now();
  s->setup_s = probe.RefSeconds(t0, t1);
  s->setup_wall_s = SecondsBetween(t0, t1);
  return true;
}

// ---------------------------------------------------------------- traffic

// One completed request as the load generator saw it.
struct Completed {
  int64_t id = 0;
  std::vector<int> targets;
  std::vector<bsg::Score> scores;
  double latency_ms = 0.0;
};

struct Window {
  std::vector<double> latency_ms;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> times;
  std::vector<double> submit_us;
  std::vector<double> late_ms;  // open loop: submit time minus due time
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t ok_targets = 0;  // accounts of the requests resolved kOk
  double seconds = 0.0;     // window start to last completion
  Clock::time_point begin, end;
  std::vector<Completed> kept;  // the first `keep` requests, for checks/replay
};

// Records one resolved request into the window (and a span when traced).
void Record(int64_t id, const std::vector<int>& targets,
            bsg::FrontendResult result, Clock::time_point start,
            Clock::time_point done, size_t keep, SpanLog* log, Window* w) {
  const double ms = MsBetween(start, done);
  w->latency_ms.push_back(ms);
  w->times.emplace_back(start, done);
  ++w->requests;
  const bool ok = result.status == bsg::RequestStatus::kOk;
  if (!ok) ++w->failed;
  if (ok) w->ok_targets += targets.size();
  if (ok && w->kept.size() < keep) {
    w->kept.push_back({id, targets, std::move(result.scores), ms});
  }
  if (log != nullptr) log->Add("request", start, done, -1, id);
}

// Closed loop: one thread keeps `outstanding` requests in flight, submitting
// the next as soon as one resolves, until `seconds` have passed; then it
// drains. Completion is polled across all slots, so a request that resolves
// out of order is timed within ~0.1 ms.
Window ClosedLoop(bsg::ServingFrontend* fe,
                  const std::function<std::vector<int>()>& next, bool single,
                  int outstanding, double seconds, size_t keep,
                  SpanLog* log) {
  struct Slot {
    std::future<bsg::FrontendResult> fut;
    std::vector<int> targets;
    Clock::time_point start;
    int64_t id = 0;
    bool live = false;
  };
  Window w;
  std::vector<Slot> slots(static_cast<size_t>(outstanding));
  int64_t next_id = 0;
  auto submit = [&](Slot* s) {
    s->targets = next();
    s->id = next_id++;
    s->start = Clock::now();
    s->fut = single ? fe->SubmitOne(s->targets[0]) : fe->Submit(s->targets);
    w.submit_us.push_back(MsBetween(s->start, Clock::now()) * 1e3);
    s->live = true;
  };
  const auto t0 = Clock::now();
  Clock::time_point last = t0;
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  for (Slot& s : slots) submit(&s);
  int live = outstanding;
  while (live > 0) {
    bool any = false;
    Slot* oldest = nullptr;
    for (Slot& s : slots) {
      if (!s.live) continue;
      if (s.fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (oldest == nullptr || s.start < oldest->start) oldest = &s;
        continue;
      }
      const auto done = Clock::now();
      any = true;
      last = done;
      Record(s.id, s.targets, s.fut.get(), s.start, done, keep, log, &w);
      s.live = false;
      --live;
      if (done < stop) {
        submit(&s);
        ++live;
      }
    }
    if (!any && oldest != nullptr) {
      oldest->fut.wait_for(std::chrono::microseconds(100));
    }
  }
  w.seconds = SecondsBetween(t0, last);
  w.begin = t0;
  w.end = last;
  return w;
}

// Open loop (traced serve-single only): a seeded Poisson schedule of
// single-account requests, computed up front. The generator spins to each
// due time (a sleep_until wake was measured 3-4 ms late at p99 on the
// reference VM, a spin at most 0.2 ms) and a collector thread times each
// request from its due time. Requests due in the first `warm_s` warm the
// system and are not counted.
Window OpenLoop(bsg::ServingFrontend* fe, const std::vector<int>& targets,
                const std::vector<double>& due_s, double warm_s) {
  struct Pending {
    std::future<bsg::FrontendResult> fut;
    Clock::time_point due;
    int64_t id = 0;
  };
  Window w;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> inbox;
  bool generator_done = false;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto window_start =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(warm_s));
  Clock::time_point last = window_start;

  std::thread collector([&] {
    std::vector<Pending> pending;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty() && inbox.empty() && !generator_done) {
          cv.wait(lock, [&] { return !inbox.empty() || generator_done; });
        }
        while (!inbox.empty()) {
          pending.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        if (pending.empty() && generator_done) break;
      }
      bool any = false;
      for (size_t i = 0; i < pending.size();) {
        Pending& p = pending[i];
        if (p.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const auto done = Clock::now();
        any = true;
        bsg::FrontendResult r = p.fut.get();
        if (p.due >= window_start) {
          last = std::max(last, done);
          Record(p.id, {targets[p.id]}, std::move(r), p.due, done, 0, nullptr,
                 &w);
        }
        pending[i] = std::move(pending.back());
        pending.pop_back();
      }
      if (!any && !pending.empty()) {
        pending.front().fut.wait_for(std::chrono::microseconds(50));
      }
    }
  });

  for (size_t i = 0; i < due_s.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(due_s[i]));
    // Sleep only through long gaps, with a margin wider than the measured
    // wake-up lateness; spin the rest of the way.
    const auto sleep_until = due - std::chrono::milliseconds(15);
    if (Clock::now() < sleep_until) std::this_thread::sleep_until(sleep_until);
    while (Clock::now() < due) {
    }
    const auto sent = Clock::now();
    Pending p{fe->SubmitOne(targets[i]), due, static_cast<int64_t>(i)};
    if (due >= window_start) {
      w.late_ms.push_back(MsBetween(due, sent));
      w.submit_us.push_back(MsBetween(sent, Clock::now()) * 1e3);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      inbox.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();
  w.seconds = SecondsBetween(window_start, last);
  return w;
}

// Accounts resolved kOk per second of the window.
double Throughput(const Window& w) {
  return static_cast<double>(w.ok_targets) / std::max(w.seconds, 1e-9);
}

// The same, per reference second.
double RefThroughput(const SpeedProbe& probe, const Window& w) {
  return static_cast<double>(w.ok_targets) /
         std::max(probe.RefSeconds(w.begin, w.end), 1e-9);
}

// Request latencies in reference ms.
std::vector<double> RefLatencyMs(const SpeedProbe& probe, const Window& w) {
  std::vector<double> out;
  out.reserve(w.times.size());
  for (const auto& [start, done] : w.times) {
    out.push_back(probe.RefMs(start, done));
  }
  return out;
}

// Partial Fisher-Yates: `k` distinct entries of `pool`, seeded.
std::vector<int> Draw(std::vector<int>* pool, int k, bsg::Rng* rng) {
  const int n = static_cast<int>(pool->size());
  k = std::min(k, n);
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(rng->UniformInt(n - i));
    std::swap((*pool)[i], (*pool)[j]);
  }
  return std::vector<int>(pool->begin(), pool->begin() + k);
}

// ----------------------------------------------------------------- replay

// Traced-mode serial replay of sampled requests through the layer entry
// points, each call spanned: SubgraphCache::Lookup, then
// Bsg4Bot::AssembleSubgraph on a miss, BatchStacker::Stack, and ScoreBatch
// or ScoreBatchF32; PprWorkspace::ApproximatePpr is timed on the same
// centres, outside the request span. Then the same requests go through the
// engine's own TryScoreBatch / TryScoreOne, serially, for service times.
struct Replay {
  std::vector<double> service_ms;  // aligned with the sampled requests
  double service_targets = 0.0;
};

Replay ReplayRequests(Kind kind, bsg::Bsg4Bot* model,
                      bsg::DetectionEngine* engine,
                      const std::vector<Completed>& sample, SpanLog* log,
                      Report* report) {
  const bsg::HeteroGraph& g = model->graph();
  const bool f32 = kind == Kind::kSingle;
  const size_t width = static_cast<size_t>(engine->batch_size());
  const uint64_t version = engine->graph_version();
  bsg::BatchStacker stacker(g.num_relations(), f32);
  bsg::PprWorkspace ppr_ws;
  Replay out;
  std::vector<double> probe_us, build_us, select_us, ppr_us, support, stack_us;
  std::vector<double> f64_ms, f32_one_ms;
  double root_us = 0.0, root_self_us = 0.0;
  for (const Completed& req : sample) {
    std::vector<int> misses;
    std::vector<double> miss_build_us;
    const int root = log->Begin("replay.request", -1, req.id);
    for (size_t b = 0; b < req.targets.size(); b += width) {
      std::vector<int> chunk(
          req.targets.begin() + b,
          req.targets.begin() + std::min(req.targets.size(), b + width));
      std::vector<std::shared_ptr<const bsg::BiasedSubgraph>> held;
      std::vector<const bsg::BiasedSubgraph*> subs;
      for (int t : chunk) {
        const int p = log->Begin("cache.probe", root, req.id);
        std::shared_ptr<const bsg::BiasedSubgraph> sub =
            engine->cache().Lookup(t, version);
        log->End(p);
        probe_us.push_back(log->DurationUs(p));
        if (sub == nullptr) {
          const int bld = log->Begin("subgraph.build", root, req.id);
          sub = std::make_shared<const bsg::BiasedSubgraph>(
              model->AssembleSubgraph(t));
          log->End(bld);
          misses.push_back(t);
          miss_build_us.push_back(log->DurationUs(bld));
        }
        subs.push_back(sub.get());
        held.push_back(std::move(sub));
      }
      const int s = log->Begin("stack.batch", root, req.id);
      bsg::SubgraphBatch batch = stacker.Stack(subs, chunk);
      log->End(s);
      stack_us.push_back(log->DurationUs(s));
      const int f = log->Begin(f32 ? "forward.f32_one" : "forward.f64_batch",
                               root, req.id);
      bsg::Matrix logits =
          f32 ? model->ScoreBatchF32(batch) : model->ScoreBatch(batch);
      log->End(f);
      (f32 ? f32_one_ms : f64_ms).push_back(log->DurationUs(f) * 1e-3);
      stacker.Recycle(std::move(batch));
    }
    log->End(root);
    root_us += log->DurationUs(root);
    root_self_us += log->SelfUs(root);

    for (size_t m = 0; m < misses.size(); ++m) {
      double centre_ppr_us = 0.0;
      for (int r = 0; r < g.num_relations(); ++r) {
        const int p = log->Begin("ppr.push", -1, req.id);
        const bsg::SparseVec& pv = ppr_ws.ApproximatePpr(
            g.relations[r], misses[m], model->config().subgraph.ppr);
        log->End(p);
        ppr_us.push_back(log->DurationUs(p));
        support.push_back(static_cast<double>(pv.size()));
        centre_ppr_us += log->DurationUs(p);
      }
      build_us.push_back(miss_build_us[m]);
      select_us.push_back(miss_build_us[m] - centre_ppr_us);
    }

    // The same request through the engine, serially.
    bsg::Status st;
    const auto e0 = Clock::now();
    if (f32) {
      bsg::Score score;
      st = engine->TryScoreOne(req.targets[0], bsg::ScoreOptions::None(),
                               &score);
    } else {
      std::vector<bsg::Score> scores;
      st = engine->TryScoreBatch(req.targets, bsg::ScoreOptions::None(),
                                 &scores);
    }
    const auto e1 = Clock::now();
    log->Add("engine.service", e0, e1, -1, req.id);
    report->Check(st.ok(), "replay: engine scoring failed: " + st.ToString());
    out.service_ms.push_back(MsBetween(e0, e1));
    out.service_targets += static_cast<double>(req.targets.size());
  }

  // f32 forward at engine width over the sampled accounts (serve-single).
  std::vector<double> f32_batch_ms;
  if (f32) {
    std::vector<int> pool;
    for (const Completed& req : sample) pool.push_back(req.targets[0]);
    for (size_t b = 0; b + width <= pool.size(); b += width) {
      std::vector<int> chunk(pool.begin() + b, pool.begin() + b + width);
      std::vector<std::shared_ptr<const bsg::BiasedSubgraph>> held;
      std::vector<const bsg::BiasedSubgraph*> subs;
      for (int t : chunk) {
        std::shared_ptr<const bsg::BiasedSubgraph> sub =
            engine->cache().Lookup(t, version);
        if (sub == nullptr) {
          sub = std::make_shared<const bsg::BiasedSubgraph>(
              model->AssembleSubgraph(t));
        }
        subs.push_back(sub.get());
        held.push_back(std::move(sub));
      }
      bsg::SubgraphBatch batch = stacker.Stack(subs, chunk);
      const int f = log->Begin("forward.f32_batch");
      bsg::Matrix logits = model->ScoreBatchF32(batch);
      log->End(f);
      f32_batch_ms.push_back(log->DurationUs(f) * 1e-3);
      stacker.Recycle(std::move(batch));
    }
  }

  report->Set("cache.probe_us", Median(probe_us));
  report->Set("subgraph.build_us", Median(build_us));
  report->Set("subgraph.select_self_us", Median(select_us));
  report->Set("ppr.push_us", Median(ppr_us));
  report->Set("ppr.support", Mean(support));
  report->Set("stack.batch_us", Median(stack_us));
  report->Set("forward.f64_batch_ms", Median(f64_ms));
  report->Set("forward.f32_one_ms", Median(f32_one_ms));
  report->Set("forward.f32_batch_ms", Median(f32_batch_ms));
  report->Set("engine.service_ms", Median(out.service_ms));
  report->Set("trace.replayed_requests", static_cast<double>(sample.size()));
  // Stage self times must account for the replayed request time: the
  // request span's own self time is what no stage span covers.
  const double unattributed = root_us > 0.0 ? root_self_us / root_us : 0.0;
  report->Set("trace.unattributed_frac", unattributed);
  report->Check(unattributed <= 0.05,
                "trace: stage self times leave " +
                    std::to_string(unattributed * 100.0) +
                    "% of the replayed request time unattributed (> 5%)");
  return out;
}

// ----------------------------------------------------------------- checks

// f64 logits of served requests are bit-identical to a serial engine
// scoring the same target lists; f32 scores stay within the documented
// bound of the f64 oracle, with identical argmax.
void CheckScores(Kind kind, bsg::Bsg4Bot* model,
                 const std::vector<Completed>& sample, Report* report) {
  bsg::EngineConfig cfg;  // f64
  cfg.trim_pool_on_start = false;
  bsg::DetectionEngine oracle(model, cfg);
  int bad = 0;
  for (const Completed& req : sample) {
    std::vector<bsg::Score> ref;
    bsg::Status st;
    if (kind == Kind::kSingle) {
      ref.resize(1);
      st = oracle.TryScoreOne(req.targets[0], bsg::ScoreOptions::None(),
                              &ref[0]);
    } else {
      st = oracle.TryScoreBatch(req.targets, bsg::ScoreOptions::None(), &ref);
    }
    if (!st.ok() || ref.size() != req.scores.size()) {
      ++bad;
      continue;
    }
    for (size_t i = 0; i < ref.size(); ++i) {
      const bsg::Score& a = req.scores[i];
      const bsg::Score& b = ref[i];
      if (kind == Kind::kSingle) {
        auto near = [](double f32v, double f64v) {
          return std::fabs(f32v - f64v) <= 5e-3 * (1.0 + std::fabs(f64v));
        };
        if (!near(a.logit_human, b.logit_human) ||
            !near(a.logit_bot, b.logit_bot) || a.label != b.label) {
          ++bad;
        }
      } else if (a.logit_human != b.logit_human ||
                 a.logit_bot != b.logit_bot) {
        ++bad;
      }
    }
  }
  report->Check(!sample.empty(), "no served request was sampled for checks");
  report->Check(bad == 0, std::to_string(bad) +
                              (kind == Kind::kSingle
                                   ? " f32 scores outside |f32-f64| <= "
                                     "5e-3(1+|f64|) or with flipped argmax"
                                   : " f64 logits differ from a serial "
                                     "DetectionEngine on the same targets"));
}

void CheckConservation(const bsg::FrontendStats& st, uint64_t submitted,
                       Report* report) {
  report->Check(st.submitted_requests == submitted,
                "front-end counted " + std::to_string(st.submitted_requests) +
                    " submitted requests, the generator sent " +
                    std::to_string(submitted));
  report->Check(st.submitted_requests == st.AccountedRequests(),
                "request conservation broken after Close()");
  report->Check(st.targets_submitted == st.AccountedTargets(),
                "target conservation broken after Close()");
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void RunServe(const Args& args, const Scale& scale, Report* report) {
  SpeedProbe probe;  // every thread of the program runs on its CPU
  bsg::SetNumThreads(scale.pool_threads);
  const Kind kind =
      args.workload == "serve-hot" ? Kind::kHot : Kind::kSingle;
  bsg::Rng rng(args.seed);  // the hot set and the Zipf ranking
  std::vector<int> accounts(static_cast<size_t>(scale.accounts));
  for (int i = 0; i < scale.accounts; ++i) accounts[i] = i;
  std::vector<int> hot_set;
  if (kind == Kind::kHot) hot_set = Draw(&accounts, scale.hot_set, &rng);

  // Set-up, several times; the last one is served.
  Served served;
  std::vector<double> setup_s, setup_wall_s, prepare_s, epoch_s, f1, save_s,
      load_s, gen_s, feat_s;
  const std::string ckpt_path = args.out_dir + "/" + args.workload + ".ckpt";
  for (int rep = 0; rep < scale.serve_setup_reps; ++rep) {
    // Release the previous set-up first, users before what they use.
    served.engine.reset();
    served.model.reset();
    served.world = World{};
    if (!SetUpOnce(kind, scale, ckpt_path, hot_set, probe, &served, report)) {
      return;
    }
    setup_s.push_back(served.setup_s);
    setup_wall_s.push_back(served.setup_wall_s);
    prepare_s.push_back(served.prepare_s);
    epoch_s.push_back(served.epoch_s);
    f1.push_back(served.test_f1);
    save_s.push_back(served.save_s);
    load_s.push_back(served.load_s);
    gen_s.push_back(served.world.generate_s);
    feat_s.push_back(served.world.build_graph_s);
  }
  bsg::Bsg4Bot* model = served.model.get();
  bsg::DetectionEngine* engine = served.engine.get();
  const bsg::HeteroGraph& g = *served.world.graph;

  // Request streams. serve-single draws Zipf(s = 1) over a seeded ranking
  // of all accounts. Each phase (warm-up, window, traced warm-up, traced
  // window, open loop) draws from its own generator seeded from --seed and
  // the phase, so the requests of a phase do not depend on how many an
  // earlier phase sent in its time.
  const int width = engine->batch_size();
  std::vector<int> ranking = accounts;
  Draw(&ranking, scale.accounts, &rng);
  std::vector<double> zipf_cdf(ranking.size());
  double zipf_total = 0.0;
  for (size_t i = 0; i < zipf_cdf.size(); ++i) {
    zipf_cdf[i] = zipf_total += 1.0 / (static_cast<double>(i) + 1.0);
  }
  auto zipf = [&](bsg::Rng* r) {
    const double u = r->Uniform() * zipf_total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    return ranking[std::min(rank, ranking.size() - 1)];
  };
  auto phase_rng = [&](uint64_t phase) {
    return bsg::Rng(args.seed ^ (phase * 0x9E3779B97F4A7C15ULL));
  };
  auto stream = [&](uint64_t phase) -> std::function<std::vector<int>()> {
    if (kind == Kind::kHot) {
      return [r = phase_rng(phase), pool = hot_set, width]() mutable {
        return Draw(&pool, width, &r);
      };
    }
    return [r = phase_rng(phase), &zipf]() mutable {
      return std::vector<int>{zipf(&r)};
    };
  };
  const bool single = kind == Kind::kSingle;
  const int outstanding = single ? scale.single_outstanding : scale.outstanding;

  bsg::FrontendConfig fcfg;
  fcfg.workers = scale.workers;
  auto frontend = std::make_unique<bsg::ServingFrontend>(engine, fcfg);
  probe.Unpin();  // the workers keep the program's CPU; the generator leaves it
  uint64_t submitted = 0;
  const size_t keep = static_cast<size_t>(
      kind == Kind::kHot ? scale.replay_hot : scale.replay_single);

  // One measured window after an untimed warm-up.
  auto run_window = [&](uint64_t warm_phase, uint64_t phase, SpanLog* log) {
    Window warm = ClosedLoop(frontend.get(), stream(warm_phase), single,
                             outstanding, scale.warm_s, 0, nullptr);
    submitted += warm.requests;
    Window w = ClosedLoop(frontend.get(), stream(phase), single, outstanding,
                          args.seconds, keep, log);
    submitted += w.requests;
    return w;
  };

  const bsg::FrontendStats before = frontend->Stats();
  Window w = run_window(1, 2, nullptr);
  const bsg::FrontendStats after = frontend->Stats();
  const double targets_per_s = RefThroughput(probe, w);
  const std::vector<double> latency_ms = RefLatencyMs(probe, w);

  SpanLog log;
  Window traced, open;
  if (args.trace) traced = run_window(3, 4, &log);
  if (args.trace && single) {
    // The open-loop phase: a Poisson schedule of single-account requests
    // at a fixed offered rate, computed up front, each timed from its due
    // time. Diagnostic only (see the workload rationale).
    std::vector<int> open_targets;
    std::vector<double> due_s;
    bsg::Rng r = phase_rng(5);
    const double total = scale.warm_s + scale.open_seconds;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - r.Uniform()) / scale.open_rps;
      if (t >= total) break;
      due_s.push_back(t);
      open_targets.push_back(zipf(&r));
    }
    open = OpenLoop(frontend.get(), open_targets, due_s, scale.warm_s);
    submitted += open_targets.size();
  }
  frontend->Close();
  CheckConservation(frontend->Stats(), submitted, report);
  CheckScores(kind, model, w.kept, report);
  report->attempted = w.requests;
  report->failed = w.failed;

  report->Set("setup_s", Median(setup_s));
  report->Set("prepare_s", Median(prepare_s));
  report->Set("epoch_s", Median(epoch_s));
  report->Set("test_f1", Median(f1));
  report->Set("targets_per_s", targets_per_s);
  report->Set("latency_p50_ms", Quantile(latency_ms, 0.5));
  report->Set("latency_p95_ms", Quantile(latency_ms, kTailQuantile));
  report->Set("peak_rss_mb", PeakRssMb());
  report->Meta("wall.setup_s", Median(setup_wall_s));
  report->Meta("wall.targets_per_s", Throughput(w));
  report->Meta("wall.latency_p50_ms", Quantile(w.latency_ms, 0.5));
  report->Meta("wall.latency_p95_ms", Quantile(w.latency_ms, kTailQuantile));
  report->Set("host.probe_us", probe.MedianProbeUs());
  report->Meta("failed_frac", Ratio(w.failed, w.requests));
  const double beyond =
      (1.0 - kTailQuantile) * static_cast<double>(w.latency_ms.size());
  report->Meta("latency_samples_beyond_p95", std::floor(beyond));
  StampMeta(args, scale, g, scale.workers, report);
  if (!args.trace) return;

  // ---- per-layer numbers (traced mode) ----
  const bsg::SubgraphCacheStats& c0 = before.engine.cache;
  const bsg::SubgraphCacheStats& c1 = after.engine.cache;
  report->Set("datagen.generate_s", Median(gen_s));
  report->Set("features.build_graph_s", Median(feat_s));
  report->Set("ckpt.save_s", Median(save_s));
  report->Set("ckpt.load_s", Median(load_s));
  report->Set("latency.samples", static_cast<double>(w.latency_ms.size()));
  report->Set("cache.hit_ratio",
              Ratio(c1.hits - c0.hits, c1.lookups - c0.lookups));
  report->Set("cache.coalesced_misses",
              static_cast<double>(c1.coalesced_misses - c0.coalesced_misses));
  report->Set("cache.evictions",
              static_cast<double>(c1.evictions - c0.evictions));
  // Every build a miss runs is one PPR push per relation.
  const uint64_t builds =
      (c1.misses - c0.misses) - (c1.coalesced_misses - c0.coalesced_misses);
  report->Set("ppr.calls", static_cast<double>(builds * g.num_relations()));
  report->Set("stack.f32_weight_reuses",
              static_cast<double>(after.engine.stacker.weights_f32_reuses -
                                  before.engine.stacker.weights_f32_reuses));
  report->Set("stack.carcass_reuse_ratio",
              Ratio(after.engine.stacker.carcass_reuses -
                        before.engine.stacker.carcass_reuses,
                    after.engine.stacker.batches_stacked -
                        before.engine.stacker.batches_stacked));
  report->Set("pool.hit_ratio",
              Ratio(after.engine.pool_hits - before.engine.pool_hits,
                    after.engine.pool_acquires - before.engine.pool_acquires));
  report->Set("frontend.submit_us", Median(w.submit_us));
  report->Set("frontend.queue_depth_peak",
              static_cast<double>(after.queue_depth_peak));
  report->Set("frontend.shed",
              static_cast<double>(after.shed_requests - before.shed_requests));
  report->Set("governor.peak_bytes",
              static_cast<double>(
                  bsg::ResourceGovernor::Global().Stats().peak_total_bytes));
  if (single) {
    report->Set("loadgen.late_p99_ms", Quantile(open.late_ms, 0.99));
    report->Set("loadgen.offered_rps", scale.open_rps);
    report->Set("loadgen.achieved_rps", static_cast<double>(open.requests) /
                                            std::max(open.seconds, 1e-9));
    report->Set("open.latency_p50_ms", Quantile(open.latency_ms, 0.5));
    report->Set("open.latency_p99_ms", Quantile(open.latency_ms, 0.99));
    report->Set("open.failed", static_cast<double>(open.failed));
  }
  report->Set("trace.overhead_frac",
              1.0 - RefThroughput(probe, traced) / targets_per_s);
  // The serial replay's times are wall times: compare with wall throughput.
  const double wall_tps = Throughput(w);

  Replay replay =
      ReplayRequests(kind, model, engine, traced.kept, &log, report);
  double serial_s = 0.0;
  for (double ms : replay.service_ms) serial_s += ms * 1e-3;
  report->Set("engine.parallel_speedup",
              serial_s > 0.0
                  ? wall_tps / (replay.service_targets / serial_s)
                  : 0.0);
  std::vector<double> wait_ms;
  for (size_t i = 0; i < traced.kept.size(); ++i) {
    wait_ms.push_back(traced.kept[i].latency_ms - replay.service_ms[i]);
  }
  report->Set("frontend.queue_wait_ms", Median(wait_ms));
  report->Check(log.Write(args.out_dir + "/spans-" + args.workload + ".jsonl"),
                "cannot write the span file");
}

}  // namespace perfbench
