// Per-request tracing: the disarmed fast path allocates nothing (asserted
// with the counting allocator probe), sampling is deterministic 1-in-N on
// the admission sequence, span recording is bounded (fixed capacity with
// truncation counting, bounded completed ring, bounded live slots), and —
// the end-to-end contract — a retried-then-served request traced through
// the real ServingFrontend + DetectionEngine shows every pipeline stage
// with span durations summing to at most the request's e2e latency. With
// every component bridged into the metrics registry, serving stays
// bit-identical untraced and fully traced, and conservation re-derives
// exactly from one registry snapshot.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "core/bsg4bot.h"
#include "obs/adapters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/frontend.h"
#include "test_common.h"
#include "util/fault.h"

namespace bsg {
namespace {

using obs::CompletedTrace;
using obs::RequestTrace;
using obs::Tracer;
using obs::TraceStage;
using testing::SmallGraph;

/// Leaves the global tracer disarmed when a test scope exits.
struct TracerGuard {
  ~TracerGuard() { Tracer::Global().Disable(); }
};

struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

TEST(Tracer, DisabledPathReturnsNullAndNeverAllocates) {
  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  // Warm the thread-local shard index and any lazy statics first.
  ASSERT_EQ(tracer.MaybeStart(1), nullptr);

  const uint64_t before = t_allocs;
  for (int i = 0; i < 100000; ++i) {
    if (tracer.MaybeStart(7) != nullptr) {
      FAIL() << "disabled tracer sampled a request";
    }
  }
  const uint64_t after = t_allocs;
  // The whole point of the g_trace_sample_every fast path: one relaxed
  // load and a predicted branch, zero heap traffic.
  EXPECT_EQ(after - before, 0u);
}

TEST(Tracer, SamplingIsDeterministicOnAdmissionSequence) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  for (int round = 0; round < 2; ++round) {
    // Enable resets the admission sequence, so a replayed workload
    // samples the same requests.
    tracer.Enable(/*sample_every=*/3);
    std::vector<int> sampled_at;
    for (int i = 0; i < 9; ++i) {
      RequestTrace* t = tracer.MaybeStart(1);
      if (t != nullptr) {
        sampled_at.push_back(i);
        EXPECT_EQ(t->seq, static_cast<uint64_t>(i));
        tracer.Finish(t, "ok", 1);
      }
    }
    EXPECT_EQ(sampled_at, (std::vector<int>{0, 3, 6})) << "round " << round;
    EXPECT_EQ(tracer.Stats().sampled, 3u);
    EXPECT_EQ(tracer.Stats().completed, 3u);
  }
}

TEST(Tracer, SpanRecordingAndStageQueries) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  RequestTrace* t = tracer.MaybeStart(4);
  ASSERT_NE(t, nullptr);
  t->AddSpan(TraceStage::kQueueWait, 100, 10);
  t->AddSpan(TraceStage::kForward, 200, 30, /*chunk=*/0);
  t->AddSpan(TraceStage::kForward, 300, 40, /*chunk=*/1);
  EXPECT_EQ(t->SpanCount(), 3u);
  EXPECT_TRUE(t->HasStage(TraceStage::kQueueWait));
  EXPECT_FALSE(t->HasStage(TraceStage::kBackoff));
  EXPECT_EQ(t->StageTotalNs(TraceStage::kForward), 70u);
  EXPECT_EQ(t->TotalSpanNs(), 80u);
  tracer.Finish(t, "ok", 1);

  std::vector<CompletedTrace> done = tracer.Completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].num_targets, 4u);
  EXPECT_EQ(done[0].status, "ok");
  EXPECT_EQ(done[0].spans.size(), 3u);
  EXPECT_EQ(done[0].StageTotalNs(TraceStage::kForward), 70u);
  EXPECT_EQ(done[0].spans[1].chunk, 0);
  EXPECT_EQ(done[0].spans[2].chunk, 1);
}

TEST(Tracer, SpanCapacityTruncatesInsteadOfGrowing) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  RequestTrace* t = tracer.MaybeStart(1);
  ASSERT_NE(t, nullptr);
  for (size_t i = 0; i < RequestTrace::kMaxSpans + 5; ++i) {
    t->AddSpan(TraceStage::kForward, i, 1);
  }
  EXPECT_EQ(t->SpanCount(), RequestTrace::kMaxSpans);
  tracer.Finish(t, "ok", 1);
  EXPECT_EQ(tracer.Stats().truncated_spans, 5u);
  std::vector<CompletedTrace> done = tracer.Completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].spans.size(), RequestTrace::kMaxSpans);
}

TEST(Tracer, CompletedRingIsBoundedOldestEvicted) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable(/*sample_every=*/1, /*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    RequestTrace* t = tracer.MaybeStart(1);
    ASSERT_NE(t, nullptr) << i;
    tracer.Finish(t, "ok", 1);
  }
  std::vector<CompletedTrace> done = tracer.Completed();
  ASSERT_EQ(done.size(), 4u);
  // Oldest first, and only the newest four survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(done[static_cast<size_t>(i)].seq,
              static_cast<uint64_t>(6 + i));
  }
  EXPECT_EQ(tracer.Stats().completed, 10u);
}

TEST(Tracer, LiveSlotExhaustionDropsAndCounts) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable(/*sample_every=*/1, /*ring_capacity=*/64, /*max_live=*/2);
  // Check out every live slot (the pool only ever grows across Enables,
  // so drain it rather than assuming its exact size), then one more
  // sample hit must drop — not allocate.
  std::vector<RequestTrace*> live;
  for (int i = 0; i < 1000; ++i) {
    RequestTrace* t = tracer.MaybeStart(1);
    if (t == nullptr) break;
    live.push_back(t);
  }
  ASSERT_GE(live.size(), 2u);
  ASSERT_LT(live.size(), 1000u);
  EXPECT_EQ(tracer.Stats().dropped_no_slot, 1u);
  EXPECT_EQ(tracer.MaybeStart(1), nullptr);
  EXPECT_EQ(tracer.Stats().dropped_no_slot, 2u);
  // Finishing one recycles its slot for the next sample hit.
  tracer.Finish(live.back(), "ok", 1);
  live.pop_back();
  EXPECT_NE(tracer.MaybeStart(1), nullptr);
  for (RequestTrace* t : live) tracer.Abandon(t);
}

TEST(Tracer, AbandonRecyclesWithoutRecording) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  RequestTrace* t = tracer.MaybeStart(1);
  ASSERT_NE(t, nullptr);
  tracer.Abandon(t);
  EXPECT_EQ(tracer.Stats().abandoned, 1u);
  EXPECT_EQ(tracer.Stats().completed, 0u);
  EXPECT_TRUE(tracer.Completed().empty());
  // Null is a no-op for both resolve paths.
  tracer.Finish(nullptr, "ok", 1);
  tracer.Abandon(nullptr);
}

TEST(Tracer, DisableLeavesInFlightTracesValid) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  RequestTrace* t = tracer.MaybeStart(2);
  ASSERT_NE(t, nullptr);
  tracer.Disable();
  EXPECT_EQ(tracer.MaybeStart(1), nullptr);
  t->AddSpan(TraceStage::kForward, 1, 2);
  tracer.Finish(t, "ok", 1);  // slot reclaimed, ring keeps the trace
  EXPECT_EQ(tracer.Completed().size(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced request through the real serving stack.

Bsg4BotConfig TraceModelConfig() {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 8;
  cfg.subgraph.k = 10;
  cfg.hidden = 12;
  cfg.batch_size = 16;
  cfg.max_epochs = 3;
  cfg.min_epochs = 3;
  cfg.seed = 31;
  return cfg;
}

Bsg4Bot& TrainedModel() {
  static Bsg4Bot* model = [] {
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), TraceModelConfig());
    m->Fit();
    return m;
  }();
  return *model;
}

TEST(TraceIntegration, RetriedRequestShowsEveryStageAndSpansFitE2e) {
  TracerGuard tracer_guard;
  FaultGuard fault_guard;
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 1;
  cfg.max_retries = 2;
  ServingFrontend frontend(&engine, cfg);

  // The first forward pass fails retryably, the retry serves: the trace
  // must show the whole story — queue wait, a cold-cache probe + build +
  // stack, the backoff sleep, the re-assembly, and the successful forward.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("engine.forward:first=1", /*seed=*/7)
                  .ok());
  Tracer::Global().Enable(/*sample_every=*/1);

  // One single-chunk request (8 targets < batch_size 16): every stage runs
  // sequentially on one worker, so span durations are disjoint and must
  // sum to <= the end-to-end latency.
  const std::vector<int>& pool = SmallGraph().test_idx;
  std::vector<int> targets(pool.begin(), pool.begin() + 8);
  FrontendResult res = frontend.ScoreBatch(targets);
  ASSERT_EQ(res.status, RequestStatus::kOk);
  EXPECT_EQ(res.attempts, 2);
  ASSERT_EQ(res.scores.size(), targets.size());

  std::vector<CompletedTrace> done = Tracer::Global().Completed();
  ASSERT_EQ(done.size(), 1u);
  const CompletedTrace& t = done[0];
  EXPECT_EQ(t.status, "ok");
  EXPECT_EQ(t.attempts, 2);
  EXPECT_EQ(t.num_targets, targets.size());

  for (TraceStage stage :
       {TraceStage::kQueueWait, TraceStage::kCacheProbe, TraceStage::kBuild,
        TraceStage::kStack, TraceStage::kForward, TraceStage::kBackoff}) {
    EXPECT_TRUE(t.HasStage(stage)) << obs::TraceStageName(stage);
  }
  EXPECT_FALSE(t.HasStage(TraceStage::kDegraded));

  // The retry re-probes (now hitting the cache) and re-stacks: two probe
  // and two stack spans, but only one build (the subgraphs are cached) and
  // one forward (the faulted attempt failed before its forward span).
  int probes = 0, builds = 0, stacks = 0, forwards = 0;
  for (const obs::TraceSpan& s : t.spans) {
    probes += s.stage == TraceStage::kCacheProbe;
    builds += s.stage == TraceStage::kBuild;
    stacks += s.stage == TraceStage::kStack;
    forwards += s.stage == TraceStage::kForward;
  }
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(stacks, 2);
  EXPECT_EQ(forwards, 1);

  // Every span lies inside the request window and the stages are disjoint,
  // so the stage breakdown can never claim more time than the request
  // actually took.
  EXPECT_GT(t.ElapsedNs(), 0u);
  EXPECT_LE(t.TotalSpanNs(), t.ElapsedNs());
  for (const obs::TraceSpan& s : t.spans) {
    EXPECT_GE(s.start_ns, t.start_ns) << obs::TraceStageName(s.stage);
    EXPECT_LE(s.start_ns + s.dur_ns, t.end_ns) << obs::TraceStageName(s.stage);
  }

  // A multi-chunk request (40 cold targets = 3 chunks of 16): the engine
  // assembles and scores its chunks one after another on the worker, so
  // its spans are disjoint too and the same bound holds.
  std::vector<int> multi(pool.begin() + 8, pool.begin() + 48);
  FrontendResult multi_res = frontend.ScoreBatch(multi);
  ASSERT_EQ(multi_res.status, RequestStatus::kOk);
  done = Tracer::Global().Completed();
  ASSERT_EQ(done.size(), 2u);
  const CompletedTrace& m = done[1];
  EXPECT_EQ(m.num_targets, multi.size());
  int multi_forwards = 0;
  for (const obs::TraceSpan& s : m.spans) {
    if (s.stage == TraceStage::kForward) {
      EXPECT_EQ(s.chunk, multi_forwards);
      ++multi_forwards;
    }
    EXPECT_GE(s.start_ns, m.start_ns) << obs::TraceStageName(s.stage);
    EXPECT_LE(s.start_ns + s.dur_ns, m.end_ns) << obs::TraceStageName(s.stage);
  }
  EXPECT_EQ(multi_forwards, 3);
  EXPECT_LE(m.TotalSpanNs(), m.ElapsedNs());

  // The always-on histograms saw the same request regardless of tracing.
  const obs::RegistrySnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramSnapshot* lat =
      snap.FindHistogram(obs::metric::kRequestLatencyMs);
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count, 1u);
}

TEST(TraceIntegration, ArmedMetricsAndTracingKeepLogitsAndConservation) {
  TracerGuard tracer_guard;
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& pool = SmallGraph().test_idx;
  std::vector<std::vector<int>> requests;
  for (size_t r = 0; r < 4; ++r) {
    requests.emplace_back(pool.begin() + 8 * r, pool.begin() + 8 * (r + 1));
  }
  std::vector<std::vector<Score>> oracle;
  {
    DetectionEngine engine(&model, EngineConfig{});
    for (const std::vector<int>& req : requests) {
      oracle.push_back(engine.ScoreBatch(req));
    }
  }

  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 2;
  cfg.default_deadline_ms = 60'000.0;
  cfg.max_retries = 2;
  cfg.breaker_threshold = 4;
  ServingFrontend frontend(&engine, cfg);
  // The full metrics surface serve_cli exports, every component bridged.
  std::vector<obs::GaugeRegistration> regs;
  regs.push_back(obs::RegisterEngineMetrics(&engine));
  regs.push_back(obs::RegisterFrontendMetrics(&frontend));
  regs.push_back(obs::RegisterBufferPoolMetrics());
  regs.push_back(obs::RegisterFaultMetrics());
  regs.push_back(obs::RegisterCheckpointIoMetrics());
  regs.push_back(obs::RegisterTracerMetrics());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto latency_count = [&registry] {
    const obs::RegistrySnapshot snap = registry.Snapshot();
    const obs::HistogramSnapshot* lat =
        snap.FindHistogram(obs::metric::kRequestLatencyMs);
    return lat == nullptr ? uint64_t{0} : lat->count;
  };
  const uint64_t latency_before = latency_count();

  // Untraced, then every request traced: neither may move a logit bit.
  for (int traced = 0; traced < 2; ++traced) {
    if (traced == 1) {
      Tracer::Global().Enable(/*sample_every=*/1, /*ring_capacity=*/64,
                              /*max_live=*/16);
    }
    std::vector<std::vector<Score>> got(requests.size());
    std::vector<std::thread> clients;
    for (size_t r = 0; r < requests.size(); ++r) {
      clients.emplace_back([&, r] {
        FrontendResult res = frontend.ScoreBatch(requests[r]);
        ASSERT_EQ(res.status, RequestStatus::kOk);
        got[r] = std::move(res.scores);
      });
    }
    for (std::thread& c : clients) c.join();
    for (size_t r = 0; r < requests.size(); ++r) {
      ASSERT_EQ(got[r].size(), oracle[r].size());
      for (size_t i = 0; i < got[r].size(); ++i) {
        EXPECT_EQ(got[r][i].logit_human, oracle[r][i].logit_human);
        EXPECT_EQ(got[r][i].logit_bot, oracle[r][i].logit_bot);
      }
    }
  }
  const obs::TracerStats ts = Tracer::Global().Stats();
  Tracer::Global().Disable();
  EXPECT_EQ(ts.sampled, requests.size());
  EXPECT_EQ(ts.dropped_no_slot, 0u);
  EXPECT_EQ(ts.completed, ts.sampled);

  // Request and target conservation, re-derived from one registry snapshot
  // exactly as an exporter would see it.
  const obs::RegistrySnapshot snap = registry.Snapshot();
  const auto gauge = [&snap](const std::string& name) {
    EXPECT_TRUE(snap.HasGauge(name)) << name;
    return static_cast<uint64_t>(snap.Gauge(name));
  };
  uint64_t requests_out = 0;
  uint64_t targets_out = 0;
  for (const char* outcome :
       {"served", "shed", "closed", "timed_out", "failed", "degraded"}) {
    requests_out +=
        gauge(std::string("serve.frontend.") + outcome + "_requests");
    targets_out += gauge(std::string("serve.frontend.targets_") + outcome);
  }
  EXPECT_EQ(gauge("serve.frontend.submitted_requests"), 2 * requests.size());
  EXPECT_EQ(gauge("serve.frontend.submitted_requests"), requests_out);
  EXPECT_EQ(gauge("serve.frontend.targets_submitted"), targets_out);
  EXPECT_EQ(gauge("serve.frontend.served_requests"), 2 * requests.size());
  EXPECT_EQ(gauge("serve.frontend.retries"), 0u);
  // The always-on latency histogram saw every request, traced or not.
  EXPECT_EQ(latency_count() - latency_before, 2 * requests.size());
}

TEST(TraceIntegration, UntracedRequestsRecordNoTraces) {
  TracerGuard tracer_guard;
  Tracer::Global().Enable(/*sample_every=*/1);
  Tracer::Global().Disable();
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 1;
  ServingFrontend frontend(&engine, cfg);
  const std::vector<int>& pool = SmallGraph().test_idx;
  std::vector<int> targets(pool.begin(), pool.begin() + 8);
  FrontendResult res = frontend.ScoreBatch(targets);
  ASSERT_EQ(res.status, RequestStatus::kOk);
  EXPECT_TRUE(Tracer::Global().Completed().empty());
  EXPECT_EQ(Tracer::Global().Stats().sampled, 0u);
}

}  // namespace
}  // namespace bsg
