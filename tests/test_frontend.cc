// ServingFrontend: bit-identity with the serial engine oracle at worker
// counts 1/2/4 under multi-threaded clients, deterministic load shedding
// (queue-full and latency-budget) with exact counter accounting, explicit
// kClosed resolution of the shutdown backlog, conservation under live
// overload, hot graph swap (stale-version purge + either-version logits
// during concurrent traffic), and Stats() polling under load (the TSan CI
// stage runs this whole binary).
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "serve/frontend.h"
#include "test_common.h"
#include "util/fault.h"
#include "util/resource_governor.h"

namespace bsg {
namespace {

using testing::SmallGraph;

Bsg4BotConfig FrontendModelConfig(unsigned seed) {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 8;
  cfg.subgraph.k = 10;
  cfg.hidden = 12;
  cfg.batch_size = 16;  // small chunks -> multi-chunk batch requests
  cfg.max_epochs = 3;
  cfg.min_epochs = 3;
  cfg.seed = seed;
  return cfg;
}

// One trained model per binary; every test builds its own engine/front-end.
Bsg4Bot& TrainedModel() {
  static Bsg4Bot* model = [] {
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), FrontendModelConfig(21));
    m->Fit();
    return m;
  }();
  return *model;
}

// A second trained model (different seed, same architecture) for swaps.
Bsg4Bot& SwappedModel() {
  static Bsg4Bot* model = [] {
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), FrontendModelConfig(22));
    m->Fit();
    return m;
  }();
  return *model;
}

// The request stream every determinism test replays: a mix of batch
// requests (multi-chunk and sub-chunk) and singles over the test split.
std::vector<std::vector<int>> RequestStream() {
  const std::vector<int>& pool = SmallGraph().test_idx;
  std::vector<std::vector<int>> requests;
  size_t i = 0;
  const size_t sizes[] = {40, 1, 16, 7, 1, 24, 3};  // mixed compositions
  for (size_t s : sizes) {
    std::vector<int> req;
    for (size_t k = 0; k < s; ++k) req.push_back(pool[(i++) % pool.size()]);
    requests.push_back(std::move(req));
  }
  return requests;
}

std::vector<std::vector<Score>> SerialOracle(
    Bsg4Bot& model, const std::vector<std::vector<int>>& requests) {
  DetectionEngine engine(&model, EngineConfig{});
  std::vector<std::vector<Score>> out;
  for (const std::vector<int>& req : requests) {
    if (req.size() == 1) {
      Score one;
      EXPECT_TRUE(engine.TryScoreOne(req[0], ScoreOptions::None(), &one).ok());
      out.push_back({one});
    } else {
      out.push_back(engine.ScoreBatch(req));
    }
  }
  return out;
}

void ExpectSameScores(const std::vector<Score>& got,
                      const std::vector<Score>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].target, want[i].target) << i;
    // Bitwise: the front-end must not perturb the engine's determinism
    // contract no matter how requests interleave across workers.
    EXPECT_EQ(got[i].logit_human, want[i].logit_human) << i;
    EXPECT_EQ(got[i].logit_bot, want[i].logit_bot) << i;
  }
}

TEST(ServingFrontend, BitIdenticalToSerialOracleAcrossWorkerCounts) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<std::vector<int>> requests = RequestStream();
  const std::vector<std::vector<Score>> oracle =
      SerialOracle(model, requests);

  for (int workers : {1, 2, 4}) {
    DetectionEngine engine(&model, EngineConfig{});
    FrontendConfig cfg;
    cfg.workers = workers;
    ServingFrontend frontend(&engine, cfg);

    // Pass 0 assembles every subgraph (cold cache); pass 1 replays the
    // stream from the warm cache. Both must match the oracle bitwise.
    for (int pass = 0; pass < 2; ++pass) {
      // One client thread per request, all submitting at once.
      std::vector<std::vector<Score>> got(requests.size());
      std::vector<std::thread> clients;
      for (size_t r = 0; r < requests.size(); ++r) {
        clients.emplace_back([&, r] {
          FrontendResult res =
              requests[r].size() == 1
                  ? frontend.ScoreOne(requests[r][0])
                  : frontend.ScoreBatch(requests[r]);
          ASSERT_EQ(res.status, RequestStatus::kOk);
          got[r] = std::move(res.scores);
        });
      }
      for (std::thread& c : clients) c.join();
      for (size_t r = 0; r < requests.size(); ++r) {
        ExpectSameScores(got[r], oracle[r]);
      }
    }

    FrontendStats stats = frontend.Stats();
    EXPECT_EQ(stats.submitted_requests, 2 * requests.size()) << workers;
    EXPECT_EQ(stats.served_requests, 2 * requests.size()) << workers;
    // No overload: nothing shed, nothing silently dropped.
    EXPECT_EQ(stats.shed_requests, 0u) << workers;
    EXPECT_EQ(stats.ShedRate(), 0.0) << workers;
    EXPECT_EQ(stats.closed_requests, 0u) << workers;
    EXPECT_EQ(stats.targets_served, stats.targets_submitted) << workers;
    EXPECT_GT(stats.ms_per_target_estimate, 0.0) << workers;
  }
}

TEST(ServingFrontend, QueueFullShedsWithExactAccounting) {
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 0;  // admission-only: nothing drains, decisions are exact
  cfg.queue_capacity = 4;
  ServingFrontend frontend(&engine, cfg);

  std::vector<std::future<FrontendResult>> futures;
  for (int i = 0; i < 7; ++i) {
    futures.push_back(frontend.Submit({i, i + 1}));
  }
  // First 4 fill the queue; the last 3 must shed immediately.
  for (int i = 4; i < 7; ++i) {
    FrontendResult res = futures[static_cast<size_t>(i)].get();
    EXPECT_EQ(res.status, RequestStatus::kShed) << i;
    EXPECT_TRUE(res.scores.empty()) << i;
  }
  FrontendStats mid = frontend.Stats();
  EXPECT_EQ(mid.submitted_requests, 7u);
  EXPECT_EQ(mid.shed_requests, 3u);
  EXPECT_EQ(mid.shed_queue_full, 3u);
  EXPECT_EQ(mid.shed_latency, 0u);
  EXPECT_EQ(mid.targets_shed, 6u);
  EXPECT_EQ(mid.queue_depth_peak, 4u);

  // Close fails the queued backlog explicitly — every future resolves.
  frontend.Close();
  for (int i = 0; i < 4; ++i) {
    FrontendResult res = futures[static_cast<size_t>(i)].get();
    EXPECT_EQ(res.status, RequestStatus::kClosed) << i;
  }
  FrontendStats end = frontend.Stats();
  EXPECT_EQ(end.closed_requests, 4u);
  EXPECT_EQ(end.targets_closed, 8u);
  // Conservation: every submitted request is served, shed, or closed.
  EXPECT_EQ(end.submitted_requests,
            end.served_requests + end.shed_requests + end.closed_requests);
  EXPECT_EQ(end.targets_submitted,
            end.targets_served + end.targets_shed + end.targets_closed);

  // Submission after Close resolves kClosed, never hangs.
  FrontendResult late = frontend.Submit({1, 2, 3}).get();
  EXPECT_EQ(late.status, RequestStatus::kClosed);
  EXPECT_EQ(frontend.Stats().closed_requests, 5u);
}

TEST(ServingFrontend, LatencyBudgetShedsOnFrozenCostModel) {
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 0;  // backlog never drains: inflight_targets is exact
  cfg.queue_capacity = 64;
  cfg.shed_p95_ms = 25.0;
  cfg.initial_ms_per_target = 10.0;
  cfg.freeze_cost_model = true;
  ServingFrontend frontend(&engine, cfg);

  // Estimated wait = (inflight + request) * 10ms / max(workers, 1).
  auto f1 = frontend.Submit({1, 2});     // (0+2)*10 = 20ms <= 25 -> queued
  auto f2 = frontend.Submit({3, 4});     // (2+2)*10 = 40ms  > 25 -> shed
  auto f3 = frontend.SubmitOne(5);       // (2+1)*10 = 30ms  > 25 -> shed
  EXPECT_EQ(f2.get().status, RequestStatus::kShed);
  EXPECT_EQ(f3.get().status, RequestStatus::kShed);

  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.shed_latency, 2u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
  EXPECT_EQ(stats.targets_shed, 3u);
  EXPECT_EQ(stats.ms_per_target_estimate, 10.0);  // frozen

  frontend.Close();
  EXPECT_EQ(f1.get().status, RequestStatus::kClosed);
}

TEST(ServingFrontend, LiveOverloadConservesEveryRequest) {
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 2;  // deliberate overload: clients outrun the queue
  ServingFrontend frontend(&engine, cfg);

  const std::vector<int>& pool = SmallGraph().test_idx;
  constexpr int kClients = 6;
  constexpr int kPerClient = 8;
  std::atomic<uint64_t> ok{0}, shed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        std::vector<int> req = {pool[static_cast<size_t>(c * kPerClient + i) %
                                     pool.size()]};
        FrontendResult res = frontend.ScoreBatch(std::move(req));
        if (res.status == RequestStatus::kOk) {
          ASSERT_EQ(res.scores.size(), 1u);
          ok.fetch_add(1);
        } else {
          ASSERT_EQ(res.status, RequestStatus::kShed);
          shed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  frontend.Close();

  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted_requests,
            static_cast<uint64_t>(kClients * kPerClient));
  // The stats agree with what the clients actually observed: sheds are
  // reported, never silent.
  EXPECT_EQ(stats.served_requests, ok.load());
  EXPECT_EQ(stats.shed_requests, shed.load());
  EXPECT_EQ(stats.submitted_requests,
            stats.served_requests + stats.shed_requests +
                stats.closed_requests);
  EXPECT_LE(stats.queue_depth_peak, 2u);
}

TEST(ServingFrontend, HotSwapPurgesStaleVersionsAndServesNewGraph) {
  Bsg4Bot& model_v0 = TrainedModel();
  Bsg4Bot& model_v1 = SwappedModel();
  DetectionEngine engine(&model_v0, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 2;
  ServingFrontend frontend(&engine, cfg);

  const std::vector<std::vector<int>> requests = RequestStream();
  for (const std::vector<int>& req : requests) {
    ASSERT_EQ(frontend.ScoreBatch(req).status, RequestStatus::kOk);
  }
  SubgraphCacheStats before = engine.cache().Stats();
  ASSERT_GT(before.entries, 0u);
  ASSERT_EQ(before.version_evictions, 0u);

  frontend.SwapGraph(&model_v1, /*graph_version=*/1);
  EXPECT_EQ(engine.graph_version(), 1u);
  EXPECT_EQ(frontend.Stats().graph_swaps, 1u);

  // Every version-0 resident was purged; the books balance exactly, which
  // means zero stale-version entries survive the swap.
  SubgraphCacheStats after = engine.cache().Stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.version_evictions, before.entries);
  EXPECT_EQ(after.inserts,
            after.entries + after.evictions + after.version_evictions);

  // Post-swap traffic scores through the new model, bit-identically to its
  // serial oracle (fresh assembly: the purge emptied the cache).
  const std::vector<std::vector<Score>> oracle_v1 =
      SerialOracle(model_v1, requests);
  for (size_t r = 0; r < requests.size(); ++r) {
    FrontendResult res = requests[r].size() == 1
                             ? frontend.ScoreOne(requests[r][0])
                             : frontend.ScoreBatch(requests[r]);
    ASSERT_EQ(res.status, RequestStatus::kOk);
    ExpectSameScores(res.scores, oracle_v1[r]);
  }
}

TEST(ServingFrontend, SwapUnderConcurrentTrafficYieldsOneVersionPerRequest) {
  Bsg4Bot& model_v0 = TrainedModel();
  Bsg4Bot& model_v1 = SwappedModel();
  DetectionEngine engine(&model_v0, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 4;
  ServingFrontend frontend(&engine, cfg);

  const std::vector<std::vector<int>> requests = RequestStream();
  const std::vector<std::vector<Score>> oracle_v0 =
      SerialOracle(model_v0, requests);
  const std::vector<std::vector<Score>> oracle_v1 =
      SerialOracle(model_v1, requests);

  // Clients replay the stream while the swap lands mid-traffic. Every
  // request must match one oracle wholesale — a request served half on v0
  // and half on v1 would match neither.
  constexpr int kRounds = 4;
  std::vector<std::thread> clients;
  for (size_t r = 0; r < requests.size(); ++r) {
    clients.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        FrontendResult res = frontend.ScoreBatch(requests[r]);
        ASSERT_EQ(res.status, RequestStatus::kOk);
        const std::vector<Score>& want =
            res.scores[0].logit_bot == oracle_v0[r][0].logit_bot
                ? oracle_v0[r]
                : oracle_v1[r];
        ExpectSameScores(res.scores, want);
      }
    });
  }
  frontend.SwapGraph(&model_v1, /*graph_version=*/1);
  for (std::thread& c : clients) c.join();

  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.graph_swaps, 1u);
  EXPECT_EQ(stats.engine.cache.inserts,
            stats.engine.cache.entries + stats.engine.cache.evictions +
                stats.engine.cache.version_evictions);
}

TEST(ServingFrontend, StatsArePollableUnderLoad) {
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 2;
  ServingFrontend frontend(&engine, cfg);

  const std::vector<int>& pool = SmallGraph().test_idx;
  std::atomic<bool> done{false};
  // A monitoring thread hammers Stats() mid-ScoreBatch — the TSan CI stage
  // turns any unsynchronised counter into a hard failure here.
  std::thread monitor([&] {
    while (!done.load()) {
      FrontendStats s = frontend.Stats();
      ASSERT_GE(s.submitted_requests,
                s.served_requests + s.shed_requests + s.closed_requests);
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        std::vector<int> req(pool.begin(),
                             pool.begin() + std::min<size_t>(24, pool.size()));
        ASSERT_EQ(frontend.ScoreBatch(std::move(req)).status,
                  RequestStatus::kOk);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  done.store(true);
  monitor.join();

  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.served_requests, 18u);
  EXPECT_GT(stats.engine.stacker.batches_stacked, 0u);
}

// --- failure semantics (PR 8): deadlines, retries, breaker, chaos ----------

// Disarms fault injection when a test exits, pass or fail.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

// Exact request/target conservation — the invariant every one of these
// tests closes with.
void ExpectConservation(const FrontendStats& s) {
  EXPECT_EQ(s.submitted_requests, s.AccountedRequests());
  EXPECT_EQ(s.targets_submitted, s.AccountedTargets());
}

TEST(ServingFrontendFaults, DeadlineExpiredInQueueResolvesTimeout) {
  FaultGuard guard;
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 1;  // FIFO: the slow request pins the only worker
  ServingFrontend frontend(&engine, cfg);
  const std::vector<int>& pool = SmallGraph().test_idx;

  // The first request's forward pass is slowed by 100ms (fail=0: it still
  // succeeds); the second request's 30ms deadline expires while it queues.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("engine.forward:every=1,delay_ms=100,fail=0")
                  .ok());
  auto slow = frontend.Submit({pool[0], pool[1]});
  auto doomed = frontend.Submit({pool[2], pool[3]}, /*deadline_ms=*/30.0);

  FrontendResult slow_res = slow.get();
  EXPECT_EQ(slow_res.status, RequestStatus::kOk);
  FrontendResult doomed_res = doomed.get();
  EXPECT_EQ(doomed_res.status, RequestStatus::kTimeout);
  EXPECT_EQ(doomed_res.detail.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(doomed_res.detail.message().find("queued"), std::string::npos);
  EXPECT_EQ(doomed_res.attempts, 0);  // the engine was never reached
  EXPECT_TRUE(doomed_res.scores.empty());

  frontend.Close();
  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.timed_out_requests, 1u);
  EXPECT_EQ(stats.targets_timed_out, 2u);
  EXPECT_EQ(stats.served_requests, 1u);
  ExpectConservation(stats);
}

TEST(ServingFrontendFaults, RetryAfterTransientFaultIsBitIdentical) {
  FaultGuard guard;
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& pool = SmallGraph().test_idx;
  const std::vector<int> targets(pool.begin(), pool.begin() + 8);

  // Fault-free oracle for the same composition.
  std::vector<Score> oracle;
  {
    DetectionEngine engine(&model, EngineConfig{});
    oracle = engine.ScoreBatch(targets);
  }

  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 1;
  cfg.max_retries = 3;
  cfg.retry_backoff_ms = 0.1;  // keep the test fast
  ServingFrontend frontend(&engine, cfg);

  // First two forward passes fail; the third attempt succeeds.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("engine.forward:first=2").ok());
  FrontendResult res = frontend.ScoreBatch(targets);
  FaultInjector::Global().Disarm();

  EXPECT_EQ(res.status, RequestStatus::kOk);
  EXPECT_EQ(res.attempts, 3);
  // Success-after-retry is indistinguishable from first-try success:
  // bitwise-identical logits.
  ExpectSameScores(res.scores, oracle);

  frontend.Close();
  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.retry_successes, 1u);
  EXPECT_EQ(stats.served_requests, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
  ExpectConservation(stats);
}

TEST(ServingFrontendFaults, RetriesExhaustedResolveFailedWithCause) {
  FaultGuard guard;
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 1;
  cfg.max_retries = 1;
  cfg.retry_backoff_ms = 0.1;
  ServingFrontend frontend(&engine, cfg);
  const std::vector<int>& pool = SmallGraph().test_idx;

  // Every forward pass fails: the single retry is spent, the request
  // resolves kFailed carrying the engine's retryable Status as the cause.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("engine.forward:every=1").ok());
  FrontendResult res = frontend.ScoreBatch({pool[0], pool[1]});
  FaultInjector::Global().Disarm();

  EXPECT_EQ(res.status, RequestStatus::kFailed);
  EXPECT_EQ(res.detail.code(), StatusCode::kUnavailable);
  EXPECT_EQ(res.attempts, 2);  // first try + one retry
  EXPECT_TRUE(res.scores.empty());

  // The engine is healthy again once the fault clears.
  FrontendResult ok = frontend.ScoreBatch({pool[0], pool[1]});
  EXPECT_EQ(ok.status, RequestStatus::kOk);

  frontend.Close();
  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.targets_failed, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.retry_successes, 0u);
  ExpectConservation(stats);
}

TEST(ServingFrontendFaults, BreakerTripsDegradesAndRecoversThroughProbe) {
  FaultGuard guard;
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 1;
  cfg.breaker_threshold = 2;
  cfg.breaker_open_ms = 400.0;  // wide margin: degrade checks run right away
  ServingFrontend frontend(&engine, cfg);
  const std::vector<int>& pool = SmallGraph().test_idx;
  const int a = pool[0], b = pool[1], c = pool[2];

  // Healthy traffic first: the stale-score map learns targets a and b.
  FrontendResult fresh = frontend.ScoreBatch({a, b});
  ASSERT_EQ(fresh.status, RequestStatus::kOk);

  // Two consecutive terminal failures trip the breaker.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("engine.forward:every=1").ok());
  EXPECT_EQ(frontend.ScoreBatch({a}).status, RequestStatus::kFailed);
  EXPECT_EQ(frontend.ScoreBatch({a}).status, RequestStatus::kFailed);
  EXPECT_EQ(frontend.Stats().breaker_trips, 1u);

  // Open: requests bypass the engine. Known targets answer from the stale
  // map (bitwise the fresh scores), unknown ones get the neutral fallback.
  FrontendResult degraded = frontend.ScoreBatch({a, b, c});
  EXPECT_EQ(degraded.status, RequestStatus::kDegraded);
  EXPECT_EQ(degraded.detail.code(), StatusCode::kUnavailable);
  ASSERT_EQ(degraded.scores.size(), 3u);
  EXPECT_EQ(degraded.scores[0].logit_human, fresh.scores[0].logit_human);
  EXPECT_EQ(degraded.scores[0].logit_bot, fresh.scores[0].logit_bot);
  EXPECT_EQ(degraded.scores[1].logit_bot, fresh.scores[1].logit_bot);
  EXPECT_EQ(degraded.scores[2].target, c);
  EXPECT_EQ(degraded.scores[2].bot_prob, 0.5);  // fallback head
  EXPECT_EQ(degraded.scores[2].logit_human, 0.0);
  // Degraded requests while the engine faults stay degraded — the engine
  // is never touched, so the fault sites see no new evaluations.
  const uint64_t evals =
      FaultInjector::Global().evaluations(fault::kEngineForward);
  EXPECT_EQ(frontend.ScoreOne(a).status, RequestStatus::kDegraded);
  EXPECT_EQ(FaultInjector::Global().evaluations(fault::kEngineForward), evals);

  // Heal the engine, wait out the open window: the next request is the
  // half-open probe, its success closes the breaker, and traffic is fresh
  // again.
  FaultInjector::Global().Disarm();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  FrontendResult probe = frontend.ScoreBatch({a, b});
  EXPECT_EQ(probe.status, RequestStatus::kOk);
  ExpectSameScores(probe.scores, fresh.scores);
  EXPECT_EQ(frontend.ScoreOne(c).status, RequestStatus::kOk);

  frontend.Close();
  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_recoveries, 1u);
  EXPECT_EQ(stats.degraded_requests, 2u);
  EXPECT_EQ(stats.degraded_stale, 3u);     // a, b, then a again
  EXPECT_EQ(stats.degraded_fallback, 1u);  // c
  EXPECT_EQ(stats.targets_degraded, stats.degraded_stale +
                                        stats.degraded_fallback);
  ExpectConservation(stats);
}

TEST(ServingFrontendFaults, ChaosSoakConservesEveryRequestExactly) {
  FaultGuard guard;
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 3;
  cfg.queue_capacity = 8;  // small: overload sheds are part of the chaos
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.1;
  cfg.breaker_threshold = 4;
  cfg.breaker_open_ms = 20.0;
  ServingFrontend frontend(&engine, cfg);
  const std::vector<int>& pool = SmallGraph().test_idx;

  // Faults at every serving-path trust boundary at once, probabilistic and
  // deterministic given the seed. A site fires on the evaluation indices
  // whose hash of (seed, site, index) falls under its rate; with this seed
  // every site's first fire comes within its first 11 evaluations, far
  // inside the ~100 each one sees here, so all four fire in every run.
  FaultInjector& inj = FaultInjector::Global();
  ASSERT_TRUE(inj.Configure("frontend.push:p=0.08;subgraph.build:p=0.05;"
                            "cache.fill:p=0.05;engine.forward:p=0.08",
                            /*seed=*/4242)
                  .ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<uint64_t> ok{0}, shed{0}, timed_out{0}, failed{0}, degraded{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int base = c * kPerClient + i;
        std::vector<int> req;
        for (int k = 0; k <= base % 3; ++k) {
          req.push_back(pool[static_cast<size_t>(base + k) % pool.size()]);
        }
        // A third of the traffic carries a (generous) deadline.
        FrontendResult res =
            base % 3 == 0
                ? frontend.Submit(std::move(req), /*deadline_ms=*/2000.0).get()
                : frontend.Submit(std::move(req)).get();
        switch (res.status) {
          case RequestStatus::kOk: ok.fetch_add(1); break;
          case RequestStatus::kShed: shed.fetch_add(1); break;
          case RequestStatus::kTimeout: timed_out.fetch_add(1); break;
          case RequestStatus::kFailed: failed.fetch_add(1); break;
          case RequestStatus::kDegraded: degraded.fetch_add(1); break;
          case RequestStatus::kClosed: FAIL() << "closed mid-soak"; break;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  frontend.Close();
  inj.Disarm();

  // Every armed site was reached and actually injected: an aggregate alone
  // would pass with some trust boundaries never exercised.
  for (const char* site : {fault::kFrontendPush, fault::kSubgraphBuild,
                           fault::kCacheFill, fault::kEngineForward}) {
    EXPECT_GT(inj.evaluations(site), 0u) << site;
    EXPECT_GT(inj.fires(site), 0u)
        << site << " fired 0 of " << inj.evaluations(site) << " evaluations";
  }

  // Exact conservation, and the stats agree with what the clients saw —
  // every future resolved exactly once, nothing double-counted or dropped.
  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted_requests,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.served_requests, ok.load());
  EXPECT_EQ(stats.shed_requests, shed.load());
  EXPECT_EQ(stats.timed_out_requests, timed_out.load());
  EXPECT_EQ(stats.failed_requests, failed.load());
  EXPECT_EQ(stats.degraded_requests, degraded.load());
  ExpectConservation(stats);
  // The chaos actually exercised the failure machinery.
  EXPECT_GT(stats.shed_requests + stats.failed_requests +
                stats.degraded_requests + stats.retries,
            0u);

  // Disarmed, the same front-end config plus a default deadline (every
  // failure knob on) serves fault-free bit-identically to the serial
  // oracle and takes no failure path — the robustness layer leaves no
  // residue.
  FrontendConfig clean_cfg = cfg;
  clean_cfg.default_deadline_ms = 60'000.0;
  DetectionEngine clean_engine(&model, EngineConfig{});
  ServingFrontend clean(&clean_engine, clean_cfg);
  const std::vector<int> targets(pool.begin(), pool.begin() + 16);
  DetectionEngine oracle_engine(&model, EngineConfig{});
  FrontendResult clean_res = clean.ScoreBatch(targets);
  ASSERT_EQ(clean_res.status, RequestStatus::kOk);
  ExpectSameScores(clean_res.scores, oracle_engine.ScoreBatch(targets));
  clean.Close();
  FrontendStats clean_stats = clean.Stats();
  EXPECT_EQ(clean_stats.served_requests, 1u);
  EXPECT_EQ(clean_stats.shed_requests + clean_stats.timed_out_requests +
                clean_stats.failed_requests + clean_stats.degraded_requests +
                clean_stats.retries,
            0u);
}

// --- memory-bounded serving (PR 10): governor budgets at admission --------

// Disarms the process-wide byte budget when a test exits, pass or fail —
// later tests (and later binaries' tests) must run unconstrained.
struct BudgetGuard {
  ~BudgetGuard() { ResourceGovernor::Global().SetBudget(0); }
};

uint64_t QueueAccountResident() {
  for (const GovernorAccountStats& a :
       ResourceGovernor::Global().Stats().accounts) {
    if (a.name == "serve.queue") return a.resident_bytes;
  }
  return 0;
}

TEST(ServingFrontendMemory, HardWatermarkRefusesAdmissionDeterministically) {
  BudgetGuard budget_guard;
  Bsg4Bot& model = TrainedModel();
  DetectionEngine engine(&model, EngineConfig{});
  FrontendConfig cfg;
  cfg.workers = 0;  // admission-only: decisions are exact
  ServingFrontend frontend(&engine, cfg);
  const std::vector<int>& pool = SmallGraph().test_idx;

  // Arm the budget at the current footprint: hard (90%) sits below the
  // accounted total, so request admission must refuse. Each arming triggers
  // reclaim (pool trim, cache shrink) which lowers the total — re-arm at
  // the new floor until the pressure sticks at kHard.
  ResourceGovernor& gov = ResourceGovernor::Global();
  for (int i = 0; i < 10 && gov.pressure() != PressureLevel::kHard; ++i) {
    gov.SetBudget(std::max<uint64_t>(gov.total_bytes(), 1));
  }
  ASSERT_EQ(gov.pressure(), PressureLevel::kHard);

  for (int i = 0; i < 3; ++i) {
    FrontendResult res = frontend.Submit({pool[0], pool[1]}).get();
    EXPECT_EQ(res.status, RequestStatus::kShed) << i;
    EXPECT_EQ(res.detail.code(), StatusCode::kResourceExhausted) << i;
    EXPECT_TRUE(res.scores.empty()) << i;
  }
  FrontendStats mid = frontend.Stats();
  EXPECT_EQ(mid.shed_resource, 3u);
  EXPECT_EQ(mid.shed_queue_full, 0u);
  EXPECT_EQ(mid.shed_requests, 3u);
  EXPECT_EQ(mid.targets_shed, 6u);
  EXPECT_EQ(QueueAccountResident(), 0u);  // refused charges never land

  // Disarm: the same front-end admits again (queued; Close resolves it).
  gov.SetBudget(0);
  auto admitted = frontend.Submit({pool[0], pool[1]});
  EXPECT_GT(QueueAccountResident(), 0u);
  frontend.Close();
  EXPECT_EQ(admitted.get().status, RequestStatus::kClosed);
  EXPECT_EQ(QueueAccountResident(), 0u);  // Close drained the charge

  FrontendStats end = frontend.Stats();
  EXPECT_EQ(end.submitted_requests, 4u);
  EXPECT_EQ(end.closed_requests, 1u);
  ExpectConservation(end);
}

TEST(ServingFrontendMemory, PressureChaosSoakConservesAndRecovers) {
  FaultGuard fault_guard;
  BudgetGuard budget_guard;
  Bsg4Bot& model = TrainedModel();
  EngineConfig ecfg;
  ecfg.cache_byte_budget = 32 << 10;  // tight: admission + eviction churn
  DetectionEngine engine(&model, ecfg);
  FrontendConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 16;
  cfg.max_retries = 1;
  cfg.retry_backoff_ms = 0.1;
  ServingFrontend frontend(&engine, cfg);
  const std::vector<int>& pool = SmallGraph().test_idx;

  // A budget with watermarks a small margin above the current footprint:
  // cache growth crosses them mid-soak, so real reclaim (pool trim, cache
  // shrink) and real refusals mix with the injected ones.
  ResourceGovernor& gov = ResourceGovernor::Global();
  const uint64_t base = gov.total_bytes();
  const uint64_t budget = base + (256u << 10);
  gov.SetBudget(budget,
                static_cast<double>(base + (64u << 10)) /
                    static_cast<double>(budget),
                static_cast<double>(base + (128u << 10)) /
                    static_cast<double>(budget));
  // Plus deterministic-in-seed injected refusals on every TryCharge path.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("governor.charge:p=0.15", /*seed=*/77)
                  .ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<uint64_t> ok{0}, shed{0}, timed_out{0}, failed{0}, degraded{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int base_i = c * kPerClient + i;
        std::vector<int> req;
        for (int k = 0; k <= base_i % 3; ++k) {
          req.push_back(pool[static_cast<size_t>(base_i + k) % pool.size()]);
        }
        switch (frontend.Submit(std::move(req)).get().status) {
          case RequestStatus::kOk: ok.fetch_add(1); break;
          case RequestStatus::kShed: shed.fetch_add(1); break;
          case RequestStatus::kTimeout: timed_out.fetch_add(1); break;
          case RequestStatus::kFailed: failed.fetch_add(1); break;
          case RequestStatus::kDegraded: degraded.fetch_add(1); break;
          case RequestStatus::kClosed: FAIL() << "closed mid-soak"; break;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  frontend.Close();
  FaultInjector::Global().Disarm();

  // Exact conservation with the resource bucket folded in, agreeing with
  // what the clients observed — refusal under pressure is never silent.
  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted_requests,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.served_requests, ok.load());
  EXPECT_EQ(stats.shed_requests, shed.load());
  EXPECT_EQ(stats.timed_out_requests, timed_out.load());
  EXPECT_EQ(stats.failed_requests, failed.load());
  EXPECT_EQ(stats.degraded_requests, degraded.load());
  ExpectConservation(stats);
  // No deadline and no breaker: pressure resolves a request only as
  // served, shed or failed.
  EXPECT_EQ(timed_out.load() + degraded.load(), 0u);
  // The injected refusals actually shed traffic through the new bucket...
  EXPECT_GT(stats.shed_resource, 0u);
  EXPECT_EQ(stats.shed_requests,
            stats.shed_queue_full + stats.shed_latency + stats.shed_resource);
  // ...and every admitted payload charge was released on resolution.
  EXPECT_EQ(QueueAccountResident(), 0u);
  ResourceGovernorStats gs = gov.Stats();
  EXPECT_GT(gs.injected_refusals, 0u);

  // Recovery: disarm the budget and the same model serves bit-identically
  // to the unconstrained serial oracle — pressure leaves no residue.
  gov.SetBudget(0);
  DetectionEngine clean_engine(&model, EngineConfig{});
  ServingFrontend clean(&clean_engine, cfg);
  const std::vector<int> targets(pool.begin(), pool.begin() + 16);
  DetectionEngine oracle_engine(&model, EngineConfig{});
  ExpectSameScores(clean.ScoreBatch(targets).scores,
                   oracle_engine.ScoreBatch(targets));
}

}  // namespace
}  // namespace bsg
