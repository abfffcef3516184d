// Fault-injection framework: spec parsing, deterministic triggers, per-site
// counters, and the injection sites wired through checkpoint IO, the
// subgraph cache's single-flight path, and the serving engine — plus the
// crash-safety behaviours they exist to test (.tmp hygiene, .bak recovery,
// flight failure propagation, deadline classification).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "io/checkpoint.h"
#include "serve/engine.h"
#include "serve/subgraph_cache.h"
#include "test_common.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace bsg {
namespace {

using testing::SmallGraph;

// Every test arms its own spec; the guard guarantees no spec leaks into
// the next test (or into the other suites of this binary).
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpec, ValidSpecsArm) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  EXPECT_TRUE(inj.Configure("cache.fill:p=0.5").ok());
  EXPECT_TRUE(inj.armed());
  EXPECT_TRUE(inj.Configure("engine.forward:nth=3,delay_ms=0.5").ok());
  EXPECT_TRUE(
      inj.Configure("ckpt.write.open:every=2,limit=1,fail=0;"
                    "subgraph.build:first=4;")  // trailing ';' tolerated
          .ok());
  EXPECT_TRUE(inj.armed());
}

TEST(FaultSpec, InvalidSpecsRejectAndDisarm) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  const char* bad[] = {
      "",                            // empty: use Disarm()
      "no.such.site:p=0.5",          // unknown site
      "cache.fill",                  // no trigger fields at all
      "cache.fill:limit=3",          // modifier without a trigger
      "cache.fill:p=0.5,nth=2",      // two triggers
      "cache.fill:p=1.5",            // p out of range
      "cache.fill:nth=0",            // zero count
      "cache.fill:frequency=2",      // unknown field
      "cache.fill:p=0.5;cache.fill:nth=1",  // site configured twice
  };
  for (const char* spec : bad) {
    Status st = inj.Configure(spec);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << spec;
    // A rejected spec never leaves the injector half-armed.
    EXPECT_FALSE(inj.armed()) << spec;
  }
}

TEST(FaultSpec, RejectedSpecRollsBackEarlierEntries) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  ASSERT_FALSE(inj.Configure("cache.fill:every=1;bogus.site:p=1").ok());
  // The valid first entry must not survive the failed parse.
  ASSERT_TRUE(inj.Configure("engine.forward:nth=1").ok());
  EXPECT_FALSE(inj.Evaluate(fault::kCacheFill));
  EXPECT_TRUE(inj.Evaluate(fault::kEngineForward));
}

// ---------------------------------------------------------------------------
// Triggers
// ---------------------------------------------------------------------------

TEST(FaultTrigger, NthEveryFirstAndLimit) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();

  ASSERT_TRUE(inj.Configure("cache.fill:nth=3").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(inj.Evaluate(fault::kCacheFill));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(inj.evaluations(fault::kCacheFill), 6u);
  EXPECT_EQ(inj.fires(fault::kCacheFill), 1u);

  ASSERT_TRUE(inj.Configure("cache.fill:every=2").ok());
  fired.clear();
  for (int i = 0; i < 6; ++i) fired.push_back(inj.Evaluate(fault::kCacheFill));
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false, true}));

  ASSERT_TRUE(inj.Configure("cache.fill:first=2").ok());
  fired.clear();
  for (int i = 0; i < 5; ++i) fired.push_back(inj.Evaluate(fault::kCacheFill));
  EXPECT_EQ(fired, (std::vector<bool>{true, true, false, false, false}));

  // limit caps total fires even when the trigger keeps matching.
  ASSERT_TRUE(inj.Configure("cache.fill:every=1,limit=2").ok());
  fired.clear();
  for (int i = 0; i < 5; ++i) fired.push_back(inj.Evaluate(fault::kCacheFill));
  EXPECT_EQ(fired, (std::vector<bool>{true, true, false, false, false}));
  EXPECT_EQ(inj.fires(fault::kCacheFill), 2u);
}

TEST(FaultTrigger, ProbabilityIsDeterministicGivenSeedAndIndex) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  constexpr int kEvals = 2000;

  ASSERT_TRUE(inj.Configure("cache.fill:p=0.25", /*seed=*/7).ok());
  std::vector<bool> run1;
  for (int i = 0; i < kEvals; ++i) run1.push_back(inj.Evaluate(fault::kCacheFill));
  // Same spec + seed -> bit-identical fire pattern.
  ASSERT_TRUE(inj.Configure("cache.fill:p=0.25", /*seed=*/7).ok());
  std::vector<bool> run2;
  for (int i = 0; i < kEvals; ++i) run2.push_back(inj.Evaluate(fault::kCacheFill));
  EXPECT_EQ(run1, run2);

  // The empirical rate lands near p (binomial, generous 5-sigma bound).
  const double rate =
      static_cast<double>(inj.fires(fault::kCacheFill)) / kEvals;
  EXPECT_NEAR(rate, 0.25, 0.05);

  // A different seed yields a different pattern (same rate ballpark).
  ASSERT_TRUE(inj.Configure("cache.fill:p=0.25", /*seed=*/8).ok());
  std::vector<bool> run3;
  for (int i = 0; i < kEvals; ++i) run3.push_back(inj.Evaluate(fault::kCacheFill));
  EXPECT_NE(run1, run3);
}

TEST(FaultTrigger, FailZeroFiresWithoutFailing) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  ASSERT_TRUE(inj.Configure("engine.forward:every=1,fail=0").ok());
  // Fires (counted) but reports no failure — the slowdown-only mode.
  EXPECT_FALSE(inj.Evaluate(fault::kEngineForward));
  EXPECT_EQ(inj.fires(fault::kEngineForward), 1u);
}

TEST(FaultTrigger, DelayMsSleepsOnFire) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  ASSERT_TRUE(inj.Configure("engine.forward:nth=1,delay_ms=30,fail=0").ok());
  WallTimer timer;
  inj.Evaluate(fault::kEngineForward);  // fires: sleeps ~30ms
  const double fired_ms = timer.Millis();
  timer.Restart();
  inj.Evaluate(fault::kEngineForward);  // doesn't fire: no sleep
  const double quiet_ms = timer.Millis();
  EXPECT_GE(fired_ms, 25.0);
  EXPECT_LT(quiet_ms, 25.0);
}

TEST(FaultTrigger, DisarmedMacroNeverFires) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  ASSERT_TRUE(inj.Configure("cache.fill:every=1").ok());
  inj.Disarm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(BSG_FAULT(fault::kCacheFill));
  }
  // The macro's fast path short-circuits before Evaluate: no counters move.
  EXPECT_EQ(inj.evaluations(fault::kCacheFill), 0u);

  // Armed on another site, the macro takes the slow path here, but a site
  // the spec does not name never fires.
  ASSERT_TRUE(inj.Configure("ckpt.read.open:nth=1").ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(BSG_FAULT(fault::kEngineForward));
  }
  EXPECT_EQ(inj.evaluations(fault::kEngineForward), 100u);
  EXPECT_EQ(inj.fires(fault::kEngineForward), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint sites + crash safety
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

Checkpoint TinyCheckpoint(double tag) {
  Checkpoint ckpt;
  ckpt.SetMeta("kind", "fault-test");
  ckpt.SetMetaNum("tag", tag);
  Matrix m(2, 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) m(r, c) = tag + r * 3 + c;
  }
  ckpt.AddTensor("w", std::move(m));
  return ckpt;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

void RemoveCheckpointFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove(CheckpointBackupPath(path).c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(FaultCheckpoint, WriteFaultsFailSaveAndLeaveNoTmpOrphan) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  const std::string path = TempPath("fault_write.ckpt");
  RemoveCheckpointFiles(path);
  ResetCheckpointIoStats();
  const Checkpoint ckpt = TinyCheckpoint(1.0);

  for (const char* spec :
       {"ckpt.write.open:nth=1", "ckpt.write.short:nth=1",
        "ckpt.write.rename:nth=1"}) {
    ASSERT_TRUE(inj.Configure(spec).ok()) << spec;
    Status st = SaveCheckpoint(ckpt, path);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << spec;
    EXPECT_TRUE(IsRetryable(st.code())) << spec;
    // The crash-safety satellite: a failed save never leaves `.tmp` behind
    // and never clobbers the (absent) primary.
    EXPECT_FALSE(FileExists(path + ".tmp")) << spec;
    EXPECT_FALSE(FileExists(path)) << spec;
  }
  inj.Disarm();
  EXPECT_EQ(GetCheckpointIoStats().save_failures, 3u);
  EXPECT_EQ(GetCheckpointIoStats().saves_ok, 0u);

  // Disarmed, the same save succeeds (the injector caused those failures).
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  EXPECT_EQ(GetCheckpointIoStats().saves_ok, 1u);
  RemoveCheckpointFiles(path);
}

TEST(FaultCheckpoint, ReadFaultsFailLoadWhenNoBackupExists) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  const std::string path = TempPath("fault_read.ckpt");
  RemoveCheckpointFiles(path);
  ResetCheckpointIoStats();
  ASSERT_TRUE(SaveCheckpoint(TinyCheckpoint(2.0), path).ok());

  // First save never demotes a primary (there was none), so the read fault
  // has no .bak to fall back to: both read attempts fail.
  ASSERT_TRUE(inj.Configure("ckpt.read.open:first=2").ok());
  Result<Checkpoint> r = LoadCheckpoint(path);
  EXPECT_FALSE(r.ok());
  // The combined error leads with the primary's failure.
  EXPECT_NE(r.status().message().find("backup also unreadable"),
            std::string::npos);

  ASSERT_TRUE(inj.Configure("ckpt.read.corrupt:first=2").ok());
  Result<Checkpoint> c = LoadCheckpoint(path);
  EXPECT_FALSE(c.ok());
  inj.Disarm();
  EXPECT_EQ(GetCheckpointIoStats().load_failures, 2u);

  // The file on disk was never actually harmed (the corrupt site flips a
  // byte of the in-memory blob, not the file).
  EXPECT_TRUE(LoadCheckpoint(path).ok());
  RemoveCheckpointFiles(path);
}

TEST(FaultCheckpoint, LoadRecoversFromBackupWhenPrimaryCorrupts) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  const std::string path = TempPath("fault_bak.ckpt");
  RemoveCheckpointFiles(path);
  ResetCheckpointIoStats();

  // Two successful saves: the first primary (tag 1) is demoted to .bak by
  // the second save (tag 2).
  ASSERT_TRUE(SaveCheckpoint(TinyCheckpoint(1.0), path).ok());
  ASSERT_TRUE(SaveCheckpoint(TinyCheckpoint(2.0), path).ok());
  ASSERT_TRUE(FileExists(CheckpointBackupPath(path)));
  EXPECT_EQ(GetCheckpointIoStats().bak_writes, 1u);

  // Corrupt only the primary's read (nth=1); the .bak read (nth=2) is
  // clean -> the load silently recovers the previous generation.
  ASSERT_TRUE(inj.Configure("ckpt.read.corrupt:nth=1").ok());
  Result<Checkpoint> r = LoadCheckpoint(path);
  inj.Disarm();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(GetCheckpointIoStats().bak_recoveries, 1u);
  EXPECT_EQ(GetCheckpointIoStats().load_failures, 0u);
  // It really is the older generation.
  Result<double> tag = r.ValueOrDie().MetaNum("tag");
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(tag.ValueOrDie(), 1.0);
  RemoveCheckpointFiles(path);
}

TEST(FaultCheckpoint, BackupRecoveryFuzz) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  const std::string path = TempPath("fault_fuzz.ckpt");
  Rng rng(0xFA11FA11ULL);

  // Random save/load storm with probabilistic write faults. Invariants:
  // a failed save never leaves .tmp, never destroys an existing readable
  // generation (primary or .bak survives), and every load either succeeds
  // or reports a Status — never crashes.
  for (int round = 0; round < 30; ++round) {
    RemoveCheckpointFiles(path);
    ResetCheckpointIoStats();
    const uint64_t seed = rng.NextU64();
    int good_generations = 0;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(inj.Configure(
                         "ckpt.write.open:p=0.25;ckpt.write.short:p=0.25;"
                         "ckpt.write.rename:p=0.25",
                         seed + static_cast<uint64_t>(i))
                      .ok());
      const bool saved =
          SaveCheckpoint(TinyCheckpoint(static_cast<double>(i)), path).ok();
      inj.Disarm();
      if (saved) ++good_generations;
      ASSERT_FALSE(FileExists(path + ".tmp")) << "round " << round;
      if (good_generations > 0) {
        // At least one generation must remain loadable after any failed
        // save (fault-free read path).
        ASSERT_TRUE(LoadCheckpoint(path).ok())
            << "round " << round << " save " << i;
      }
    }
    const CheckpointIoStats stats = GetCheckpointIoStats();
    EXPECT_EQ(stats.saves_ok, static_cast<uint64_t>(good_generations));
    EXPECT_EQ(stats.saves_ok + stats.save_failures, 8u);
  }
  RemoveCheckpointFiles(path);
}

// ---------------------------------------------------------------------------
// Cache + engine sites
// ---------------------------------------------------------------------------

BiasedSubgraph TrivialSubgraph(int target) {
  BiasedSubgraph sub;
  sub.center = target;
  return sub;
}

TEST(FaultCache, FillFaultReturnsUnavailableAndBalancesStats) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  SubgraphCache cache(8);

  ASSERT_TRUE(inj.Configure("cache.fill:first=2").ok());
  for (int i = 0; i < 2; ++i) {
    const Status st = cache.GetOrBuild(5, 0, TrivialSubgraph).status();
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(IsRetryable(st.code()));
  }
  // Third call: trigger exhausted, the build succeeds and fills the cache.
  auto sub = cache.GetOrBuild(5, 0, TrivialSubgraph);
  inj.Disarm();
  ASSERT_TRUE(sub.ok());
  ASSERT_NE(sub.ValueOrDie(), nullptr);
  EXPECT_EQ(sub.ValueOrDie()->center, 5);

  // Balance: every miss either coalesced, failed its flight, or inserted.
  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.flight_failures, 2u);
  EXPECT_EQ(stats.misses,
            stats.coalesced_misses + stats.flight_failures + stats.inserts);
}

TEST(FaultCache, WaitersOnFailedFlightsGiveUpAfterMaxAttempts) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  SubgraphCache cache(8);

  // Every fill fails: concurrent callers (builders and waiters alike) must
  // all return kUnavailable within kMaxBuildAttempts — nobody parks
  // forever on a key that can't build.
  ASSERT_TRUE(inj.Configure("cache.fill:every=1").ok());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const Status st = cache.GetOrBuild(9, 0, TrivialSubgraph).status();
      if (st.code() == StatusCode::kUnavailable) errors.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  inj.Disarm();
  EXPECT_EQ(errors.load(), kThreads);
  EXPECT_GE(cache.Stats().flight_failures, 1u);
}

Bsg4Bot& FaultTestModel() {
  static Bsg4Bot* model = [] {
    Bsg4BotConfig cfg;
    cfg.pretrain.epochs = 8;
    cfg.subgraph.k = 10;
    cfg.hidden = 12;
    cfg.batch_size = 16;
    cfg.max_epochs = 3;
    cfg.min_epochs = 3;
    cfg.seed = 33;
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), cfg);
    m->Fit();
    return m;
  }();
  return *model;
}

TEST(FaultEngine, ForwardFaultSurfacesAsUnavailable) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  DetectionEngine engine(&FaultTestModel(), EngineConfig{});
  const std::vector<int>& pool = SmallGraph().test_idx;
  const std::vector<int> targets(pool.begin(), pool.begin() + 8);

  ASSERT_TRUE(inj.Configure("engine.forward:nth=1").ok());
  std::vector<Score> out;
  Status st = engine.TryScoreBatch(targets, ScoreOptions::None(), &out);
  inj.Disarm();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.Stats().score_failures, 1u);

  // Disarmed, the same request succeeds on the same engine — transient
  // faults leave no residue in the pooled scratch.
  st = engine.TryScoreBatch(targets, ScoreOptions::None(), &out);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(out.size(), targets.size());
}

TEST(FaultEngine, SubgraphBuildFaultSurfacesAsUnavailable) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  DetectionEngine engine(&FaultTestModel(), EngineConfig{});
  const std::vector<int>& pool = SmallGraph().test_idx;

  ASSERT_TRUE(inj.Configure("subgraph.build:nth=1").ok());
  Score one;
  Status st = engine.TryScoreOne(pool[0], ScoreOptions::None(), &one);
  inj.Disarm();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);

  // The failed flight didn't poison the key: the rebuild succeeds.
  ASSERT_TRUE(engine.TryScoreOne(pool[0], ScoreOptions::None(), &one).ok());
  EXPECT_EQ(one.target, pool[0]);
}

bool SameSubgraph(const BiasedSubgraph& a, const BiasedSubgraph& b) {
  if (a.center != b.center || a.per_relation.size() != b.per_relation.size()) {
    return false;
  }
  for (size_t r = 0; r < a.per_relation.size(); ++r) {
    const RelationSubgraph& x = a.per_relation[r];
    const RelationSubgraph& y = b.per_relation[r];
    if (x.nodes != y.nodes || x.adj.indptr() != y.adj.indptr() ||
        x.adj.indices() != y.adj.indices() ||
        x.adj.weights() != y.adj.weights()) {
      return false;
    }
  }
  return true;
}

TEST(FaultEngine, ArmedBuildFaultCannotReachTraining) {
  // subgraph.build guards the serving engine's builder only. Armed to fire
  // on every evaluation, it must not reach Prepare()'s all-node build,
  // whose ParallelFor workers have no error channel.
  FaultGuard guard;
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 4;
  cfg.subgraph.k = 10;
  cfg.hidden = 12;
  cfg.seed = 33;
  Bsg4Bot disarmed(SmallGraph(), cfg);
  disarmed.Prepare();

  FaultInjector& inj = FaultInjector::Global();
  ASSERT_TRUE(inj.Configure("subgraph.build:every=1").ok());
  Bsg4Bot armed(SmallGraph(), cfg);
  armed.Prepare();
  EXPECT_EQ(inj.evaluations(fault::kSubgraphBuild), 0u);
  inj.Disarm();

  ASSERT_EQ(armed.subgraphs().size(), disarmed.subgraphs().size());
  ASSERT_EQ(armed.subgraphs().size(),
            static_cast<size_t>(SmallGraph().num_nodes));
  for (size_t i = 0; i < armed.subgraphs().size(); ++i) {
    EXPECT_TRUE(SameSubgraph(armed.subgraphs()[i], disarmed.subgraphs()[i]))
        << "centre " << i;
  }
}

TEST(FaultEngine, ExpiredDeadlineFailsBeforeScoring) {
  DetectionEngine engine(&FaultTestModel(), EngineConfig{});
  const std::vector<int>& pool = SmallGraph().test_idx;
  const std::vector<int> targets(pool.begin(), pool.begin() + 4);

  const ScoreOptions expired = ScoreOptions::WithDeadline(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  std::vector<Score> out;
  Status st = engine.TryScoreBatch(targets, expired, &out);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(IsRetryable(st.code()));
  Score one;
  EXPECT_EQ(engine.TryScoreOne(pool[0], expired, &one).code(),
            StatusCode::kDeadlineExceeded);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.deadline_failures, 2u);
  EXPECT_EQ(stats.targets_scored, 0u);
  // Failed requests still count as requests (counted on entry).
  EXPECT_EQ(stats.single_requests, 1u);
  EXPECT_EQ(stats.batch_requests, 1u);
}

TEST(FaultEngine, BuildFaultAfterFirstChunkFailsWholeRequest) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  DetectionEngine engine(&FaultTestModel(), EngineConfig{});
  const std::vector<int>& pool = SmallGraph().test_idx;
  // 3 chunks of 16 distinct, uncached targets: one build per target.
  ASSERT_GE(pool.size(), 48u);
  const std::vector<int> targets(pool.begin(), pool.begin() + 48);

  // The 20th build is the 4th target of chunk 1: chunk 0 has already been
  // assembled and scored when assembly fails.
  ASSERT_TRUE(inj.Configure("subgraph.build:nth=20").ok());
  std::vector<Score> out;
  Status st = engine.TryScoreBatch(targets, ScoreOptions::None(), &out);
  inj.Disarm();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.batches_run, 1u);
  EXPECT_EQ(stats.score_failures, 1u);
  EXPECT_EQ(stats.deadline_failures, 0u);
  EXPECT_EQ(stats.targets_scored, 0u);

  // Disarmed, the same engine re-scores the request bit-identical to a
  // fault-free run.
  DetectionEngine clean(&FaultTestModel(), EngineConfig{});
  const std::vector<Score> oracle = clean.ScoreBatch(targets);
  ASSERT_TRUE(engine.TryScoreBatch(targets, ScoreOptions::None(), &out).ok());
  ASSERT_EQ(out.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(out[i].target, oracle[i].target) << i;
    EXPECT_EQ(out[i].logit_human, oracle[i].logit_human) << i;
    EXPECT_EQ(out[i].logit_bot, oracle[i].logit_bot) << i;
  }
  EXPECT_EQ(engine.Stats().targets_scored, targets.size());
}

TEST(FaultEngine, DeadlineExpiresBetweenChunks) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  DetectionEngine engine(&FaultTestModel(), EngineConfig{});
  const std::vector<int>& pool = SmallGraph().test_idx;
  // 3 chunks of 16 with batch_size=16.
  std::vector<int> targets;
  for (int i = 0; i < 48; ++i) {
    targets.push_back(pool[static_cast<size_t>(i) % pool.size()]);
  }

  // Slow every forward pass down by 150ms without failing it; a 225ms
  // deadline survives chunk 1 but must expire before chunk 3. Generous
  // margins: the check only needs "some chunks scored, then kDeadline-
  // Exceeded", not an exact chunk count.
  ASSERT_TRUE(
      inj.Configure("engine.forward:every=1,delay_ms=150,fail=0").ok());
  const ScoreOptions opts = ScoreOptions::WithDeadline(
      std::chrono::steady_clock::now() + std::chrono::milliseconds(225));
  std::vector<Score> out;
  Status st = engine.TryScoreBatch(targets, opts, &out);
  inj.Disarm();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("after chunk"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(engine.Stats().deadline_failures, 1u);

  // The aborted request released its scratch cleanly: a fresh no-deadline
  // run of the same list succeeds.
  ASSERT_TRUE(engine.TryScoreBatch(targets, ScoreOptions::None(), &out).ok());
  ASSERT_EQ(out.size(), targets.size());
}

TEST(FaultEngine, FaultFreeTryPathMatchesAbortingPathBitwise) {
  DetectionEngine engine(&FaultTestModel(), EngineConfig{});
  const std::vector<int>& pool = SmallGraph().test_idx;
  const std::vector<int> targets(pool.begin(), pool.begin() + 24);

  const std::vector<Score> oracle = engine.ScoreBatch(targets);
  std::vector<Score> tried;
  ASSERT_TRUE(engine.TryScoreBatch(targets, ScoreOptions::None(), &tried).ok());
  ASSERT_EQ(tried.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(tried[i].target, oracle[i].target) << i;
    EXPECT_EQ(tried[i].logit_human, oracle[i].logit_human) << i;
    EXPECT_EQ(tried[i].logit_bot, oracle[i].logit_bot) << i;
  }
}

}  // namespace
}  // namespace bsg
