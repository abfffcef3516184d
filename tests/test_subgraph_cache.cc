// SubgraphCache: LRU eviction order, capacity bound, counter accuracy,
// graph-version keying and the version floor, concurrent GetOrBuild and
// single-flight miss de-duplication (run under TSan in CI).
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/subgraph_cache.h"
#include "util/fault.h"
#include "util/resource_governor.h"

namespace bsg {
namespace {

// A minimal one-relation subgraph rooted at `center` (the cache treats the
// payload as opaque; tests only need identity and a nonzero size).
BiasedSubgraph FakeSubgraph(int center) {
  BiasedSubgraph sub;
  sub.center = center;
  RelationSubgraph rel;
  rel.nodes = {center};
  rel.adj = Csr::FromEdges(1, {{0, 0}});
  rel.inv_sqrt_degree = SymInvSqrtDegrees(rel.adj);
  sub.per_relation.push_back(std::move(rel));
  return sub;
}

std::shared_ptr<const BiasedSubgraph> Shared(int center) {
  return std::make_shared<const BiasedSubgraph>(FakeSubgraph(center));
}

TEST(SubgraphCache, LookupMissThenInsertThenHit) {
  SubgraphCache cache(4);
  EXPECT_EQ(cache.Lookup(7, 0), nullptr);
  auto sub = Shared(7);
  cache.Insert(7, 0, sub);
  auto hit = cache.Lookup(7, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), sub.get());

  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST(SubgraphCache, EvictsLeastRecentlyUsedInOrder) {
  SubgraphCache cache(3);
  for (int t : {1, 2, 3}) cache.Insert(t, 0, Shared(t));
  // Touch 1 so the LRU order (oldest first) becomes 2, 3, 1.
  ASSERT_NE(cache.Lookup(1, 0), nullptr);

  cache.Insert(4, 0, Shared(4));  // evicts 2
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 0), nullptr);
  cache.Insert(5, 0, Shared(5));  // LRU is now 1 (3 was just touched)
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(4, 0), nullptr);
  EXPECT_NE(cache.Lookup(5, 0), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 2u);
}

TEST(SubgraphCache, CapacityBoundHoldsAndBytesTrackEntries) {
  SubgraphCache cache(8);
  for (int t = 0; t < 100; ++t) cache.Insert(t, 0, Shared(t));
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 8u);
  EXPECT_EQ(s.inserts, 100u);
  EXPECT_EQ(s.evictions, 92u);
  // All entries are identical in shape, so resident bytes = 8 x one.
  EXPECT_EQ(s.resident_bytes, 8 * SubgraphCache::EntryBytes(FakeSubgraph(0)));

  cache.Clear();
  s = cache.Stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(s.inserts, 100u);  // cumulative counters survive Clear
}

TEST(SubgraphCache, GraphVersionPartitionsEntries) {
  SubgraphCache cache(8);
  cache.Insert(5, /*version=*/1, Shared(5));
  EXPECT_EQ(cache.Lookup(5, 2), nullptr);  // new graph version: stale miss
  EXPECT_NE(cache.Lookup(5, 1), nullptr);
}

TEST(SubgraphCache, EvictWhereVersionBelowSweepsOnlyStaleVersions) {
  SubgraphCache cache(16);
  for (int t = 0; t < 4; ++t) cache.Insert(t, /*version=*/0, Shared(t));
  for (int t = 0; t < 3; ++t) cache.Insert(t, /*version=*/1, Shared(t));
  ASSERT_EQ(cache.Stats().entries, 7u);

  EXPECT_EQ(cache.EvictWhereVersionBelow(1), 4u);
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.version_evictions, 4u);
  EXPECT_EQ(s.evictions, 0u);  // LRU-bound evictions stay separate
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.resident_bytes, 3 * SubgraphCache::EntryBytes(FakeSubgraph(0)));
  // The survivors are exactly the version-1 entries.
  for (int t = 0; t < 4; ++t) EXPECT_EQ(cache.Lookup(t, 0), nullptr);
  for (int t = 0; t < 3; ++t) EXPECT_NE(cache.Lookup(t, 1), nullptr);

  // Idempotent: a second sweep at the same threshold finds nothing.
  EXPECT_EQ(cache.EvictWhereVersionBelow(1), 0u);
  EXPECT_EQ(cache.Stats().version_evictions, 4u);
}

TEST(SubgraphCache, VersionSweepCounterBalanceAfterMixedTraffic) {
  SubgraphCache cache(8);
  // Overflow the bound at version 0 (LRU evictions), then add version 1
  // and sweep: inserts must equal resident + LRU-evicted + version-swept.
  for (int t = 0; t < 20; ++t) cache.Insert(t, 0, Shared(t));
  for (int t = 0; t < 5; ++t) cache.Insert(t, 1, Shared(t));
  cache.EvictWhereVersionBelow(1);
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 5u);
  EXPECT_EQ(s.inserts, s.entries + s.evictions + s.version_evictions);
  EXPECT_EQ(s.resident_bytes, 5 * SubgraphCache::EntryBytes(FakeSubgraph(0)));
  // Zero stale-version residents: every surviving entry is at version 1.
  for (int t = 0; t < 20; ++t) EXPECT_EQ(cache.Lookup(t, 0), nullptr);
}

TEST(SubgraphCache, InsertRaceKeepsFirstEntry) {
  SubgraphCache cache(4);
  auto first = Shared(9);
  auto second = Shared(9);
  EXPECT_EQ(cache.Insert(9, 0, first).get(), first.get());
  // Losing builder: the incumbent wins and is what callers get back.
  EXPECT_EQ(cache.Insert(9, 0, second).get(), first.get());
  EXPECT_EQ(cache.Stats().inserts, 1u);
  EXPECT_EQ(cache.Lookup(9, 0).get(), first.get());
}

TEST(SubgraphCache, GetOrBuildBuildsOncePerKeyWhenWarm) {
  SubgraphCache cache(16);
  std::atomic<int> builds{0};
  auto builder = [&](int t) {
    builds.fetch_add(1);
    return FakeSubgraph(t);
  };
  for (int pass = 0; pass < 3; ++pass) {
    for (int t = 0; t < 8; ++t) {
      auto sub = cache.GetOrBuild(t, 0, builder).ValueOrDie();
      ASSERT_NE(sub, nullptr);
      EXPECT_EQ(sub->center, t);
    }
  }
  EXPECT_EQ(builds.load(), 8);
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.lookups, 24u);
  EXPECT_EQ(s.hits, 16u);
  EXPECT_GE(s.HitRate(), 0.6);
}

TEST(SubgraphCache, SingleFlightCoalescesConcurrentMissesOfOneKey) {
  // N threads miss the same cold key at once: exactly one build must run,
  // the rest park on the flight and share the builder's entry. The builder
  // waits (bounded) until every other thread has registered as coalesced,
  // so the assertion is exact rather than racy.
  SubgraphCache cache(8);
  constexpr int kThreads = 6;
  std::atomic<int> builds{0};
  auto builder = [&](int t) {
    builds.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (cache.Stats().coalesced_misses <
               static_cast<uint64_t>(kThreads - 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return FakeSubgraph(t);
  };
  std::vector<std::shared_ptr<const BiasedSubgraph>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back(
        [&, w] { results[w] = cache.GetOrBuild(42, 0, builder).ValueOrDie(); });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1);
  for (int w = 0; w < kThreads; ++w) {
    ASSERT_NE(results[w], nullptr);
    EXPECT_EQ(results[w].get(), results[0].get());  // one shared instance
  }
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(s.misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(s.coalesced_misses, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(s.inserts, 1u);
}

TEST(SubgraphCache, SingleFlightDoesNotSerializeDistinctKeys) {
  // Key 1's builder blocks until key 2's build has completed: if builds of
  // distinct keys were serialized, this would deadlock (bounded by the
  // timeout, which then fails the test).
  SubgraphCache cache(8);
  std::atomic<bool> other_done{false};
  std::thread blocked([&] {
    cache.GetOrBuild(1, 0, [&](int t) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!other_done.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return FakeSubgraph(t);
    });
  });
  std::thread other([&] {
    cache.GetOrBuild(2, 0, FakeSubgraph);
    other_done.store(true);
  });
  blocked.join();
  other.join();
  EXPECT_TRUE(other_done.load());
  EXPECT_EQ(cache.Stats().coalesced_misses, 0u);
  EXPECT_EQ(cache.Stats().inserts, 2u);
}

TEST(SubgraphCache, ThrowingBuilderRetiresTicketAndWakesWaiters) {
  // A builder that throws must not leave its single-flight ticket behind:
  // the key would otherwise park every future misser forever.
  SubgraphCache cache(8);
  struct BuildFailed {};
  EXPECT_THROW(
      cache.GetOrBuild(
          3, 0, [](int) -> BiasedSubgraph { throw BuildFailed{}; }),
      BuildFailed);
  // The key recovers: the next misser becomes a fresh builder.
  auto sub = cache.GetOrBuild(3, 0, FakeSubgraph).ValueOrDie();
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->center, 3);

  // Concurrent flavour: waiters parked on a doomed flight wake and retry.
  std::atomic<int> attempts{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> succeeded{0};
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (;;) {
        try {
          auto got = cache.GetOrBuild(7, 0, [&](int t) -> BiasedSubgraph {
            // First two builders fail; later ones (retried waiters
            // included) succeed.
            if (attempts.fetch_add(1) < 2) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              throw BuildFailed{};
            }
            return FakeSubgraph(t);
          });
          if (got.ok() && got.ValueOrDie()->center == 7) {
            succeeded.fetch_add(1);
          }
          return;
        } catch (const BuildFailed&) {
          // The throwing builder's own caller retries too.
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(succeeded.load(), kThreads);
}

TEST(SubgraphCache, PersistentBuildFailureIsBoundedAndPropagatesStatus) {
  // When a key's builder fails persistently, callers must not livelock
  // chasing it: after kMaxBuildAttempts failed flights (joined or run),
  // GetOrBuild returns the flight's Status to that caller.
  SubgraphCache cache(8);
  std::atomic<int> builds{0};
  const auto doomed = [&](int) -> Result<BiasedSubgraph> {
    builds.fetch_add(1);
    return Status::Unavailable("backing store down");
  };

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> unavailable{0};
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      // Both the builder's own caller and capped-out waiters get the
      // builder's original Status, not a generic wrapper.
      const Status st = cache.GetOrBuild(11, 0, doomed).status();
      if (st.code() == StatusCode::kUnavailable) unavailable.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(unavailable.load(), kThreads);

  // Counter balance with failures in the mix: every miss either coalesced
  // onto a flight, failed its own flight, or inserted.
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.flight_failures, static_cast<uint64_t>(builds.load()));
  EXPECT_EQ(s.misses, s.coalesced_misses + s.flight_failures + s.inserts);
  EXPECT_EQ(s.inserts, 0u);

  // The key is not poisoned: a healthy builder fills it afterwards.
  auto sub = cache.GetOrBuild(11, 0, FakeSubgraph).ValueOrDie();
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->center, 11);
}

TEST(SubgraphCache, SingleFlightStressOverSmallKeySet) {
  // Many threads hammer a handful of keys with a non-trivial builder: every
  // result must be correct, and builds must never exceed inserts + lost
  // Insert races (misses - coalesced = builds actually run).
  SubgraphCache cache(16);
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  constexpr int kKeys = 4;
  std::atomic<int> builds{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i) {
        const int t = (i + w) % kKeys;
        // Version churn forces periodic rebuild storms.
        const uint64_t version = static_cast<uint64_t>(i / 100);
        auto sub = cache.GetOrBuild(t, version, [&](int target) {
          builds.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return FakeSubgraph(target);
        }).ValueOrDie();
        if (sub == nullptr || sub->center != t) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  // Exact balance: every non-coalesced miss ran the builder exactly once.
  EXPECT_EQ(static_cast<uint64_t>(builds.load()),
            s.misses - s.coalesced_misses);
}

TEST(SubgraphCache, ConcurrentGetOrBuildIsSafeAndConsistent) {
  // Hammer one small cache from several threads over a key range larger
  // than capacity, so lookups, builds, inserts and evictions all interleave.
  // TSan (CI) checks the synchronisation; the asserts check the results.
  SubgraphCache cache(16);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  constexpr int kKeyRange = 64;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int t = (i * 13 + w * 7) % kKeyRange;
        auto sub = cache.GetOrBuild(t, 0, FakeSubgraph).ValueOrDie();
        if (sub == nullptr || sub->center != t) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);

  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_LE(s.entries, 16u);
  // Entries/bytes must balance: inserts - evictions = resident entries.
  EXPECT_EQ(s.inserts - s.evictions, s.entries);
  EXPECT_EQ(s.resident_bytes,
            s.entries * SubgraphCache::EntryBytes(FakeSubgraph(0)));
}

// ---- Byte budgets, cost-aware admission, governor accounting (PR 10) ----

// Resident bytes of the shared "serve.cache" governor account. Caches are
// stack-scoped in this binary and release everything at destruction, so
// within one test the account mirrors the live cache exactly.
uint64_t CacheAccountResident() {
  for (const GovernorAccountStats& a :
       ResourceGovernor::Global().Stats().accounts) {
    if (a.name == "serve.cache") return a.resident_bytes;
  }
  return 0;
}

TEST(SubgraphCache, EntryBytesCountsPayloadAndBookkeepingOverhead) {
  const BiasedSubgraph sub = FakeSubgraph(0);
  size_t payload = sizeof(BiasedSubgraph);
  for (const RelationSubgraph& rel : sub.per_relation) {
    payload += sizeof(RelationSubgraph) + rel.nodes.size() * sizeof(int) +
               rel.adj.indptr().size() * sizeof(int64_t) +
               rel.adj.indices().size() * sizeof(int) +
               rel.adj.weights().size() * sizeof(double) +
               rel.inv_sqrt_degree.size() * sizeof(double);
  }
  // The entry cost is the payload plus the cache's per-entry bookkeeping
  // (LRU node, index node, control block) — strictly more than the arrays.
  EXPECT_GT(SubgraphCache::EntryBytes(sub), payload);
}

// Every array a subgraph holds is counted, the d^-1/2 values the batch
// SpMM reads included: one double per local row of each relation.
TEST(SubgraphCache, EntryBytesCountsTheInvSqrtDegrees) {
  BiasedSubgraph sub;
  sub.center = 0;
  for (int n : {5, 12}) {
    RelationSubgraph rel;
    for (int i = 0; i < n; ++i) rel.nodes.push_back(i);
    std::vector<std::pair<int, int>> star;
    for (int i = 1; i < n; ++i) star.emplace_back(0, i);
    rel.adj = Csr::FromEdgesSymmetric(n, star);
    sub.per_relation.push_back(std::move(rel));
  }
  const size_t without = SubgraphCache::EntryBytes(sub);
  for (RelationSubgraph& rel : sub.per_relation) {
    rel.inv_sqrt_degree = SymInvSqrtDegrees(rel.adj);
  }
  EXPECT_EQ(SubgraphCache::EntryBytes(sub),
            without + (5 + 12) * sizeof(double));
}

TEST(SubgraphCache, ResidentBytesStayExactAcrossEveryEvictionPath) {
  const uint64_t per = SubgraphCache::EntryBytes(FakeSubgraph(0));
  const uint64_t account_base = CacheAccountResident();
  SubgraphCache cache(8);
  const auto check = [&] {
    SubgraphCacheStats s = cache.Stats();
    ASSERT_EQ(s.resident_bytes, s.entries * per);
    ASSERT_EQ(CacheAccountResident() - account_base, s.resident_bytes);
  };
  // LRU eviction path: every insert beyond capacity pops the tail.
  for (int t = 0; t < 50; ++t) {
    cache.Insert(t, 0, Shared(t));
    check();
  }
  // Version-sweep path.
  for (int t = 0; t < 4; ++t) cache.Insert(t, 1, Shared(t));
  cache.EvictWhereVersionBelow(1);
  check();
  // Shrink path (partial, then to empty).
  cache.ShrinkToBytes(2 * per);
  check();
  EXPECT_LE(cache.Stats().resident_bytes, 2 * per);
  EXPECT_EQ(cache.ShrinkToBytes(0), 2 * per);
  check();
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(SubgraphCache, DestructionReleasesTheGovernorAccount) {
  const uint64_t account_base = CacheAccountResident();
  {
    SubgraphCache cache(16);
    for (int t = 0; t < 10; ++t) cache.Insert(t, 0, Shared(t));
    EXPECT_GT(CacheAccountResident(), account_base);
  }
  EXPECT_EQ(CacheAccountResident(), account_base);
}

TEST(SubgraphCache, VersionFloorRefusesStaleInsertsAfterTheSweep) {
  // A request that started before a hot swap still builds version-0
  // subgraphs after the swap's sweep. The sweep's floor refuses them, so
  // no stale entry comes back, and every book still balances.
  const uint64_t account_base = CacheAccountResident();
  SubgraphCache cache(16);
  for (int t = 0; t < 3; ++t) cache.GetOrBuild(t, /*version=*/0, FakeSubgraph);
  ASSERT_EQ(cache.EvictWhereVersionBelow(1), 3u);

  // Late version-0 misses: each caller still gets its subgraph, none is
  // admitted.
  for (int t = 0; t < 4; ++t) {
    auto late = cache.GetOrBuild(t, 0, FakeSubgraph).ValueOrDie();
    ASSERT_NE(late, nullptr);
    EXPECT_EQ(late->center, t);
  }
  // The floor's own version is admitted as usual.
  cache.GetOrBuild(5, 1, FakeSubgraph);

  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.admit_rejects_stale, 4u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.inserts, s.entries + s.evictions + s.version_evictions);
  EXPECT_EQ(s.misses, s.coalesced_misses + s.flight_failures + s.inserts +
                          s.admit_rejects_cost + s.admit_rejects_pressure +
                          s.admit_rejects_stale);
  // Refused charges went back: the account holds exactly the residents.
  EXPECT_EQ(CacheAccountResident() - account_base, s.resident_bytes);

  // A direct insert below the floor is refused too and returns its input.
  auto direct = Shared(7);
  EXPECT_EQ(cache.Insert(7, 0, direct).get(), direct.get());
  EXPECT_EQ(cache.Stats().admit_rejects_stale, 5u);
  for (int t = 0; t < 8; ++t) EXPECT_EQ(cache.Lookup(t, 0), nullptr);
  EXPECT_EQ(cache.EvictWhereVersionBelow(1), 0u);
}

TEST(SubgraphCache, ByteBudgetEvictsBeyondBytesKeepingNewest) {
  const size_t per = SubgraphCache::EntryBytes(FakeSubgraph(0));
  SubgraphCache cache(1024, /*byte_budget=*/3 * per);
  for (int t = 0; t < 20; ++t) cache.Insert(t, 0, Shared(t));
  SubgraphCacheStats s = cache.Stats();
  EXPECT_LE(s.resident_bytes, 3 * per);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_NE(cache.Lookup(19, 0), nullptr);  // the newest insert survives
  EXPECT_EQ(s.inserts, 20u);
  EXPECT_EQ(s.evictions, 17u);
}

TEST(SubgraphCache, OversizedEntryRefusedAtAdmissionButStillReturned) {
  SubgraphCache cache(8, /*byte_budget=*/1);  // smaller than any entry
  auto sub = Shared(1);
  // Callers always get a usable subgraph even when admission refuses.
  EXPECT_EQ(cache.Insert(1, 0, sub).get(), sub.get());
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(s.admit_rejects_pressure, 1u);
}

TEST(SubgraphCache, CostAwareAdmissionRejectsCheapBuildsUnderPressure) {
  const size_t per = SubgraphCache::EntryBytes(FakeSubgraph(0));
  SubgraphCache cache(1024, /*byte_budget=*/2 * per,
                      /*admit_cost_us_per_kib=*/50.0);
  // With free space even a zero-cost build is admitted: the w_small rule
  // only prices admissions that would force an eviction.
  cache.InsertWithCost(1, 0, Shared(1), 0.0);
  cache.InsertWithCost(2, 0, Shared(2), 0.0);
  ASSERT_EQ(cache.Stats().entries, 2u);

  // Full: a cheap build must not displace resident entries...
  auto cheap = Shared(3);
  EXPECT_EQ(cache.InsertWithCost(3, 0, cheap, 0.0).get(), cheap.get());
  EXPECT_EQ(cache.Lookup(3, 0), nullptr);
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.admit_rejects_cost, 1u);
  EXPECT_EQ(s.evictions, 0u);

  // ...but a build worth >= 50 us per KiB of its size does.
  const double expensive_us =
      50.0 * static_cast<double>(per) / 1024.0 + 1.0;
  cache.InsertWithCost(4, 0, Shared(4), expensive_us);
  EXPECT_NE(cache.Lookup(4, 0), nullptr);
  s = cache.Stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.inserts, 3u);
}

TEST(SubgraphCache, MissBalanceHoldsWithAdmissionRejects) {
  // Every GetOrBuild miss lands in exactly one bucket, with the admission
  // rejects extending the PR 8 balance.
  SubgraphCache cache(8, /*byte_budget=*/1);  // nothing is ever admitted
  for (int t = 0; t < 5; ++t) {
    auto sub = cache.GetOrBuild(t, 0, FakeSubgraph).ValueOrDie();
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->center, t);
  }
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.admit_rejects_pressure, 5u);
  EXPECT_EQ(s.misses, s.coalesced_misses + s.flight_failures + s.inserts +
                          s.admit_rejects_cost + s.admit_rejects_pressure);
}

TEST(SubgraphCache, HitsAccumulateSavedBuildCost) {
  SubgraphCache cache(8);
  for (int pass = 0; pass < 3; ++pass) {
    auto sub = cache.GetOrBuild(5, 0, FakeSubgraph).ValueOrDie();
    ASSERT_NE(sub, nullptr);
  }
  SubgraphCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 2u);
  // Each hit credits the measured build cost of the entry it served.
  EXPECT_GT(s.hit_cost_saved_us, 0.0);
}

TEST(SubgraphCache, GovernorChargeFaultRefusesAdmission) {
  struct FaultGuard {
    ~FaultGuard() { FaultInjector::Global().Disarm(); }
  } guard;
  ASSERT_TRUE(
      FaultInjector::Global().Configure("governor.charge:first=1").ok());
  SubgraphCache cache(8);
  auto first = Shared(1);
  // The injected refusal simulates the hard watermark: served, not cached.
  EXPECT_EQ(cache.Insert(1, 0, first).get(), first.get());
  EXPECT_EQ(cache.Stats().admit_rejects_pressure, 1u);
  EXPECT_EQ(cache.Stats().entries, 0u);
  // The site fires once; the next admission proceeds normally.
  cache.Insert(2, 0, Shared(2));
  EXPECT_EQ(cache.Stats().entries, 1u);
}

}  // namespace
}  // namespace bsg
