// The thread-safe plan cache: LRU semantics single-threaded, and invariant
// preservation under concurrent hammering — the serving runtime's worker
// streams all plan through one shared cache.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "planner/plan_cache.h"
#include "planner/planner.h"

namespace regla {
namespace {

using planner::Dtype;
using planner::Op;
using planner::Plan;
using planner::PlanCache;
using planner::Planner;
using planner::ProblemDesc;

PlanCache::Key key_for(int n, std::uint64_t fingerprint = 7) {
  return PlanCache::Key{ProblemDesc{Op::qr, n, n, 1024, Dtype::f32},
                        fingerprint};
}

Plan plan_for(int n) {
  Plan p;
  p.threads = n;  // marker so tests can tell plans apart
  p.concurrent = n * 2;
  return p;
}

// Each standalone cache passes its own label, so its counters start at 0.
TEST(PlanCache, FindMissesThenHitsAndMarksFromCache) {
  PlanCache cache(4, "plancachetest=find");
  EXPECT_FALSE(cache.find(key_for(8)).has_value());
  cache.insert(key_for(8), plan_for(8));
  const auto hit = cache.find(key_for(8));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->threads, 8);
  EXPECT_TRUE(hit->from_cache);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
}

TEST(PlanCache, DeviceFingerprintIsPartOfTheKey) {
  PlanCache cache(4, "plancachetest=fingerprint");
  cache.insert(key_for(8, /*fingerprint=*/1), plan_for(8));
  EXPECT_FALSE(cache.find(key_for(8, /*fingerprint=*/2)).has_value());
  EXPECT_TRUE(cache.find(key_for(8, /*fingerprint=*/1)).has_value());
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(2, "plancachetest=lru");
  cache.insert(key_for(1), plan_for(1));
  cache.insert(key_for(2), plan_for(2));
  ASSERT_TRUE(cache.find(key_for(1)).has_value());  // refresh 1; 2 is now LRU
  cache.insert(key_for(3), plan_for(3));            // evicts 2
  EXPECT_TRUE(cache.find(key_for(1)).has_value());
  EXPECT_FALSE(cache.find(key_for(2)).has_value());
  EXPECT_TRUE(cache.find(key_for(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

// Eight threads hammering a small cache with overlapping keys: every find
// must return either nothing or the exact plan inserted for that key, the
// size must respect capacity, and the counters must balance. (Run under the
// tsan preset for the full race check.)
TEST(PlanCache, SurvivesConcurrentHammering) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kIters = 4000;
  // Far smaller than the key space: constant eviction.
  PlanCache cache(8, "plancachetest=hammer");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        // Half the traffic hits four shared hot keys (guaranteed cache
        // residency), the rest churns a cold key space far past capacity.
        const int n = (i % 2 == 0) ? (i / 2 + t) % 4 + 1
                                   : (i * 7 + t * 13) % kKeys + 5;
        const auto found = cache.find(key_for(n));
        if (found.has_value()) {
          // A hit must be the plan some thread inserted for this exact key.
          ASSERT_EQ(found->threads, n);
          ASSERT_EQ(found->concurrent, 2 * n);
          ASSERT_TRUE(found->from_cache);
        } else {
          cache.insert(key_for(n), plan_for(n));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_LE(cache.size(), cache.capacity());
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, std::uint64_t(kThreads) * kIters);
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.evictions, 0u);
  // Every resident entry was inserted; the rest were evicted or were
  // overwrites (two threads racing to insert the same missed key).
  EXPECT_GE(st.inserts, st.evictions + cache.size());
}

// The planner built on top of the cache must also tolerate concurrent
// plan() calls: same signature from every thread -> everyone gets the same
// plan and the cache serves the repeats.
TEST(PlanCache, ConcurrentPlannerPlansAgree) {
  constexpr int kThreads = 8;
  auto planner = std::make_shared<Planner>();
  const auto cfg = simt::DeviceConfig::quadro6000();
  std::vector<Plan> plans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i)
        plans[t] = planner->plan(cfg, ProblemDesc{Op::qr, 32, 32, 512});
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[t].approach, plans[0].approach);
    EXPECT_EQ(plans[t].threads, plans[0].threads);
    EXPECT_EQ(plans[t].concurrent, plans[0].concurrent);
  }
  const auto st = planner->stats();
  // Racing threads may each build the first plan, but never more than one
  // build per thread — after that it is cache hits all the way down.
  EXPECT_LE(st.plans_built, std::uint64_t(kThreads));
  EXPECT_GT(st.cache_hits, 0u);
}

}  // namespace
}  // namespace regla
