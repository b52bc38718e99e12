// FilterPlanCache keying/invalidation rules and the SharedPlanBuilder
// build-once / hand-over semantics.

#include "service/plan_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "topo/regular.hpp"

namespace {

using namespace netembed;
using core::FilterPlan;
using core::SearchOptions;
using core::SharedPlanBuilder;
using service::FilterPlanCache;
using service::planSignature;
using graph::Graph;

// --- signatures ----------------------------------------------------------------

TEST(PlanSignature, IdenticalQueriesShareASignature) {
  const Graph a = topo::ring(5);
  const Graph b = topo::ring(5);
  EXPECT_EQ(planSignature(a, "x", "y", {}), planSignature(b, "x", "y", {}));
}

TEST(PlanSignature, StructureConstraintsAttrsAndPlanOptionsAllSplit) {
  const Graph base = topo::ring(5);
  const std::string ref = planSignature(base, "c", "", {});

  EXPECT_NE(planSignature(topo::ring(6), "c", "", {}), ref);   // structure
  EXPECT_NE(planSignature(topo::line(5), "c", "", {}), ref);   // edges
  EXPECT_NE(planSignature(base, "c2", "", {}), ref);           // edge constraint
  EXPECT_NE(planSignature(base, "c", "n", {}), ref);           // node constraint

  Graph attred = topo::ring(5);
  attred.nodeAttrs(0).set("cpu", 2.0);
  EXPECT_NE(planSignature(attred, "c", "", {}), ref);          // node attrs

  Graph edged = topo::ring(5);
  edged.edgeAttrs(0).set("delay", 3.5);
  EXPECT_NE(planSignature(edged, "c", "", {}), ref);           // edge attrs

  SearchOptions noOrdering;
  noOrdering.ordering = core::Ordering::Declared;
  EXPECT_NE(planSignature(base, "c", "", noOrdering), ref);    // Lemma-1 order

  SearchOptions tinyBudget;
  tinyBudget.maxFilterEntries = 7;
  EXPECT_NE(planSignature(base, "c", "", tinyBudget), ref);    // overflow budget
}

TEST(PlanSignature, SearchOnlyOptionsDoNotSplitTheCache) {
  const Graph q = topo::ring(4);
  SearchOptions a;
  SearchOptions b;
  b.seed = 99;
  b.maxSolutions = 7;
  b.timeout = std::chrono::milliseconds(123);
  b.rootSplitThreads = 4;
  b.storeLimit = 1;
  b.parallelFilterBuild = false;  // affects build speed, not plan content
  b.ordering = core::Ordering::Dynamic;  // resolved at search time
  EXPECT_EQ(planSignature(q, "c", "", a), planSignature(q, "c", "", b));
}

TEST(PlanSignature, AttrValuesDistinguishExactDoubles) {
  Graph a = topo::ring(4);
  Graph b = topo::ring(4);
  a.edgeAttrs(0).set("delay", 0.1);
  b.edgeAttrs(0).set("delay", 0.1 + 1e-18);  // rounds back to the same double
  EXPECT_EQ(planSignature(a, "", "", {}), planSignature(b, "", "", {}));
  b.edgeAttrs(0).set("delay", 0.1 + 1e-16);
  EXPECT_NE(planSignature(a, "", "", {}), planSignature(b, "", "", {}));
}

// --- cache keying and invalidation ----------------------------------------------

TEST(FilterPlanCache, SameVersionSameSignatureSharesABuilder) {
  FilterPlanCache cache(4);
  const auto a = cache.acquire(1, "sig");
  const auto b = cache.acquire(1, "sig");
  EXPECT_EQ(a, b);
  const auto c = cache.acquire(1, "other");
  EXPECT_NE(a, c);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(FilterPlanCache, VersionBumpDropsEveryEntry) {
  FilterPlanCache cache(4);
  const auto old1 = cache.acquire(1, "sig");
  (void)cache.acquire(1, "sig2");
  const auto fresh = cache.acquire(2, "sig");
  EXPECT_NE(old1, fresh);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.size, 1u);
  // And the new version keeps sharing normally.
  EXPECT_EQ(cache.acquire(2, "sig"), fresh);
}

TEST(FilterPlanCache, StaleVersionGetsPrivateUncachedBuilder) {
  FilterPlanCache cache(4);
  const auto current = cache.acquire(5, "sig");
  const auto stale = cache.acquire(4, "sig");
  EXPECT_NE(current, stale);
  EXPECT_EQ(cache.stats().bypasses, 1u);
  // The stale acquire neither evicted nor replaced the current entry.
  EXPECT_EQ(cache.acquire(5, "sig"), current);
}

TEST(FilterPlanCache, LruEvictionKeepsHotEntries) {
  FilterPlanCache cache(2);
  const auto a = cache.acquire(1, "a");
  (void)cache.acquire(1, "b");
  (void)cache.acquire(1, "a");  // touch a: b becomes the LRU victim
  (void)cache.acquire(1, "c");  // evicts b
  EXPECT_EQ(cache.acquire(1, "a"), a);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto b2 = cache.acquire(1, "b");  // rebuilt as a miss
  EXPECT_NE(b2, nullptr);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(FilterPlanCache, ZeroCapacityDisablesSharing) {
  FilterPlanCache cache(0);
  EXPECT_NE(cache.acquire(1, "sig"), cache.acquire(1, "sig"));
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().bypasses, 2u);
}

// --- SharedPlanBuilder ----------------------------------------------------------

TEST(SharedPlanBuilder, ConcurrentGettersReceiveOnePlan) {
  const Graph query = topo::ring(4);
  const Graph host = topo::clique(8);
  const core::Problem problem(query, host);
  SharedPlanBuilder builder;

  const std::uint64_t buildsBefore = core::filterPlanBuilds();
  std::atomic<int> builtHereCount{0};
  std::vector<std::shared_ptr<const FilterPlan>> plans(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const auto acquired = builder.get(problem, {});
      plans[t] = acquired.plan;
      if (acquired.builtHere) builtHereCount.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(core::filterPlanBuilds() - buildsBefore, 1u);
  EXPECT_EQ(builtHereCount.load(), 1);
  for (int t = 1; t < 4; ++t) EXPECT_EQ(plans[t], plans[0]);
  EXPECT_EQ(builder.ready(), plans[0]);
}

TEST(SharedPlanBuilder, OverflowIsStickyForEverySharer) {
  const Graph query = topo::ring(4);
  const Graph host = topo::clique(12);
  const core::Problem problem(query, host);
  SearchOptions options;
  options.maxFilterEntries = 1;
  SharedPlanBuilder builder;
  EXPECT_THROW((void)builder.get(problem, options), core::FilterOverflow);
  // The failure is recorded: later sharers fail instantly, nobody rebuilds.
  const std::uint64_t buildsBefore = core::filterPlanBuilds();
  EXPECT_THROW((void)builder.get(problem, options), core::FilterOverflow);
  EXPECT_EQ(core::filterPlanBuilds() - buildsBefore, 0u);
  EXPECT_EQ(builder.ready(), nullptr);
}

TEST(SharedPlanBuilder, CancelledBuilderHandsOverToALiveConsumer) {
  const Graph query = topo::ring(4);
  const Graph host = topo::clique(8);
  const core::Problem problem(query, host);
  SharedPlanBuilder builder;
  // A consumer cancelled mid-build fails alone...
  EXPECT_THROW((void)builder.get(problem, {}, [] { return true; }),
               core::FilterBuildCancelled);
  EXPECT_EQ(builder.ready(), nullptr);
  // ...and the next live consumer performs the build itself.
  const auto acquired = builder.get(problem, {});
  EXPECT_TRUE(acquired.builtHere);
  ASSERT_NE(acquired.plan, nullptr);
  EXPECT_GT(acquired.plan->filters.totalEntries(), 0u);
}

TEST(SharedPlanBuilder, PreResolvedBuilderNeverBuilds) {
  const Graph query = topo::ring(4);
  const Graph host = topo::clique(8);
  const core::Problem problem(query, host);
  const auto plan = FilterPlan::build(problem, {});
  SharedPlanBuilder builder(plan);
  const std::uint64_t buildsBefore = core::filterPlanBuilds();
  const auto acquired = builder.get(problem, {});
  EXPECT_EQ(acquired.plan, plan);
  EXPECT_FALSE(acquired.builtHere);
  EXPECT_EQ(core::filterPlanBuilds() - buildsBefore, 0u);
}

}  // namespace
