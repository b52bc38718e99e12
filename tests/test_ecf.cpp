#include "core/ecf.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/plan.hpp"
#include "core/verify.hpp"
#include "topo/regular.hpp"

namespace {

using namespace netembed;
using core::ecfSearch;
using core::EmbedResult;
using core::Outcome;
using core::Problem;
using core::SearchOptions;
using graph::Graph;

const expr::ConstraintSet kNone;

SearchOptions storeAll() {
  SearchOptions o;
  o.storeLimit = 100000;
  return o;
}

TEST(Ecf, TriangleInK4Has24Mappings) {
  const Graph query = topo::clique(3);
  const Graph host = topo::clique(4);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.outcome, Outcome::Complete);
  EXPECT_EQ(r.solutionCount, 24u);  // P(4,3)
  EXPECT_EQ(r.mappings.size(), 24u);
}

TEST(Ecf, AllMappingsAreDistinctAndValid) {
  const Graph query = topo::clique(3);
  const Graph host = topo::clique(4);
  const Problem problem(query, host, kNone);
  const EmbedResult r = ecfSearch(problem, storeAll());
  std::set<core::Mapping> unique(r.mappings.begin(), r.mappings.end());
  EXPECT_EQ(unique.size(), r.mappings.size());
  for (const core::Mapping& m : r.mappings) {
    EXPECT_TRUE(core::verifyMapping(problem, m).ok);
  }
}

TEST(Ecf, PathInTriangleHas6Mappings) {
  const Graph query = topo::line(3);
  const Graph host = topo::ring(3);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.solutionCount, 6u);
}

TEST(Ecf, RingAutomorphismsOfC5) {
  const Graph query = topo::ring(5);
  const Graph host = topo::ring(5);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.solutionCount, 10u);  // dihedral group D5
}

TEST(Ecf, StarIntoStarFixesHub) {
  const Graph query = topo::star(3);
  const Graph host = topo::star(3);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.solutionCount, 6u);  // hub->hub, leaves permute
  for (const core::Mapping& m : r.mappings) EXPECT_EQ(m[0], 0u);
}

TEST(Ecf, P3InC4Has8Mappings) {
  const Graph query = topo::line(3);
  const Graph host = topo::ring(4);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.solutionCount, 8u);
}

TEST(Ecf, InfeasibleIsProvenComplete) {
  const Graph query = topo::clique(4);
  const Graph host = topo::ring(6);  // no K4 in a cycle
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.outcome, Outcome::Complete);
  EXPECT_EQ(r.solutionCount, 0u);
  EXPECT_TRUE(r.provenInfeasible());
  EXPECT_FALSE(r.feasible());
  EXPECT_LT(r.stats.firstMatchMs, 0.0);
}

TEST(Ecf, DirectedEdgeOrientationMatters) {
  Graph query(true);
  query.addNode();
  query.addNode();
  query.addEdge(0, 1);
  Graph host(true);
  for (int i = 0; i < 3; ++i) host.addNode();
  host.addEdge(0, 1);
  host.addEdge(1, 2);
  host.addEdge(2, 0);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.solutionCount, 3u);  // each directed host edge once
}

TEST(Ecf, DirectedReciprocalPairInfeasibleWithoutOne) {
  Graph query(true);
  query.addNode();
  query.addNode();
  query.addEdge(0, 1);
  query.addEdge(1, 0);
  Graph host(true);
  for (int i = 0; i < 3; ++i) host.addNode();
  host.addEdge(0, 1);
  host.addEdge(1, 2);
  host.addEdge(2, 0);  // a 3-cycle has no 2-cycle
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_TRUE(r.provenInfeasible());
}

TEST(Ecf, ConstraintsFilterSolutions) {
  // Host triangle with one "fast" edge; query wants a single fast edge.
  Graph host(false);
  for (int i = 0; i < 3; ++i) host.addNode();
  host.edgeAttrs(host.addEdge(0, 1)).set("delay", 5.0);
  host.edgeAttrs(host.addEdge(1, 2)).set("delay", 50.0);
  host.edgeAttrs(host.addEdge(2, 0)).set("delay", 50.0);
  Graph query(false);
  query.addNode();
  query.addNode();
  query.edgeAttrs(query.addEdge(0, 1)).set("maxDelay", 10.0);
  const auto constraints = expr::ConstraintSet::edgeOnly("rEdge.delay <= vEdge.maxDelay");
  const EmbedResult r = ecfSearch(Problem(query, host, constraints), storeAll());
  EXPECT_EQ(r.solutionCount, 2u);  // the fast edge, both orientations
  for (const core::Mapping& m : r.mappings) {
    EXPECT_TRUE((m[0] == 0 && m[1] == 1) || (m[0] == 1 && m[1] == 0));
  }
}

TEST(Ecf, MaxSolutionsStopsEarlyAsPartial) {
  const Graph query = topo::clique(3);
  const Graph host = topo::clique(10);
  SearchOptions o = storeAll();
  o.maxSolutions = 5;
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), o);
  EXPECT_EQ(r.outcome, Outcome::Partial);
  EXPECT_EQ(r.solutionCount, 5u);
  EXPECT_EQ(r.mappings.size(), 5u);
}

TEST(Ecf, StoreLimitBoundsMappingsNotCount) {
  const Graph query = topo::clique(3);
  const Graph host = topo::clique(5);
  SearchOptions o;
  o.storeLimit = 2;
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), o);
  EXPECT_EQ(r.outcome, Outcome::Complete);
  EXPECT_EQ(r.solutionCount, 60u);  // P(5,3)
  EXPECT_EQ(r.mappings.size(), 2u);
}

TEST(Ecf, SinkCanStopSearch) {
  const Graph query = topo::clique(3);
  const Graph host = topo::clique(8);
  int seen = 0;
  const EmbedResult r =
      ecfSearch(Problem(query, host, kNone), storeAll(), [&](const core::Mapping&) {
        ++seen;
        return seen < 3;  // stop after the third solution
      });
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(r.solutionCount, 3u);
  EXPECT_EQ(r.outcome, Outcome::Partial);
}

TEST(Ecf, TimeoutProducesPartialWhenSolutionsExist) {
  // Sized for the word-parallel candidate path: K5-in-K24 (~5.1M embeddings)
  // can now be exhausted inside the budget, so give the enumeration ~165M
  // embeddings to guarantee the deadline wins.
  const Graph query = topo::clique(6);
  const Graph host = topo::clique(26);
  SearchOptions o;
  o.storeLimit = 1;
  // Generous budget: a loaded single-core CI box may deschedule us past a
  // tight deadline before the first solution; the ~165M-embedding
  // enumeration still cannot finish, so the outcome stays Partial.
  o.timeout = std::chrono::milliseconds(250);
  o.checkStride = 256;
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), o);
  EXPECT_EQ(r.outcome, Outcome::Partial);
  EXPECT_GT(r.solutionCount, 0u);
  EXPECT_GE(r.stats.firstMatchMs, 0.0);
}

TEST(Ecf, DisconnectedQueryIsHandled) {
  Graph query(false);
  for (int i = 0; i < 4; ++i) query.addNode();
  query.addEdge(0, 1);
  query.addEdge(2, 3);  // two disjoint edges
  const Graph host = topo::ring(4);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.outcome, Outcome::Complete);
  // C4 has 4 edges; choose 2 disjoint host edges (2 disjoint pairs) and
  // orient each: the two "opposite edge" pairs x 2 x 2 orientations x
  // 2 assignment orders = 16.
  EXPECT_EQ(r.solutionCount, 16u);
}

TEST(Ecf, StaticOrderingOffStillCorrect) {
  const Graph query = topo::line(3);
  const Graph host = topo::ring(4);
  SearchOptions o = storeAll();
  o.ordering = core::Ordering::Declared;
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), o);
  EXPECT_EQ(r.solutionCount, 8u);
}

TEST(Ecf, DeclaredOrderingKeepsTheQueryOrder) {
  // Path query in a longer path host: the middle query node needs degree 2,
  // so it has the fewest candidates and the Lemma-1 sort moves it first.
  const Graph query = topo::line(3);
  const Graph host = topo::line(5);
  const Problem problem(query, host, kNone);
  SearchOptions declared = storeAll();
  declared.ordering = core::Ordering::Declared;
  const auto unsorted = core::FilterPlan::build(problem, declared);
  const auto sorted = core::FilterPlan::build(problem, storeAll());
  EXPECT_EQ(unsorted->order, (std::vector<graph::NodeId>{0, 1, 2}));
  EXPECT_EQ(sorted->order.front(), 1u);
  EXPECT_EQ(core::chooseOrdering(*unsorted, core::Ordering::Declared),
            core::Ordering::Declared);
  for (const auto& plan : {unsorted, sorted}) {
    EXPECT_NE(core::chooseOrdering(*plan, core::Ordering::Auto),
              core::Ordering::Declared);
  }
  EXPECT_EQ(ecfSearch(problem, declared).solutionCount, 6u);
}

TEST(Ecf, SingleNodeQuery) {
  Graph query(false);
  query.addNode();
  const Graph host = topo::ring(3);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_EQ(r.solutionCount, 3u);
}

TEST(Ecf, QueryEqualsHostIdentity) {
  const Graph g = topo::line(4);
  const EmbedResult r = ecfSearch(Problem(g, g, kNone), storeAll());
  EXPECT_EQ(r.solutionCount, 2u);  // identity + reversal
}

TEST(Ecf, StatsArePopulated) {
  const Graph query = topo::clique(3);
  const Graph host = topo::clique(5);
  const EmbedResult r = ecfSearch(Problem(query, host, kNone), storeAll());
  EXPECT_GT(r.stats.treeNodesVisited, 0u);
  EXPECT_GT(r.stats.filterEntries, 0u);
  EXPECT_GE(r.stats.searchMs, 0.0);
  EXPECT_GE(r.stats.firstMatchMs, 0.0);
  EXPECT_LE(r.stats.firstMatchMs, r.stats.searchMs + 1.0);
}

}  // namespace
