// Property-based cross-validation of the four complete engines.
//
// For randomized instances (BRITE-like hosts, sampled connected-subgraph
// queries, delay-window constraints), every complete algorithm must agree on
// the exact number of feasible embeddings, every returned mapping must pass
// the independent verifier, and RWB must find a solution iff one exists.
// This is the strongest correctness evidence in the suite: four independent
// implementations (ECF with filters, randomized ECF, filterless LNS, and the
// naive baseline) disagreeing on any instance fails loudly.

#include <gtest/gtest.h>

#include <set>

#include "baseline/naive.hpp"
#include "core/ecf.hpp"
#include "core/lns.hpp"
#include "core/rwb.hpp"
#include "core/verify.hpp"
#include "topo/brite.hpp"
#include "topo/sample.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using core::EmbedResult;
using core::Outcome;
using core::Problem;
using core::SearchOptions;
using graph::Graph;

struct Instance {
  Graph host;
  Graph query;
  expr::ConstraintSet constraints;
  bool constrained;
};

Instance makeInstance(std::uint64_t seed, bool constrained, bool infeasible) {
  util::Rng rng(seed);
  topo::BriteOptions bo;
  bo.nodes = 24;
  bo.m = 2;
  bo.seed = util::deriveSeed(seed, 1);
  Instance inst{topo::brite(bo), Graph(false), {}, constrained};

  const std::size_t queryNodes = 4 + rng.index(4);  // 4..7
  const std::size_t targetEdges = queryNodes + rng.index(queryNodes);
  auto sub = topo::sampleConnectedSubgraph(inst.host, queryNodes, targetEdges, rng);
  inst.query = std::move(sub.graph);

  if (constrained) {
    topo::widenDelayWindows(inst.query, 0.10);
    if (infeasible) topo::makeInfeasible(inst.query, 0.5, rng);
    inst.constraints = expr::ConstraintSet::edgeOnly(topo::delayWindowConstraint());
  }
  return inst;
}

SearchOptions storeAll() {
  SearchOptions o;
  o.storeLimit = 1u << 20;
  return o;
}

class CrossValidation : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossValidation, ConstrainedFeasibleInstancesAgree) {
  const Instance inst = makeInstance(GetParam(), /*constrained=*/true,
                                     /*infeasible=*/false);
  const Problem problem(inst.query, inst.host, inst.constraints);

  const EmbedResult ecf = core::ecfSearch(problem, storeAll());
  const EmbedResult lns = core::lnsSearch(problem, storeAll());
  const EmbedResult naive = baseline::naiveSearch(problem, storeAll());

  ASSERT_EQ(ecf.outcome, Outcome::Complete);
  ASSERT_EQ(lns.outcome, Outcome::Complete);
  ASSERT_EQ(naive.outcome, Outcome::Complete);

  // The query was cut from the host, so at least one embedding must exist.
  EXPECT_GE(ecf.solutionCount, 1u);
  EXPECT_EQ(ecf.solutionCount, lns.solutionCount);
  EXPECT_EQ(ecf.solutionCount, naive.solutionCount);

  // Identical solution *sets*, not just counts.
  const std::set<core::Mapping> ecfSet(ecf.mappings.begin(), ecf.mappings.end());
  const std::set<core::Mapping> lnsSet(lns.mappings.begin(), lns.mappings.end());
  const std::set<core::Mapping> naiveSet(naive.mappings.begin(), naive.mappings.end());
  EXPECT_EQ(ecfSet, lnsSet);
  EXPECT_EQ(ecfSet, naiveSet);

  for (const core::Mapping& m : ecf.mappings) {
    const auto v = core::verifyMapping(problem, m);
    EXPECT_TRUE(v.ok) << v.reason;
  }

  // RWB must find a solution since one exists.
  const EmbedResult rwb = core::rwbSearch(problem, storeAll());
  ASSERT_TRUE(rwb.feasible());
  EXPECT_TRUE(core::verifyMapping(problem, rwb.mappings[0]).ok);
  EXPECT_TRUE(ecfSet.count(rwb.mappings[0]) > 0);
}

TEST_P(CrossValidation, InfeasibleInstancesAreProvenEverywhere) {
  const Instance inst = makeInstance(GetParam(), /*constrained=*/true,
                                     /*infeasible=*/true);
  const Problem problem(inst.query, inst.host, inst.constraints);

  const EmbedResult ecf = core::ecfSearch(problem, storeAll());
  const EmbedResult lns = core::lnsSearch(problem, storeAll());
  const EmbedResult rwb = core::rwbSearch(problem, storeAll());

  EXPECT_TRUE(ecf.provenInfeasible());
  EXPECT_TRUE(lns.provenInfeasible());
  EXPECT_TRUE(rwb.provenInfeasible());
}

TEST_P(CrossValidation, TopologyOnlyCountsAgree) {
  // Small unconstrained instances: pure subgraph isomorphism counting.
  util::Rng rng(GetParam() * 977 + 3);
  topo::BriteOptions bo;
  bo.nodes = 12;
  bo.m = 2;
  bo.seed = util::deriveSeed(GetParam(), 7);
  const Graph host = topo::brite(bo);
  auto sub = topo::sampleConnectedSubgraph(host, 4, 4, rng);
  const Graph& query = sub.graph;
  const expr::ConstraintSet none;
  const Problem problem(query, host, none);

  const EmbedResult ecf = core::ecfSearch(problem, storeAll());
  const EmbedResult lns = core::lnsSearch(problem, storeAll());
  const EmbedResult naive = baseline::naiveSearch(problem, storeAll());
  ASSERT_EQ(ecf.outcome, Outcome::Complete);
  EXPECT_GE(ecf.solutionCount, 1u);
  EXPECT_EQ(ecf.solutionCount, lns.solutionCount);
  EXPECT_EQ(ecf.solutionCount, naive.solutionCount);
}

TEST_P(CrossValidation, OrderingAblationPreservesCounts) {
  const Instance inst = makeInstance(GetParam() + 5000, true, false);
  const Problem problem(inst.query, inst.host, inst.constraints);
  SearchOptions noOrdering = storeAll();
  noOrdering.ordering = core::Ordering::Declared;
  const EmbedResult with = core::ecfSearch(problem, storeAll());
  const EmbedResult without = core::ecfSearch(problem, noOrdering);
  EXPECT_EQ(with.solutionCount, without.solutionCount);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
