#include "service/service.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/plan.hpp"
#include "core/verify.hpp"
#include "topo/regular.hpp"
#include "topo/sample.hpp"
#include "trace/planetlab.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using core::Algorithm;
using core::Outcome;
using service::EmbedRequest;
using service::NetEmbedService;
using graph::Graph;

Graph smallHost() {
  trace::PlanetLabOptions o;
  o.sites = 40;
  o.clusters = 5;
  o.deadSites = 0;
  o.pairLossRate = 0.3;
  o.seed = 4;
  return trace::synthesize(o);
}

EmbedRequest sampledRequest(const Graph& host, std::uint64_t seed) {
  util::Rng rng(seed);
  auto sub = topo::sampleConnectedSubgraph(host, 5, 6, rng);
  topo::widenDelayWindows(sub.graph, 0.1);
  EmbedRequest request;
  request.query = std::move(sub.graph);
  request.edgeConstraint = topo::delayWindowConstraint();
  request.options.maxSolutions = 1;
  return request;
}

TEST(Service, SubmitFindsFeasibleMapping) {
  NetEmbedService svc(smallHost());
  const auto response = svc.submit(sampledRequest(svc.model().host(), 1));
  ASSERT_TRUE(response.result.feasible());
  const auto constraints = expr::ConstraintSet::edgeOnly(topo::delayWindowConstraint());
  // Rebuild the problem to verify against the service's host.
  const auto request = sampledRequest(svc.model().host(), 1);
  const core::Problem problem(request.query, svc.model().host(), constraints);
  EXPECT_TRUE(core::verifyMapping(problem, response.result.mappings.front()).ok);
  EXPECT_FALSE(response.diagnostics.empty());
}

TEST(Service, ExplicitAlgorithmIsUsed) {
  NetEmbedService svc(smallHost());
  for (const Algorithm algo : {Algorithm::ECF, Algorithm::RWB, Algorithm::LNS}) {
    auto request = sampledRequest(svc.model().host(), 2);
    request.algorithm = algo;
    const auto response = svc.submit(request);
    EXPECT_EQ(response.algorithmUsed, algo);
    EXPECT_TRUE(response.result.feasible()) << core::algorithmName(algo);
  }
}

TEST(Service, AutoSelectionFollowsPaperGuidance) {
  // Dense host (PlanetLab-like is near-clique at 40 sites / 0.3 loss).
  const Graph dense = topo::clique(30);
  EXPECT_EQ(NetEmbedService::chooseAlgorithm(topo::ring(4), dense, false),
            Algorithm::LNS);
  EXPECT_EQ(NetEmbedService::chooseAlgorithm(topo::ring(4), dense, true),
            Algorithm::ECF);
  // Sparse host, first match: RWB.
  const Graph sparse = topo::ring(30);
  EXPECT_EQ(NetEmbedService::chooseAlgorithm(topo::line(3), sparse, false),
            Algorithm::RWB);
  // Clique query prefers LNS for first match even on sparse hosts.
  EXPECT_EQ(NetEmbedService::chooseAlgorithm(topo::clique(5), sparse, false),
            Algorithm::LNS);
}

TEST(Service, PortfolioModeReturnsWinnerAndMatch) {
  NetEmbedService svc(smallHost());
  auto request = sampledRequest(svc.model().host(), 8);
  request.algorithm = Algorithm::Portfolio;
  const auto response = svc.submit(request);
  ASSERT_TRUE(response.result.feasible());
  // algorithmUsed reports the engine that won the race.
  EXPECT_TRUE(response.algorithmUsed == Algorithm::ECF ||
              response.algorithmUsed == Algorithm::RWB ||
              response.algorithmUsed == Algorithm::LNS)
      << core::algorithmName(response.algorithmUsed);
  EXPECT_NE(response.diagnostics.find("portfolio"), std::string::npos)
      << response.diagnostics;
}

TEST(Service, PortfolioModeProvesInfeasibility) {
  NetEmbedService svc(topo::ring(8));
  service::EmbedRequest request;
  request.query = topo::clique(4);  // no K4 in a cycle
  request.algorithm = Algorithm::Portfolio;
  request.options.maxSolutions = 1;
  const auto response = svc.submit(request);
  EXPECT_TRUE(response.result.provenInfeasible());
}

TEST(Service, AutoFirstMatchEscalatesToPortfolio) {
  // A sparse host and a tree query: neither is dense, so chooseAlgorithm
  // predicts RWB and the service races the portfolio on a multi-core box.
  // A decided race reports its winning engine, so a one-visit budget keeps
  // every contender from deciding: the response then names the algorithm
  // the service ran, Portfolio, where an un-escalated run names RWB.
  trace::PlanetLabOptions o;
  o.sites = 60;
  o.clusters = 5;
  o.deadSites = 0;
  o.pairLossRate = 0.85;
  o.seed = 4;
  NetEmbedService svc(trace::synthesize(o));
  const Graph& host = svc.model().host();
  ASSERT_LE(host.density(), 0.2) << "test premise: a sparse host";
  util::Rng rng(9);
  auto sub = topo::sampleConnectedSubgraph(host, 6, 5, rng);
  topo::widenDelayWindows(sub.graph, 0.1);
  EmbedRequest request;
  request.query = std::move(sub.graph);
  request.edgeConstraint = topo::delayWindowConstraint();
  request.options.maxSolutions = 1;
  request.options.visitBudget = 1;
  ASSERT_FALSE(request.algorithm.has_value());
  ASSERT_EQ(NetEmbedService::chooseAlgorithm(request.query, host, false),
            Algorithm::RWB);
  const auto response = svc.submit(request);
  EXPECT_EQ(response.result.outcome, Outcome::Inconclusive);
  EXPECT_EQ(response.algorithmUsed, std::thread::hardware_concurrency() > 1
                                        ? Algorithm::Portfolio
                                        : Algorithm::RWB);
}

TEST(Service, AutoFirstMatchKeepsLnsPickOnDenseHost) {
  // The documented exception: on a dense host chooseAlgorithm predicts LNS
  // for first match, and the service keeps that pick instead of racing the
  // filtered engines into stage-1 builds.
  NetEmbedService svc(smallHost());
  const Graph& host = svc.model().host();
  ASSERT_GT(host.density(), 0.2) << "test premise: a dense host";
  const auto request = sampledRequest(host, 9);
  ASSERT_EQ(NetEmbedService::chooseAlgorithm(request.query, host, false),
            Algorithm::LNS);
  const auto response = svc.submit(request);
  ASSERT_TRUE(response.result.feasible());
  EXPECT_EQ(response.algorithmUsed, Algorithm::LNS);
}

TEST(Service, ExplicitBaselineAlgorithmsRun) {
  NetEmbedService svc(smallHost());
  auto request = sampledRequest(svc.model().host(), 10);
  for (const Algorithm algo : {Algorithm::Naive, Algorithm::Anneal, Algorithm::Genetic}) {
    request.algorithm = algo;
    request.options.timeout = std::chrono::milliseconds(2000);
    const auto response = svc.submit(request);
    EXPECT_EQ(response.algorithmUsed, algo);
    // The metaheuristics may legitimately fail; they must never claim proof.
    if (!response.result.feasible()) {
      EXPECT_FALSE(response.result.provenInfeasible()) << core::algorithmName(algo);
    }
  }
}

TEST(Service, BadConstraintThrows) {
  NetEmbedService svc(smallHost());
  auto request = sampledRequest(svc.model().host(), 3);
  request.edgeConstraint = "vEdge..broken";
  EXPECT_THROW((void)svc.submit(request), expr::SyntaxError);
}

TEST(Service, OversizedQueryRejected) {
  NetEmbedService svc(topo::ring(3));
  EmbedRequest request;
  request.query = topo::ring(5);
  EXPECT_THROW((void)svc.submit(request), std::invalid_argument);
}

TEST(Service, NegotiationRelaxesUntilFeasible) {
  NetEmbedService svc(smallHost());
  auto request = sampledRequest(svc.model().host(), 5);
  // Shrink the windows to make the original query infeasible-ish: narrow to
  // a point below every real edge's range.
  for (graph::EdgeId e = 0; e < request.query.edgeCount(); ++e) {
    auto& attrs = request.query.edgeAttrs(e);
    const double mid = attrs.at("minDelay").asDouble();
    attrs.set("minDelay", mid * 1.001);
    attrs.set("maxDelay", mid * 1.002);  // window excludes the real range
  }
  const auto direct = svc.submit(request);
  ASSERT_FALSE(direct.result.feasible());

  const auto negotiated = svc.negotiate(request, 0.25, 2.0);
  EXPECT_TRUE(negotiated.feasible);
  EXPECT_GT(negotiated.toleranceUsed, 0.0);
  EXPECT_GT(negotiated.rounds, 1);
}

TEST(Service, NegotiationGivesUpPastMaxTolerance) {
  NetEmbedService svc(topo::ring(6));
  EmbedRequest request;
  request.query = topo::clique(4);  // topologically impossible in a ring
  request.options.maxSolutions = 1;
  const auto negotiated = svc.negotiate(request, 0.5, 1.0);
  EXPECT_FALSE(negotiated.feasible);
  EXPECT_EQ(negotiated.rounds, 3);  // t = 0, 0.5, 1.0
}

TEST(Service, AllocateFirstFeasibleReserves) {
  Graph host = smallHost();
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    host.nodeAttrs(n).set("slots", 4.0);
  }
  NetEmbedService svc(std::move(host));
  auto request = sampledRequest(svc.model().host(), 6);
  for (graph::NodeId n = 0; n < request.query.nodeCount(); ++n) {
    request.query.nodeAttrs(n).set("slots", 1.0);
  }
  service::NetworkModel::ReservationSpec spec;
  spec.nodeCapacityAttrs = {"slots"};

  const auto allocation = svc.allocateFirstFeasible(request, spec);
  ASSERT_TRUE(allocation.has_value());
  EXPECT_EQ(svc.model().activeReservations(), 1u);
  // Each mapped host node lost one slot.
  for (const graph::NodeId r : allocation->mapping) {
    EXPECT_DOUBLE_EQ(svc.model().host().nodeAttrs(r).at("slots").asDouble(), 3.0);
  }
  svc.model().release(allocation->reservation);
  EXPECT_EQ(svc.model().activeReservations(), 0u);
}

TEST(Service, AllocateReturnsNulloptWhenInfeasible) {
  NetEmbedService svc(topo::ring(6));
  EmbedRequest request;
  request.query = topo::clique(4);
  const auto allocation = svc.allocateFirstFeasible(request, {});
  EXPECT_FALSE(allocation.has_value());
}

TEST(Service, ModelReplacementInvalidatesCachedPlans) {
  // Assigning a new (here: smaller) model must not let a same-signature
  // query hit a plan built against the old host — stale host node ids would
  // index out of the new host's bounds.
  NetEmbedService svc(topo::clique(8));
  EmbedRequest request;
  request.query = topo::ring(4);
  request.algorithm = Algorithm::ECF;
  request.options.maxSolutions = 1;
  const std::uint64_t builds0 = core::filterPlanBuilds();
  const auto first = svc.submit(request);
  ASSERT_TRUE(first.result.feasible());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u);

  svc.model() = service::NetworkModel(topo::clique(6));
  EXPECT_GT(svc.model().version(), first.modelVersion);
  const auto second = svc.submit(request);
  EXPECT_TRUE(second.result.feasible());
  EXPECT_EQ(second.modelVersion, svc.model().version());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 2u)
      << "the replaced model must force a fresh stage-1 build";
}

TEST(Service, ModelVersionReportedInResponse) {
  NetEmbedService svc(smallHost());
  svc.model().setNodeAttr(0, "load", 1.0);
  const auto response = svc.submit(sampledRequest(svc.model().host(), 7));
  EXPECT_EQ(response.modelVersion, svc.model().version());
}

}  // namespace
