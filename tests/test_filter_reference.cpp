// FilterMatrix::build and FilterMatrix::patch against the brute-force oracle
// in filter_reference.hpp: every cell, bit row, stage-0 row and viable list,
// and — for fresh builds — the constraint-evaluation count. The stage-1
// sweep has three branches (a directed host, an orientation-blind edge
// constraint, an endpoint-reading one); each runs under every BitsetMode,
// serially and on the pool, so the TSan CI job picks the parallel build up
// through the FilterReference* filter.

#include "filter_reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/ecf.hpp"
#include "core/filter.hpp"
#include "core/plan.hpp"
#include "service/model.hpp"
#include "topo/hugehost.hpp"
#include "topo/regular.hpp"
#include "topo/sample.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using core::BitsetMode;
using core::FilterMatrix;
using core::Problem;
using core::SearchOptions;
using graph::Graph;

Graph randomConnected(std::size_t n, std::size_t extraEdges, bool directed,
                      util::Rng& rng) {
  Graph g(directed);
  for (std::size_t i = 0; i < n; ++i) g.addNode();
  for (graph::NodeId i = 1; i < n; ++i) {
    const auto j = static_cast<graph::NodeId>(rng.index(i));
    if (directed && rng.bernoulli(0.5)) {
      g.addEdge(i, j);
    } else {
      g.addEdge(j, i);
    }
  }
  for (std::size_t k = 0; k < extraEdges; ++k) {
    const auto u = static_cast<graph::NodeId>(rng.index(n));
    const auto v = static_cast<graph::NodeId>(rng.index(n));
    if (u == v || g.findEdge(u, v)) continue;
    g.addEdge(u, v);
  }
  return g;
}

void attributeHost(Graph& g, util::Rng& rng) {
  for (graph::NodeId n = 0; n < g.nodeCount(); ++n) {
    g.nodeAttrs(n).set("cap", static_cast<double>(rng.uniformInt(1, 10)));
  }
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    g.edgeAttrs(e).set("bw", static_cast<double>(rng.uniformInt(1, 10)));
  }
}

void attributeQuery(Graph& g) {
  for (graph::NodeId n = 0; n < g.nodeCount(); ++n) g.nodeAttrs(n).set("cap", 3.0);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) g.edgeAttrs(e).set("bw", 4.0);
}

/// Edge constraint reading only the edges: orientation-blind.
const expr::ConstraintSet& capConstraints() {
  static const expr::ConstraintSet set = expr::ConstraintSet::parse(
      "rEdge.bw >= vEdge.bw", "rNode.cap >= vNode.cap");
  return set;
}

/// Edge constraint reading the host endpoints: evaluated per orientation.
const expr::ConstraintSet& endpointConstraints() {
  static const expr::ConstraintSet set = expr::ConstraintSet::parse(
      "rEdge.bw >= vEdge.bw && rSource.cap + 2 >= rTarget.cap",
      "rNode.cap >= vNode.cap");
  return set;
}

/// Adjacency entries of the host nodes set in `ok`: in-adjacency when
/// `inward` (directed host only), full or out-adjacency otherwise.
std::uint64_t adjacencyOf(const Graph& h, const std::vector<char>& ok, bool inward) {
  std::uint64_t entries = 0;
  for (graph::NodeId r = 0; r < h.nodeCount(); ++r) {
    if (ok[r]) entries += inward ? h.inNeighbors(r).size() : h.neighbors(r).size();
  }
  return entries;
}

/// The adjacency entries the stage-1 sweep may walk: per query edge, those
/// of the stage-0-viable host nodes of whichever endpoint has fewer (the
/// source on a tie), read inward from the target on a directed host. Pins
/// the sweep's cost deterministically — a sweep that ignored the stage-0
/// rows, or anchored on the broader endpoint, walks more.
std::uint64_t anchoredSweepVisits(const Problem& problem, const reference::Filter& ref) {
  const Graph& q = *problem.query;
  const Graph& h = *problem.host;
  std::uint64_t visits = 0;
  for (graph::EdgeId qe = 0; qe < q.edgeCount(); ++qe) {
    const auto& okA = ref.nodeOk[q.edgeSource(qe)];
    const auto& okB = ref.nodeOk[q.edgeTarget(qe)];
    const bool fromB = std::count(okB.begin(), okB.end(), 1) <
                       std::count(okA.begin(), okA.end(), 1);
    visits += fromB ? adjacencyOf(h, okB, h.directed()) : adjacencyOf(h, okA, false);
  }
  return visits;
}

/// Build under every BitsetMode, serially and in parallel, and check each
/// matrix, its eval count and its sweep visits against the oracle. A 320-node (5-word) host
/// keeps Auto mode on bit rows (nr <= 512), so Auto and Force both carry
/// them and Off carries none.
void expectEveryBuildMatchesReference(const Problem& problem) {
  const reference::Filter ref = reference::build(problem);
  ASSERT_GT(ref.pairs.size(), 0u);
  for (const BitsetMode mode : {BitsetMode::Off, BitsetMode::Auto, BitsetMode::Force}) {
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode)
                                      << " parallel=" << parallel);
      SearchOptions options;
      options.bitsetMode = mode;
      options.parallelFilterBuild = parallel;
      core::SearchStats stats;
      const FilterMatrix fm = FilterMatrix::build(problem, options, stats);
      ASSERT_GT(fm.totalEntries(), 0u);
      EXPECT_EQ(fm.hasCandidateBits(0, 0), mode != BitsetMode::Off);
      EXPECT_EQ(reference::compare(fm, problem, ref), "");
      EXPECT_EQ(stats.constraintEvals, ref.evals);
      EXPECT_EQ(stats.filterSweepVisits, anchoredSweepVisits(problem, ref));
    }
  }
}

/// Counts of undirected host edges whose node gate passes in both
/// orientations for some query edge, and in exactly one: the orientation-
/// blind branch evaluates the former at one endpoint's visit only, the
/// latter at its only passing visit.
std::pair<std::size_t, std::size_t> gatedEdgeShapes(const Problem& problem,
                                                    const reference::Filter& ref) {
  const Graph& q = *problem.query;
  const Graph& h = *problem.host;
  std::size_t both = 0;
  std::size_t one = 0;
  for (graph::EdgeId qe = 0; qe < q.edgeCount(); ++qe) {
    const auto& okA = ref.nodeOk[q.edgeSource(qe)];
    const auto& okB = ref.nodeOk[q.edgeTarget(qe)];
    for (graph::EdgeId he = 0; he < h.edgeCount(); ++he) {
      const graph::NodeId ra = h.edgeSource(he);
      const graph::NodeId rb = h.edgeTarget(he);
      const bool forward = okA[ra] && okB[rb];
      const bool backward = okA[rb] && okB[ra];
      both += forward && backward;
      one += forward != backward;
    }
  }
  return {both, one};
}

// --- the three sweep branches -----------------------------------------------

TEST(FilterReference, DirectedHostMatchesEveryCell) {
  util::Rng rng(31);
  Graph query = randomConnected(5, 4, true, rng);
  attributeQuery(query);
  Graph host = randomConnected(320, 960, true, rng);
  attributeHost(host, rng);
  expectEveryBuildMatchesReference(Problem(query, host, capConstraints()));
}

TEST(FilterReference, OrientationBlindConstraintMatchesEveryCell) {
  util::Rng rng(32);
  Graph query = randomConnected(5, 4, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(320, 640, false, rng);
  attributeHost(host, rng);
  const Problem problem(query, host, capConstraints());
  // Premise: the cap node constraint leaves both gate shapes in play, so the
  // once-per-edge rule is exercised at mirrored and one-sided edges alike.
  const auto [both, one] = gatedEdgeShapes(problem, reference::build(problem));
  ASSERT_GT(both, 0u);
  ASSERT_GT(one, 0u);
  expectEveryBuildMatchesReference(problem);

  // No edge constraint at all is orientation-blind too, and evaluates nothing.
  const expr::ConstraintSet none;
  const Problem topologyOnly(query, host, none);
  ASSERT_EQ(reference::build(topologyOnly).evals, 0u);
  expectEveryBuildMatchesReference(topologyOnly);
}

TEST(FilterReference, EndpointReadingConstraintMatchesEveryCell) {
  util::Rng rng(33);
  Graph query = randomConnected(5, 4, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(320, 640, false, rng);
  attributeHost(host, rng);
  const Problem problem(query, host, endpointConstraints());
  // Premise: the constraint really is orientation-sensitive here — some
  // gated host edge passes one way and fails the other.
  const reference::Filter ref = reference::build(problem);
  bool asymmetric = false;
  for (graph::EdgeId qe = 0; qe < query.edgeCount() && !asymmetric; ++qe) {
    const auto& pairs = ref.pairs[qe];
    const auto& okA = ref.nodeOk[query.edgeSource(qe)];
    const auto& okB = ref.nodeOk[query.edgeTarget(qe)];
    for (const auto& [ra, rb] : pairs) {
      if (okA[rb] && okB[ra] &&
          !std::binary_search(pairs.begin(), pairs.end(), std::pair{rb, ra})) {
        asymmetric = true;
        break;
      }
    }
  }
  ASSERT_TRUE(asymmetric);
  expectEveryBuildMatchesReference(problem);
}

TEST(FilterReference, FreeSourcePinnedTargetAnchorsOnTarget) {
  // Query 0 -> 1 -> 2 where only node 1 is located (zone 2 of five 64-node
  // host zones): edge 0->1 has a free source and a pinned target, so its
  // sweep anchors on the target — in-adjacency on a directed host, the
  // roles swapped on an undirected one — while 1->2 anchors on its source.
  // Each of the three sweep branches runs both ways.
  const expr::ConstraintSet located = expr::ConstraintSet::parse(
      "rEdge.bw >= vEdge.bw",
      "rNode.cap >= vNode.cap && (vNode.zone == 0 || rNode.zone == vNode.zone)");
  const expr::ConstraintSet locatedEndpoints = expr::ConstraintSet::parse(
      "rEdge.bw >= vEdge.bw && rSource.cap + 2 >= rTarget.cap",
      "rNode.cap >= vNode.cap && (vNode.zone == 0 || rNode.zone == vNode.zone)");
  struct Case {
    bool directed;
    const expr::ConstraintSet* constraints;
  };
  for (const Case c : {Case{true, &located}, Case{false, &located},
                       Case{false, &locatedEndpoints}}) {
    SCOPED_TRACE(testing::Message() << "directed=" << c.directed
                                    << " endpoints=" << (c.constraints != &located));
    util::Rng rng(34);
    Graph host = randomConnected(320, 960, c.directed, rng);
    attributeHost(host, rng);
    for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
      host.nodeAttrs(n).set("zone", static_cast<std::int64_t>(1 + n / 64));
    }
    Graph query(c.directed);
    for (int i = 0; i < 3; ++i) query.addNode();
    query.addEdge(0, 1);
    query.addEdge(1, 2);
    attributeQuery(query);
    for (graph::NodeId n = 0; n < 3; ++n) {
      query.nodeAttrs(n).set("zone", std::int64_t{n == 1 ? 2 : 0});
    }
    const Problem problem(query, host, *c.constraints);
    const reference::Filter ref = reference::build(problem);
    // Premise: the pinned side's adjacency is a small part of the free
    // side's, so anchoring on the wrong end would show in the visit count.
    EXPECT_LT(3 * adjacencyOf(host, ref.nodeOk[1], c.directed),
              adjacencyOf(host, ref.nodeOk[0], false));
    expectEveryBuildMatchesReference(problem);
  }
}

// --- word-boundary seams and zero-viable regions ----------------------------

TEST(FilterReference, WordBoundarySeamsKeepStraddlingCandidates) {
  // A 4,160-node path queried by a 3-node path: solutions sit at every host
  // position, including the ones straddling the bit-row word boundaries
  // 63|64, 127|128 and 191|192, and 4095|4096, where stage 0's first
  // 4,096-node chunk ends.
  const Graph host = topo::line(4160);
  const Graph query = topo::line(3);
  const expr::ConstraintSet none;
  const Problem problem(query, host, none);
  SearchOptions options;
  options.maxSolutions = 0;
  options.storeLimit = 100000;
  const core::EmbedResult result = core::ecfSearch(problem, options);
  ASSERT_EQ(result.outcome, core::Outcome::Complete);
  const auto straddles = [](const core::Mapping& m, graph::NodeId a) {
    return std::find(m.begin(), m.end(), a) != m.end() &&
           std::find(m.begin(), m.end(), a + 1) != m.end();
  };
  for (const graph::NodeId boundary : {63u, 127u, 191u, 4095u}) {
    EXPECT_TRUE(std::any_of(
        result.mappings.begin(), result.mappings.end(),
        [&](const core::Mapping& m) { return straddles(m, boundary); }))
        << "no solution straddles node " << boundary;
  }
  core::SearchStats stats;
  const FilterMatrix fm = FilterMatrix::build(problem, options, stats);
  // Query node 1 (the path's middle) at host 63 must still reach 64, and at
  // 4095 must still reach 4096.
  for (const graph::NodeId r : {63u, 4095u}) {
    const auto toward = fm.candidates(1, 0, r);
    const auto back = fm.candidates(1, 1, r);
    EXPECT_TRUE(std::find(toward.begin(), toward.end(), r + 1) != toward.end() ||
                std::find(back.begin(), back.end(), r + 1) != back.end())
        << "r=" << r;
  }
  EXPECT_EQ(reference::compare(fm, problem, reference::build(problem)), "");
}

TEST(FilterReference, ZeroViableRegionsAreSkippedWithoutLoss) {
  // Zone the host: only nodes < 64 (the first word of every row) match the
  // query's zone, so the sweep never walks the other 192 nodes' adjacency.
  Graph host = topo::line(256);
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    host.nodeAttrs(n).set("zone", static_cast<std::int64_t>(n < 64 ? 0 : 1));
  }
  Graph query = topo::line(3);
  for (graph::NodeId n = 0; n < query.nodeCount(); ++n) {
    query.nodeAttrs(n).set("zone", std::int64_t{0});
  }
  const expr::ConstraintSet constraints =
      expr::ConstraintSet::parse("rEdge.bw >= 0", "rNode.zone == vNode.zone");
  for (graph::EdgeId e = 0; e < host.edgeCount(); ++e) host.edgeAttrs(e).set("bw", 1.0);
  const Problem problem(query, host, constraints);
  const reference::Filter ref = reference::build(problem);
  // The zone boundary edge 63-64 is gated out in both orientations, so the
  // 63 edges inside the zone are the only evaluations (one each).
  EXPECT_EQ(ref.evals, 63u * query.edgeCount());
  core::SearchStats stats;
  const FilterMatrix fm = FilterMatrix::build(problem, SearchOptions{}, stats);
  const auto zero = [](std::uint64_t w) { return w == 0; };
  for (graph::NodeId v = 0; v < query.nodeCount(); ++v) {
    const auto ok = fm.nodeOkBits(v);
    const auto viable = fm.viableBits(v);
    EXPECT_NE(ok[0], 0u) << "v=" << v;
    EXPECT_TRUE(std::all_of(ok.begin() + 1, ok.end(), zero)) << "v=" << v;
    EXPECT_TRUE(std::all_of(viable.begin() + 1, viable.end(), zero)) << "v=" << v;
  }
  EXPECT_EQ(reference::compare(fm, problem, ref), "");
  EXPECT_EQ(stats.constraintEvals, ref.evals);
  EXPECT_GT(core::ecfSearch(problem, SearchOptions{}).solutionCount, 0u);
}

// --- patch path --------------------------------------------------------------

TEST(FilterReference, PatchAcrossWordBoundaryMatchesReference) {
  util::Rng rng(77);
  Graph query = randomConnected(5, 4, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(192, 380, false, rng);  // three row words
  attributeHost(host, rng);
  if (!host.findEdge(63, 64)) host.addEdge(63, 64);
  host.edgeAttrs(*host.findEdge(63, 64)).set("bw", 9.0);

  service::NetworkModel model{graph::Graph(host)};
  const Graph base = model.host();
  core::SearchStats stats;
  FilterMatrix patched = FilterMatrix::build(Problem(query, base, capConstraints()),
                                             SearchOptions{}, stats);

  // The mutation touches the edge 63-64 across the first word boundary and
  // node 64, the first node of the second word.
  model.setEdgeMetric(63, 64, "bw", 1.0);
  core::ModelDelta delta = model.lastDelta();
  model.setNodeAttr(64, "cap", 1.0);
  delta.merge(model.lastDelta());

  const Graph mutated = model.host();
  const Problem problem(query, mutated, capConstraints());
  ASSERT_EQ(core::classifyDelta(problem, delta), core::DeltaImpact::Patchable);
  patched.patch(problem, SearchOptions{}, delta, stats);
  const reference::Filter ref = reference::build(problem);
  EXPECT_EQ(reference::compare(patched, problem, ref), "");
  const FilterMatrix fresh = FilterMatrix::build(problem, SearchOptions{}, stats);
  EXPECT_EQ(reference::compare(fresh, problem, ref), "");
}

// --- pod-structured host -----------------------------------------------------

TEST(FilterReference, PodAffinityHugeHostMatchesReference) {
  // 64 pods x 64 nodes = 4,096 nodes, one pod per row word: the pod
  // constraint confines every query node's stage-0 row to one word, the
  // shape where the viability-driven sweep touches one pod of the host.
  topo::HugeHostOptions o;
  o.pods = 64;
  o.podSize = 64;
  o.extraIntraFactor = 4.0;
  o.seed = 11;
  const Graph host = topo::hugeHost(o);
  const graph::AttrId podId = graph::attrId("pod");
  Graph query;
  for (std::uint64_t attempt = 0;; ++attempt) {
    util::Rng rng(util::deriveSeed(11, 100 + attempt));
    auto sub = topo::sampleConnectedSubgraph(host, 6, 9, rng);
    const std::int64_t pod0 = sub.graph.nodeAttrs(0).get(podId)->asInt();
    bool onePod = true;
    for (graph::NodeId n = 1; n < sub.graph.nodeCount(); ++n) {
      onePod = onePod && sub.graph.nodeAttrs(n).get(podId)->asInt() == pod0;
    }
    if (!onePod) continue;
    topo::widenDelayWindows(sub.graph, 2.0);
    query = std::move(sub.graph);
    break;
  }
  const expr::ConstraintSet constraints = expr::ConstraintSet::parse(
      topo::delayWindowConstraint(), "vNode.pod == rNode.pod");
  const Problem problem(query, host, constraints);
  const reference::Filter ref = reference::build(problem);
  for (const bool parallel : {false, true}) {
    SearchOptions options;
    options.parallelFilterBuild = parallel;
    core::SearchStats stats;
    const FilterMatrix fm = FilterMatrix::build(problem, options, stats);
    EXPECT_EQ(reference::compare(fm, problem, ref), "") << "parallel=" << parallel;
    EXPECT_EQ(stats.constraintEvals, ref.evals) << "parallel=" << parallel;
    // The build-speed guard that needs no clock: each query edge walks
    // about one pod's adjacency (1/64 of the host's), so the sweep stays
    // under 1/16 of a full-host sweep per query edge. One query edge swept
    // over the whole host would break the bound on its own.
    EXPECT_EQ(stats.filterSweepVisits, anchoredSweepVisits(problem, ref));
    EXPECT_LT(16 * stats.filterSweepVisits,
              query.edgeCount() * fm.hostAdjacencySlots());
  }
  SearchOptions options;
  options.maxSolutions = 400;
  options.storeLimit = 400;
  const core::EmbedResult r = core::ecfSearch(problem, options);
  EXPECT_GT(r.solutionCount, 0u);
  for (const core::Mapping& m : r.mappings) {
    for (graph::NodeId v = 0; v < m.size(); ++v) {
      EXPECT_EQ(host.nodeAttrs(m[v]).get(podId)->asInt(),
                query.nodeAttrs(v).get(podId)->asInt());
    }
  }
}

}  // namespace
