// The sharded filter build: ShardMap partitioning, ShardMap::forHost, and
// the differential contract — the shard map changes how FilterMatrix::build
// runs, never what it produces, so every partition must yield cells,
// viable lists and viability rows byte-equal to the flat one-shard build.
// The engines read nothing else. Suites are named Shard* so the TSan CI job
// can pick the whole family up with one gtest filter.

#include "core/shard.hpp"

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
#include "util/bitset.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using core::BitsetMode;
using core::EmbedResult;
using core::FilterMatrix;
using core::Outcome;
using core::Problem;
using core::SearchOptions;
using core::ShardMap;
using graph::Graph;

const expr::ConstraintSet kNone;

// --- ShardMap ----------------------------------------------------------------

TEST(ShardMapTest, ContiguousWordAlignedRangesCoverEveryNode) {
  for (const std::size_t hostNodes : {1ul, 64ul, 100ul, 320ul, 4096ul, 100352ul}) {
    for (const std::size_t shards : {1ul, 2ul, 5ul, 8ul, 64ul}) {
      const ShardMap sm(hostNodes, shards);
      ASSERT_GE(sm.shardCount(), 1u);
      ASSERT_LE(sm.shardCount(), ShardMap::kMaxShards);
      std::size_t covered = 0;
      for (std::size_t k = 0; k < sm.shardCount(); ++k) {
        EXPECT_EQ(sm.beginNode(k) % util::kBitsPerWord, 0u)
            << "shard start must be word-aligned";
        EXPECT_LT(sm.beginNode(k), sm.endNode(k)) << "every shard owns nodes";
        EXPECT_EQ(sm.beginNode(k), covered) << "ranges must be contiguous";
        for (std::size_t r = sm.beginNode(k); r < sm.endNode(k); ++r) {
          ASSERT_EQ(sm.shardOf(r), k) << "hostNodes=" << hostNodes << " r=" << r;
        }
        covered = sm.endNode(k);
      }
      EXPECT_EQ(covered, hostNodes);
      EXPECT_EQ(sm.endWord(sm.shardCount() - 1), sm.totalWords());
    }
  }
}

TEST(ShardMapTest, ClampsToWordCountAndMaxShards) {
  // 100 nodes = 2 words: at most 2 shards no matter the request.
  EXPECT_EQ(ShardMap(100, 8).shardCount(), 2u);
  EXPECT_EQ(ShardMap(100, 64).shardCount(), 2u);
  // A request of 0 resolves to 1.
  EXPECT_EQ(ShardMap(100, 0).shardCount(), 1u);
  // Plenty of words: the kMaxShards cap (a set of shards must fit a word).
  // 4096 nodes = 64 words splits exactly; 100352 nodes = 1568 words splits
  // into ceil(1568/64) = 25-word shards, resolving to 63 balanced shards.
  EXPECT_EQ(ShardMap(4096, 200).shardCount(), 64u);
  EXPECT_LE(ShardMap(100352, 200).shardCount(), ShardMap::kMaxShards);
  EXPECT_GE(ShardMap(100352, 200).shardCount(), 32u);
  // Degenerate empty host still yields one (empty) shard.
  EXPECT_EQ(ShardMap(0, 4).shardCount(), 1u);
}

TEST(ShardMapTest, OccupancyReportsExactlyTheNonZeroShards) {
  const ShardMap sm(256, 4);
  ASSERT_EQ(sm.shardCount(), 4u);
  util::Bitset row;
  row.assign(256);
  EXPECT_EQ(sm.occupancy(row.words()), 0u);
  row.set(0);     // shard 0
  row.set(200);   // shard 3
  EXPECT_EQ(sm.occupancy(row.words()), 0b1001u);
  row.set(64);    // shard 1 boundary node
  EXPECT_EQ(sm.occupancy(row.words()), 0b1011u);
}

TEST(ShardMapTest, ForHostSplitsFrom4096Nodes) {
  // Below kMaxShards x 64 nodes the build stays flat; from there it takes
  // the full kMaxShards split, balanced to whole words per shard.
  EXPECT_EQ(ShardMap::forHost(0).shardCount(), 1u);
  EXPECT_EQ(ShardMap::forHost(320).shardCount(), 1u);
  EXPECT_EQ(ShardMap::forHost(4095).shardCount(), 1u);
  EXPECT_EQ(ShardMap::forHost(4096).shardCount(), 64u);
  // 100,352 nodes = 1,568 words: 25-word shards, 63 of them.
  EXPECT_EQ(ShardMap::forHost(100352).shardCount(), 63u);
  EXPECT_EQ(ShardMap::forHost(100352), ShardMap(100352, ShardMap::kMaxShards));
}

// --- differential helpers ----------------------------------------------------

Graph randomConnected(std::size_t n, std::size_t extraEdges, util::Rng& rng) {
  Graph g(false);
  for (std::size_t i = 0; i < n; ++i) g.addNode();
  for (graph::NodeId i = 1; i < n; ++i) {
    g.addEdge(static_cast<graph::NodeId>(rng.index(i)), i);
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

const expr::ConstraintSet& capConstraints() {
  static const expr::ConstraintSet set = expr::ConstraintSet::parse(
      "rEdge.bw >= vEdge.bw", "rNode.cap >= vNode.cap");
  return set;
}

/// A 320-node (5-word) attributed host: room for a genuinely multi-shard
/// partition while small enough (nr <= 512) that Auto mode still carries bit
/// rows, so both candidate representations run under every shard count.
Problem diffProblem(Graph& query, Graph& host, std::uint64_t seed) {
  util::Rng rng(util::deriveSeed(seed, 900));
  query = randomConnected(5, 4, rng);
  attributeQuery(query);
  host = randomConnected(320, 640, rng);
  attributeHost(host, rng);
  return Problem(query, host, capConstraints());
}

/// Byte-equality of everything a search reads from the matrix: every
/// cell's CSR lists and bit rows, the viable lists, the viability rows and
/// the stage-0 node-level rows.
void expectSameMatrix(const FilterMatrix& a, const FilterMatrix& b,
                      const Graph& query) {
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  ASSERT_EQ(a.hostNodes(), b.hostNodes());
  EXPECT_EQ(a.totalEntries(), b.totalEntries());
  for (graph::NodeId v = 0; v < query.nodeCount(); ++v) {
    EXPECT_TRUE(same(a.viable(v), b.viable(v))) << "v=" << v;
    EXPECT_TRUE(same(a.viableBits(v), b.viableBits(v))) << "v=" << v;
    EXPECT_TRUE(same(a.nodeOkBits(v), b.nodeOkBits(v))) << "v=" << v;
    ASSERT_EQ(a.slots(v).size(), b.slots(v).size());
    for (std::uint32_t s = 0; s < a.slots(v).size(); ++s) {
      ASSERT_EQ(a.hasCandidateBits(v, s), b.hasCandidateBits(v, s));
      for (graph::NodeId r = 0; r < a.hostNodes(); ++r) {
        ASSERT_TRUE(same(a.candidates(v, s, r), b.candidates(v, s, r)))
            << "v=" << v << " s=" << s << " r=" << r;
        if (a.hasCandidateBits(v, s)) {
          ASSERT_TRUE(same(a.candidateBits(v, s, r), b.candidateBits(v, s, r)))
              << "v=" << v << " s=" << s << " r=" << r;
        }
      }
    }
  }
}

// --- differential: the partition is invisible in the matrix ------------------

TEST(ShardDifferential, BucketedBuildByteEqualToFlatBuild) {
  // The flat reference builds serially; the sharded builds run their
  // per-(query node, shard) and per-query-edge tasks on the pool, which
  // makes this the TSan workload for the bucketed build too. Bucket
  // skipping only drops pairs the per-pair node gate would reject before
  // evaluating, so the constraint-eval count must match as well.
  Graph query, host;
  const Problem problem = diffProblem(query, host, 1);
  for (const BitsetMode mode : {BitsetMode::Off, BitsetMode::Auto, BitsetMode::Force}) {
    SearchOptions serial;
    serial.bitsetMode = mode;
    serial.parallelFilterBuild = false;
    core::SearchStats flatStats;
    const FilterMatrix flat =
        FilterMatrix::build(problem, serial, ShardMap(host.nodeCount(), 1), flatStats);
    ASSERT_GT(flat.totalEntries(), 0u);
    ASSERT_EQ(flat.hasCandidateBits(0, 0), mode != BitsetMode::Off);
    for (const std::size_t shards : {2ul, 3ul, 5ul}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards
                                      << " mode=" << static_cast<int>(mode));
      SearchOptions parallel;
      parallel.bitsetMode = mode;
      core::SearchStats stats;
      const ShardMap map(host.nodeCount(), shards);
      ASSERT_EQ(map.shardCount(), shards);
      const FilterMatrix fm = FilterMatrix::build(problem, parallel, map, stats);
      EXPECT_EQ(fm.shardMap(), map);
      EXPECT_EQ(stats.constraintEvals, flatStats.constraintEvals);
      expectSameMatrix(fm, flat, query);
    }
  }
}

// --- shard seams -------------------------------------------------------------

TEST(ShardSeam, BoundaryStraddlingCandidatesSurviveBucketedBuild) {
  // A 256-node path query'd by a 3-node path: solutions sit at every host
  // position, including the ones straddling the word boundaries 63|64,
  // 127|128 and 191|192 — exactly the pairs that land in off-diagonal
  // (boundary) buckets under a 4-shard build.
  const Graph host = topo::line(256);
  const Graph query = topo::line(3);
  const Problem problem(query, host, kNone);
  SearchOptions flat;
  flat.maxSolutions = 0;
  flat.storeLimit = 100000;
  const EmbedResult reference = core::ecfSearch(problem, flat);
  ASSERT_EQ(reference.outcome, Outcome::Complete);
  ASSERT_GT(reference.solutionCount, 0u);
  const auto straddles = [](const core::Mapping& m, graph::NodeId a) {
    const bool hasA = std::find(m.begin(), m.end(), a) != m.end();
    const bool hasB = std::find(m.begin(), m.end(), a + 1) != m.end();
    return hasA && hasB;
  };
  for (const graph::NodeId boundary : {63u, 127u, 191u}) {
    EXPECT_TRUE(std::any_of(
        reference.mappings.begin(), reference.mappings.end(),
        [&](const core::Mapping& m) { return straddles(m, boundary); }))
        << "test premise: solutions must straddle node " << boundary;
  }
  core::SearchStats flatStats;
  const FilterMatrix flatMatrix =
      FilterMatrix::build(problem, flat, ShardMap(256, 1), flatStats);
  for (const std::size_t shards : {2ul, 4ul}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    core::SearchStats stats;
    const FilterMatrix fm = FilterMatrix::build(problem, flat, ShardMap(256, shards), stats);
    ASSERT_EQ(fm.shardMap().shardCount(), shards);
    // Query node 1 (the path's middle) at host 63 must still reach 64.
    const auto cell = fm.candidates(1, 0, 63);
    const auto other = fm.candidates(1, 1, 63);
    EXPECT_TRUE(std::find(cell.begin(), cell.end(), 64u) != cell.end() ||
                std::find(other.begin(), other.end(), 64u) != other.end());
    expectSameMatrix(fm, flatMatrix, query);
  }
}

TEST(ShardSeam, ZeroViableShardIsMaskedOutAndHarmless) {
  // Zone the host: only nodes < 64 (shard 0 of 4) match the query's zone, so
  // shards 1..3 have zero viable occupancy for every query node and every
  // bucket touching them is skipped.
  Graph host = topo::line(256);
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    host.nodeAttrs(n).set("zone", static_cast<std::int64_t>(n < 64 ? 0 : 1));
  }
  Graph query = topo::line(3);
  for (graph::NodeId n = 0; n < query.nodeCount(); ++n) {
    query.nodeAttrs(n).set("zone", std::int64_t{0});
  }
  const expr::ConstraintSet constraints =
      expr::ConstraintSet::parse("", "rNode.zone == vNode.zone");
  const Problem problem(query, host, constraints);

  const ShardMap map(256, 4);
  ASSERT_EQ(map.shardCount(), 4u);
  core::SearchStats stats;
  const FilterMatrix fm = FilterMatrix::build(problem, SearchOptions{}, map, stats);
  for (graph::NodeId v = 0; v < query.nodeCount(); ++v) {
    EXPECT_EQ(map.occupancy(fm.nodeOkBits(v)), 0b0001u) << "v=" << v;
    EXPECT_EQ(map.occupancy(fm.viableBits(v)), 0b0001u) << "v=" << v;
  }
  core::SearchStats flatStats;
  const FilterMatrix flat =
      FilterMatrix::build(problem, SearchOptions{}, ShardMap(256, 1), flatStats);
  EXPECT_EQ(stats.constraintEvals, flatStats.constraintEvals);
  expectSameMatrix(fm, flat, query);
  EXPECT_GT(core::ecfSearch(problem, SearchOptions{}).solutionCount, 0u);
}

// --- patch path --------------------------------------------------------------

TEST(ShardPatch, MutationStraddlingShardBoundaryMatchesFreshBuild) {
  util::Rng rng(77);
  Graph query = randomConnected(5, 4, rng);
  attributeQuery(query);
  Graph host = randomConnected(192, 380, rng);  // 3 words -> 3 shards
  attributeHost(host, rng);
  if (!host.findEdge(63, 64)) host.addEdge(63, 64);
  host.edgeAttrs(*host.findEdge(63, 64)).set("bw", 9.0);
  const ShardMap map(host.nodeCount(), 3);
  ASSERT_EQ(map.shardCount(), 3u);

  service::NetworkModel model{graph::Graph(host)};
  const Graph base = model.host();
  core::SearchStats stats;
  FilterMatrix patched = FilterMatrix::build(
      Problem(query, base, capConstraints()), SearchOptions{}, map, stats);

  // The mutation touches the boundary edge 63-64 (charged to both shards by
  // the sharded classifier) and node 64 — the first node of shard 1.
  model.setEdgeMetric(63, 64, "bw", 1.0);
  core::ModelDelta delta = model.lastDelta();
  model.setNodeAttr(64, "cap", 1.0);
  delta.merge(model.lastDelta());

  const Graph mutated = model.host();
  const Problem problem(query, mutated, capConstraints());
  ASSERT_EQ(core::classifyDelta(problem, delta, map), core::DeltaImpact::Patchable);
  patched.patch(problem, SearchOptions{}, delta, stats);
  EXPECT_EQ(patched.shardMap(), map);
  const FilterMatrix fresh = FilterMatrix::build(problem, SearchOptions{}, map, stats);
  expectSameMatrix(patched, fresh, query);
  const FilterMatrix flat =
      FilterMatrix::build(problem, SearchOptions{}, ShardMap(host.nodeCount(), 1), stats);
  expectSameMatrix(patched, flat, query);
}

TEST(ShardPatch, ShardScopedClassifierStillRebuildsOnSaturatedShard) {
  // The sharded rule applies the E/4 cutoff per touched shard (with the
  // kPatchShardEdgeFloor escape hatch): a delta saturating one shard must
  // classify Rebuild even when the flat whole-host rule would still patch.
  util::Rng rng(78);
  Graph query = randomConnected(4, 3, rng);
  attributeQuery(query);
  Graph host = randomConnected(192, 4000, rng);
  // Densify shard 0 ([0, 64)) well past the absolute patch floor.
  std::size_t added = 0;
  for (graph::NodeId i = 0; i < 64 && added < 400; ++i) {
    for (graph::NodeId j = i + 1; j < 64 && added < 400; ++j) {
      if (!host.findEdge(i, j)) {
        host.addEdge(i, j);
        ++added;
      }
    }
  }
  attributeHost(host, rng);
  const Problem problem(query, host, capConstraints());
  const graph::AttrId bw = graph::attrId("bw");

  core::ModelDelta big;
  for (graph::EdgeId e = 0; e < host.edgeCount(); ++e) {
    // Every edge living wholly inside shard 0.
    if (host.edgeSource(e) < 64 && host.edgeTarget(e) < 64) big.touchEdge(e, bw);
  }
  big.normalize();
  ASSERT_GT(big.edges.size(), core::kPatchShardEdgeFloor);
  ASSERT_LT(big.edges.size() * core::kPatchEdgeShareDivisor, host.edgeCount())
      << "test premise: the flat whole-host rule must accept this delta";
  EXPECT_EQ(core::classifyDelta(problem, big), core::DeltaImpact::Patchable);
  const ShardMap sm(host.nodeCount(), 3);
  EXPECT_EQ(core::classifyDelta(problem, big, sm), core::DeltaImpact::Rebuild);

  // A handful of edges in that same shard stays patchable under the floor.
  core::ModelDelta small;
  for (graph::EdgeId e = 0; e < host.edgeCount() && small.edges.size() < 8; ++e) {
    if (host.edgeSource(e) < 64 && host.edgeTarget(e) < 64) small.touchEdge(e, bw);
  }
  small.normalize();
  EXPECT_EQ(core::classifyDelta(problem, small, sm), core::DeltaImpact::Patchable);
}

// --- hugeHost ----------------------------------------------------------------

TEST(ShardHugeHost, DeterministicPerSeedAndPodAligned) {
  topo::HugeHostOptions o;
  o.pods = 4;
  o.podSize = 64;
  o.extraIntraFactor = 4.0;
  o.trunkChords = 3;
  o.seed = 7;
  const Graph a = topo::hugeHost(o);
  const Graph b = topo::hugeHost(o);
  ASSERT_EQ(a.nodeCount(), 256u);
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  ASSERT_EQ(a.edgeCount(), b.edgeCount());
  const graph::AttrId podId = graph::attrId("pod");
  const graph::AttrId delayId = graph::attrId("delay");
  for (graph::NodeId n = 0; n < a.nodeCount(); ++n) {
    EXPECT_EQ(a.nodeAttrs(n).get(podId)->asInt(),
              static_cast<std::int64_t>(n / o.podSize));
  }
  for (graph::EdgeId e = 0; e < a.edgeCount(); ++e) {
    ASSERT_EQ(a.edgeSource(e), b.edgeSource(e));
    ASSERT_EQ(a.edgeTarget(e), b.edgeTarget(e));
    ASSERT_EQ(a.edgeAttrs(e).get(delayId)->asDouble(),
              b.edgeAttrs(e).get(delayId)->asDouble());
  }
  o.seed = 8;
  const Graph c = topo::hugeHost(o);
  bool differs = c.edgeCount() != a.edgeCount();
  for (graph::EdgeId e = 0; !differs && e < std::min(a.edgeCount(), c.edgeCount());
       ++e) {
    differs = a.edgeSource(e) != c.edgeSource(e) ||
              a.edgeTarget(e) != c.edgeTarget(e) ||
              a.edgeAttrs(e).get(delayId)->asDouble() !=
                  c.edgeAttrs(e).get(delayId)->asDouble();
  }
  EXPECT_TRUE(differs) << "a different seed must change the topology";
}

TEST(ShardHugeHost, PodAffinitySearchIdenticalShardedAndFlat) {
  // 64 pods x 64 nodes = 4,096 nodes: the smallest host ShardMap::forHost
  // splits, so the default build (and the search on top of it) is sharded.
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
      if (sub.graph.nodeAttrs(n).get(podId)->asInt() != pod0) {
        onePod = false;
        break;
      }
    }
    if (!onePod) continue;
    topo::widenDelayWindows(sub.graph, 2.0);
    query = std::move(sub.graph);
    break;
  }
  const expr::ConstraintSet constraints = expr::ConstraintSet::parse(
      topo::delayWindowConstraint(), "vNode.pod == rNode.pod");
  const Problem problem(query, host, constraints);
  SearchOptions options;
  options.maxSolutions = 400;
  options.storeLimit = 400;
  core::SearchStats stats;
  const FilterMatrix sharded = FilterMatrix::build(problem, options, stats);
  ASSERT_EQ(sharded.shardMap().shardCount(), ShardMap::kMaxShards);
  const FilterMatrix flat =
      FilterMatrix::build(problem, options, ShardMap(host.nodeCount(), 1), stats);
  expectSameMatrix(sharded, flat, query);
  // The search reads only what was just compared, so its stream is the
  // flat one; it must still find the pod-local embeddings.
  const EmbedResult r = core::ecfSearch(problem, options);
  EXPECT_GT(r.solutionCount, 0u);
  for (const core::Mapping& m : r.mappings) {
    for (graph::NodeId v = 0; v < m.size(); ++v) {
      EXPECT_EQ(host.nodeAttrs(m[v]).get(podId)->asInt(),
                query.nodeAttrs(v).get(podId)->asInt());
    }
  }
}

// --- fault injection ---------------------------------------------------------

struct FaultGuard {
  explicit FaultGuard(std::uint64_t seed) {
    util::FaultInjector::instance().enable(seed);
  }
  ~FaultGuard() { util::FaultInjector::instance().disable(); }
};

TEST(ShardFault, ShardBuildFaultSurfacesFromShardedBuildsOnly) {
  Graph query, host;
  const Problem problem = diffProblem(query, host, 6);
  {
    FaultGuard guard(5);
    // One fire: the per-(query node, shard) tasks run concurrently, so an
    // unlimited site could fire in several of them before the first throw
    // cancels the rest.
    util::FaultInjector::instance().arm(util::faultsite::kShardBuild,
                                        {.maxFires = 1});
    core::SearchStats stats;
    EXPECT_THROW((void)FilterMatrix::build(problem, SearchOptions{},
                                           ShardMap(host.nodeCount(), 5), stats),
                 util::InjectedFault);
    // A one-shard build — the default for this 320-node host — never
    // reaches the per-shard probe site.
    core::SearchStats flatStats;
    EXPECT_NO_THROW((void)FilterMatrix::build(problem, SearchOptions{}, flatStats));
    EXPECT_EQ(util::FaultInjector::instance().fires(util::faultsite::kShardBuild),
              1u);
  }
  // Injection off: the sharded build runs clean again.
  core::SearchStats stats;
  EXPECT_NO_THROW((void)FilterMatrix::build(problem, SearchOptions{},
                                            ShardMap(host.nodeCount(), 5), stats));
}

}  // namespace
