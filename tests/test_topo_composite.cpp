#include "topo/composite.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "topo/hugehost.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using graph::Graph;
using topo::CompositeSpec;
using topo::Shape;

TEST(Composite, RingOfStarsCounts) {
  CompositeSpec spec;
  spec.rootShape = Shape::Ring;
  spec.groups = 4;
  spec.leafShape = Shape::Star;
  spec.groupSize = 5;  // gateway hub + 4 leaves
  const Graph g = topo::composite(spec);
  EXPECT_EQ(g.nodeCount(), 20u);
  // Each star: 4 edges; root ring over 4 gateways: 4 edges.
  EXPECT_EQ(g.edgeCount(), 4u * 4 + 4);
  EXPECT_TRUE(graph::isConnected(g));
}

TEST(Composite, EdgesAreLevelTagged) {
  CompositeSpec spec;
  spec.rootShape = Shape::Clique;
  spec.groups = 3;
  spec.leafShape = Shape::Ring;
  spec.groupSize = 3;
  const Graph g = topo::composite(spec);
  std::size_t rootEdges = 0, leafEdges = 0;
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    const std::string level = g.edgeAttrs(e).at("level").asString();
    if (level == "root") {
      ++rootEdges;
    } else if (level == "leaf") {
      ++leafEdges;
    } else {
      FAIL() << "unexpected level " << level;
    }
  }
  EXPECT_EQ(rootEdges, 3u);       // K3 over gateways
  EXPECT_EQ(leafEdges, 3u * 3u);  // three 3-rings
}

TEST(Composite, NodesCarryGroupIndex) {
  CompositeSpec spec;
  spec.groups = 2;
  spec.groupSize = 3;
  const Graph g = topo::composite(spec);
  EXPECT_EQ(g.nodeAttrs(0).at("group").asInt(), 0);
  EXPECT_EQ(g.nodeAttrs(3).at("group").asInt(), 1);
  EXPECT_EQ(g.nodeName(3), "g1_n0");
}

TEST(Composite, TwoGroupRingCollapsesToSingleEdge) {
  CompositeSpec spec;
  spec.rootShape = Shape::Ring;
  spec.groups = 2;
  spec.leafShape = Shape::Line;
  spec.groupSize = 2;
  const Graph g = topo::composite(spec);
  // ring(2) degenerates to one edge, no duplicate.
  EXPECT_EQ(g.edgeCount(), 2u + 1u);
}

TEST(Composite, SingletonGroupsAreJustTheRootShape) {
  CompositeSpec spec;
  spec.rootShape = Shape::Clique;
  spec.groups = 4;
  spec.leafShape = Shape::Star;
  spec.groupSize = 1;
  const Graph g = topo::composite(spec);
  EXPECT_EQ(g.nodeCount(), 4u);
  EXPECT_EQ(g.edgeCount(), 6u);
}

TEST(Composite, AllShapesBuild) {
  for (const Shape root : {Shape::Ring, Shape::Star, Shape::Clique, Shape::Line,
                           Shape::Tree}) {
    for (const Shape leaf : {Shape::Ring, Shape::Star, Shape::Clique, Shape::Line,
                             Shape::Tree}) {
      CompositeSpec spec;
      spec.rootShape = root;
      spec.leafShape = leaf;
      spec.groups = 3;
      spec.groupSize = 4;
      const Graph g = topo::composite(spec);
      EXPECT_EQ(g.nodeCount(), 12u);
      EXPECT_TRUE(graph::isConnected(g));
    }
  }
}

TEST(Composite, InvalidSpecsRejected) {
  CompositeSpec spec;
  spec.groups = 1;
  EXPECT_THROW((void)topo::composite(spec), std::invalid_argument);
  spec.groups = 2;
  spec.groupSize = 0;
  EXPECT_THROW((void)topo::composite(spec), std::invalid_argument);
}

TEST(Composite, RegularDelayWindows) {
  CompositeSpec spec;
  spec.groups = 3;
  spec.groupSize = 3;
  Graph g = topo::composite(spec);
  topo::assignLevelDelayWindows(g, 75.0, 350.0, 1.0, 75.0);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    const auto& attrs = g.edgeAttrs(e);
    const bool isRoot = attrs.at("level").asString() == "root";
    EXPECT_DOUBLE_EQ(attrs.at("minDelay").asDouble(), isRoot ? 75.0 : 1.0);
    EXPECT_DOUBLE_EQ(attrs.at("maxDelay").asDouble(), isRoot ? 350.0 : 75.0);
  }
}

TEST(Composite, RandomDelayWindowsStayInBand) {
  CompositeSpec spec;
  spec.groups = 4;
  spec.groupSize = 4;
  Graph g = topo::composite(spec);
  util::Rng rng(5);
  topo::assignRandomDelayWindows(g, 25.0, 175.0, 40.0, rng);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    const double lo = g.edgeAttrs(e).at("minDelay").asDouble();
    const double hi = g.edgeAttrs(e).at("maxDelay").asDouble();
    EXPECT_GE(lo, 25.0);
    EXPECT_LE(hi, 175.0);
    EXPECT_DOUBLE_EQ(hi - lo, 40.0);
  }
}

TEST(Composite, RandomWindowsRejectImpossibleWidth) {
  CompositeSpec spec;
  Graph g = topo::composite(spec);
  util::Rng rng(5);
  EXPECT_THROW(topo::assignRandomDelayWindows(g, 10.0, 20.0, 50.0, rng),
               std::invalid_argument);
}

TEST(HugeHost, DeterministicPerSeedAndPodAligned) {
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

}  // namespace
