#include "topo/hugehost.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "util/rng.hpp"

namespace netembed::topo {

using graph::Graph;
using graph::NodeId;

namespace {

struct Point {
  double x, y;
};

void setEdgeAttrs(Graph& g, graph::EdgeId e, const Point& a, const Point& b,
                  const HugeHostOptions& o, const char* tier, util::Rng& rng) {
  // Same delay model as the BRITE generators: propagation from euclidean
  // distance, min near propagation, avg with queueing slack, max with a tail.
  const double d = o.baseDelay + std::hypot(a.x - b.x, a.y - b.y) * o.delayPerKm;
  const double avg = d * rng.uniform(1.02, 1.06);
  const double mn = d * rng.uniform(0.985, 1.0);
  const double mx = avg * (1.0 + std::min(0.25, rng.exponential(20.0)));
  auto& attrs = g.edgeAttrs(e);
  attrs.set("delay", d);
  attrs.set("minDelay", mn);
  attrs.set("avgDelay", avg);
  attrs.set("maxDelay", mx);
  attrs.set("bw", static_cast<double>(rng.uniformInt(10, 1000)));
  attrs.set("tier", tier);
}

}  // namespace

Graph hugeHost(const HugeHostOptions& o) {
  if (o.pods < 2) throw std::invalid_argument("hugeHost: need at least 2 pods");
  if (o.podSize < 2) throw std::invalid_argument("hugeHost: pods need at least 2 nodes");
  util::Rng rng(o.seed);
  Graph g(false);
  const graph::AttrId podId = graph::attrId("pod");
  const graph::AttrId xId = graph::attrId("x");
  const graph::AttrId yId = graph::attrId("y");

  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(o.pods))));
  const double jitter = o.podPitchKm * 0.35;

  // Streamed per-pod construction: only the current pod's positions and its
  // intra-edge dedup set live outside the growing graph, so a 10^6-node host
  // builds in O(podSize) auxiliary memory.
  std::vector<Point> podPoints(o.podSize);
  std::vector<Point> gatewayPoints;
  gatewayPoints.reserve(o.pods);
  std::unordered_set<std::uint64_t> seen;
  const auto packed = [](std::size_t a, std::size_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  };

  for (std::size_t p = 0; p < o.pods; ++p) {
    const double cx = static_cast<double>(p % cols) * o.podPitchKm;
    const double cy = static_cast<double>(p / cols) * o.podPitchKm;
    const NodeId base = static_cast<NodeId>(p * o.podSize);
    for (std::size_t i = 0; i < o.podSize; ++i) {
      const NodeId id = g.addNode();
      Point& pt = podPoints[i];
      pt = {cx + rng.uniform(-jitter, jitter), cy + rng.uniform(-jitter, jitter)};
      auto& attrs = g.nodeAttrs(id);
      attrs.set(podId, static_cast<std::int64_t>(p));
      attrs.set(xId, pt.x);
      attrs.set(yId, pt.y);
    }
    gatewayPoints.push_back(podPoints[0]);

    seen.clear();
    const auto connect = [&](std::size_t i, std::size_t j) {
      if (!seen.insert(packed(i, j)).second) return;
      const graph::EdgeId e = g.addEdge(base + static_cast<NodeId>(i),
                                        base + static_cast<NodeId>(j));
      setEdgeAttrs(g, e, podPoints[i], podPoints[j], o, "intra", rng);
    };
    // Random recursive spanning tree keeps every pod connected...
    for (std::size_t i = 1; i < o.podSize; ++i) {
      connect(static_cast<std::size_t>(rng.index(i)), i);
    }
    // ...plus extra random intra-pod links for data-center edge density.
    const auto extra = static_cast<std::size_t>(
        o.extraIntraFactor * static_cast<double>(o.podSize));
    for (std::size_t k = 0; k < extra; ++k) {
      const std::size_t i = rng.index(o.podSize);
      const std::size_t j = rng.index(o.podSize);
      if (i != j) connect(i, j);
    }
  }

  // Inter-pod trunks over the gateways (node 0 of each pod): a ring for
  // guaranteed global connectivity plus random chords. These are the only
  // edges that leave a pod.
  seen.clear();
  const auto gateway = [&](std::size_t p) {
    return static_cast<NodeId>(p * o.podSize);
  };
  const auto trunk = [&](std::size_t pa, std::size_t pb) {
    if (!seen.insert(packed(pa, pb)).second) return;
    const graph::EdgeId e = g.addEdge(gateway(pa), gateway(pb));
    setEdgeAttrs(g, e, gatewayPoints[pa], gatewayPoints[pb], o, "trunk", rng);
  };
  for (std::size_t p = 0; p < o.pods; ++p) trunk(p, (p + 1) % o.pods);
  for (std::size_t k = 0; k < o.trunkChords; ++k) {
    const std::size_t pa = rng.index(o.pods);
    const std::size_t pb = rng.index(o.pods);
    if (pa != pb) trunk(pa, pb);
  }

  g.attrs().set("generator", "hugeHost");
  g.attrs().set("pods", static_cast<std::int64_t>(o.pods));
  g.attrs().set("podSize", static_cast<std::int64_t>(o.podSize));
  return g;
}

}  // namespace netembed::topo
