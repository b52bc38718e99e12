#include "inputs.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "topo/brite.hpp"
#include "topo/hugehost.hpp"
#include "topo/sample.hpp"
#include "trace/planetlab.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using netembed::util::deriveSeed;
using netembed::util::Rng;

// Seed streams: each input family draws from its own derived stream so that
// adding one family never shifts another.
constexpr std::uint64_t kHostStream = 1;
constexpr std::uint64_t kQueryStream = 2;
constexpr std::uint64_t kDrawStream = 3;
constexpr std::uint64_t kMutationStream = 4;
constexpr std::uint64_t kInfeasibleStream = 5;
constexpr std::uint64_t kTurnStream = 6;
// hugehost_pods warm-up keys live above every key the timed stream can use.
constexpr std::uint64_t kWarmupKeyBase = std::uint64_t{1} << 40;

constexpr std::size_t kMutationEdges = 8;
// The instance (host and query pool) is fixed; the run seed drives the
// traffic. See README.md: enumeration cost is heavy-tailed across sampled
// queries, so a per-seed pool would make every metric vary with the seed.
constexpr std::uint64_t kInstanceSeed = 1;

const WorkloadSpec kSpecs[] = {
    {Workload::HugehostPods, 1, 20, 0, 0, false, 2, 3,
     "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay",
     "vNode.pod == rNode.pod"},
    {Workload::PlanetlabChurn, 3, 100, 32, 10, false, 0, 15,
     "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay",
     "rNode.osType == vNode.osType"},
    {Workload::BriteEnumerate, 1, 20'000, 8, 0, true, 0, 7,
     "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay", ""},
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  // splitmix64 finalizer over the running state.
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hashBytes(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

class AttrHasher {
 public:
  std::uint64_t operator()(const graph::AttrMap& attrs) {
    std::uint64_t sum = 0;  // commutative: independent of AttrId order
    for (const auto& [id, value] : attrs) sum += mix(nameHash(id), valueHash(value));
    return sum;
  }

 private:
  std::uint64_t nameHash(graph::AttrId id) {
    if (id >= names_.size()) names_.resize(id + 1, 0);
    if (names_[id] == 0) names_[id] = hashBytes(graph::attrName(id)) | 1;
    return names_[id];
  }
  static std::uint64_t valueHash(const graph::AttrValue& v) {
    using graph::AttrType;
    const auto tag = static_cast<std::uint64_t>(v.type());
    switch (v.type()) {
      case AttrType::Bool: return mix(tag, v.asBool() ? 1 : 0);
      case AttrType::Int: return mix(tag, static_cast<std::uint64_t>(v.asInt()));
      case AttrType::Double: {
        const double d = v.asDouble();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        return mix(tag, bits);
      }
      case AttrType::String: return mix(tag, hashBytes(v.asString()));
      case AttrType::Undefined: break;
    }
    return tag;
  }
  std::vector<std::uint64_t> names_;
};

graph::Graph hugehostQuery(const graph::Graph& host, std::uint64_t seed,
                           std::uint64_t key) {
  // Resample until the 12-node query sits inside one pod: a sample that
  // leaks across a trunk link cannot satisfy the pod-affinity constraint.
  const graph::AttrId podId = graph::attrId("pod");
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(deriveSeed(deriveSeed(deriveSeed(seed, kQueryStream), key), attempt));
    auto sub = netembed::topo::sampleConnectedSubgraph(host, 12, 36, rng);
    const std::int64_t pod0 = sub.graph.nodeAttrs(0).get(podId)->asInt();
    bool onePod = true;
    for (graph::NodeId n = 1; n < sub.graph.nodeCount() && onePod; ++n) {
      onePod = sub.graph.nodeAttrs(n).get(podId)->asInt() == pod0;
    }
    if (!onePod) continue;
    netembed::topo::widenDelayWindows(sub.graph, 2.0);
    return std::move(sub.graph);
  }
}

}  // namespace

std::optional<Workload> parseWorkload(std::string_view name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == workloadName(s.workload)) return s.workload;
  }
  return std::nullopt;
}

const char* workloadName(Workload w) noexcept {
  switch (w) {
    case Workload::HugehostPods: return "hugehost_pods";
    case Workload::PlanetlabChurn: return "planetlab_churn";
    case Workload::BriteEnumerate: return "brite_enumerate";
  }
  return "?";
}

const WorkloadSpec& specFor(Workload w) noexcept {
  return kSpecs[static_cast<std::size_t>(w)];
}

graph::Graph makeHost(Workload w) {
  const std::uint64_t hostSeed = deriveSeed(kInstanceSeed, kHostStream);
  switch (w) {
    case Workload::HugehostPods: {
      // The perf_report large_host shape: 1568 pods x 64 = 100,352 nodes,
      // ~1.72M edges.
      netembed::topo::HugeHostOptions o;
      o.pods = 1568;
      o.podSize = 64;
      o.extraIntraFactor = 24.0;
      o.trunkChords = 512;
      o.seed = hostSeed;
      return netembed::topo::hugeHost(o);
    }
    case Workload::PlanetlabChurn: {
      netembed::trace::PlanetLabOptions o;  // 296 sites, ~29k measured pairs
      o.seed = hostSeed;
      return netembed::trace::synthesize(o);
    }
    case Workload::BriteEnumerate: {
      netembed::topo::BriteOptions o;
      o.nodes = 400;
      o.model = netembed::topo::BriteOptions::Model::Waxman;
      // perf_report's brite_dense shape: ~22k edges.
      o.waxmanAlpha = 0.5;
      o.waxmanBeta = 0.6;
      o.seed = hostSeed;
      return netembed::topo::brite(o);
    }
  }
  throw std::logic_error("unknown workload");
}

graph::Graph makeQuery(Workload w, const graph::Graph& host, std::uint64_t seed,
                       std::uint64_t key, bool infeasible) {
  graph::Graph query;
  if (w == Workload::HugehostPods) {
    query = hugehostQuery(host, seed, key);
  } else {
    // Pool members belong to the instance, not to the traffic seed.
    Rng rng(deriveSeed(deriveSeed(kInstanceSeed, kQueryStream), key));
    const bool churn = w == Workload::PlanetlabChurn;
    auto sub = netembed::topo::sampleConnectedSubgraph(host, 10, 16, rng);
    netembed::topo::widenDelayWindows(sub.graph, churn ? 0.25 : 2.0);
    query = std::move(sub.graph);
  }
  if (infeasible) {
    Rng rng(deriveSeed(deriveSeed(kInstanceSeed, kInfeasibleStream), key));
    netembed::topo::makeInfeasible(query, 0.2, rng);
  }
  return query;
}

Draw drawRequest(Workload w, std::uint64_t seed, std::uint64_t index) {
  const WorkloadSpec& spec = specFor(w);
  if (spec.poolSize == 0) return {index, false};  // every request a new signature
  // Seeded round-robin: each block of poolSize consecutive requests sends
  // every signature once, in a shuffled order, so the traffic mix is exact
  // per block instead of binomial. With infeasible turns, the block's last
  // request is the infeasible variant of one signature, and over poolSize
  // blocks each signature takes that turn exactly once: every poolSize-th
  // request is infeasible.
  const std::uint64_t k = spec.poolSize;
  const std::uint64_t block = index / k;
  std::vector<std::uint64_t> order(k);
  for (std::uint64_t i = 0; i < k; ++i) order[i] = i;
  Rng(deriveSeed(deriveSeed(seed, kDrawStream), block)).shuffle(order);
  if (!spec.infeasibleTurns) return {order[index % k], false};
  std::vector<std::uint64_t> turns(k);
  for (std::uint64_t i = 0; i < k; ++i) turns[i] = i;
  Rng(deriveSeed(deriveSeed(seed, kTurnStream), block / k)).shuffle(turns);
  const std::uint64_t infeasibleKey = turns[block % k];
  order.erase(std::find(order.begin(), order.end(), infeasibleKey));
  order.push_back(infeasibleKey);
  const std::uint64_t pos = index % k;
  return {order[pos], pos == k - 1};
}

Draw warmupRequest(Workload w, std::uint64_t r) {
  const WorkloadSpec& spec = specFor(w);
  if (spec.poolSize == 0) return {kWarmupKeyBase + r, false};
  // Pooled: every signature once, infeasible variants after the feasible ones.
  return {r % spec.poolSize, r >= spec.poolSize};
}

std::vector<netembed::service::NetworkModel::Measurement> mutationBatch(
    const graph::Graph& pristine, std::uint64_t seed, std::uint64_t k) {
  Rng rng(deriveSeed(deriveSeed(seed, kMutationStream), k));
  const graph::AttrId minId = graph::attrId("minDelay");
  std::unordered_set<graph::EdgeId> picked;
  std::vector<netembed::service::NetworkModel::Measurement> batch;
  while (batch.size() < kMutationEdges) {
    const auto e = static_cast<graph::EdgeId>(rng.index(pristine.edgeCount()));
    if (!picked.insert(e).second) continue;
    const double base = pristine.edgeAttrs(e).get(minId)->asDouble();
    batch.push_back({pristine.nodeName(pristine.edgeSource(e)),
                     pristine.nodeName(pristine.edgeTarget(e)), "minDelay",
                     graph::AttrValue(base * rng.uniform(0.9, 1.1))});
  }
  return batch;
}

std::uint64_t hashGraph(const graph::Graph& g) {
  AttrHasher attrs;
  std::uint64_t h = mix(g.directed() ? 1 : 0, g.nodeCount());
  h = mix(h, g.edgeCount());
  for (graph::NodeId n = 0; n < g.nodeCount(); ++n) {
    h = mix(mix(h, hashBytes(g.nodeName(n))), attrs(g.nodeAttrs(n)));
  }
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    h = mix(mix(mix(h, g.edgeSource(e)), g.edgeTarget(e)), attrs(g.edgeAttrs(e)));
  }
  return h;
}

std::uint64_t hashInputs(Workload w, const graph::Graph& host, std::uint64_t seed,
                         std::uint64_t requests, std::uint64_t batches) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(w), hashGraph(host));
  for (std::uint64_t i = 0; i < requests; ++i) {
    const Draw d = drawRequest(w, seed, i);
    h = mix(mix(h, d.key), d.infeasible ? 1 : 0);
    h = mix(h, hashGraph(makeQuery(w, host, seed, d.key, d.infeasible)));
  }
  if (specFor(w).mutateEvery != 0) {
    for (std::uint64_t k = 0; k < batches; ++k) {
      for (const auto& m : mutationBatch(host, seed, k)) {
        h = mix(mix(mix(h, hashBytes(m.src)), hashBytes(m.dst)), hashBytes(m.attr));
        const double v = m.value.asDouble();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = mix(h, bits);
      }
    }
  }
  return h;
}

}  // namespace perfbench
