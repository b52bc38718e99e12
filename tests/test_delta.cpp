// Delta-first model mutations: ModelDelta production, delta classification,
// FilterPlan::patch differential equivalence against from-scratch builds
// (every engine topology, every bitset mode), the conservative rebuild
// fall-backs, and FilterPlanCache re-keying across version bumps.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/ecf.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/portfolio.hpp"
#include "core/rwb.hpp"
#include "service/async.hpp"
#include "service/model.hpp"
#include "service/plan_cache.hpp"
#include "topo/regular.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using core::Algorithm;
using core::DeltaImpact;
using core::EmbedResult;
using core::FilterMatrix;
using core::FilterPlan;
using core::ModelDelta;
using core::Outcome;
using core::Problem;
using core::SearchContext;
using core::SearchOptions;
using core::SharedPlanBuilder;
using graph::Graph;
using service::FilterPlanCache;
using service::NetworkModel;

// --- ModelDelta ---------------------------------------------------------------

TEST(ModelDelta, TouchAndMergeKeepSortedUniqueSets) {
  ModelDelta a;
  a.touchNode(5, graph::attrId("cpu"));
  a.touchNode(2, graph::attrId("cpu"));
  a.touchNode(5, graph::attrId("mem"));
  a.touchEdge(7, graph::attrId("delay"));
  a.normalize();
  EXPECT_EQ(a.nodes, (std::vector<graph::NodeId>{2, 5}));
  EXPECT_EQ(a.edges, (std::vector<graph::EdgeId>{7}));
  EXPECT_TRUE(std::is_sorted(a.attrs.begin(), a.attrs.end()));
  EXPECT_EQ(a.attrs.size(), 3u);

  ModelDelta b;
  b.touchNode(3, graph::attrId("cpu"));
  b.touchEdge(7, graph::attrId("bw"));
  a.merge(b);
  EXPECT_EQ(a.nodes, (std::vector<graph::NodeId>{2, 3, 5}));
  EXPECT_EQ(a.edges, (std::vector<graph::EdgeId>{7}));
  EXPECT_FALSE(a.structural);

  ModelDelta structural;
  structural.structural = true;
  a.merge(structural);
  EXPECT_TRUE(a.structural);
  EXPECT_FALSE(a.empty());
}

TEST(ModelDelta, TouchesAnyAttrIntersectsSortedSets) {
  ModelDelta d;
  d.touchNode(0, graph::attrId("alpha"));
  d.touchNode(0, graph::attrId("gamma"));
  d.normalize();
  std::vector<graph::AttrId> referenced{graph::attrId("beta"), graph::attrId("gamma")};
  std::sort(referenced.begin(), referenced.end());
  EXPECT_TRUE(d.touchesAnyAttr(referenced));
  EXPECT_FALSE(d.touchesAnyAttr({graph::attrId("beta")}));
  EXPECT_FALSE(d.touchesAnyAttr({}));
}

TEST(ModelDelta, NetworkModelRecordsEveryMutationFootprint) {
  Graph host = topo::ring(6);
  NetworkModel model(std::move(host));

  model.setNodeAttr(3, "load", 0.5);
  EXPECT_EQ(model.lastDelta().nodes, (std::vector<graph::NodeId>{3}));
  EXPECT_TRUE(model.lastDelta().edges.empty());
  EXPECT_EQ(model.lastDelta().attrs, (std::vector<graph::AttrId>{graph::attrId("load")}));
  EXPECT_FALSE(model.lastDelta().structural);

  model.setEdgeMetric(0, 1, "delay", 4.0);
  const auto e01 = model.host().findEdge(0, 1);
  ASSERT_TRUE(e01.has_value());
  EXPECT_TRUE(model.lastDelta().nodes.empty());  // each mutation resets it
  EXPECT_EQ(model.lastDelta().edges, (std::vector<graph::EdgeId>{*e01}));

  const NetworkModel::Measurement batch[] = {
      {"n2", "", "load", graph::AttrValue(0.9)},
      {"n4", "n5", "delay", graph::AttrValue(7.0)},
      {"nope", "", "load", graph::AttrValue(1.0)},  // unknown: skipped
  };
  EXPECT_EQ(model.applyMeasurements(batch), 2u);
  EXPECT_EQ(model.lastDelta().nodes, (std::vector<graph::NodeId>{2}));
  EXPECT_EQ(model.lastDelta().edges.size(), 1u);

  // Reservation deltas carry the capacity attribute on the mapped elements.
  Graph query = topo::line(2);
  query.nodeAttrs(0).set("slots", 2.0);
  query.nodeAttrs(1).set("slots", 1.0);
  NetworkModel capModel{[] {
    Graph h = topo::ring(4);
    for (graph::NodeId n = 0; n < h.nodeCount(); ++n) h.nodeAttrs(n).set("slots", 8.0);
    return h;
  }()};
  NetworkModel::ReservationSpec spec;
  spec.nodeCapacityAttrs = {"slots"};
  const auto id = capModel.reserve(query, {1, 2}, spec);
  EXPECT_EQ(capModel.lastDelta().nodes, (std::vector<graph::NodeId>{1, 2}));
  EXPECT_EQ(capModel.lastDelta().attrs,
            (std::vector<graph::AttrId>{graph::attrId("slots")}));
  capModel.release(id);
  EXPECT_EQ(capModel.lastDelta().nodes, (std::vector<graph::NodeId>{1, 2}));

  // Wholesale replacement is structural.
  model = NetworkModel(topo::clique(5));
  EXPECT_TRUE(model.lastDelta().structural);
}

// --- instance family for the differential suites ------------------------------

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

/// Attribute both levels so node AND edge constraints have teeth: host
/// capacities "cap"/"bw" vary per element, the query demands fixed floors.
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

/// A lowest-degree host node (its incident-edge footprint is guaranteed
/// under the classifier's E/4 patch cutoff on any connected host with more
/// than a handful of edges).
graph::NodeId minDegreeNode(const Graph& g, std::size_t skip = 0) {
  std::vector<graph::NodeId> ids(g.nodeCount());
  for (graph::NodeId n = 0; n < g.nodeCount(); ++n) ids[n] = n;
  std::stable_sort(ids.begin(), ids.end(), [&](graph::NodeId a, graph::NodeId b) {
    return g.degree(a) < g.degree(b);
  });
  return ids.at(skip);
}

/// Structural equality of two plans through the public FilterMatrix surface:
/// Lemma-1 order, earlier-constrainer index, per-cell candidate lists and
/// bit rows, viability lists and bits, entry totals.
void expectPlansIdentical(const FilterPlan& a, const FilterPlan& b,
                          const Graph& query, const Graph& host) {
  ASSERT_EQ(a.order, b.order);
  ASSERT_EQ(a.earlier.size(), b.earlier.size());
  for (std::size_t v = 0; v < a.earlier.size(); ++v) {
    ASSERT_EQ(a.earlier[v].size(), b.earlier[v].size()) << "v=" << v;
    for (std::size_t i = 0; i < a.earlier[v].size(); ++i) {
      EXPECT_EQ(a.earlier[v][i].owner, b.earlier[v][i].owner);
      EXPECT_EQ(a.earlier[v][i].slot, b.earlier[v][i].slot);
    }
  }
  EXPECT_EQ(a.filters.totalEntries(), b.filters.totalEntries());
  for (graph::NodeId v = 0; v < query.nodeCount(); ++v) {
    const auto va = a.filters.viable(v);
    const auto vb = b.filters.viable(v);
    ASSERT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end())) << "v=" << v;
    for (graph::NodeId r = 0; r < host.nodeCount(); ++r) {
      ASSERT_EQ(a.filters.isViable(v, r), b.filters.isViable(v, r))
          << "v=" << v << " r=" << r;
    }
    ASSERT_EQ(a.filters.slots(v).size(), b.filters.slots(v).size());
    for (std::uint32_t s = 0; s < a.filters.slots(v).size(); ++s) {
      ASSERT_EQ(a.filters.hasCandidateBits(v, s), b.filters.hasCandidateBits(v, s));
      for (graph::NodeId r = 0; r < host.nodeCount(); ++r) {
        const auto ca = a.filters.candidates(v, s, r);
        const auto cb = b.filters.candidates(v, s, r);
        ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()))
            << "v=" << v << " s=" << s << " r=" << r;
        if (a.filters.hasCandidateBits(v, s)) {
          const auto ba = a.filters.candidateBits(v, s, r);
          const auto bb = b.filters.candidateBits(v, s, r);
          ASSERT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin(), bb.end()))
              << "bits v=" << v << " s=" << s << " r=" << r;
        }
      }
    }
  }
}

SearchOptions storeAll(core::BitsetMode mode) {
  SearchOptions o;
  o.maxSolutions = 0;
  o.storeLimit = 100000;
  o.bitsetMode = mode;
  return o;
}

std::vector<core::Mapping> sortedMappings(EmbedResult result) {
  std::sort(result.mappings.begin(), result.mappings.end());
  return result.mappings;
}

EmbedResult runWithPlan(Algorithm algorithm, const Problem& problem,
                        const SearchOptions& options,
                        std::shared_ptr<const FilterPlan> plan) {
  const core::Engine& engine = core::engineFor(algorithm);
  SearchContext context(engine.effectiveOptions(options));
  context.setPlanBuilder(std::make_shared<SharedPlanBuilder>(std::move(plan)));
  return engine.run(problem, context);
}

// --- PlanPatch: differential equivalence --------------------------------------

TEST(PlanPatch, StructurallyIdenticalToFreshBuildAcrossModesAndMutations) {
  for (const bool directed : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      util::Rng rng(util::deriveSeed(seed, directed ? 101 : 100));
      Graph query = randomConnected(5, 4, directed, rng);
      attributeQuery(query);
      Graph host = randomConnected(12, 24, directed, rng);
      attributeHost(host, rng);

      NetworkModel model{graph::Graph(host)};
      for (const core::BitsetMode mode :
           {core::BitsetMode::Off, core::BitsetMode::Auto, core::BitsetMode::Force}) {
        const SearchOptions options = storeAll(mode);
        const Graph base = model.host();
        const auto basePlan =
            FilterPlan::build(Problem(query, base, capConstraints()), options);

        // Three mutation shapes: node-constraint flip, edge-constraint flip,
        // and a mixed batch — each patched forward from the same base.
        struct Case {
          const char* name;
          ModelDelta delta;
          Graph mutated;
        };
        std::vector<Case> cases;
        {
          NetworkModel m{graph::Graph(base)};
          m.setNodeAttr(4, "cap", 1.0);  // below the query demand: shrinks sets
          cases.push_back({"node", m.lastDelta(), m.host()});
        }
        {
          NetworkModel m{graph::Graph(base)};
          m.setEdgeMetric(base.edgeSource(0), base.edgeTarget(0), "bw", 10.0);
          cases.push_back({"edge", m.lastDelta(), m.host()});
        }
        {
          NetworkModel m{graph::Graph(base)};
          m.setNodeAttr(2, "cap", 10.0);
          ModelDelta merged = m.lastDelta();
          m.setEdgeMetric(base.edgeSource(1), base.edgeTarget(1), "bw", 1.0);
          merged.merge(m.lastDelta());
          cases.push_back({"batch", std::move(merged), m.host()});
        }

        for (const Case& c : cases) {
          const Problem mutated(query, c.mutated, capConstraints());
          // These attrs are constraint-referenced, so never Unaffected; the
          // patch itself is exercised directly regardless of the size cutoff.
          ASSERT_NE(core::classifyDelta(mutated, c.delta), DeltaImpact::Unaffected)
              << c.name;
          const auto patched =
              FilterPlan::patch(basePlan, mutated, options, c.delta);
          const auto fresh = FilterPlan::build(mutated, options);
          expectPlansIdentical(*patched, *fresh, query, c.mutated);

          // Serial ECF streams must be byte-identical (ordered, not sorted).
          const EmbedResult viaPatch =
              runWithPlan(Algorithm::ECF, mutated, options, patched);
          const EmbedResult viaFresh =
              runWithPlan(Algorithm::ECF, mutated, options, fresh);
          EXPECT_EQ(viaPatch.outcome, viaFresh.outcome) << c.name;
          EXPECT_EQ(viaPatch.solutionCount, viaFresh.solutionCount) << c.name;
          EXPECT_EQ(viaPatch.mappings, viaFresh.mappings)
              << c.name << " directed=" << directed << " seed=" << seed
              << " mode=" << static_cast<int>(mode);
        }
      }
    }
  }
}

TEST(PlanPatch, RwbRootSplitAndPortfolioStreamsMatchFreshBuilds) {
  util::Rng rng(77);
  Graph query = randomConnected(5, 3, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(12, 26, false, rng);
  attributeHost(host, rng);

  NetworkModel model{graph::Graph(host)};
  const Graph base = model.host();
  for (const core::BitsetMode mode :
       {core::BitsetMode::Off, core::BitsetMode::Auto, core::BitsetMode::Force}) {
    const SearchOptions options = storeAll(mode);
    const auto basePlan =
        FilterPlan::build(Problem(query, base, capConstraints()), options);

    NetworkModel m{graph::Graph(base)};
    m.setNodeAttr(3, "cap", 1.0);
    const ModelDelta delta = m.lastDelta();
    const Graph mutatedHost = m.host();
    const Problem mutated(query, mutatedHost, capConstraints());
    const auto patched = FilterPlan::patch(basePlan, mutated, options, delta);
    const auto fresh = FilterPlan::build(mutated, options);

    {
      // Seeded RWB: identical plan + seed => identical walk and first match.
      SearchOptions o = options;
      o.seed = 9;
      o.maxSolutions = 1;
      const EmbedResult a = runWithPlan(Algorithm::RWB, mutated, o, patched);
      const EmbedResult b = runWithPlan(Algorithm::RWB, mutated, o, fresh);
      EXPECT_EQ(a.solutionCount, b.solutionCount);
      EXPECT_EQ(a.mappings, b.mappings);
    }
    {
      SearchOptions o = options;
      o.rootSplitThreads = 3;
      const EmbedResult split = runWithPlan(Algorithm::ECF, mutated, o, patched);
      const EmbedResult serial = runWithPlan(Algorithm::ECF, mutated, options, fresh);
      EXPECT_EQ(split.outcome, serial.outcome);
      EXPECT_EQ(sortedMappings(split), sortedMappings(serial));
    }
    {
      SearchContext parent(options);
      parent.setPlanBuilder(std::make_shared<SharedPlanBuilder>(patched));
      const core::PortfolioResult race = core::portfolioSearch(
          mutated, parent, core::defaultContenders(options, Algorithm::ECF));
      ASSERT_TRUE(race.raceDecided);
      const EmbedResult serial = runWithPlan(Algorithm::ECF, mutated, options, fresh);
      EXPECT_EQ(sortedMappings(race.result), sortedMappings(serial))
          << static_cast<int>(mode);
    }
  }
}

TEST(PlanPatch, ChainedPatchesTrackARollingModel) {
  // Monitoring feed: patch-on-patch over several bumps stays identical to a
  // from-scratch build of the final state (the plan cache's steady state).
  util::Rng rng(5);
  Graph query = randomConnected(4, 3, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(11, 20, false, rng);
  attributeHost(host, rng);
  const SearchOptions options = storeAll(core::BitsetMode::Auto);

  NetworkModel model{graph::Graph(host)};
  Graph snap = model.host();
  auto plan = FilterPlan::build(Problem(query, snap, capConstraints()), options);
  for (int step = 0; step < 6; ++step) {
    if (step % 2 == 0) {
      model.setNodeAttr(static_cast<graph::NodeId>(rng.index(host.nodeCount())),
                        "cap", static_cast<double>(rng.uniformInt(1, 10)));
    } else {
      const auto e = static_cast<graph::EdgeId>(rng.index(host.edgeCount()));
      model.setEdgeMetric(host.edgeSource(e), host.edgeTarget(e), "bw",
                          static_cast<double>(rng.uniformInt(1, 10)));
    }
    snap = model.host();
    const Problem problem(query, snap, capConstraints());
    plan = FilterPlan::patch(plan, problem, options, model.lastDelta());
    const auto fresh = FilterPlan::build(problem, options);
    expectPlansIdentical(*plan, *fresh, query, snap);
  }
}

TEST(PlanPatch, OverflowSurfacesWhenEditsExceedTheEntryBudget) {
  // Low-degree query into a clique with uniform passing attributes: raising
  // the one failing edge's bandwidth deterministically adds entries. Build
  // at an exact budget, then the patch must push past it.
  Graph query = topo::line(3);
  attributeQuery(query);
  Graph host = topo::clique(8);
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    host.nodeAttrs(n).set("cap", 10.0);
  }
  for (graph::EdgeId e = 0; e < host.edgeCount(); ++e) {
    host.edgeAttrs(e).set("bw", 10.0);
  }
  host.edgeAttrs(0).set("bw", 1.0);
  NetworkModel model{std::move(host)};
  const Graph base = model.host();
  SearchOptions options = storeAll(core::BitsetMode::Auto);
  core::SearchStats stats;
  const FilterMatrix fm = FilterMatrix::build(
      Problem(query, base, capConstraints()), options, stats);
  options.maxFilterEntries = fm.totalEntries();
  const auto plan =
      FilterPlan::build(Problem(query, base, capConstraints()), options);

  model.setEdgeMetric(base.edgeSource(0), base.edgeTarget(0), "bw", 10.0);
  const Graph mutatedHost = model.host();
  const Problem mutated(query, mutatedHost, capConstraints());
  EXPECT_THROW(
      (void)FilterPlan::patch(plan, mutated, options, model.lastDelta()),
      core::FilterOverflow);
}

// --- DeltaImpact classification -----------------------------------------------

TEST(DeltaImpact, UnreferencedAttrsAreProvablyIrrelevant) {
  util::Rng rng(3);
  Graph query = randomConnected(4, 2, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(10, 14, false, rng);
  attributeHost(host, rng);
  const Problem problem(query, host, capConstraints());

  ModelDelta load;
  load.touchNode(2, graph::attrId("load"));  // no constraint reads "load"
  EXPECT_EQ(core::classifyDelta(problem, load), DeltaImpact::Unaffected);

  ModelDelta cap;
  cap.touchNode(2, graph::attrId("cap"));
  EXPECT_EQ(core::classifyDelta(problem, cap), DeltaImpact::Patchable);

  ModelDelta empty;
  EXPECT_EQ(core::classifyDelta(problem, empty), DeltaImpact::Unaffected);

  ModelDelta structural;
  structural.structural = true;
  EXPECT_EQ(core::classifyDelta(problem, structural), DeltaImpact::Rebuild);

  // Topology-only problems reference no attributes at all.
  const expr::ConstraintSet none;
  const Problem bare(query, host, none);
  EXPECT_EQ(core::classifyDelta(bare, cap), DeltaImpact::Unaffected);
}

TEST(DeltaImpact, OversizedDeltasFallBackToRebuild) {
  Graph query = topo::line(3);
  attributeQuery(query);
  Graph host = topo::clique(12);
  util::Rng rng(4);
  attributeHost(host, rng);
  const Problem problem(query, host, capConstraints());

  // Touching every node reaches every edge: far past the 1/4 cutoff.
  ModelDelta wide;
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    wide.touchNode(n, graph::attrId("cap"));
  }
  wide.normalize();
  EXPECT_EQ(core::classifyDelta(problem, wide), DeltaImpact::Rebuild);

  // One node of a 12-clique touches 11 of 66 edges: still under the cutoff.
  ModelDelta narrow;
  narrow.touchNode(0, graph::attrId("cap"));
  EXPECT_EQ(core::classifyDelta(problem, narrow), DeltaImpact::Patchable);
}

// --- SharedPlanBuilder patch sources ------------------------------------------

TEST(PlanPatch, BuilderResolvesPatchSourceByImpact) {
  util::Rng rng(12);
  Graph query = randomConnected(4, 2, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(10, 16, false, rng);
  attributeHost(host, rng);
  const SearchOptions options = storeAll(core::BitsetMode::Auto);
  NetworkModel model{graph::Graph(host)};
  const Graph base = model.host();
  const auto basePlan =
      FilterPlan::build(Problem(query, base, capConstraints()), options);

  {
    // Unaffected: the inherited plan is returned outright — no build, no
    // patch, builtHere false.
    model.setNodeAttr(1, "load", 0.7);
    const Graph mutatedHost = model.host();
    SharedPlanBuilder builder(
        SharedPlanBuilder::PatchSource{basePlan, model.lastDelta()});
    const auto buildsBefore = core::filterPlanBuilds();
    const auto patchesBefore = core::filterPlanPatches();
    const auto acquired =
        builder.get(Problem(query, mutatedHost, capConstraints()), options);
    EXPECT_EQ(acquired.plan, basePlan);
    EXPECT_FALSE(acquired.builtHere);
    EXPECT_EQ(core::filterPlanBuilds(), buildsBefore);
    EXPECT_EQ(core::filterPlanPatches(), patchesBefore);
  }
  {
    // Patchable: resolved by patching, counted as a patch and not a build.
    // (A low-degree node keeps the footprint under the E/4 rebuild cutoff.)
    model.setNodeAttr(minDegreeNode(base), "cap", 1.0);
    const Graph mutatedHost = model.host();
    SharedPlanBuilder builder(
        SharedPlanBuilder::PatchSource{basePlan, model.lastDelta()});
    const auto buildsBefore = core::filterPlanBuilds();
    const auto patchesBefore = core::filterPlanPatches();
    const auto acquired =
        builder.get(Problem(query, mutatedHost, capConstraints()), options);
    EXPECT_TRUE(acquired.builtHere);
    EXPECT_NE(acquired.plan, basePlan);
    EXPECT_EQ(core::filterPlanBuilds(), buildsBefore);
    EXPECT_EQ(core::filterPlanPatches(), patchesBefore + 1);
    const auto fresh =
        FilterPlan::build(Problem(query, mutatedHost, capConstraints()), options);
    expectPlansIdentical(*acquired.plan, *fresh, query, mutatedHost);
  }
  {
    // Structural: falls back to a full build.
    ModelDelta structural;
    structural.structural = true;
    SharedPlanBuilder builder(
        SharedPlanBuilder::PatchSource{basePlan, structural});
    const Graph mutatedHost = model.host();
    const auto buildsBefore = core::filterPlanBuilds();
    const auto acquired =
        builder.get(Problem(query, mutatedHost, capConstraints()), options);
    EXPECT_TRUE(acquired.builtHere);
    EXPECT_EQ(core::filterPlanBuilds(), buildsBefore + 1);
  }
}

TEST(PlanPatch, MergeDeltaOnlyBeforeResolution) {
  util::Rng rng(13);
  Graph query = randomConnected(4, 2, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(9, 12, false, rng);
  attributeHost(host, rng);
  const SearchOptions options = storeAll(core::BitsetMode::Auto);
  const auto basePlan =
      FilterPlan::build(Problem(query, host, capConstraints()), options);

  ModelDelta first;
  first.touchNode(0, graph::attrId("cap"));
  SharedPlanBuilder builder(SharedPlanBuilder::PatchSource{basePlan, first});
  ModelDelta second;
  second.touchNode(1, graph::attrId("cap"));
  EXPECT_TRUE(builder.mergeDelta(second));

  NetworkModel model{graph::Graph(host)};
  model.setNodeAttr(0, "cap", 1.0);
  model.setNodeAttr(1, "cap", 1.0);
  const Graph mutatedHost = model.host();
  const auto acquired =
      builder.get(Problem(query, mutatedHost, capConstraints()), options);
  const auto fresh =
      FilterPlan::build(Problem(query, mutatedHost, capConstraints()), options);
  expectPlansIdentical(*acquired.plan, *fresh, query, mutatedHost);

  // Resolved: no more merging (the cache must re-key instead).
  EXPECT_FALSE(builder.mergeDelta(second));
  // And a builder with no patch source never merges.
  SharedPlanBuilder plain;
  EXPECT_FALSE(plain.mergeDelta(second));
}

// --- FilterPlanCache re-keying ------------------------------------------------

TEST(FilterPlanCache, ApplyDeltaCarriesReadyEntriesAcrossTheBump) {
  util::Rng rng(21);
  Graph query = randomConnected(4, 2, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(10, 16, false, rng);
  attributeHost(host, rng);
  const SearchOptions options = storeAll(core::BitsetMode::Auto);

  FilterPlanCache cache(4);
  const auto builder = cache.acquire(1, "sig");
  const auto acquired = builder->get(Problem(query, host, capConstraints()), options);
  ASSERT_TRUE(acquired.builtHere);

  NetworkModel model{graph::Graph(host)};
  model.setNodeAttr(minDegreeNode(host), "cap", 1.0);
  cache.applyDelta(2, model.lastDelta());
  EXPECT_EQ(cache.stats().rekeys, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().size, 1u);

  // The new-version acquire hits the carried entry, whose first get patches.
  const auto carried = cache.acquire(2, "sig");
  EXPECT_NE(carried, builder);
  EXPECT_EQ(cache.stats().hits, 1u);
  const Graph mutatedHost = model.host();
  const auto buildsBefore = core::filterPlanBuilds();
  const auto patchesBefore = core::filterPlanPatches();
  const auto resolved =
      carried->get(Problem(query, mutatedHost, capConstraints()), options);
  EXPECT_EQ(core::filterPlanBuilds(), buildsBefore);
  EXPECT_EQ(core::filterPlanPatches(), patchesBefore + 1);
  const auto fresh =
      FilterPlan::build(Problem(query, mutatedHost, capConstraints()), options);
  expectPlansIdentical(*resolved.plan, *fresh, query, mutatedHost);
}

TEST(FilterPlanCache, BackToBackDeltasAccumulateIntoOnePatchSource) {
  util::Rng rng(22);
  Graph query = randomConnected(4, 2, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(10, 14, false, rng);
  attributeHost(host, rng);
  const SearchOptions options = storeAll(core::BitsetMode::Auto);

  FilterPlanCache cache(4);
  {
    const auto builder = cache.acquire(1, "sig");
    (void)builder->get(Problem(query, host, capConstraints()), options);
  }  // drop our reference: the cache owns the builder exclusively

  NetworkModel model{graph::Graph(host)};
  model.setNodeAttr(minDegreeNode(host, 0), "cap", 1.0);
  cache.applyDelta(2, model.lastDelta());
  model.setNodeAttr(minDegreeNode(host, 1), "cap", 1.0);
  cache.applyDelta(3, model.lastDelta());  // merges into the pending source
  EXPECT_EQ(cache.stats().rekeys, 2u);
  EXPECT_EQ(cache.stats().size, 1u);

  const auto carried = cache.acquire(3, "sig");
  const Graph mutatedHost = model.host();
  const auto patchesBefore = core::filterPlanPatches();
  const auto resolved =
      carried->get(Problem(query, mutatedHost, capConstraints()), options);
  EXPECT_EQ(core::filterPlanPatches(), patchesBefore + 1);  // one merged patch
  const auto fresh =
      FilterPlan::build(Problem(query, mutatedHost, capConstraints()), options);
  expectPlansIdentical(*resolved.plan, *fresh, query, mutatedHost);
}

TEST(FilterPlanCache, StructuralDeltaStillInvalidatesEverything) {
  FilterPlanCache cache(4);
  (void)cache.acquire(1, "a");
  (void)cache.acquire(1, "b");
  ModelDelta structural;
  structural.structural = true;
  cache.applyDelta(2, structural);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().rekeys, 0u);
}

TEST(FilterPlanCache, UnresolvedSharedBuildersAreDroppedNotMutated) {
  FilterPlanCache cache(4);
  // Keep the acquired builder alive: it may be inside an in-flight get()
  // against the old version, so applyDelta must drop, not mutate, it.
  const auto live = cache.acquire(1, "sig");
  ModelDelta delta;
  delta.touchNode(0, graph::attrId("cap"));
  cache.applyDelta(2, delta);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().size, 0u);
}

// --- end to end through the async service -------------------------------------

TEST(AsyncServiceDelta, MutationRekeysPlansAndPatchesInsteadOfRebuilding) {
  util::Rng rng(31);
  Graph host = randomConnected(14, 30, false, rng);
  attributeHost(host, rng);
  Graph queryGraph = randomConnected(4, 3, false, rng);
  attributeQuery(queryGraph);

  service::EmbedRequest request;
  request.query = queryGraph;
  request.edgeConstraint = "rEdge.bw >= vEdge.bw";
  request.nodeConstraint = "rNode.cap >= vNode.cap";
  request.algorithm = Algorithm::ECF;
  request.options.maxSolutions = 0;
  request.options.storeLimit = 100000;

  service::AsyncNetEmbedService svc{graph::Graph(host), {.workers = 2}};
  const auto buildsBefore = core::filterPlanBuilds();
  const auto patchesBefore = core::filterPlanPatches();

  auto first = svc.submit(service::EmbedRequest(request)).get();
  ASSERT_EQ(first.status, service::RequestStatus::Done);

  svc.setNodeAttr(minDegreeNode(host), "cap", 1.0);  // relevant: expect a patch
  auto second = svc.submit(service::EmbedRequest(request)).get();
  ASSERT_EQ(second.status, service::RequestStatus::Done);
  EXPECT_GT(second.modelVersion, first.modelVersion);

  svc.setNodeAttr(3, "load", 0.4);  // irrelevant: expect pure reuse
  auto third = svc.submit(service::EmbedRequest(request)).get();
  ASSERT_EQ(third.status, service::RequestStatus::Done);

  EXPECT_EQ(core::filterPlanBuilds() - buildsBefore, 1u);
  EXPECT_EQ(core::filterPlanPatches() - patchesBefore, 1u);
  const auto cacheStats = svc.planCacheStats();
  EXPECT_EQ(cacheStats.rekeys, 2u);
  EXPECT_EQ(cacheStats.invalidations, 0u);

  // Ground truth: a fresh service over the mutated host agrees exactly.
  Graph mutatedHost = *svc.hostSnapshot();
  service::NetEmbedService reference{service::NetworkModel(std::move(mutatedHost))};
  const auto expected = reference.submit(request);
  EXPECT_EQ(sortedMappings(third.result), sortedMappings(expected.result));
  EXPECT_EQ(third.result.solutionCount, expected.result.solutionCount);
}

// --- patch: in-place exclusivity ---------------------------------------------

TEST(PlanPatch, PatchOwnedSplicesInPlaceOnlyWhenExclusive) {
  util::Rng rng(31);
  Graph query = randomConnected(4, 3, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(14, 30, false, rng);
  attributeHost(host, rng);
  const SearchOptions options = storeAll(core::BitsetMode::Auto);
  NetworkModel model{graph::Graph(host)};
  const Graph base = model.host();
  const Problem baseProblem(query, base, capConstraints());

  model.setNodeAttr(minDegreeNode(base), "cap", 9.0);
  const ModelDelta delta = model.lastDelta();
  const Graph mutated = model.host();
  const Problem mutatedProblem(query, mutated, capConstraints());
  const auto fresh = FilterPlan::build(mutatedProblem, options);

  {
    // A second holder forces the copy path: the shared base must come
    // through untouched, and the in-place counter must not move.
    auto plan = FilterPlan::build(baseProblem, options);
    const auto held = plan;
    const auto inPlaceBefore = core::filterPlanInPlacePatches();
    const auto patchesBefore = core::filterPlanPatches();
    const auto patched =
        FilterPlan::patch(std::move(plan), mutatedProblem, options, delta);
    EXPECT_NE(patched.get(), held.get());
    EXPECT_EQ(core::filterPlanPatches(), patchesBefore + 1);
    EXPECT_EQ(core::filterPlanInPlacePatches(), inPlaceBefore);
    expectPlansIdentical(*patched, *fresh, query, mutated);
    const auto pristine = FilterPlan::build(baseProblem, options);
    expectPlansIdentical(*held, *pristine, query, base);
  }
  {
    // Sole owner: the same shared_ptr comes back, spliced in place.
    auto plan = FilterPlan::build(baseProblem, options);
    const FilterPlan* raw = plan.get();
    const auto inPlaceBefore = core::filterPlanInPlacePatches();
    const auto patched =
        FilterPlan::patch(std::move(plan), mutatedProblem, options, delta);
    EXPECT_EQ(patched.get(), raw);
    EXPECT_EQ(core::filterPlanInPlacePatches(), inPlaceBefore + 1);
    expectPlansIdentical(*patched, *fresh, query, mutated);
  }
}

TEST(FilterPlanCache, RekeyedExclusivePlansPatchInPlace) {
  // A cached ready plan nobody is searching with is exclusively owned once
  // applyDelta hands it to the patch source — resolving the re-keyed builder
  // must take the in-place path.
  util::Rng rng(37);
  Graph query = randomConnected(4, 3, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(14, 30, false, rng);
  attributeHost(host, rng);
  const SearchOptions options = storeAll(core::BitsetMode::Auto);
  NetworkModel model{graph::Graph(host)};

  FilterPlanCache cache(4);
  const std::string signature = "q-sig";
  {
    const Graph snap = model.host();
    auto builder = cache.acquire(model.version(), signature);
    (void)builder->get(Problem(query, snap, capConstraints()), options);
  }  // no outside reference to the cached plan survives this scope

  model.setNodeAttr(minDegreeNode(host), "cap", 8.0);
  cache.applyDelta(model.version(), model.lastDelta());

  const Graph mutated = model.host();
  const Problem mutatedProblem(query, mutated, capConstraints());
  const auto inPlaceBefore = core::filterPlanInPlacePatches();
  auto builder = cache.acquire(model.version(), signature);
  const auto acquired = builder->get(mutatedProblem, options);
  EXPECT_EQ(core::filterPlanInPlacePatches(), inPlaceBefore + 1);
  const auto fresh = FilterPlan::build(mutatedProblem, options);
  expectPlansIdentical(*acquired.plan, *fresh, query, mutated);
}

// --- parallel patch fan-out ---------------------------------------------------

TEST(PlanPatch, ParallelPatchMatchesAFreshBuild) {
  // A delta wide enough to cross the parallel-fan-out threshold (affected
  // host edges x query edges >= 2048) with parallelFilterBuild on: the three
  // parallel stages must produce exactly the serial (= fresh build) result.
  util::Rng rng(41);
  Graph query = randomConnected(6, 6, false, rng);
  attributeQuery(query);
  Graph host = randomConnected(48, 420, false, rng);
  attributeHost(host, rng);

  SearchOptions parallelOptions = storeAll(core::BitsetMode::Auto);
  parallelOptions.parallelFilterBuild = true;
  SearchOptions serialOptions = storeAll(core::BitsetMode::Auto);
  serialOptions.parallelFilterBuild = false;

  NetworkModel model{graph::Graph(host)};
  const Graph base = model.host();
  const auto planParallel =
      FilterPlan::build(Problem(query, base, capConstraints()), parallelOptions);
  const auto planSerial =
      FilterPlan::build(Problem(query, base, capConstraints()), serialOptions);

  // Touch a third of the host's nodes in one merged delta.
  ModelDelta delta;
  for (graph::NodeId n = 0; n < host.nodeCount(); n += 3) {
    model.setNodeAttr(n, "cap", 10.0);
    delta.merge(model.lastDelta());
  }
  const Graph mutated = model.host();
  const Problem mutatedProblem(query, mutated, capConstraints());

  const auto patchedParallel = FilterPlan::patch(planParallel, mutatedProblem,
                                                 parallelOptions, delta);
  const auto patchedSerial =
      FilterPlan::patch(planSerial, mutatedProblem, serialOptions, delta);
  const auto fresh = FilterPlan::build(mutatedProblem, serialOptions);
  expectPlansIdentical(*patchedParallel, *fresh, query, mutated);
  expectPlansIdentical(*patchedSerial, *fresh, query, mutated);

  // And the patched plan searches identically to the fresh one.
  const EmbedResult viaPatch = runWithPlan(Algorithm::ECF, mutatedProblem,
                                           serialOptions, patchedParallel);
  const EmbedResult viaFresh =
      runWithPlan(Algorithm::ECF, mutatedProblem, serialOptions, fresh);
  EXPECT_EQ(viaPatch.solutionCount, viaFresh.solutionCount);
  EXPECT_EQ(viaPatch.mappings, viaFresh.mappings);
}

}  // namespace
