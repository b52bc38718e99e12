// Perf trajectory baseline: a fixed instance matrix (sparse PlanetLab-like,
// dense BRITE-like Waxman, clique) timed through filter build, first match
// and capped enumeration, across all three candidate-domain representations
// (CSR-only, the Auto default, forced bitset rows). Medians land in
// BENCH_netembed.json so future PRs can diff against a tracked baseline
// instead of folklore.
//
//   --reps <n>     repetitions per (instance, mode) cell (default 5)
//   --seed <u64>   root seed (default 42)
//   --out <path>   JSON output path (default BENCH_netembed.json)
//   --check        enforce the acceptance thresholds (exit 1 on violation):
//                  >= 4.15x enumeration speedup on brite_dense, >= 2x on
//                  clique, <= 10% regression on the sparse instance, Auto
//                  within 10% of the better of Off/Force everywhere
//                  (build + enumerate total — the density heuristic must
//                  never pick a representation it loses with), >= 1.3x
//                  dynamic-over-static first match on the planted clique,
//                  >= 20x on the mutation scenario's patch-vs-rebuild
//                  medians, and the saturation scenario's overload-control
//                  gates (non-zero preemptions, bounded High-class p99 queue
//                  wait, goodput above collapse)
//   --sat-check    enforce only the saturation scenario's overload-control
//                  gates (implied by --check). These are count- and
//                  bound-based rather than speedup ratios, so they hold on
//                  noisy shared CI runners where the timing gates do not.
//   --sat-requests <n>  saturation scenario request count (default 1200)
//
// A dynamic_order scenario times SearchOptions::ordering Static vs Dynamic
// on a backtrack-heavy planted clique (random per-edge delays on the host
// clique, query windows centered on a sampled embedding — almost every
// branch is a dead end, exactly where smallest-live-domain selection and
// wipeout pruning pay) and on the dense Waxman instance (where backtracking
// is rare and Dynamic's bookkeeping must not cost much).
//
// A mutation-heavy scenario times the live-model update path: a large host
// under 1-node-touch monitoring deltas, comparing {structurally shared
// snapshot copy + FilterPlan::patch} — the service plan cache's actual
// path, which patches in place when the old plan is exclusively owned —
// against the historical {deep host copy + from-scratch build} per update.
//
// A large-host scenario times the filter build at ROADMAP scale: a
// ~100k-node pod-structured hugeHost with a pod-affinity query, with peak
// process RSS and the filter's per-structure memory breakdown. The pod
// constraint pins each query node's stage-0 viability to one pod, so the
// stage-1 sweep walks one pod's adjacency per query edge instead of the
// whole host. First match and the capped enumeration run once, through the
// default path.
//
// The binary also cross-checks that all representations — and the patched
// vs rebuilt plans and both orderings — enumerate the same number of
// solutions, and that the large host's default build equals the brute-force
// reference (tests/filter_reference.hpp) cell for cell with the same
// constraint-eval count (the reference's time is reported, not gated), and
// exits non-zero otherwise: the perf baseline must never be produced by a
// wrong answer.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../tests/filter_reference.hpp"
#include "common.hpp"
#include "core/filter.hpp"
#include "core/plan.hpp"
#include "service/async.hpp"
#include "service/model.hpp"
#include "topo/hugehost.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace netembed;

struct ModeTimings {
  double filterBuildMs = 0.0;
  double firstMatchMs = 0.0;   // pure search (build excluded)
  double enumerateMs = 0.0;    // pure search (build excluded)
  std::uint64_t enumerated = 0;
  std::size_t filterEntries = 0;
  std::uint64_t constraintEvals = 0;

  /// The heuristic's figure of merit: what one build-then-enumerate cycle
  /// costs under this representation.
  [[nodiscard]] double totalMs() const { return filterBuildMs + enumerateMs; }
};

struct InstanceReport {
  std::string name;
  std::size_t queryNodes = 0;
  std::size_t queryEdges = 0;
  std::size_t hostNodes = 0;
  std::size_t hostEdges = 0;
  std::size_t filterEntries = 0;
  std::uint64_t constraintEvals = 0;  // one stage-1 build
  ModeTimings csr;     // BitsetMode::Off
  ModeTimings bitset;  // BitsetMode::Auto (the default)
  ModeTimings force;   // BitsetMode::Force

  [[nodiscard]] double enumerateSpeedup() const {
    return bitset.enumerateMs > 0.0 ? csr.enumerateMs / bitset.enumerateMs : 0.0;
  }
  /// Auto's build+enumerate total over the better of Off/Force — > 1 means
  /// the density heuristic picked a representation it loses with.
  [[nodiscard]] double autoVsBest() const {
    const double best = std::min(csr.totalMs(), force.totalMs());
    return best > 0.0 ? bitset.totalMs() / best : 0.0;
  }
  /// The same gap in absolute time: the check pairs the 10% ratio with this
  /// so sub-millisecond instances can't flunk the heuristic on timer noise.
  [[nodiscard]] double autoGapMs() const {
    return bitset.totalMs() - std::min(csr.totalMs(), force.totalMs());
  }
};

ModeTimings timeMode(const core::Problem& problem, core::BitsetMode mode,
                     std::size_t reps, std::size_t enumerateCap) {
  std::vector<double> build, first, enumerate;
  ModeTimings out;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    core::SearchOptions base;
    base.bitsetMode = mode;
    {
      core::SearchStats stats;
      const auto fm = core::FilterMatrix::build(problem, base, stats);
      build.push_back(stats.filterBuildMs);
      out.filterEntries = fm.totalEntries();
      out.constraintEvals = stats.constraintEvals;
    }
    {
      core::SearchOptions o = base;
      o.maxSolutions = 1;
      o.storeLimit = 1;
      const auto r = core::ecfSearch(problem, o);
      first.push_back(r.stats.searchMs - r.stats.filterBuildMs);
    }
    {
      core::SearchOptions o = base;
      o.maxSolutions = enumerateCap;
      o.storeLimit = 1;
      const auto r = core::ecfSearch(problem, o);
      enumerate.push_back(r.stats.searchMs - r.stats.filterBuildMs);
      out.enumerated = r.solutionCount;
    }
  }
  out.filterBuildMs = util::median(build);
  out.firstMatchMs = util::median(first);
  out.enumerateMs = util::median(enumerate);
  return out;
}

// --- variable-ordering scenario ---------------------------------------------

struct OrderingReport {
  std::string name;
  std::string autoChoice;  // what Ordering::Auto resolves to on this instance
  double staticFirstMs = 0.0;
  double dynamicFirstMs = 0.0;
  double staticEnumerateMs = 0.0;
  double dynamicEnumerateMs = 0.0;
  std::uint64_t enumeratedStatic = 0;
  std::uint64_t enumeratedDynamic = 0;

  [[nodiscard]] double firstMatchSpeedup() const {
    return dynamicFirstMs > 0.0 ? staticFirstMs / dynamicFirstMs : 0.0;
  }
  [[nodiscard]] double enumerateSpeedup() const {
    return dynamicEnumerateMs > 0.0 ? staticEnumerateMs / dynamicEnumerateMs
                                    : 0.0;
  }
};

/// Backtrack-heavy clique instance with a planted embedding and a hidden
/// bottleneck. The host clique gets a random avgDelay per edge; the query
/// clique's windows are centered on the delays of one sampled node subset,
/// wide (+/- looseTol) everywhere except the edges of the last query node,
/// which are moderately tight (+/- tightTol). Per-edge, the tight windows
/// still admit ~2*tightTol candidates per host node, so every stage-1 cell is
/// non-empty and Lemma 1 sees identical viable counts — the static order
/// cannot tell the bottleneck apart and (by the stable tie-break) schedules
/// it last, paying the full loose-clique dead-end tree before each failure
/// surfaces. The *joint* constraint is sharp: after two or three assigned
/// neighbors the bottleneck's live domain collapses, which smallest-domain
/// selection discovers immediately. The planted embedding guarantees
/// feasibility.
std::pair<graph::Graph, graph::Graph> plantedClique(std::size_t hostN,
                                                    std::size_t queryK,
                                                    double looseTol,
                                                    double tightTol,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Graph host = topo::clique(hostN);
  const graph::AttrId avgId = graph::attrId("avgDelay");
  for (graph::EdgeId e = 0; e < host.edgeCount(); ++e) {
    host.edgeAttrs(e).set(avgId, rng.uniform(1.0, 100.0));
  }
  std::vector<graph::NodeId> perm(hostN);
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);

  graph::Graph query = topo::clique(queryK);
  const graph::AttrId minId = graph::attrId("minDelay");
  const graph::AttrId maxId = graph::attrId("maxDelay");
  const graph::NodeId bottleneck = static_cast<graph::NodeId>(queryK - 1);
  for (graph::EdgeId e = 0; e < query.edgeCount(); ++e) {
    const graph::NodeId qa = query.edgeSource(e);
    const graph::NodeId qb = query.edgeTarget(e);
    const double tol = (qa == bottleneck || qb == bottleneck) ? tightTol : looseTol;
    const double d =
        host.edgeAttrs(*host.findEdge(perm[qa], perm[qb])).get(avgId)->asDouble();
    query.edgeAttrs(e).set(minId, d - tol);
    query.edgeAttrs(e).set(maxId, d + tol);
  }
  return {std::move(query), std::move(host)};
}

OrderingReport runOrderingScenario(const std::string& name,
                                   const core::Problem& problem,
                                   std::size_t reps, std::size_t enumerateCap) {
  OrderingReport report;
  report.name = name;
  {
    // Record what the Auto predictor would pick here: the baseline documents
    // the decision the CLI default now makes on each instance shape.
    const auto plan = core::FilterPlan::build(problem, core::SearchOptions{});
    report.autoChoice =
        core::orderingName(core::chooseOrdering(*plan, core::Ordering::Auto));
  }
  std::vector<double> sFirst, dFirst, sEnum, dEnum;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const core::Ordering ordering :
         {core::Ordering::Static, core::Ordering::Dynamic}) {
      const bool dynamic = ordering == core::Ordering::Dynamic;
      core::SearchOptions base;
      base.ordering = ordering;
      {
        core::SearchOptions o = base;
        o.maxSolutions = 1;
        o.storeLimit = 1;
        const auto r = core::ecfSearch(problem, o);
        (dynamic ? dFirst : sFirst)
            .push_back(r.stats.searchMs - r.stats.filterBuildMs);
      }
      {
        core::SearchOptions o = base;
        o.maxSolutions = enumerateCap;
        o.storeLimit = 1;
        const auto r = core::ecfSearch(problem, o);
        (dynamic ? dEnum : sEnum)
            .push_back(r.stats.searchMs - r.stats.filterBuildMs);
        (dynamic ? report.enumeratedDynamic : report.enumeratedStatic) =
            r.solutionCount;
      }
    }
  }
  report.staticFirstMs = util::median(sFirst);
  report.dynamicFirstMs = util::median(dFirst);
  report.staticEnumerateMs = util::median(sEnum);
  report.dynamicEnumerateMs = util::median(dEnum);
  return report;
}

// --- live-model mutation scenario -------------------------------------------

struct MutationReport {
  std::size_t hostNodes = 0;
  std::size_t hostEdges = 0;
  std::size_t queryNodes = 0;
  double fullMs = 0.0;   // deep host copy + from-scratch FilterPlan::build
  double patchMs = 0.0;  // shared snapshot copy + FilterPlan::patch
  std::size_t patchAttempts = 0;     // patch calls made (the scenario reps)
  std::uint64_t inPlacePatches = 0;  // of those, how many ran in place
  std::uint64_t enumeratedFull = 0;
  std::uint64_t enumeratedPatch = 0;

  [[nodiscard]] double speedup() const {
    return patchMs > 0.0 ? fullMs / patchMs : 0.0;
  }
};

/// 1-node-touch monitoring updates against the large PlanetLab host: each
/// rep flips one site's osType (read by the node constraint, so the delta is
/// constraint-relevant and genuinely patchable), then times both update
/// paths from the same base plan. Patching chains rep to rep through
/// FilterPlan::patch — exactly what the service plan cache does under a
/// monitoring feed, and because the chained plan is exclusively owned
/// between reps the patches run in place (no structural copy).
MutationReport runMutationScenario(std::uint64_t seed, std::size_t reps,
                                   std::size_t enumerateCap) {
  const graph::Graph& pristine = bench::planetlabHost(seed);
  util::Rng rng(util::deriveSeed(seed, 4));
  const graph::Graph query = bench::sampledDelayQuery(pristine, 18, 30, 0.25, rng);
  const expr::ConstraintSet constraints = expr::ConstraintSet::parse(
      topo::delayWindowConstraint(), "rNode.osType == vNode.osType");
  const core::SearchOptions planOptions;

  MutationReport report;
  report.hostNodes = pristine.nodeCount();
  report.hostEdges = pristine.edgeCount();
  report.queryNodes = query.nodeCount();

  service::NetworkModel model{graph::Graph(pristine)};
  std::shared_ptr<const core::FilterPlan> chainedPlan;
  {
    const graph::Graph baseSnap = model.host();
    chainedPlan = core::FilterPlan::build(
        core::Problem(query, baseSnap, constraints), planOptions);
  }  // the plan holds no graph references; the snapshot can go

  const graph::NodeId touched = 0;
  const std::string originalOs =
      pristine.nodeAttrs(touched).at("osType").asString();

  const std::uint64_t inPlaceBefore = core::filterPlanInPlacePatches();
  std::vector<double> fullTimes, patchTimes;
  graph::Graph patchSnap, fullSnap;
  std::shared_ptr<const core::FilterPlan> rebuiltPlan;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    model.setNodeAttr(touched, "osType",
                      rep % 2 == 0 ? std::string("mutated-os") : originalOs);
    const core::ModelDelta delta = model.lastDelta();
    {
      util::Stopwatch clock;
      graph::Graph snap = model.host();  // structurally shared snapshot
      chainedPlan = core::FilterPlan::patch(
          std::move(chainedPlan), core::Problem(query, snap, constraints),
          planOptions, delta);
      patchTimes.push_back(clock.elapsedMs());
      patchSnap = std::move(snap);
    }
    {
      util::Stopwatch clock;
      graph::Graph snap = model.host().detachedCopy();  // the historical path
      rebuiltPlan = core::FilterPlan::build(
          core::Problem(query, snap, constraints), planOptions);
      fullTimes.push_back(clock.elapsedMs());
      fullSnap = std::move(snap);
    }
  }
  report.fullMs = util::median(fullTimes);
  report.patchMs = util::median(patchTimes);
  report.patchAttempts = reps;
  report.inPlacePatches = core::filterPlanInPlacePatches() - inPlaceBefore;

  // Cross-check: both plans describe the same final model version and must
  // enumerate identical solution counts.
  const auto enumerate = [&](const std::shared_ptr<const core::FilterPlan>& plan,
                             const graph::Graph& host) {
    core::SearchOptions o = planOptions;
    o.maxSolutions = enumerateCap;
    o.storeLimit = 1;
    core::SearchContext context(o);
    context.setPlanBuilder(std::make_shared<core::SharedPlanBuilder>(plan));
    return core::ecfSearch(core::Problem(query, host, constraints), context)
        .solutionCount;
  };
  report.enumeratedPatch = enumerate(chainedPlan, patchSnap);
  report.enumeratedFull = enumerate(rebuiltPlan, fullSnap);
  return report;
}

// --- large-host scenario ------------------------------------------------------

struct LargeHostReport {
  std::size_t hostNodes = 0;
  std::size_t hostEdges = 0;
  std::size_t queryNodes = 0;
  std::size_t queryEdges = 0;
  std::string autoOrdering;
  double filterBuildMs = 0.0;  // the default build, median
  std::size_t filterEntries = 0;
  std::uint64_t constraintEvals = 0;  // one build
  core::FilterMatrix::MemoryBreakdown memory;
  double peakRssMb = 0.0;      // process ru_maxrss after the builds
  double firstMatchMs = 0.0;   // pure search (build excluded), default path
  std::uint64_t enumerated = 0;
  double referenceMs = 0.0;    // brute-force sweep, reported, not gated
  std::uint64_t referenceEvals = 0;
  std::string referenceDiff;   // empty when the build matches the reference

  [[nodiscard]] bool matchesReference() const {
    return referenceDiff.empty() && referenceEvals == constraintEvals;
  }
};

double processPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: ru_maxrss in KiB
}

/// ~100k-node pod-composite host, pod-affinity query. podSize 64 makes pod
/// boundaries coincide with bit-row word boundaries, and the
/// "vNode.pod == rNode.pod" constraint pins each query node's stage-0 row to
/// one pod — the shape the viability-driven stage-1 sweep is built for.
LargeHostReport runLargeHostScenario(std::uint64_t seed, std::size_t reps,
                                     std::size_t enumerateCap) {
  topo::HugeHostOptions ho;
  ho.pods = 1568;  // 1568 * 64 = 100,352 host nodes
  ho.podSize = 64;
  // Dense pods (~1.7M host edges): a sweep over every host edge per query
  // edge would dominate the build; the viability-driven sweep never touches
  // the pods the query cannot map into.
  ho.extraIntraFactor = 24.0;
  ho.trunkChords = 512;
  ho.seed = util::deriveSeed(seed, 6);
  const graph::Graph host = topo::hugeHost(ho);

  // Resample until the query sits in a single pod: induced subgraphs starting
  // near a gateway can leak across a trunk, and a pod-local query is the
  // honest workload for a pod-affinity constraint.
  graph::Graph query;
  const graph::AttrId podId = graph::attrId("pod");
  for (std::uint64_t attempt = 0;; ++attempt) {
    util::Rng rng(util::deriveSeed(seed, 7 + attempt));
    auto sub = topo::sampleConnectedSubgraph(host, 12, 36, rng);
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
  const core::Problem problem(query, host, constraints);

  LargeHostReport report;
  report.hostNodes = host.nodeCount();
  report.hostEdges = host.edgeCount();
  report.queryNodes = query.nodeCount();
  report.queryEdges = query.edgeCount();
  {
    const auto plan = core::FilterPlan::build(problem, core::SearchOptions{});
    report.autoOrdering =
        core::orderingName(core::chooseOrdering(*plan, core::Ordering::Auto));
  }

  std::vector<double> build;
  std::optional<core::FilterMatrix> matrix;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    core::SearchStats stats;
    matrix = core::FilterMatrix::build(problem, core::SearchOptions{}, stats);
    build.push_back(stats.filterBuildMs);
    report.constraintEvals = stats.constraintEvals;
  }
  report.filterBuildMs = util::median(build);
  report.filterEntries = matrix->totalEntries();
  report.memory = matrix->memoryBreakdown();
  report.peakRssMb = processPeakRssMb();
  {
    util::Stopwatch clock;
    const reference::Filter ref = reference::build(problem);
    report.referenceMs = clock.elapsedMs();
    report.referenceEvals = ref.evals;
    report.referenceDiff = reference::compare(*matrix, problem, ref);
  }

  std::vector<double> first;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    core::SearchOptions o;
    o.maxSolutions = 1;
    o.storeLimit = 1;
    const auto r = core::ecfSearch(problem, o);
    first.push_back(r.stats.searchMs - r.stats.filterBuildMs);
  }
  report.firstMatchMs = util::median(first);

  core::SearchOptions o;
  o.maxSolutions = enumerateCap;
  o.storeLimit = 1;
  report.enumerated = core::ecfSearch(problem, o).solutionCount;
  return report;
}

// --- sustained-saturation control-plane scenario ------------------------------

struct SaturationReport {
  std::size_t submitted = 0;
  std::size_t workers = 0;
  std::size_t done = 0;
  std::size_t rejected = 0;   // refused at admission (Reject/Shed, or a
                              // refused preemption re-queue)
  std::size_t expired = 0;    // admission deadline passed in the queue
  std::size_t preempted = 0;  // resolved with a preempted partial result
  std::size_t other = 0;      // unaccounted terminal states (must stay 0)
  double elapsedMs = 0.0;     // first submit to last resolution
  double meanServiceMs = 0.0; // warmup estimate the pacing derives from
  double admitP50Ms = 0.0;    // submit-call latency, caller side
  double admitP99Ms = 0.0;
  double highWaitP50Ms = 0.0; // scheduler queue wait, High class
  double highWaitP99Ms = 0.0;
  double lowWaitP99Ms = 0.0;
  std::uint64_t preemptionsFired = 0;
  std::uint64_t preemptRequeues = 0;
  std::size_t effectiveCapacity = 0;
  bool accounted = true;

  [[nodiscard]] double goodputPerSec() const {
    return elapsedMs > 0.0 ? static_cast<double>(done) * 1000.0 / elapsedMs
                           : 0.0;
  }
};

/// Sustained 2x overload against the full control plane: adaptive capacity,
/// the low-priority shed watermark, EDF + slack propagation, and Low-class
/// preemption with re-queue — thousands of mixed-tenant, mixed-priority
/// first-match requests paced at twice the measured service rate while a
/// monitoring thread's worth of model mutations bumps the version under the
/// plan cache. The report is the overload-control contract: every submission
/// accounted for exactly once, non-zero preemption activity, and a bounded
/// High-class queue wait while Low absorbs the shedding.
SaturationReport runSaturationScenario(std::size_t requests) {
  // A capped topology-only clique enumeration (K7 into K56, the instance
  // matrix's densest case): the embedding count dwarfs the cap, so every
  // request streams exactly maxSolutions embeddings off a shared stage-1
  // plan and the service time is stable — the warmup estimate the pacing
  // derives from stays honest. (A first-match workload collapses to
  // microseconds once the plan cache is warm, and "2x overload" would be no
  // load at all.)
  const graph::Graph host = topo::clique(56);
  service::EmbedRequest base;
  base.query = topo::clique(7);
  base.options.maxSolutions = 20000;
  base.options.storeLimit = 1;
  base.algorithm = core::Algorithm::ECF;

  service::AsyncServiceOptions options;
  options.workers = 2;
  options.queueCapacity = 16;  // the static bound adaptive capacity replaces
  options.overloadPolicy = util::OverloadPolicy::ShedLowestPriority;
  options.control.queue.adaptiveCapacity = true;
  options.control.queue.targetQueueDelay = std::chrono::milliseconds(50);
  options.control.queue.lowPriorityShedWatermark = 0.75;
  options.control.propagateSlack = true;
  options.control.preemptLowForHigh = true;
  options.control.requeuePreempted = true;
  service::AsyncNetEmbedService svc{graph::Graph(host), options};
  svc.setTenantWeight(1, 3.0);
  svc.setTenantWeight(2, 2.0);
  svc.setTenantWeight(3, 1.0);

  SaturationReport report;
  report.submitted = requests;
  report.workers = svc.workerCount();

  // Warmup: prime the plan cache untimed, then measure the steady-state
  // serial service time the pacing (and the adaptive controller) steer on.
  {
    service::SubmitTicket prime = svc.submit(base);
    (void)prime.get();
    util::Stopwatch clock;
    constexpr std::size_t kWarmup = 8;
    for (std::size_t i = 0; i < kWarmup; ++i) {
      service::SubmitTicket ticket = svc.submit(base);
      (void)ticket.get();
    }
    report.meanServiceMs = clock.elapsedMs() / kWarmup;
  }
  // Offered load = 2x the worker pool's measured completion rate.
  const auto pacing = std::chrono::microseconds(std::clamp<std::int64_t>(
      static_cast<std::int64_t>(report.meanServiceMs * 1000.0 /
                                (2.0 * static_cast<double>(report.workers))),
      50, 5000));

  constexpr service::Priority kPriorities[] = {
      service::Priority::Low, service::Priority::Normal,
      service::Priority::High};
  std::vector<double> admitLatencies;
  admitLatencies.reserve(requests);
  std::vector<service::SubmitTicket> tickets;
  tickets.reserve(requests);

  util::Stopwatch wall;
  for (std::size_t i = 0; i < requests; ++i) {
    service::EmbedRequest request = base;
    request.qos.priority = kPriorities[i % 3];
    request.qos.tenant = 1 + i % 3;
    // Low-class work carries an admission deadline: under overload it either
    // runs soon or expires instead of rotting in the queue; slack propagation
    // converts what is left of the deadline into its compute budget.
    if (request.qos.priority == service::Priority::Low) {
      request.qos.admissionDeadline = std::chrono::milliseconds(300);
    }
    if (i % 7 == 0) {
      request.qos.computeBudget = std::chrono::milliseconds(100);
    }
    if (i % 97 == 0) {  // a monitoring feed's worth of model churn
      const graph::EdgeId e =
          static_cast<graph::EdgeId>((i * 31) % host.edgeCount());
      svc.setEdgeMetric(host.edgeSource(e), host.edgeTarget(e), "monLoad",
                        static_cast<double>(i % 100));
    }
    util::Stopwatch admitClock;
    tickets.push_back(svc.submit(std::move(request)));
    admitLatencies.push_back(admitClock.elapsedMs());
    std::this_thread::sleep_for(pacing);
  }
  svc.drain();

  for (service::SubmitTicket& ticket : tickets) {
    auto& future = ticket.future();
    if (future.wait_for(std::chrono::seconds(120)) !=
        std::future_status::ready) {
      report.accounted = false;  // a lost ticket is the overload-control bug
      ++report.other;
      continue;
    }
    switch (future.get().status) {
      case service::RequestStatus::Done: ++report.done; break;
      case service::RequestStatus::Rejected: ++report.rejected; break;
      case service::RequestStatus::Expired: ++report.expired; break;
      case service::RequestStatus::Preempted: ++report.preempted; break;
      default: ++report.other; break;
    }
  }
  report.elapsedMs = wall.elapsedMs();
  // The accounting identity: every submission resolves exactly one way.
  if (report.done + report.rejected + report.expired + report.preempted !=
          report.submitted ||
      report.other != 0) {
    report.accounted = false;
  }

  report.admitP50Ms = util::quantileNearestRank(admitLatencies, 0.5);
  report.admitP99Ms = util::quantileNearestRank(admitLatencies, 0.99);
  const util::QosScheduler::Stats stats = svc.queueStats();
  report.effectiveCapacity = stats.effectiveCapacity;
  for (const auto& cls : stats.classes) {
    if (cls.priority == static_cast<int>(service::Priority::High)) {
      report.highWaitP50Ms = cls.waitP50Ms;
      report.highWaitP99Ms = cls.waitP99Ms;
    }
    if (cls.priority == static_cast<int>(service::Priority::Low)) {
      report.lowWaitP99Ms = cls.waitP99Ms;
    }
  }
  const auto control = svc.controlStats();
  report.preemptionsFired = control.preemptionsFired;
  report.preemptRequeues = control.preemptRequeues;
  return report;
}

InstanceReport runInstance(const std::string& name, const core::Problem& problem,
                           std::size_t reps, std::size_t enumerateCap) {
  InstanceReport report;
  report.name = name;
  report.queryNodes = problem.query->nodeCount();
  report.queryEdges = problem.query->edgeCount();
  report.hostNodes = problem.host->nodeCount();
  report.hostEdges = problem.host->edgeCount();
  report.csr = timeMode(problem, core::BitsetMode::Off, reps, enumerateCap);
  report.bitset = timeMode(problem, core::BitsetMode::Auto, reps, enumerateCap);
  report.force = timeMode(problem, core::BitsetMode::Force, reps, enumerateCap);
  report.filterEntries = report.csr.filterEntries;
  report.constraintEvals = report.csr.constraintEvals;
  return report;
}

void writeJson(std::ostream& os, const std::vector<InstanceReport>& reports,
               const std::vector<OrderingReport>& orderings,
               const MutationReport& mutation, const LargeHostReport& large,
               const SaturationReport& sat, std::uint64_t seed,
               std::size_t reps) {
  const auto mode = [&](const ModeTimings& t) {
    os << "{\"filter_build_ms\": " << t.filterBuildMs
       << ", \"first_match_ms\": " << t.firstMatchMs
       << ", \"enumerate_ms\": " << t.enumerateMs
       << ", \"enumerated\": " << t.enumerated << "}";
  };
  os << "{\n  \"bench\": \"netembed_perf_report\",\n"
     << "  \"seed\": " << seed << ",\n  \"reps\": " << reps << ",\n"
     << "  \"simd_isa\": \"" << util::simd::isaName(util::simd::activeIsa())
     << "\",\n"
     << "  \"instances\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const InstanceReport& r = reports[i];
    os << "    {\"name\": \"" << r.name << "\", \"query_nodes\": " << r.queryNodes
       << ", \"query_edges\": " << r.queryEdges << ", \"host_nodes\": " << r.hostNodes
       << ", \"host_edges\": " << r.hostEdges
       << ", \"filter_entries\": " << r.filterEntries
       << ", \"constraint_evals\": " << r.constraintEvals << ",\n     \"csr\": ";
    mode(r.csr);
    os << ",\n     \"bitset\": ";
    mode(r.bitset);
    os << ",\n     \"force\": ";
    mode(r.force);
    os << ",\n     \"enumerate_speedup\": " << r.enumerateSpeedup()
       << ", \"auto_vs_best\": " << r.autoVsBest() << "}"
       << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"dynamic_order\": [\n";
  for (std::size_t i = 0; i < orderings.size(); ++i) {
    const OrderingReport& o = orderings[i];
    os << "    {\"name\": \"" << o.name << "\", \"auto_ordering\": \""
       << o.autoChoice << "\", \"static_first_match_ms\": " << o.staticFirstMs
       << ", \"dynamic_first_match_ms\": " << o.dynamicFirstMs
       << ", \"first_match_speedup\": " << o.firstMatchSpeedup()
       << ",\n     \"static_enumerate_ms\": " << o.staticEnumerateMs
       << ", \"dynamic_enumerate_ms\": " << o.dynamicEnumerateMs
       << ", \"enumerate_speedup\": " << o.enumerateSpeedup()
       << ", \"enumerated\": " << o.enumeratedStatic << "}"
       << (i + 1 < orderings.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"mutation\": {\"host_nodes\": " << mutation.hostNodes
     << ", \"host_edges\": " << mutation.hostEdges
     << ", \"query_nodes\": " << mutation.queryNodes
     << ",\n    \"full_rebuild_ms\": " << mutation.fullMs
     << ", \"patch_ms\": " << mutation.patchMs
     << ", \"patch_speedup\": " << mutation.speedup()
     << ", \"patch_attempts\": " << mutation.patchAttempts
     << ", \"in_place_patches\": " << mutation.inPlacePatches
     << ",\n    \"enumerated_full\": " << mutation.enumeratedFull
     << ", \"enumerated_patch\": " << mutation.enumeratedPatch << "},\n"
     << "  \"large_host\": {\"host_nodes\": " << large.hostNodes
     << ", \"host_edges\": " << large.hostEdges
     << ", \"query_nodes\": " << large.queryNodes
     << ", \"query_edges\": " << large.queryEdges << ", \"auto_ordering\": \""
     << large.autoOrdering
     << "\",\n    \"filter_build_ms\": " << large.filterBuildMs
     << ", \"filter_entries\": " << large.filterEntries
     << ", \"constraint_evals\": " << large.constraintEvals
     << ", \"peak_rss_mb\": " << large.peakRssMb
     << ",\n    \"memory\": {\"csr_bytes\": " << large.memory.csrBytes
     << ", \"bit_row_bytes\": " << large.memory.bitRowBytes
     << ", \"viability_bytes\": " << large.memory.viabilityBytes
     << ", \"total_bytes\": " << large.memory.total() << "}"
     << ",\n    \"first_match_ms\": " << large.firstMatchMs
     << ", \"enumerated\": " << large.enumerated
     << ",\n    \"reference_ms\": " << large.referenceMs
     << ", \"reference_evals\": " << large.referenceEvals
     << ", \"matches_reference\": "
     << (large.matchesReference() ? "true" : "false") << "},\n"
     << "  \"saturation\": {\"requests\": " << sat.submitted
     << ", \"workers\": " << sat.workers << ", \"done\": " << sat.done
     << ", \"rejected\": " << sat.rejected << ", \"expired\": " << sat.expired
     << ", \"preempted\": " << sat.preempted
     << ",\n    \"elapsed_ms\": " << sat.elapsedMs
     << ", \"mean_service_ms\": " << sat.meanServiceMs
     << ", \"goodput_per_sec\": " << sat.goodputPerSec()
     << ",\n    \"admit_p50_ms\": " << sat.admitP50Ms
     << ", \"admit_p99_ms\": " << sat.admitP99Ms
     << ", \"high_wait_p50_ms\": " << sat.highWaitP50Ms
     << ", \"high_wait_p99_ms\": " << sat.highWaitP99Ms
     << ", \"low_wait_p99_ms\": " << sat.lowWaitP99Ms
     << ",\n    \"preemptions_fired\": " << sat.preemptionsFired
     << ", \"preempt_requeues\": " << sat.preemptRequeues
     << ", \"effective_capacity\": " << sat.effectiveCapacity << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::size_t reps = static_cast<std::size_t>(args.getInt("reps", 5));
  const std::uint64_t seed = args.getSeed("seed", 42);
  const std::string outPath = args.getString("out", "BENCH_netembed.json");
  const bool check = args.getBool("check");
  const bool satCheck = check || args.getBool("sat-check");

  std::vector<InstanceReport> reports;
  std::vector<OrderingReport> orderings;

  // Sparse: the synthetic PlanetLab substrate with tight delay windows AND an
  // isBoundTo-style node constraint (OS match) — filter cells hold a handful
  // of candidates each, the CSR path's home turf and the non-regression
  // guard for the density heuristic.
  {
    const graph::Graph& host = bench::planetlabHost(seed);
    util::Rng rng(util::deriveSeed(seed, 1));
    const graph::Graph query = bench::sampledDelayQuery(host, 18, 30, 0.25, rng);
    const expr::ConstraintSet constraints = expr::ConstraintSet::parse(
        topo::delayWindowConstraint(), "rNode.osType == vNode.osType");
    // A lower enumeration cap than the dense instances: each solution here
    // sits deep in a heavily-pruned tree, so 1500 keeps a rep near 300 ms.
    reports.push_back(runInstance("planetlab_sparse",
                                  core::Problem(query, host, constraints), reps,
                                  1500));
  }

  // Dense BRITE-like: a Waxman topology thick with edges and a widened delay
  // window that lets most of them match — big cells, the word-parallel AND's
  // target workload (fig. 11-13 territory).
  {
    topo::BriteOptions bo;
    bo.nodes = 400;
    bo.model = topo::BriteOptions::Model::Waxman;
    bo.waxmanAlpha = 0.5;
    bo.waxmanBeta = 0.6;
    bo.seed = util::deriveSeed(seed, 2);
    const graph::Graph host = topo::brite(bo);
    util::Rng rng(util::deriveSeed(seed, 3));
    auto sub = topo::sampleConnectedSubgraph(host, 10, 16, rng);
    topo::widenDelayWindows(sub.graph, 2.0);
    const expr::ConstraintSet constraints =
        expr::ConstraintSet::edgeOnly(topo::delayWindowConstraint());
    const core::Problem problem(sub.graph, host, constraints);
    reports.push_back(runInstance("brite_dense", problem, reps, 20000));
    // Low-backtrack control for the ordering scenario: Dynamic's per-
    // assignment bookkeeping must stay near parity where pruning cannot pay.
    orderings.push_back(runOrderingScenario("brite_dense", problem, reps, 20000));
  }

  // Clique: topology-only K7 into K56 (§VII-D) — every cell is all-but-one
  // host node and every depth intersects as many constrainer rows as there
  // are mapped neighbours, the densest domains an instance can produce.
  // Sub-millisecond per cycle, so take extra reps for a stable median.
  {
    const graph::Graph host = topo::clique(56);
    const graph::Graph query = topo::clique(7);
    const expr::ConstraintSet none;
    reports.push_back(runInstance("clique", core::Problem(query, host, none),
                                  std::max<std::size_t>(reps, 7), 20000));
  }

  // Planted clique: the ordering scenario's backtrack-heavy headliner (see
  // plantedClique). First match under the static order means escaping deep
  // dead-end subtrees; dynamic smallest-domain + wipeout pruning cuts them
  // off near the root.
  {
    auto [query, host] =
        plantedClique(96, 8, 17.0, 6.0, util::deriveSeed(seed, 5));
    const expr::ConstraintSet constraints =
        expr::ConstraintSet::edgeOnly(topo::avgDelayWindowConstraint());
    orderings.push_back(runOrderingScenario(
        "clique_planted", core::Problem(query, host, constraints), reps, 20000));
  }

  // ~25 ms per rebuild+patch cycle: extra reps are cheap and keep the ~1 ms
  // patch median out of scheduler noise.
  const MutationReport mutation =
      runMutationScenario(seed, std::max<std::size_t>(reps, 5), 1500);

  // The 1.7M-edge host takes seconds to generate and each build allocates
  // ~30 MB of CSR offsets: no extra reps beyond what the caller asked for.
  const LargeHostReport largeHost =
      runLargeHostScenario(seed, reps, 2000);

  const auto satRequests =
      static_cast<std::size_t>(args.getInt("sat-requests", 1200));
  const SaturationReport saturation = runSaturationScenario(satRequests);

  std::cout << "\nactive SIMD ISA: " << util::simd::isaName(util::simd::activeIsa())
            << "\n";

  util::TablePrinter table(
      {"instance", "entries", "build csr", "build auto", "enum csr", "enum auto",
       "enum force", "speedup", "auto/best"});
  for (const InstanceReport& r : reports) {
    table.addRow({r.name, std::to_string(r.filterEntries),
                  util::formatFixed(r.csr.filterBuildMs, 2),
                  util::formatFixed(r.bitset.filterBuildMs, 2),
                  util::formatFixed(r.csr.enumerateMs, 2),
                  util::formatFixed(r.bitset.enumerateMs, 2),
                  util::formatFixed(r.force.enumerateMs, 2),
                  util::formatFixed(r.enumerateSpeedup(), 2) + "x",
                  util::formatFixed(r.autoVsBest(), 2)});
  }
  std::cout << "\n=== perf baseline (median of " << reps << ") ===\n";
  table.print(std::cout);

  util::TablePrinter orderTable({"instance", "auto", "first static",
                                 "first dynamic", "speedup", "enum static",
                                 "enum dynamic", "speedup"});
  for (const OrderingReport& o : orderings) {
    orderTable.addRow({o.name, o.autoChoice, util::formatFixed(o.staticFirstMs, 2),
                       util::formatFixed(o.dynamicFirstMs, 2),
                       util::formatFixed(o.firstMatchSpeedup(), 2) + "x",
                       util::formatFixed(o.staticEnumerateMs, 2),
                       util::formatFixed(o.dynamicEnumerateMs, 2),
                       util::formatFixed(o.enumerateSpeedup(), 2) + "x"});
  }
  std::cout << "\n=== variable ordering: static vs dynamic (median of " << reps
            << ") ===\n";
  orderTable.print(std::cout);

  util::TablePrinter mutationTable({"host", "edges", "full rebuild (ms)",
                                    "patch (ms)", "speedup", "in-place"});
  mutationTable.addRow(
      {std::to_string(mutation.hostNodes), std::to_string(mutation.hostEdges),
       util::formatFixed(mutation.fullMs, 2), util::formatFixed(mutation.patchMs, 2),
       util::formatFixed(mutation.speedup(), 1) + "x",
       std::to_string(mutation.inPlacePatches) + "/" +
           std::to_string(mutation.patchAttempts)});
  std::cout << "\n=== mutation scenario (1-node-touch deltas, median of " << reps
            << ") ===\n";
  mutationTable.print(std::cout);

  util::TablePrinter largeTable({"build (ms)", "entries", "evals", "filter MB",
                                 "peak RSS MB", "first match (ms)", "enumerated"});
  largeTable.addRow(
      {util::formatFixed(largeHost.filterBuildMs, 2),
       std::to_string(largeHost.filterEntries),
       std::to_string(largeHost.constraintEvals),
       util::formatFixed(
           static_cast<double>(largeHost.memory.total()) / (1024.0 * 1024.0), 1),
       util::formatFixed(largeHost.peakRssMb, 0),
       util::formatFixed(largeHost.firstMatchMs, 2),
       std::to_string(largeHost.enumerated)});
  std::cout << "\n=== large host (" << largeHost.hostNodes << " nodes, "
            << largeHost.hostEdges << " edges, auto ordering "
            << largeHost.autoOrdering << ", median of " << reps
            << ") ===\n";
  largeTable.print(std::cout);
  std::cout << "brute-force reference: "
            << util::formatFixed(largeHost.referenceMs, 2) << " ms, "
            << largeHost.referenceEvals << " evals, "
            << (largeHost.matchesReference() ? "matches" : "DIFFERS") << "\n";

  util::TablePrinter satTable({"requests", "done", "rejected", "expired",
                               "preempted", "goodput/s", "high p99 (ms)",
                               "low p99 (ms)", "preempts", "cap"});
  satTable.addRow(
      {std::to_string(saturation.submitted), std::to_string(saturation.done),
       std::to_string(saturation.rejected), std::to_string(saturation.expired),
       std::to_string(saturation.preempted),
       util::formatFixed(saturation.goodputPerSec(), 1),
       util::formatFixed(saturation.highWaitP99Ms, 2),
       util::formatFixed(saturation.lowWaitP99Ms, 2),
       std::to_string(saturation.preemptionsFired),
       std::to_string(saturation.effectiveCapacity)});
  std::cout << "\n=== sustained saturation (2x overload, full control plane) ===\n";
  satTable.print(std::cout);

  std::ofstream out(outPath);
  if (!out) {
    std::cerr << "FAIL: cannot open " << outPath << " for writing\n";
    return 1;
  }
  writeJson(out, reports, orderings, mutation, largeHost, saturation, seed, reps);
  out.flush();
  if (!out) {
    std::cerr << "FAIL: short write to " << outPath << "\n";
    return 1;
  }
  std::cout << "wrote " << outPath << "\n";

  bool ok = true;
  for (const InstanceReport& r : reports) {
    if (r.csr.enumerated != r.bitset.enumerated ||
        r.csr.enumerated != r.force.enumerated) {
      std::cerr << "FAIL: " << r.name << " enumerated " << r.csr.enumerated
                << " (csr) vs " << r.bitset.enumerated << " (auto) vs "
                << r.force.enumerated << " (force)\n";
      ok = false;
    }
  }
  for (const OrderingReport& o : orderings) {
    if (o.enumeratedStatic != o.enumeratedDynamic) {
      std::cerr << "FAIL: " << o.name << " enumerated " << o.enumeratedStatic
                << " (static) vs " << o.enumeratedDynamic << " (dynamic)\n";
      ok = false;
    }
  }
  if (mutation.enumeratedFull != mutation.enumeratedPatch) {
    std::cerr << "FAIL: mutation scenario enumerated " << mutation.enumeratedFull
              << " (rebuilt) vs " << mutation.enumeratedPatch << " (patched)\n";
    ok = false;
  }
  if (!largeHost.matchesReference()) {
    std::cerr << "FAIL: large_host default build differs from the brute-force "
                 "reference: "
              << (largeHost.referenceDiff.empty() ? "constraint evals" :
                                                    largeHost.referenceDiff)
              << " (build " << largeHost.constraintEvals << " evals, reference "
              << largeHost.referenceEvals << ")\n";
    ok = false;
  }
  // The saturation accounting identity holds unconditionally, like the
  // solution-count cross-checks: a report produced while losing requests is
  // not a perf baseline.
  if (!saturation.accounted) {
    std::cerr << "FAIL: saturation lost requests (done " << saturation.done
              << " + rejected " << saturation.rejected << " + expired "
              << saturation.expired << " + preempted " << saturation.preempted
              << " != submitted " << saturation.submitted << ", or "
              << saturation.other << " unaccounted)\n";
    ok = false;
  }
  if (satCheck) {
    if (saturation.preemptionsFired < 1) {
      std::cerr << "FAIL: saturation fired no preemptions under 2x overload\n";
      ok = false;
    }
    if (saturation.done < saturation.submitted / 10) {
      std::cerr << "FAIL: saturation goodput collapsed (" << saturation.done
                << " done of " << saturation.submitted << ")\n";
      ok = false;
    }
    // 10x the adaptive target keeps the gate CI-robust while still proving
    // the wait is bounded: an uncontrolled queue at this offered load grows
    // its tail into seconds.
    if (saturation.highWaitP99Ms > 500.0) {
      std::cerr << "FAIL: High-class p99 queue wait " << saturation.highWaitP99Ms
                << " ms exceeds the 500 ms overload-control bound\n";
      ok = false;
    }
    if (saturation.effectiveCapacity == 0) {
      std::cerr << "FAIL: adaptive capacity never engaged\n";
      ok = false;
    }
  }
  if (check) {
    if (mutation.speedup() < 20.0) {
      std::cerr << "FAIL: mutation patch speedup " << mutation.speedup()
                << " < 20x\n";
      ok = false;
    }
    for (const InstanceReport& r : reports) {
      const double speedup = r.enumerateSpeedup();
      if (r.name == "planetlab_sparse" && speedup < 0.9) {
        std::cerr << "FAIL: sparse regression > 10% (speedup " << speedup << ")\n";
        ok = false;
      }
      if (r.name == "brite_dense" && speedup < 4.15) {
        std::cerr << "FAIL: brite_dense speedup " << speedup << " < 4.15x\n";
        ok = false;
      }
      if (r.name == "clique" && speedup < 2.0) {
        std::cerr << "FAIL: clique speedup " << speedup << " < 2x\n";
        ok = false;
      }
      // The ratio needs an absolute floor: on sub-millisecond instances a
      // 10% relative gap is inside single-core timer noise.
      if (r.autoVsBest() > 1.10 && r.autoGapMs() > 0.5) {
        std::cerr << "FAIL: " << r.name << " Auto is " << r.autoVsBest()
                  << "x the better of Off/Force (> 1.10 tolerance, gap "
                  << r.autoGapMs() << " ms)\n";
        ok = false;
      }
    }
    for (const OrderingReport& o : orderings) {
      if (o.name == "clique_planted" && o.firstMatchSpeedup() < 1.3) {
        std::cerr << "FAIL: planted-clique dynamic first-match speedup "
                  << o.firstMatchSpeedup() << " < 1.3x\n";
        ok = false;
      }
      // The Auto predictor must capture the planted clique's dynamic win and
      // must not eat Dynamic's bookkeeping overhead on the dense Waxman
      // instance — the two poles the spread threshold was fit between.
      if (o.name == "clique_planted" && o.autoChoice != "dynamic") {
        std::cerr << "FAIL: Auto ordering picked " << o.autoChoice
                  << " on clique_planted (expected dynamic)\n";
        ok = false;
      }
      if (o.name == "brite_dense" && o.autoChoice != "static") {
        std::cerr << "FAIL: Auto ordering picked " << o.autoChoice
                  << " on brite_dense (expected static)\n";
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
