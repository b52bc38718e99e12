#include "sim/driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "graph/subgraph.hpp"
#include "service/ticket.hpp"
#include "topo/brite.hpp"
#include "topo/sample.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace netembed::sim {

const char* clockModeName(ClockMode m) noexcept {
  return m == ClockMode::Virtual ? "virtual" : "wall";
}

graph::Graph capacitatedHost(std::size_t nodes, std::uint64_t seed,
                             double cpuCapacity, double bwCapacity) {
  topo::BriteOptions bo;
  bo.nodes = nodes;
  bo.model = topo::BriteOptions::Model::Waxman;
  bo.waxmanAlpha = 0.4;
  bo.seed = seed;
  graph::Graph host = topo::brite(bo);
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    host.nodeAttrs(n).set("cpu", cpuCapacity);
  }
  for (graph::EdgeId e = 0; e < host.edgeCount(); ++e) {
    host.edgeAttrs(e).set("bw", bwCapacity);
  }
  return host;
}

namespace {

double attrTotal(const graph::Graph& g, std::string_view attr, bool onNodes) {
  double total = 0.0;
  const std::size_t count = onNodes ? g.nodeCount() : g.edgeCount();
  for (std::uint32_t i = 0; i < count; ++i) {
    const graph::AttrMap& attrs = onNodes ? g.nodeAttrs(i) : g.edgeAttrs(i);
    if (const graph::AttrValue* v = attrs.get(attr); v && v->isNumeric()) {
      total += v->asDouble();
    }
  }
  return total;
}

/// Sample the arrival's query from the *pristine* host (sampling from the
/// live, reservation-depleted host would entangle query shapes with the
/// admission history and break per-seed reproducibility across configs).
graph::Graph sampleQuery(const graph::Graph& pristine, const TraceEvent& e,
                         double delayTolerance) {
  util::Rng rng(e.querySeed);
  graph::Subgraph sg = topo::sampleConnectedSubgraph(
      pristine, std::max<std::uint32_t>(e.queryNodes, 1), e.queryEdges, rng);
  graph::Graph query = std::move(sg.graph);
  topo::widenDelayWindows(query, delayTolerance);
  // The sampler copies host attrs, so the query's cpu/bw would equal the
  // full capacity — overwrite them with the arrival's demands.
  for (graph::NodeId n = 0; n < query.nodeCount(); ++n) {
    query.nodeAttrs(n).set("cpu", e.cpuDemand);
  }
  for (graph::EdgeId ed = 0; ed < query.edgeCount(); ++ed) {
    query.edgeAttrs(ed).set("bw", e.bwDemand);
  }
  return query;
}

/// Scope guard: the fault injector is process-wide, so a throwing run must
/// not leave it armed for the next one.
class ChaosScope {
 public:
  ChaosScope(const DriverOptions& opt) {
    if (!opt.chaosEnabled) return;
    auto& fi = util::FaultInjector::instance();
    fi.enable(opt.chaosSeed);
    util::FaultSpec spec;
    spec.maxFires = opt.chaosMaxFiresPerSite;
    if (opt.chaosPlanBuildProb > 0.0) {
      spec.probability = opt.chaosPlanBuildProb;
      fi.arm(util::faultsite::kPlanBuild, spec);
      planArmed_ = true;
    }
    if (opt.chaosEngineStepProb > 0.0) {
      spec.probability = opt.chaosEngineStepProb;
      fi.arm(util::faultsite::kEngineStep, spec);
      engineArmed_ = true;
    }
    active_ = true;
  }

  ChaosScope(const ChaosScope&) = delete;
  ChaosScope& operator=(const ChaosScope&) = delete;

  [[nodiscard]] std::uint64_t fires() const {
    if (!active_) return 0;
    auto& fi = util::FaultInjector::instance();
    std::uint64_t n = 0;
    if (planArmed_) n += fi.fires(util::faultsite::kPlanBuild);
    if (engineArmed_) n += fi.fires(util::faultsite::kEngineStep);
    return n;
  }

  ~ChaosScope() {
    if (active_) util::FaultInjector::instance().disable();
  }

 private:
  bool active_ = false;
  bool planArmed_ = false;
  bool engineArmed_ = false;
};

struct LiveReservation {
  service::NetworkModel::ReservationId id = 0;
  double cpu = 0.0;
  double bw = 0.0;
};

/// Per-run replay state shared by the two clock modes.
class Replay {
 public:
  Replay(const graph::Graph& pristine, const DriverOptions& opt,
         const Trace& trace)
      : pristine_(pristine),
        opt_(opt),
        service_(graph::Graph(pristine), opt.service),
        metrics_(Metrics::Options{
            trace.horizonUs(), opt.buckets,
            attrTotal(pristine, "cpu", /*onNodes=*/true),
            attrTotal(pristine, "bw", /*onNodes=*/false),
            opt.computeCostPerVisit}) {
    spec_.nodeCapacityAttrs = {"cpu"};
    spec_.edgeCapacityAttrs = {"bw"};
  }

  [[nodiscard]] service::AsyncNetEmbedService& service() noexcept {
    return service_;
  }
  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }

  [[nodiscard]] service::EmbedRequest makeRequest(const TraceEvent& e) const {
    service::EmbedRequest req;
    req.query = sampleQuery(pristine_, e, opt_.delayTolerance);
    req.nodeConstraint = opt_.nodeConstraint;
    req.edgeConstraint =
        opt_.edgeConstraint.empty()
            ? std::string(topo::delayWindowConstraint()) + " && rEdge.bw >= vEdge.bw"
            : opt_.edgeConstraint;
    req.algorithm = core::Algorithm::ECF;  // pinned: serial ECF is deterministic
    req.options.maxSolutions = 1;
    req.options.storeLimit = 1;
    req.options.seed = e.querySeed;
    req.options.visitBudget = opt_.visitBudget;
    req.options.rootSplitThreads = 1;
    req.qos.priority = e.priority;
    req.qos.tenant = e.tenant;
    if (opt_.retryAttempts > 1) req.qos.retry.maxAttempts = opt_.retryAttempts;
    if (opt_.clock == ClockMode::Wall) {
      // The service adjudicates deadlines/budgets on the wall clock; on the
      // virtual clock the driver adjudicates them against virtual waits.
      if (e.deadlineMs > 0) {
        req.qos.admissionDeadline = std::chrono::milliseconds(e.deadlineMs);
      }
      if (e.budgetMs > 0) {
        req.qos.computeBudget = std::chrono::milliseconds(e.budgetMs);
      }
    }
    return req;
  }

  /// Settle one terminal response: record the ticket status, compute spend,
  /// and — for a feasible Done — try to fund the embedding. Demands are read
  /// from the request's query (its actual sampled shape, not the trace's
  /// pre-clamp targets).
  void settle(std::uint64_t id, const TraceEvent& arrival,
              const service::EmbedRequest& req, service::EmbedResponse&& resp,
              bool threw) {
    metrics_.onTerminalStatus(threw ? service::RequestStatus::Failed
                                    : resp.status);
    if (threw) return;
    metrics_.onCompute(resp.result.stats.treeNodesVisited);
    if (resp.status != service::RequestStatus::Done) return;
    if (!resp.result.feasible() || resp.result.mappings.empty()) {
      // Every trace query is feasible on the pristine host by construction
      // (sampled from it, delay windows widened, demands under capacity), and
      // the constraints read the *live* capacity attrs. So a no-solution
      // while reservations hold resources is the substrate refusing, not the
      // query being unembeddable — the dynamic-VNE capacity reject.
      if (!live_.empty()) {
        metrics_.onRejectedCapacity();
      } else {
        metrics_.onRejectedNoSolution();
      }
      return;
    }
    const double cpu =
        static_cast<double>(req.query.nodeCount()) * arrival.cpuDemand;
    const double bw =
        static_cast<double>(req.query.edgeCount()) * arrival.bwDemand;
    try {
      const auto res =
          service_.reserve(req.query, resp.result.mappings.front(), spec_);
      live_.emplace(id, LiveReservation{res, cpu, bw});
      reservedCpu_ += cpu;
      reservedBw_ += bw;
      metrics_.setReserved(reservedCpu_, reservedBw_);
      metrics_.onAccepted(arrival.timeUs, arrival.priority, cpu + bw, cpu + bw);
    } catch (const std::runtime_error&) {
      metrics_.onRejectedCapacity();
    }
  }

  /// Departure: release the reservation if the arrival was accepted (a
  /// rejected or expired arrival's departure is a no-op). Returns whether a
  /// reservation was released.
  bool depart(const TraceEvent& e) { return departById(e.id, e.timeUs); }

  bool departById(std::uint64_t id, std::uint64_t tUs) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    service_.release(it->second.id);
    reservedCpu_ -= it->second.cpu;
    reservedBw_ -= it->second.bw;
    live_.erase(it);
    metrics_.setReserved(reservedCpu_, reservedBw_);
    metrics_.onDeparture(tUs);
    return true;
  }

  /// Monitoring-style mutation: nudge one host edge. Half the stream touches
  /// the constraint-relevant minDelay (a Patchable delta for the plan
  /// cache), half a constraint-irrelevant load gauge (Unaffected).
  void mutate(const TraceEvent& e) {
    util::Rng rng(e.mutationSeed);
    const auto snap = service_.hostSnapshot();
    if (snap->edgeCount() == 0) return;
    const auto ed = static_cast<graph::EdgeId>(rng.index(snap->edgeCount()));
    const graph::NodeId u = snap->edgeSource(ed);
    const graph::NodeId v = snap->edgeTarget(ed);
    if (rng.bernoulli(0.5)) {
      const graph::AttrValue* cur = snap->edgeAttrs(ed).get("minDelay");
      const double val = cur && cur->isNumeric() ? cur->asDouble() : 1.0;
      service_.setEdgeMetric(u, v, "minDelay", val * rng.uniform(0.98, 1.02));
    } else {
      service_.setEdgeMetric(u, v, "load", rng.uniform(0.0, 1.0));
    }
    ++metrics_.churn().mutationsApplied;
  }

  void finishChurn(const ChaosScope& chaos, std::uint64_t planBuilds0,
                   std::uint64_t planPatches0) {
    const auto cs = service_.controlStats();
    ChurnScore& churn = metrics_.churn();
    churn.preemptionsFired = cs.preemptionsFired;
    churn.transientRetries = cs.transientRetries;
    churn.retriesAbandoned = cs.retriesAbandoned;
    churn.cacheBypassFallbacks = cs.cacheBypassFallbacks;
    churn.faultsInjected = chaos.fires();
    churn.planBuilds = core::filterPlanBuilds() - planBuilds0;
    churn.planPatches = core::filterPlanPatches() - planPatches0;
  }

  [[nodiscard]] const service::NetworkModel::ReservationSpec& spec()
      const noexcept {
    return spec_;
  }

 private:
  const graph::Graph& pristine_;
  const DriverOptions& opt_;
  service::AsyncNetEmbedService service_;
  Metrics metrics_;
  service::NetworkModel::ReservationSpec spec_;
  std::unordered_map<std::uint64_t, LiveReservation> live_;
  double reservedCpu_ = 0.0;
  double reservedBw_ = 0.0;
};

/// Wall-clock replay: events fire on a scaled real-time clock, tickets
/// resolve concurrently (queue contention, preemption and service-side
/// deadlines behave for real), and a sweep at every event settles whatever
/// finished since the last one. Per-class waits are measured sojourn times
/// (submit to terminal), rescaled to virtual milliseconds.
void runWall(const Trace& trace, Replay& replay, const DriverOptions& opt) {
  using Clock = std::chrono::steady_clock;
  Metrics& metrics = replay.metrics();
  struct Pending {
    TraceEvent arrival;
    service::EmbedRequest req;
    service::SubmitTicket ticket;
    Clock::time_point submitted;
    /// A departure's cancel took hold of the still-unresolved request.
    bool withdrawn = false;
  };
  std::unordered_map<std::uint64_t, Pending> pending;
  std::unordered_set<std::uint64_t> departed;
  const double speedup = std::max(opt.wallSpeedup, 1e-9);
  const Clock::time_point start = Clock::now();

  const auto isTerminal = [](service::RequestStatus s) {
    return s != service::RequestStatus::Queued &&
           s != service::RequestStatus::Running &&
           s != service::RequestStatus::Retrying;
  };
  const auto sweep = [&](std::uint64_t nowUs) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (!isTerminal(it->second.ticket.status())) {
        ++it;
        continue;
      }
      Pending p = std::move(it->second);
      it = pending.erase(it);
      service::EmbedResponse resp;
      bool threw = false;
      try {
        resp = p.ticket.get();
      } catch (const std::exception&) {
        threw = true;
      }
      const double waitWallMs =
          std::chrono::duration<double, std::milli>(Clock::now() - p.submitted)
              .count();
      metrics.onWaitSample(p.arrival.priority, waitWallMs * speedup);
      // Only a withdrawal that resolved Cancelled counts: a search that
      // throws against the cancel still resolves Failed.
      if (p.withdrawn &&
          p.ticket.status() == service::RequestStatus::Cancelled) {
        metrics.onWithdrawnAtDeparture();
      }
      replay.settle(p.arrival.id, p.arrival, p.req, std::move(resp), threw);
      // The embedding's lifetime may have ended while the ticket was still
      // in flight; give back whatever settle just reserved.
      if (departed.count(p.arrival.id) != 0) {
        replay.departById(p.arrival.id, nowUs);
      }
    }
  };

  for (const TraceEvent& e : trace.events) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(static_cast<std::int64_t>(
                    static_cast<double>(e.timeUs) / speedup)));
    metrics.advanceTo(e.timeUs);
    sweep(e.timeUs);
    switch (e.kind) {
      case TraceEventKind::Arrival: {
        metrics.onArrival(e.timeUs, e.priority);
        Pending p;
        p.arrival = e;
        p.req = replay.makeRequest(e);
        p.submitted = Clock::now();
        p.ticket = replay.service().submit(p.req);
        pending.emplace(e.id, std::move(p));
        break;
      }
      case TraceEventKind::Departure:
        departed.insert(e.id);
        if (!replay.depart(e)) {
          // Lifetime over before the embedding was placed: withdraw the
          // still-unresolved request.
          if (auto it = pending.find(e.id); it != pending.end()) {
            it->second.withdrawn = it->second.ticket.cancel();
          }
        }
        break;
      case TraceEventKind::Mutation:
        replay.mutate(e);
        break;
    }
  }
  replay.service().drain();
  metrics.advanceTo(trace.horizonUs());
  while (!pending.empty()) {
    sweep(trace.horizonUs());
    if (!pending.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

}  // namespace

Driver::Driver(graph::Graph host, DriverOptions options)
    : host_(std::move(host)), opt_(std::move(options)) {}

Scorecard Driver::run(const Trace& trace, std::string scenario,
                      std::string config, std::uint64_t seed) {
  const std::uint64_t planBuilds0 = core::filterPlanBuilds();
  const std::uint64_t planPatches0 = core::filterPlanPatches();
  ChaosScope chaos(opt_);
  Replay replay(host_, opt_, trace);
  Metrics& metrics = replay.metrics();

  if (opt_.clock == ClockMode::Virtual) {
    // Serialized replay: one ticket resolves before the next event fires, so
    // every query runs against a deterministic snapshot and the scorecard is
    // a pure function of (host, trace, options). Queue waits come from the
    // virtual-queue model below; overload manifests through capacity
    // exhaustion, not thread contention.
    std::size_t virtualWorkers = opt_.virtualWorkers;
    if (virtualWorkers == 0) virtualWorkers = opt_.service.workers;
    if (virtualWorkers == 0) virtualWorkers = 2;
    std::vector<std::uint64_t> workerFreeUs(virtualWorkers, 0);

    for (const TraceEvent& e : trace.events) {
      metrics.advanceTo(e.timeUs);
      switch (e.kind) {
        case TraceEventKind::Departure:
          replay.depart(e);
          break;
        case TraceEventKind::Mutation:
          replay.mutate(e);
          break;
        case TraceEventKind::Arrival: {
          metrics.onArrival(e.timeUs, e.priority);
          const std::size_t w = static_cast<std::size_t>(
              std::min_element(workerFreeUs.begin(), workerFreeUs.end()) -
              workerFreeUs.begin());
          const std::uint64_t startUs = std::max(e.timeUs, workerFreeUs[w]);
          const std::uint64_t waitUs = startUs - e.timeUs;
          if (e.deadlineMs > 0 &&
              waitUs > std::uint64_t{e.deadlineMs} * 1000) {
            // Virtual admission-deadline miss: the request would still be
            // queued past its deadline, so it never runs (and never
            // occupies a virtual worker).
            metrics.onExpiredVirtual();
            metrics.onTerminalStatus(service::RequestStatus::Expired);
            break;
          }
          const service::EmbedRequest req = replay.makeRequest(e);
          service::SubmitTicket ticket = replay.service().submit(req);
          service::EmbedResponse resp;
          bool threw = false;
          try {
            resp = ticket.get();
          } catch (const std::exception&) {
            threw = true;
          }
          // The future resolves before the scheduler worker finishes its
          // bookkeeping (running count, preemption slot). Quiesce fully so
          // the next submit never races stale busy-worker state — e.g. a
          // preemptLowForHigh config firing phantom preemptions, which
          // would break the byte-determinism promise.
          replay.service().drain();
          metrics.onWaitSample(e.priority, static_cast<double>(waitUs) / 1000.0);
          std::uint64_t serviceUs =
              static_cast<std::uint64_t>(opt_.virtualBaseServiceUs);
          if (!threw) {
            serviceUs += static_cast<std::uint64_t>(
                opt_.virtualPerVisitUs *
                static_cast<double>(resp.result.stats.treeNodesVisited));
          }
          workerFreeUs[w] = startUs + serviceUs;
          replay.settle(e.id, e, req, std::move(resp), threw);
          break;
        }
      }
    }
    metrics.advanceTo(trace.horizonUs());
  } else {
    runWall(trace, replay, opt_);
  }

  replay.finishChurn(chaos, planBuilds0, planPatches0);
  return metrics.finalize(std::move(scenario), std::move(config), seed);
}

}  // namespace netembed::sim
