// netembed_cli — the embedding service as a command-line tool.
//
// Feed it a hosting network (GraphML or all-pairs-ping text) and a query
// network (GraphML), plus constraint expressions, and it prints feasible
// mappings. This is the "integrated service" face of the paper (§III/Fig 1)
// for scripted use.
//
//   # find 3 embeddings of query.graphml into a synthetic PlanetLab trace
//   $ ./netembed_cli --query q.graphml --max 3
//           --edge-constraint "rEdge.avgDelay <= vEdge.maxDelay"
//     (one shell command, wrapped here for width)
//
//   # explicit host file + algorithm + CSV of the mappings
//   $ ./netembed_cli --host trace.ping --query q.graphml --algo lns --csv
//
//   # generate a dynamic workload, then replay it with the live scorecard
//   $ ./netembed_cli --gen-trace w.csv --gen burst --arrivals 128
//   $ ./netembed_cli --trace w.csv
//
// Run `netembed_cli --help` for the full flag table (the kFlags array below
// is the single source of truth — every flag the parser reads is documented
// there).
//
// Three modes:
//  * default: one query through the ticket API (submitTicketed) — mappings
//    stream to stderr as the search finds them, the terminal
//    status/diagnostics line reports the request's lifecycle outcome.
//  * --mutate-rate > 0: replay mode — queries through the queued
//    AsyncNetEmbedService interleaved with monitoring-style host mutations;
//    reports plan-cache / control-plane / fault-tolerance counters.
//  * --trace FILE: dynamic-workload mode — replay a sim::Trace CSV
//    (arrivals with lifetimes, departures, mutations) through the
//    sim::Driver and print the VNE scorecard; --gen-trace writes such a
//    file from the seeded generators.

#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>

#include "netembed/netembed.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/simd.hpp"

using namespace netembed;

namespace {

graph::Graph loadHost(const std::string& path, std::uint64_t seed) {
  if (path.empty()) {
    trace::PlanetLabOptions options;
    options.seed = seed;
    return trace::synthesize(options);
  }
  if (path.size() > 8 && path.substr(path.size() - 8) == ".graphml") {
    return graphml::readFile(path);
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open host file '" + path + "'");
  return trace::readAllPairsPing(in);
}

service::Priority parsePriority(const std::string& name) {
  if (name == "low") return service::Priority::Low;
  if (name == "normal") return service::Priority::Normal;
  if (name == "high") return service::Priority::High;
  throw std::runtime_error("unknown --priority '" + name + "' (low|normal|high)");
}

core::Ordering parseOrdering(const std::string& name) {
  if (name == "static") return core::Ordering::Static;
  if (name == "dynamic") return core::Ordering::Dynamic;
  if (name == "auto") return core::Ordering::Auto;
  throw std::runtime_error("unknown --ordering '" + name +
                           "' (static|dynamic|auto)");
}

std::optional<core::Algorithm> parseAlgo(const std::string& name) {
  if (name == "ecf") return core::Algorithm::ECF;
  if (name == "rwb") return core::Algorithm::RWB;
  if (name == "lns") return core::Algorithm::LNS;
  if (name == "naive") return core::Algorithm::Naive;
  if (name == "anneal") return core::Algorithm::Anneal;
  if (name == "genetic") return core::Algorithm::Genetic;
  if (name == "portfolio") return core::Algorithm::Portfolio;
  if (name == "auto") return std::nullopt;
  throw std::runtime_error("unknown --algo '" + name +
                           "' (ecf|rwb|lns|naive|anneal|genetic|portfolio|auto)");
}

struct FlagDoc {
  const char* flag;
  const char* arg;
  const char* def;
  const char* what;
};

/// Every flag main() reads, one row each. --help renders this array as one
/// generated table, so the documentation cannot drift from the parser.
constexpr FlagDoc kFlags[] = {
    {"--help", "", "", "print this flag table and exit"},
    {"--host", "FILE", "synthetic PlanetLab",
     "hosting network (.graphml or all-pairs-ping text)"},
    {"--query", "FILE", "", "query network (.graphml); required unless --demo"},
    {"--demo", "", "off", "use a built-in demo query sampled from the host"},
    {"--node-constraint", "EXPR", "none", "expression over vNode/rNode"},
    {"--edge-constraint", "EXPR", "none (demo: delay window)",
     "expression over vEdge/rEdge/vSource/..."},
    {"--algo", "NAME", "auto",
     "ecf|rwb|lns|naive|anneal|genetic|portfolio|auto (auto races the portfolio)"},
    {"--max", "N", "1", "stop after N mappings (0 = all)"},
    {"--ordering", "MODE", "auto",
     "variable order: static (the paper's Lemma-1 order) | dynamic "
     "(re-picks the smallest live domain each depth) | auto (picks dynamic "
     "when the stage-1 viable counts are near-uniform — the shape where "
     "static ties hide a bottleneck)"},
    {"--timeout", "MS", "10000", "search budget"},
    {"--seed", "N", "42", "RNG seed (host synthesis, demo sampling, traces)"},
    {"--csv", "", "off", "machine-readable mapping output"},
    {"--priority", "P", "normal", "QoS class: low|normal|high"},
    {"--deadline-ms", "MS", "0 (none)",
     "QoS admission deadline + compute budget (tightens --timeout, never widens)"},
    {"--tenant", "N", "0", "QoS fair-queueing tenant id"},
    {"--retry", "N", "1",
     "QoS retry budget: total dispatch attempts on transient failure, with "
     "exponential backoff (1 = no retries); also the trace-mode retry knob"},
    {"--mutate-rate", "R", "0 (off)",
     "replay mode: run --replay queries through the queued service with R "
     "monitoring-style host mutations before each (half delay-relevant, half "
     "unreferenced); reports plan-cache patch/reuse/rebuild counters"},
    {"--replay", "N", "8", "replay mode: queries per run"},
    {"--adaptive", "", "off",
     "replay/trace mode: adaptive admission capacity (per-class service-time "
     "EWMAs via Little's law + low-priority shed watermark)"},
    {"--target-delay-ms", "MS", "250",
     "queue delay the adaptive capacity aims for (needs --adaptive)"},
    {"--slack", "", "off",
     "replay/trace mode: convert remaining admission slack into the compute "
     "budget at dispatch"},
    {"--preempt", "", "off",
     "replay/trace mode: High-class work preempts the longest-running "
     "lower-class search (re-queued, not resolved Preempted)"},
    {"--trace", "FILE", "",
     "dynamic-workload mode: replay a sim trace CSV through sim::Driver and "
     "print the VNE scorecard"},
    {"--wall", "", "off",
     "trace mode: scaled wall clock with real service concurrency "
     "(default: deterministic virtual clock)"},
    {"--buckets", "N", "8", "trace mode: scorecard time buckets"},
    {"--cpu-capacity", "X", "16",
     "trace mode: per-node cpu capacity (default host, or stamped onto a "
     "--host file lacking a cpu attribute)"},
    {"--bw-capacity", "X", "24",
     "trace mode: per-edge bw capacity (same stamping rule)"},
    {"--gen-trace", "FILE", "", "generate a trace CSV, write it, and exit"},
    {"--gen", "KIND", "poisson", "--gen-trace arrival process: poisson|burst|diurnal"},
    {"--arrivals", "N", "64", "--gen-trace: arrivals in the generated trace"},
    {"--rate", "R", "200", "--gen-trace: base arrival rate (per second)"},
    {"--hold-ms", "MS", "120", "--gen-trace: mean embedding lifetime"},
    {"--mutations-per-arrival", "R", "0",
     "--gen-trace: interleaved host-mutation events per arrival"},
};

void printHelp(std::ostream& out) {
  out << "netembed_cli — the embedding service as a command-line tool\n"
         "usage: netembed_cli [flags]\n\n";
  util::TablePrinter table({"flag", "arg", "default", "what"});
  for (const FlagDoc& f : kFlags) table.addRow({f.flag, f.arg, f.def, f.what});
  table.print(out);
}

/// Host for trace mode: the default is a capacity-annotated Waxman substrate;
/// a --host file is used as-is, with uniform capacities stamped onto nodes /
/// edges that lack them (demand accounting needs both attrs present).
graph::Graph traceHost(const util::ArgParser& args, std::uint64_t seed) {
  const double cpuCapacity = args.getDouble("cpu-capacity", 16.0);
  const double bwCapacity = args.getDouble("bw-capacity", 24.0);
  const std::string path = args.getString("host", "");
  if (path.empty()) return sim::capacitatedHost(60, seed, cpuCapacity, bwCapacity);
  graph::Graph host = loadHost(path, seed);
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    if (!host.nodeAttrs(n).has("cpu")) host.nodeAttrs(n).set("cpu", cpuCapacity);
  }
  for (graph::EdgeId e = 0; e < host.edgeCount(); ++e) {
    if (!host.edgeAttrs(e).has("bw")) host.edgeAttrs(e).set("bw", bwCapacity);
  }
  return host;
}

int runGenTrace(const util::ArgParser& args, std::uint64_t seed) {
  const std::string path = args.getString("gen-trace", "");
  sim::TraceGenOptions g;
  g.seed = seed;
  g.arrivals = static_cast<std::size_t>(args.getInt("arrivals", 64));
  g.arrivalsPerSec = args.getDouble("rate", 200.0);
  g.meanHoldMs = args.getDouble("hold-ms", 120.0);
  g.mutationsPerArrival = args.getDouble("mutations-per-arrival", 0.0);
  const std::string kind = args.getString("gen", "poisson");
  sim::Trace trace;
  if (kind == "poisson") {
    trace = sim::poissonTrace(g);
  } else if (kind == "burst") {
    trace = sim::burstTrace(g);
  } else if (kind == "diurnal") {
    trace = sim::diurnalTrace(g);
  } else {
    throw std::runtime_error("unknown --gen '" + kind + "' (poisson|burst|diurnal)");
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  trace.writeCsv(out);
  std::cerr << "wrote " << trace.events.size() << " events ("
            << trace.arrivalCount() << " arrivals, " << kind << ", horizon "
            << trace.horizonUs() / 1000 << " ms) to " << path << '\n';
  return 0;
}

/// Dynamic-workload mode: replay a trace CSV through the sim::Driver and
/// print the scorecard. Virtual clock by default (byte-deterministic per
/// seed); --wall replays on a scaled real-time clock instead.
int runTraceReplay(const util::ArgParser& args, std::uint64_t seed) {
  const std::string path = args.getString("trace", "");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file '" + path + "'");
  const sim::Trace trace = sim::Trace::readCsv(in);

  graph::Graph host = traceHost(args, seed);
  std::cerr << "host: " << host.nodeCount() << " nodes, " << host.edgeCount()
            << " edges | trace: " << trace.events.size() << " events ("
            << trace.arrivalCount() << " arrivals)\n";

  sim::DriverOptions opt;
  opt.clock = args.getBool("wall") ? sim::ClockMode::Wall : sim::ClockMode::Virtual;
  opt.service.workers = 2;
  opt.buckets = static_cast<std::size_t>(args.getInt("buckets", 8));
  opt.retryAttempts = static_cast<std::uint32_t>(
      std::max<long long>(args.getInt("retry", 1), 1));
  if (args.getBool("adaptive")) {
    opt.service.control.queue.adaptiveCapacity = true;
    opt.service.control.queue.targetQueueDelay =
        std::chrono::milliseconds(args.getInt("target-delay-ms", 250));
  }
  opt.service.control.propagateSlack = args.getBool("slack");
  if (args.getBool("preempt")) {
    opt.service.control.preemptLowForHigh = true;
    opt.service.control.requeuePreempted = true;
  }

  sim::Driver driver(std::move(host), opt);
  const sim::Scorecard card =
      driver.run(trace, path, sim::clockModeName(opt.clock), seed);
  card.printTable(std::cout);
  return 0;
}

/// Replay mode: interleave monitoring-style host mutations with queries
/// against the queued service, then report how many stage-1 plans were
/// patched / reused / rebuilt across the induced version bumps.
int runMutateReplay(graph::Graph host, service::EmbedRequest request,
                    double mutateRate, std::size_t replays, std::uint64_t seed,
                    const service::AsyncServiceOptions& serviceOptions) {
  if (!request.algorithm.has_value()) {
    // The replay measures the stage-1 delta path; the auto-chooser may pick
    // LNS (no stage-1 plan) on dense hosts, which would exercise nothing.
    request.algorithm = core::Algorithm::ECF;
    std::cerr << "replay: pinning --algo ecf (stage-1 plans are the point)\n";
  }
  service::AsyncNetEmbedService svc{std::move(host), serviceOptions};
  util::Rng rng(util::deriveSeed(seed, 99));
  const std::uint64_t buildsBefore = core::filterPlanBuilds();
  const std::uint64_t patchesBefore = core::filterPlanPatches();

  double pendingMutations = 0.0;
  std::size_t mutations = 0;
  std::size_t feasible = 0;
  bool allDone = true;
  for (std::size_t i = 0; i < replays; ++i) {
    pendingMutations += mutateRate;
    for (; pendingMutations >= 1.0; pendingMutations -= 1.0) {
      const auto snapshot = svc.hostSnapshot();
      if (mutations % 2 == 0 && snapshot->edgeCount() > 0) {
        // Constraint-relevant (the demo's delay-window constraint reads
        // minDelay): nudge one link's floor delay by ~1%.
        const auto e = static_cast<graph::EdgeId>(rng.index(snapshot->edgeCount()));
        const double delay = snapshot->edgeAttrs(e).getDouble("minDelay", 10.0);
        svc.setEdgeMetric(snapshot->edgeSource(e), snapshot->edgeTarget(e),
                          "minDelay", delay * (rng.bernoulli(0.5) ? 1.01 : 0.99));
      } else {
        // Unreferenced by the constraints: provably irrelevant to cached
        // plans, which must be reused as-is (no patch, no rebuild).
        const auto n = static_cast<graph::NodeId>(rng.index(snapshot->nodeCount()));
        svc.setNodeAttr(n, "load", rng.uniform(0.0, 1.0));
      }
      ++mutations;
    }
    service::EmbedRequest query = request;
    const service::EmbedResponse response = svc.submit(std::move(query)).get();
    std::cerr << "replay " << (i + 1) << "/" << replays << ": v"
              << response.modelVersion << " "
              << service::requestStatusName(response.status) << " | "
              << response.diagnostics << '\n';
    if (response.status != service::RequestStatus::Done) allDone = false;
    if (response.result.feasible()) ++feasible;
  }

  const auto cache = svc.planCacheStats();
  std::cout << "replay: " << replays << " queries, " << mutations
            << " mutations, " << feasible << " feasible\n"
            << "plan cache: " << cache.hits << " hits, " << cache.misses
            << " misses, " << cache.rekeys << " rekeys, " << cache.invalidations
            << " invalidations\n"
            << "stage-1 plans: " << core::filterPlanBuilds() - buildsBefore
            << " built, " << core::filterPlanPatches() - patchesBefore
            << " patched\n";
  if (serviceOptions.control.queue.adaptiveCapacity ||
      serviceOptions.control.preemptLowForHigh) {
    const auto queue = svc.queueStats();
    const auto control = svc.controlStats();
    std::cout << "control plane: effective capacity " << queue.effectiveCapacity
              << ", " << control.preemptionsFired << " preemptions fired, "
              << control.preemptRequeues << " re-queued\n";
    for (const auto& cls : queue.classes) {
      std::cout << "  class " << cls.priority << ": " << cls.completed
                << " completed, service EWMA "
                << util::formatFixed(cls.serviceEwmaMs, 2) << " ms, wait p99 "
                << util::formatFixed(cls.waitP99Ms, 2) << " ms\n";
    }
  }
  {
    // The fault-tolerance ledger: zero all the way down on a healthy run,
    // and the first place to look when a replay reports anything but Done.
    const auto control = svc.controlStats();
    std::cout << "fault tolerance: " << control.transientRetries
              << " transient retries, " << control.retriesAbandoned
              << " abandoned, " << control.cacheBypassFallbacks
              << " plan-cache bypasses, " << control.poolWorkersLost
              << " pool workers lost, " << control.poolSerialFallbacks
              << " serial fallbacks\n";
  }
  return allDone ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    if (args.getBool("help")) {
      printHelp(std::cout);
      return 0;
    }
    const auto seed = args.getSeed("seed", 42);
    if (args.has("gen-trace")) return runGenTrace(args, seed);
    if (args.has("trace")) return runTraceReplay(args, seed);

    graph::Graph host = loadHost(args.getString("host", ""), seed);
    std::cerr << "host: " << host.nodeCount() << " nodes, " << host.edgeCount()
              << " edges | simd: "
              << util::simd::isaName(util::simd::activeIsa()) << '\n';

    graph::Graph query;
    std::string edgeConstraint = args.getString("edge-constraint", "");
    if (args.getBool("demo")) {
      util::Rng rng(seed);
      auto sub = topo::sampleConnectedSubgraph(host, 12, 30, rng);
      query = std::move(sub.graph);
      topo::widenDelayWindows(query, 0.02);
      if (edgeConstraint.empty()) edgeConstraint = topo::delayWindowConstraint();
      std::cerr << "demo query sampled from host (12 nodes)\n";
    } else {
      const std::string queryPath = args.getString("query", "");
      if (queryPath.empty()) {
        std::cerr << "error: --query FILE (or --demo) is required; see header "
                     "comment for usage\n";
        return 2;
      }
      query = graphml::readFile(queryPath);
    }
    std::cerr << "query: " << query.nodeCount() << " nodes, " << query.edgeCount()
              << " edges\n";

    service::EmbedRequest request;
    request.query = std::move(query);
    request.edgeConstraint = edgeConstraint;
    request.nodeConstraint = args.getString("node-constraint", "");
    request.algorithm = parseAlgo(args.getString("algo", "auto"));
    request.options.maxSolutions = static_cast<std::size_t>(args.getInt("max", 1));
    request.options.storeLimit = std::max<std::size_t>(request.options.maxSolutions, 16);
    request.options.timeout = std::chrono::milliseconds(args.getInt("timeout", 10000));
    request.options.ordering = parseOrdering(args.getString("ordering", "auto"));
    request.options.seed = seed;
    request.qos.priority = parsePriority(args.getString("priority", "normal"));
    request.qos.tenant = args.getSeed("tenant", 0);
    request.qos.retry.maxAttempts =
        static_cast<std::uint32_t>(std::max<long long>(args.getInt("retry", 1), 1));
    const auto deadlineMs = args.getInt("deadline-ms", 0);
    if (deadlineMs > 0) {
      request.qos.admissionDeadline = std::chrono::milliseconds(deadlineMs);
      request.qos.computeBudget = std::chrono::milliseconds(deadlineMs);
    }
    std::cerr << "qos: priority=" << service::priorityName(request.qos.priority)
              << " tenant=" << request.qos.tenant
              << " deadline-ms=" << deadlineMs
              << " | ordering=" << core::orderingName(request.options.ordering)
              << '\n';

    const double mutateRate = args.getDouble("mutate-rate", 0.0);
    if (mutateRate > 0.0) {
      const auto replays = static_cast<std::size_t>(args.getInt("replay", 8));
      service::AsyncServiceOptions serviceOptions;
      if (args.getBool("adaptive")) {
        serviceOptions.control.queue.adaptiveCapacity = true;
        serviceOptions.control.queue.targetQueueDelay =
            std::chrono::milliseconds(args.getInt("target-delay-ms", 250));
        serviceOptions.control.queue.lowPriorityShedWatermark = 0.9;
        serviceOptions.overloadPolicy = util::OverloadPolicy::ShedLowestPriority;
      }
      serviceOptions.control.propagateSlack = args.getBool("slack");
      if (args.getBool("preempt")) {
        serviceOptions.control.preemptLowForHigh = true;
        serviceOptions.control.requeuePreempted = true;
      }
      return runMutateReplay(std::move(host), std::move(request), mutateRate,
                             replays, seed, serviceOptions);
    }

    service::NetEmbedService svc{service::NetworkModel(std::move(host))};
    // The lifecycle API: solutions stream out as the search admits them; the
    // terminal response still carries the stored mappings printed below.
    service::TicketCallbacks callbacks;
    std::atomic<std::uint64_t> streamed{0};
    callbacks.onSolution = [&](const core::Mapping& m) {
      std::cerr << "streamed #" << streamed.fetch_add(1) + 1 << ": "
                << core::formatMapping(m, request.query, svc.model().host())
                << '\n';
      return true;
    };
    service::SubmitTicket ticket = svc.submitTicketed(request, std::move(callbacks));
    const service::EmbedResponse response = ticket.get();
    std::cerr << "status: " << service::requestStatusName(response.status)
              << " | " << response.diagnostics << '\n';

    if (!response.result.feasible()) {
      std::cout << "no feasible embedding ("
                << core::outcomeName(response.result.outcome) << ")\n";
      return 1;
    }
    if (args.getBool("csv")) {
      util::CsvWriter csv(std::cout);
      std::vector<std::string> header{"mapping"};
      for (graph::NodeId v = 0; v < request.query.nodeCount(); ++v) {
        header.push_back(request.query.nodeName(v));
      }
      csv.row(header);
      for (std::size_t i = 0; i < response.result.mappings.size(); ++i) {
        std::vector<std::string> row{std::to_string(i)};
        for (const graph::NodeId r : response.result.mappings[i]) {
          row.push_back(svc.model().host().nodeName(r));
        }
        csv.row(row);
      }
    } else {
      for (const core::Mapping& m : response.result.mappings) {
        std::cout << core::formatMapping(m, request.query, svc.model().host()) << '\n';
      }
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
