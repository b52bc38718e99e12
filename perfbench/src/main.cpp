// Service benchmark: one workload per process, closed-loop clients against
// the NETEMBED service front ends, a correctness and accounting gate, and —
// with --trace 1 — a replay of every request through the public calls the
// front end composes, timed as spans.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --result <file.json> [--trace-out <file.jsonl>]
//
// The result file carries the end-to-end metrics (and, traced, the
// per-layer ones), the accounting, the first violations and provenance.
// Exit code: 0 when every check passed, 1 on a violation, 2 on bad usage.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ecf.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/verify.hpp"
#include "expr/constraint.hpp"
#include "inputs.hpp"
#include "service/async.hpp"
#include "service/plan_cache.hpp"
#include "service/service.hpp"
#include "service/ticket.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

namespace core = netembed::core;
namespace expr = netembed::expr;
namespace service = netembed::service;

constexpr std::size_t kAsyncWorkers = 2;   // planetlab_churn scheduler workers
constexpr std::size_t kMaxViolations = 20; // violation texts kept for the report
// Safety net only: no request of these workloads comes near it.
constexpr std::chrono::milliseconds kRequestTimeout{20'000};

struct Args {
  Workload workload = Workload::HugehostPods;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string resultPath;
  std::string tracePath;
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double currentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  std::ostringstream o;
  o << std::setprecision(17) << v;
  return o.str();
}

/// One request of the timed phase (or a warm-up), as the client saw it.
struct Record {
  std::uint64_t id = 0;  // index in the timed stream
  Draw draw;
  std::int64_t submitNs = 0;
  std::int64_t firstSolutionNs = -1;
  std::int64_t doneNs = 0;
  service::RequestStatus status = service::RequestStatus::Failed;
  core::Outcome outcome = core::Outcome::Inconclusive;
  std::uint64_t solutions = 0;
  std::uint64_t streamed = 0;
  std::uint64_t version = 0;
  bool planWork = false;  // this request built or patched its plan
  std::vector<core::Mapping> mappings;  // traced run only: the replay compares

  [[nodiscard]] bool answered() const {
    return status == service::RequestStatus::Done &&
           (solutions > 0 || outcome == core::Outcome::Complete);
  }
};

/// Violations of the correctness gate, per thread.
struct Checks {
  std::uint64_t mappingsVerified = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> messages;

  void fail(std::string message) {
    ++violations;
    if (messages.size() < kMaxViolations) messages.push_back(std::move(message));
  }
  void merge(Checks&& other) {
    mappingsVerified += other.mappingsVerified;
    violations += other.violations;
    for (auto& m : other.messages) {
      if (messages.size() < kMaxViolations) messages.push_back(std::move(m));
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counters read around a phase (process-wide plan counters, service cache).
struct Counters {
  std::uint64_t builds = 0, patches = 0, inPlace = 0;
  service::FilterPlanCache::Stats cache;
  netembed::util::QosScheduler::Stats queue;
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args),
        spec_(specFor(args.workload)),
        constraints_(expr::ConstraintSet::parse(spec_.edgeConstraint,
                                                spec_.nodeConstraint)),
        setupLog_(args.trace) {}

  int run();

 private:
  // --- set-up ---------------------------------------------------------------
  void setUpOnce(std::size_t rep);
  [[nodiscard]] std::size_t warmupCount() const;
  [[nodiscard]] service::EmbedRequest requestFor(const Draw& d) const;
  [[nodiscard]] graph::Graph queryFor(const Draw& d) const;

  // --- serving --------------------------------------------------------------
  void client(std::size_t c, std::barrier<>& start, const std::int64_t& deadlineNs,
              std::vector<Record>& out, Checks& checks, SpanLog& log);
  Record serve(const Draw& d, std::uint64_t id, SpanLog& log, Checks& checks);
  void publish(std::uint64_t batch, SpanLog& log);  // under publishMutex_
  [[nodiscard]] std::shared_ptr<const graph::Graph> snapshotFor(std::uint64_t v);
  void verify(const Record& r, const service::EmbedResponse& resp,
              const graph::Graph& query, Checks& checks);
  [[nodiscard]] Counters counters() const;

  // --- traced replay --------------------------------------------------------
  struct ReplayStats {
    std::vector<double> firstMatchMs, entries, bytes;
    std::uint64_t evals = 0, treeNodes = 0, backtracks = 0, solutions = 0;
    std::uint64_t dynamicOrders = 0, requests = 0;
  };
  void replay(std::vector<Record>& records, SpanLog& log, Checks& checks,
              ReplayStats& stats);

  // --- reporting ------------------------------------------------------------
  std::vector<Metric> endToEnd(const std::vector<Record>& records,
                               std::int64_t startNs, std::string& detail) const;
  std::vector<Metric> perLayer(const std::vector<Record>& records,
                               const std::vector<Span>& spans,
                               const Counters& before, const Counters& after,
                               const ReplayStats& rs) const;
  std::string provenance() const;

  const Args& args_;
  const WorkloadSpec& spec_;
  const expr::ConstraintSet constraints_;
  SpanLog setupLog_;

  graph::Graph pristine_;            // the host as generated, before any update
  std::vector<graph::Graph> pool_;   // pooled signatures; infeasible after feasible
  std::vector<double> setupSeconds_;
  std::vector<double> hostBuildMs_;
  double hostRssMb_ = 0.0;
  std::map<std::pair<std::uint64_t, bool>, std::uint64_t> referenceCounts_;
  Checks setupChecks_;

  std::unique_ptr<service::NetEmbedService> sync_;
  std::unique_ptr<service::AsyncNetEmbedService> async_;

  std::mutex publishMutex_;  // guards everything below
  std::uint64_t nextIndex_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t batches_ = 0;
  std::map<std::uint64_t, std::shared_ptr<const graph::Graph>> snapshots_;
  std::vector<std::uint64_t> clientFloor_;  // oldest version a client may still need
};

graph::Graph Bench::queryFor(const Draw& d) const {
  if (pool_.empty()) return makeQuery(args_.workload, pristine_, args_.seed, d.key, false);
  return pool_[d.key + (d.infeasible ? spec_.poolSize : 0)];
}

std::size_t Bench::warmupCount() const {
  return spec_.warmupRequests != 0 ? spec_.warmupRequests : pool_.size();
}

service::EmbedRequest Bench::requestFor(const Draw& d) const {
  service::EmbedRequest req;
  req.query = queryFor(d);
  req.edgeConstraint = spec_.edgeConstraint;
  req.nodeConstraint = spec_.nodeConstraint;
  // algorithm stays nullopt: the service routes every multi-mapping request
  // to ECF. Auto ordering is what the service's CLI runs by default.
  req.options.maxSolutions = spec_.maxSolutions;
  req.options.ordering = core::Ordering::Auto;
  req.options.timeout = kRequestTimeout;
  return req;
}

void Bench::setUpOnce(std::size_t rep) {
  // Drop the previous set-up first so two hosts never coexist, and hand its
  // memory back so repeated set-ups do not inflate peak_rss_mb.
  sync_.reset();
  async_.reset();
  snapshots_.clear();
  pristine_ = graph::Graph{};
  malloc_trim(0);

  const double rssBefore = currentRssMb();
  graph::Graph host;
  const std::int64_t hostStart = nowNs();
  setupLog_.record(0, 0, "graph", "graph.host_build",
                   [&] { host = makeHost(args_.workload); });
  const std::int64_t hostNs = nowNs() - hostStart;
  hostBuildMs_.push_back(ms(hostNs));
  pristine_ = host;  // shares structure with the served host
  if (rep == 0) {
    hostRssMb_ = currentRssMb() - rssBefore;
    // Inputs are the benchmark's, not the service's: generated untimed.
    if (spec_.poolSize != 0) {
      for (const bool infeasible : {false, true}) {
        if (infeasible && !spec_.infeasibleTurns) break;
        for (std::uint64_t k = 0; k < spec_.poolSize; ++k) {
          pool_.push_back(makeQuery(args_.workload, pristine_, args_.seed, k, infeasible));
        }
      }
    }
  }

  const std::int64_t serviceStart = nowNs();
  std::shared_ptr<const graph::Graph> snapshot;
  if (args_.workload == Workload::PlanetlabChurn) {
    service::AsyncServiceOptions o;
    o.workers = kAsyncWorkers;
    async_ = std::make_unique<service::AsyncNetEmbedService>(std::move(host), o);
    setupLog_.record(0, 0, "graph", "graph.snapshot",
                     [&] { snapshot = async_->hostSnapshot(); });
  } else {
    sync_ = std::make_unique<service::NetEmbedService>(std::move(host));
    setupLog_.record(0, 0, "graph", "graph.snapshot", [&] {
      snapshot = std::make_shared<const graph::Graph>(sync_->model().host());
    });
  }
  {
    std::lock_guard lock(publishMutex_);
    nextIndex_ = 0;
    version_ = 0;
    batches_ = 0;
    snapshots_[0] = std::move(snapshot);
  }

  SpanLog quiet(false);
  for (std::uint64_t r = 0; r < warmupCount(); ++r) {
    const Draw d = warmupRequest(args_.workload, r);
    const Record rec = serve(d, r, quiet, setupChecks_);
    if (!rec.answered()) {
      setupChecks_.fail(std::string("warm-up request ") + std::to_string(r) +
                        " was not answered");
    }
    if (spec_.infeasibleTurns) {
      // The first count seen per signature is the reference that verify()
      // holds every later request to, across set-ups and the timed phase.
      referenceCounts_.try_emplace({d.key, d.infeasible}, rec.solutions);
      if (d.infeasible != (rec.solutions == 0)) {
        setupChecks_.fail("signature " + std::to_string(d.key) +
                          (d.infeasible ? " infeasible variant found mappings"
                                        : " found no mapping"));
      }
    }
  }
  const std::int64_t serviceNs = nowNs() - serviceStart;
  setupSeconds_.push_back(static_cast<double>(hostNs + serviceNs) / 1e9);
}

std::shared_ptr<const graph::Graph> Bench::snapshotFor(std::uint64_t v) {
  std::lock_guard lock(publishMutex_);
  const auto it = snapshots_.find(v);
  return it == snapshots_.end() ? nullptr : it->second;
}

void Bench::publish(std::uint64_t batch, SpanLog& log) {
  const auto measurements = mutationBatch(pristine_, args_.seed, batch);
  std::size_t applied = 0;
  log.record(0, 0, "service", "service.model.publish",
             [&] { applied = async_->applyMeasurements(measurements); });
  std::shared_ptr<const graph::Graph> snapshot;
  log.record(0, 0, "graph", "graph.snapshot",
             [&] { snapshot = async_->hostSnapshot(); });
  // Only the benchmark mutates, and only under publishMutex_: the newest
  // snapshot is the one just published.
  version_ = async_->version();
  ++batches_;
  if (applied != measurements.size()) {
    throw std::runtime_error("mutation batch " + std::to_string(batch) + " applied " +
                             std::to_string(applied) + " of " +
                             std::to_string(measurements.size()));
  }
  snapshots_[version_] = std::move(snapshot);
}

void Bench::verify(const Record& r, const service::EmbedResponse& resp,
                   const graph::Graph& query, Checks& checks) {
  const std::string who = "request " + std::to_string(r.id) + ": ";
  if (r.status != service::RequestStatus::Done) return;  // accounted, not verified
  if (resp.algorithmUsed != core::Algorithm::ECF) {
    checks.fail(who + "routed to " + core::algorithmName(resp.algorithmUsed) +
                ", expected ECF");
  }
  if (r.streamed != r.solutions && spec_.workload != Workload::HugehostPods) {
    checks.fail(who + "streamed " + std::to_string(r.streamed) + " of " +
                std::to_string(r.solutions) + " mappings");
  }
  if (r.solutions > spec_.maxSolutions) {
    checks.fail(who + "exceeded the mapping cap");
  }
  const auto snapshot = snapshotFor(r.version);
  if (!snapshot) {
    checks.fail(who + "answered from unknown model version " +
                std::to_string(r.version));
    return;
  }
  const core::Problem problem(query, *snapshot, constraints_);
  for (const core::Mapping& m : resp.result.mappings) {
    const core::VerifyResult v = core::verifyMapping(problem, m);
    ++checks.mappingsVerified;
    if (!v) checks.fail(who + "invalid mapping: " + v.reason);
  }
  if (spec_.infeasibleTurns) {
    const auto it = referenceCounts_.find({r.draw.key, r.draw.infeasible});
    if (it != referenceCounts_.end() && it->second != r.solutions) {
      checks.fail(who + "signature " + std::to_string(r.draw.key) +
                  (r.draw.infeasible ? "i" : "") + " enumerated " +
                  std::to_string(r.solutions) + " mappings, reference " +
                  std::to_string(it->second));
    }
  }
}

Record Bench::serve(const Draw& d, std::uint64_t id, SpanLog& log, Checks& checks) {
  service::EmbedRequest req = requestFor(d);
  const graph::Graph query = req.query;  // shares structure; kept to verify
  Record r;
  r.id = id;
  r.draw = d;
  std::atomic<std::int64_t> first{-1};
  std::atomic<std::uint64_t> streamed{0};
  service::TicketCallbacks callbacks;
  callbacks.onSolution = [&first, &streamed](const core::Mapping&) {
    std::int64_t none = -1;
    if (first.load(std::memory_order_relaxed) < 0) {
      first.compare_exchange_strong(none, nowNs());
    }
    streamed.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  service::EmbedResponse resp;
  r.submitNs = nowNs();
  try {
    switch (args_.workload) {
      case Workload::HugehostPods:
        resp = sync_->submit(req);
        break;
      case Workload::BriteEnumerate: {
        service::SubmitTicket ticket = sync_->submitTicketed(std::move(req), callbacks);
        resp = ticket.get();
        break;
      }
      case Workload::PlanetlabChurn: {
        service::SubmitTicket ticket = async_->submit(std::move(req), callbacks);
        resp = ticket.get();
        break;
      }
    }
    r.doneNs = nowNs();
    r.status = resp.status;
  } catch (const std::exception& e) {
    r.doneNs = nowNs();
    r.status = service::RequestStatus::Failed;
    checks.fail("request " + std::to_string(id) + " threw: " + e.what());
  }
  r.outcome = resp.result.outcome;
  r.solutions = resp.result.solutionCount;
  r.version = resp.modelVersion;
  // ECF bills the build or patch to the request that ran it; reusers see 0.
  r.planWork = resp.result.stats.filterBuildMs > 0.0;
  r.streamed = streamed.load();
  // Plain submit hands the caller its first mapping with the response.
  r.firstSolutionNs = args_.workload == Workload::HugehostPods
                          ? (r.solutions > 0 ? r.doneNs : -1)
                          : first.load();
  log.add(Span{nextSpanId(), 0, id + 1, "service", "service.request", r.submitNs,
               r.doneNs});
  verify(r, resp, query, checks);
  if (log.enabled()) r.mappings = std::move(resp.result.mappings);
  return r;
}

void Bench::client(std::size_t c, std::barrier<>& start, const std::int64_t& deadlineNs,
                   std::vector<Record>& out, Checks& checks, SpanLog& log) {
  start.arrive_and_wait();
  for (;;) {
    std::uint64_t index = 0;
    {
      std::lock_guard lock(publishMutex_);
      if (nowNs() >= deadlineNs) break;
      index = nextIndex_++;
      if (spec_.mutateEvery != 0 && index % spec_.mutateEvery == 0) {
        publish(index / spec_.mutateEvery, log);
      }
      // A response is answered from a snapshot at least as new as the one
      // current now: older snapshots no client can still need are dropped.
      clientFloor_[c] = version_;
      const std::uint64_t floor =
          *std::min_element(clientFloor_.begin(), clientFloor_.end());
      snapshots_.erase(snapshots_.begin(), snapshots_.lower_bound(floor));
    }
    out.push_back(serve(drawRequest(args_.workload, args_.seed, index), index, log,
                        checks));
  }
  std::lock_guard lock(publishMutex_);
  clientFloor_[c] = UINT64_MAX;
}

Counters Bench::counters() const {
  Counters c;
  c.builds = core::filterPlanBuilds();
  c.patches = core::filterPlanPatches();
  c.inPlace = core::filterPlanInPlacePatches();
  if (sync_) c.cache = sync_->planCacheStats();
  if (async_) {
    c.cache = async_->planCacheStats();
    c.queue = async_->queueStats();
  }
  return c;
}

void Bench::replay(std::vector<Record>& records, SpanLog& log, Checks& checks,
                   ReplayStats& rs) {
  // Same inputs, same snapshots: walk the model versions forward on a mirror
  // of the service's model, announcing every delta to a plan cache of the
  // service's capacity, and re-run each request through the calls
  // detail::executeEmbed composes. Single-threaded, so spans and the
  // process-wide plan counters attribute exactly.
  std::sort(records.begin(), records.end(), [](const Record& a, const Record& b) {
    return a.version != b.version ? a.version < b.version : a.id < b.id;
  });
  service::NetworkModel mirror(pristine_);
  auto snapshot = std::make_shared<const graph::Graph>(mirror.host());
  // The capacities the two front ends default to.
  service::FilterPlanCache cache(args_.workload == Workload::PlanetlabChurn
                                     ? service::AsyncServiceOptions{}.planCacheCapacity
                                     : 32);
  const bool streaming = args_.workload != Workload::HugehostPods;

  const auto replayOne = [&](const Record& r, SpanLog& spans,
                             ReplayStats& stats) -> core::EmbedResult {
    const service::EmbedRequest req = requestFor(r.draw);
    const std::uint64_t request = r.id + 1;
    const std::uint64_t root = nextSpanId();
    const std::int64_t rootStart = nowNs();

    std::optional<expr::ConstraintSet> cs;
    spans.record(request, root, "expr", "expr.compile", [&] {
      cs.emplace(expr::ConstraintSet::parse(req.edgeConstraint, req.nodeConstraint));
    });
    const core::Problem problem(req.query, *snapshot, *cs);
    problem.validate();
    core::SearchOptions options = req.options;
    const std::string signature = service::planSignature(
        req.query, req.edgeConstraint, req.nodeConstraint, options);
    std::shared_ptr<core::SharedPlanBuilder> builder;
    spans.record(request, root, "core", "core.plan.acquire",
                 [&] { builder = cache.acquire(r.version, signature); });
    const std::uint64_t builds0 = core::filterPlanBuilds();
    const std::uint64_t patches0 = core::filterPlanPatches();
    const std::int64_t getStart = nowNs();
    const core::SharedPlanBuilder::Acquired acquired = builder->get(problem, options);
    // Named by which process-wide plan counter the call moved.
    const char* step = core::filterPlanBuilds() != builds0     ? "core.plan.build"
                       : core::filterPlanPatches() != patches0 ? "core.plan.patch"
                                                               : "core.plan.reuse";
    spans.add(Span{nextSpanId(), root, request, "core", step, getStart, nowNs()});
    const core::FilterPlan& plan = *acquired.plan;
    if (acquired.builtHere) {
      stats.evals += plan.buildStats.constraintEvals;
      stats.entries.push_back(static_cast<double>(plan.buildStats.filterEntries));
      stats.bytes.push_back(static_cast<double>(plan.filters.memoryBreakdown().total()));
    }
    core::Ordering ordering = core::Ordering::Auto;
    spans.record(request, root, "core", "core.order.choose",
                 [&] { ordering = core::chooseOrdering(plan, options.ordering); });
    if (ordering == core::Ordering::Dynamic) ++stats.dynamicOrders;
    options.ordering = ordering;
    std::uint64_t streamed = 0;
    core::SolutionSink sink;
    if (streaming) {
      sink = [&streamed](const core::Mapping&) {
        ++streamed;
        return true;
      };
    }
    core::EmbedResult result;
    spans.record(request, root, "core", "core.search", [&] {
      core::SearchContext context(options, sink);
      context.setPlanBuilder(builder);
      result = core::ecfSearch(problem, context);
    });
    spans.add(Span{root, 0, request, "service", "replay", rootStart, nowNs()});

    ++stats.requests;
    stats.evals += result.stats.constraintEvals;
    stats.treeNodes += result.stats.treeNodesVisited;
    stats.backtracks += result.stats.backtracks;
    stats.solutions += result.solutionCount;
    if (result.stats.firstMatchMs >= 0) {
      stats.firstMatchMs.push_back(result.stats.firstMatchMs);
    }
    return result;
  };

  // The service's cache was warm when the timed phase began: put the replay
  // cache in the same state by replaying the last set-up's warm-up requests
  // (all at version 0), untimed and uncounted.
  {
    SpanLog quiet(false);
    ReplayStats ignored;
    for (std::uint64_t w = 0; w < warmupCount(); ++w) {
      Record warm;
      warm.draw = warmupRequest(args_.workload, w);
      (void)replayOne(warm, quiet, ignored);
    }
  }

  // Replaying everything serially would cost as long as the timed phase on
  // the search-bound workloads. The replay stops after half of --seconds; the
  // prefix it covers (in version order) still holds tens of requests on
  // hugehost_pods and thousands on the others.
  const auto budget = static_cast<std::int64_t>(args_.seconds * 0.5e9);
  const std::int64_t deadline = nowNs() + budget;
  for (const Record& r : records) {
    if (nowNs() >= deadline) break;
    while (mirror.version() < r.version) {
      const auto batch = mutationBatch(pristine_, args_.seed, mirror.version());
      (void)mirror.applyMeasurements(batch);
      cache.applyDelta(mirror.version(), mirror.lastDelta());
      snapshot = std::make_shared<const graph::Graph>(mirror.host());
    }
    const core::EmbedResult result = replayOne(r, log, rs);
    if (r.status == service::RequestStatus::Done &&
        (result.solutionCount != r.solutions || result.mappings != r.mappings)) {
      checks.fail("request " + std::to_string(r.id) + ": replay found " +
                  std::to_string(result.solutionCount) + " mappings, service " +
                  std::to_string(r.solutions) +
                  (result.mappings != r.mappings ? " (stored mappings differ)" : ""));
    }
  }
}

std::vector<Metric> Bench::endToEnd(const std::vector<Record>& records,
                                    std::int64_t startNs, std::string& detail) const {
  std::vector<double> latency, first;
  std::int64_t endNs = startNs;
  std::uint64_t answered = 0;
  for (const Record& r : records) {
    latency.push_back(ms(r.doneNs - r.submitNs));
    if (r.firstSolutionNs >= 0) first.push_back(ms(r.firstSolutionNs - r.submitNs));
    endNs = std::max(endNs, r.doneNs);
    if (r.answered()) ++answered;
  }
  const TailRank tail = tailRank(latency.size());
  const double elapsed = static_cast<double>(endNs - startNs) / 1e9;
  const double n = static_cast<double>(records.size());
  std::ostringstream d;
  d << "\"latency_samples\": " << latency.size()
    << ", \"latency_tail_percentile\": " << jsonNumber(tail.percentile)
    << ", \"latency_tail_has_10_beyond\": " << (tail.enough ? "true" : "false")
    << ", \"first_solution_samples\": " << first.size()
    << ", \"timed_seconds\": " << jsonNumber(elapsed) << ", \"setup_seconds\": [";
  for (std::size_t i = 0; i < setupSeconds_.size(); ++i) {
    d << (i ? ", " : "") << jsonNumber(setupSeconds_[i]);
  }
  d << "]";
  detail = d.str();
  return {
      {"setup_s", median(setupSeconds_), "s"},
      {"throughput_rps", elapsed > 0 ? n / elapsed : 0.0, "1/s"},
      {"latency_p50_ms", median(latency), "ms"},
      {"latency_tail_ms", atRank(latency, tail.rank), "ms"},
      {"first_solution_p50_ms", median(first), "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"answered_ratio", n > 0 ? static_cast<double>(answered) / n : 0.0, "ratio"},
  };
}

std::vector<Metric> Bench::perLayer(const std::vector<Record>& records,
                                    const std::vector<Span>& spans,
                                    const Counters& before, const Counters& after,
                                    const ReplayStats& rs) const {
  const auto self = selfTimes(spans);
  std::map<std::string, std::vector<double>> selfMs;  // by span name
  std::map<std::uint64_t, double> requestMs, layerMs;  // by request id
  std::map<std::uint64_t, bool> replayReused;          // by request id
  for (const Span& s : spans) {
    const double v = ms(self.at(s.id));
    selfMs[s.name].push_back(v);
    const std::string_view name = s.name;
    if (name == "service.request") {
      requestMs[s.request] = ms(s.durationNs());
    } else if (s.parent != 0 && s.request != 0) {
      layerMs[s.request] += ms(s.durationNs());
      if (name.starts_with("core.plan.") && name != "core.plan.acquire") {
        replayReused[s.request] = name == "core.plan.reuse";
      }
    }
  }
  const auto med = [&](const char* name) {
    const auto it = selfMs.find(name);
    return it == selfMs.end() ? 0.0 : median(it->second);
  };
  // The request span (served, concurrent) minus its layer spans (replayed,
  // alone) compares two executions. Pair them only where both reused a
  // cached plan, so a build or patch in one of them is not billed to the
  // front end.
  std::vector<double> frontendSelf;
  for (const Record& r : records) {
    const std::uint64_t request = r.id + 1;
    const auto total = requestMs.find(request);
    const auto layers = layerMs.find(request);
    const auto reused = replayReused.find(request);
    if (r.planWork || total == requestMs.end() || layers == layerMs.end() ||
        reused == replayReused.end() || !reused->second) {
      continue;
    }
    frontendSelf.push_back(total->second - layers->second);
  }
  const double n = std::max<double>(1.0, static_cast<double>(records.size()));
  const double replayed = std::max<double>(1.0, static_cast<double>(rs.requests));
  const auto perReq = [n](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / n;
  };
  const auto& c0 = before.cache;
  const auto& c1 = after.cache;
  const std::uint64_t hits = c1.hits - c0.hits;
  const std::uint64_t misses = c1.misses - c0.misses;
  return {
      {"graph.host_build_ms", median(hostBuildMs_), "ms"},
      {"graph.host_rss_mb", hostRssMb_, "MB"},
      {"graph.snapshot_us", med("graph.snapshot") * 1e3, "us"},
      {"expr.compile_us", med("expr.compile") * 1e3, "us"},
      {"expr.constraint_evals", static_cast<double>(rs.evals) / replayed, "1/req"},
      {"core.filter.build_ms", med("core.plan.build"), "ms"},
      {"core.filter.entries", rs.entries.empty() ? 0.0 : median(rs.entries), "count"},
      {"core.filter.bytes", rs.bytes.empty() ? 0.0 : median(rs.bytes), "bytes"},
      {"core.plan.builds", perReq(after.builds, before.builds), "1/req"},
      {"core.plan.patches", perReq(after.patches, before.patches), "1/req"},
      {"core.plan.in_place_patches", perReq(after.inPlace, before.inPlace), "1/req"},
      {"core.plan.patch_ms", med("core.plan.patch"), "ms"},
      {"core.order.dynamic_share", static_cast<double>(rs.dynamicOrders) / replayed,
       "ratio"},
      {"core.search.ms", med("core.search"), "ms"},
      {"core.search.first_match_ms",
       rs.firstMatchMs.empty() ? 0.0 : median(rs.firstMatchMs), "ms"},
      {"core.search.tree_nodes", static_cast<double>(rs.treeNodes) / replayed, "1/req"},
      {"core.search.backtracks", static_cast<double>(rs.backtracks) / replayed, "1/req"},
      {"core.search.mappings_per_knode",
       rs.treeNodes ? 1e3 * static_cast<double>(rs.solutions) /
                          static_cast<double>(rs.treeNodes)
                    : 0.0,
       "1/knode"},
      {"service.plan_cache.hits", perReq(c1.hits, c0.hits), "1/req"},
      {"service.plan_cache.misses", perReq(c1.misses, c0.misses), "1/req"},
      {"service.plan_cache.rekeys", perReq(c1.rekeys, c0.rekeys), "1/req"},
      {"service.plan_cache.bypasses", perReq(c1.bypasses, c0.bypasses), "1/req"},
      {"service.plan_cache.evictions", perReq(c1.evictions, c0.evictions), "1/req"},
      {"service.plan_cache.hit_ratio",
       hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                     : 0.0,
       "ratio"},
      {"service.model.publish_us", med("service.model.publish") * 1e3, "us"},
      {"service.queue.wait_p50_ms", after.queue.admissionWaitP50Ms, "ms"},
      {"service.queue.wait_p99_ms", after.queue.admissionWaitP99Ms, "ms"},
      {"service.queue.rejected", perReq(after.queue.rejected, before.queue.rejected),
       "1/req"},
      {"service.queue.expired", perReq(after.queue.expired, before.queue.expired),
       "1/req"},
      {"service.frontend_self_ms", frontendSelf.empty() ? 0.0 : median(frontendSelf),
       "ms"},
  };
}

std::string Bench::provenance() const {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::ostringstream o;
  o << "{\"compiler\": " << jsonString(compiler)
    << ", \"compiler_version\": " << jsonString(__VERSION__)
    << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
    << ", \"opt_flags\": " << jsonString(PERFBENCH_OPT_FLAGS)
    << ", \"optimized\": " << (optimized ? "true" : "false")
    << ", \"cpu\": " << jsonString(cpu)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"simd_isa\": "
    << jsonString(netembed::util::simd::isaName(netembed::util::simd::activeIsa()))
    << ", \"seed\": " << args_.seed << "}";
  return o.str();
}

int Bench::run() {
  for (std::size_t rep = 0; rep < spec_.setups; ++rep) setUpOnce(rep);

  const std::size_t clients = spec_.clients;
  clientFloor_.assign(clients, 0);
  std::vector<std::vector<Record>> perClient(clients);
  std::vector<Checks> checks(clients);
  std::vector<SpanLog> logs(clients, SpanLog(args_.trace));
  const Counters before = counters();
  std::barrier start(static_cast<std::ptrdiff_t>(clients + 1));
  std::int64_t startNs = 0;
  {
    std::vector<std::jthread> threads;
    const auto budget = static_cast<std::int64_t>(args_.seconds * 1e9);
    // Clients read the deadline after the barrier, so set it before.
    std::int64_t deadlineNs = nowNs() + budget;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        client(c, start, deadlineNs, perClient[c], checks[c], logs[c]);
      });
    }
    // Re-anchor: thread start-up is not part of the timed phase.
    startNs = nowNs();
    deadlineNs = startNs + budget;
    start.arrive_and_wait();
  }
  const Counters after = counters();

  std::vector<Record> records;
  Checks gate = std::move(setupChecks_);
  for (std::size_t c = 0; c < clients; ++c) {
    std::move(perClient[c].begin(), perClient[c].end(), std::back_inserter(records));
    gate.merge(std::move(checks[c]));
  }
  std::string detail;
  const std::vector<Metric> e2e = endToEnd(records, startNs, detail);

  // Accounting identity: sent = answered + inconclusive + failed + rejected +
  // expired. Anything else (cancelled, preempted) breaks it.
  std::uint64_t answered = 0, inconclusive = 0, failed = 0, rejected = 0, expired = 0;
  for (const Record& r : records) {
    using service::RequestStatus;
    if (r.answered()) ++answered;
    else if (r.status == RequestStatus::Done) ++inconclusive;
    else if (r.status == RequestStatus::Failed) ++failed;
    else if (r.status == RequestStatus::Rejected) ++rejected;
    else if (r.status == RequestStatus::Expired) ++expired;
  }
  const std::uint64_t sent = records.size();
  if (sent != answered + inconclusive + failed + rejected + expired) {
    gate.fail("accounting: sent " + std::to_string(sent) + " != answered " +
              std::to_string(answered) + " + inconclusive " +
              std::to_string(inconclusive) + " + failed " + std::to_string(failed) +
              " + rejected " + std::to_string(rejected) + " + expired " +
              std::to_string(expired));
  }
  if (sent == 0) gate.fail("no request completed in the timed phase");

  std::vector<Metric> layers;
  std::vector<Span> spans;
  if (args_.trace) {
    // Free the service (and its retained plans) before the replay builds its
    // own; the replay mirrors the model from the pristine host.
    sync_.reset();
    async_.reset();
    SpanLog replayLog(true);
    ReplayStats rs;
    replay(records, replayLog, gate, rs);
    spans = std::move(setupLog_.spans());
    spans.insert(spans.end(), replayLog.spans().begin(), replayLog.spans().end());
    for (SpanLog& log : logs) {
      spans.insert(spans.end(), log.spans().begin(), log.spans().end());
    }
    layers = perLayer(records, spans, before, after, rs);
  }

  const std::uint64_t inputHash =
      hashInputs(args_.workload, pristine_, args_.seed, std::min<std::uint64_t>(sent, 64),
                 std::min<std::uint64_t>(batches_, 64));

  std::ofstream out(args_.resultPath);
  const auto emit = [&out](const std::vector<Metric>& metrics) {
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ", " : "") << jsonString(metrics[i].name)
          << ": {\"value\": " << jsonNumber(metrics[i].value)
          << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    out << "}";
  };
  out << "{\"workload\": " << jsonString(workloadName(args_.workload))
      << ", \"seed\": " << args_.seed << ", \"traced\": " << (args_.trace ? "true" : "false")
      << ", \"correct\": " << (gate.violations == 0 ? "true" : "false")
      << ", \"attempted\": " << sent << ", \"failed\": " << (sent - answered)
      << ", \"accounting\": {\"sent\": " << sent << ", \"answered\": " << answered
      << ", \"inconclusive\": " << inconclusive << ", \"failed\": " << failed
      << ", \"rejected\": " << rejected << ", \"expired\": " << expired
      << ", \"mutation_batches\": " << batches_
      << ", \"mappings_verified\": " << gate.mappingsVerified
      << ", \"violations\": " << gate.violations << "}, \"violation_samples\": [";
  for (std::size_t i = 0; i < gate.messages.size(); ++i) {
    out << (i ? ", " : "") << jsonString(gate.messages[i]);
  }
  out << "], \"metrics\": ";
  emit(e2e);
  out << ", \"per_layer\": ";
  emit(layers);
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(inputHash));
  out << ", \"detail\": {" << detail << ", \"input_hash\": \"" << hash
      << "\", \"spans\": " << spans.size() << "}, \"provenance\": " << provenance()
      << "}\n";
  out.close();

  if (args_.trace && !args_.tracePath.empty()) {
    std::ofstream trace(args_.tracePath);
    writeJsonLines(spans, trace);  // once, at exit
  }

  std::cout << workloadName(args_.workload) << " seed " << args_.seed << ": " << sent
            << " requests, " << answered << " answered, " << gate.mappingsVerified
            << " mappings verified, " << gate.violations << " violation(s)\n";
  for (const std::string& m : gate.messages) std::cout << "  VIOLATION " << m << "\n";
  return gate.violations == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <hugehost_pods|planetlab_churn|"
               "brite_enumerate> --seed <n> --seconds <s> --trace <0|1> --result "
               "<file> [--trace-out <file>]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool haveWorkload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        const auto w = parseWorkload(value);
        if (!w) return usage(("unknown workload " + value).c_str());
        args.workload = *w;
        haveWorkload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--result") {
        args.resultPath = value;
      } else if (flag == "--trace-out") {
        args.tracePath = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!haveWorkload || args.resultPath.empty() || args.seconds <= 0) {
    return usage("--workload, --result and a positive --seconds are required");
  }
  try {
    Bench bench(args);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
