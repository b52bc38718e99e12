// micro_async_batch — plan-cache amortization for batched submission, plus a
// QoS saturation scenario.
//
// A batch of same-signature first-match queries against one model version
// needs exactly one stage-1 FilterMatrix build; everything after the first
// request rides the shared plan. Three variants over the same batch:
//
//   serial_nocache  N x NetEmbedService::submit with the plan cache disabled
//                   (the pre-PR behavior: one build per query)
//   serial_cached   N x submit with the cache on (1 build, same thread)
//   async_batch     N x AsyncNetEmbedService::submit (1 build, and the
//                   post-build searches overlap across scheduler workers)
//
// The build counter (core::filterPlanBuilds) verifies the sharing; the bench
// exits non-zero when a cached batch performs more than one build, so CI can
// smoke-run it as an acceptance check.
//
// The saturation scenario then drives the ticket API into overload: a
// bounded admission queue (capacity << batch) under ShedLowestPriority with
// mixed priority classes and two tenants. It reports per-submit admission
// latency and the shed/completed split, and exits non-zero if any ticket
// fails to resolve or the drop accounting does not add up — the smoke check
// the Release CI job runs.

#include "common.hpp"

#include "core/plan.hpp"
#include "service/async.hpp"
#include "service/service.hpp"
#include "service/ticket.hpp"
#include "util/timer.hpp"

#include <climits>
#include <future>

using namespace netembed;
using namespace netembed::bench;

namespace {

struct Run {
  double totalMs = 0.0;
  std::uint64_t planBuilds = 0;
  std::uint64_t feasible = 0;
};

service::EmbedRequest batchRequest(const graph::Graph& host, std::size_t queryNodes,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  service::EmbedRequest request;
  request.query = sampledDelayQuery(host, queryNodes, queryNodes * 2, 0.02, rng);
  request.edgeConstraint = topo::delayWindowConstraint();
  request.options.maxSolutions = 1;
  request.options.storeLimit = 1;
  // Pin a plan-using engine: the batch measures plan sharing, not the
  // chooser. (ECF and RWB share plans; LNS never builds one.)
  request.algorithm = core::Algorithm::ECF;
  return request;
}

template <class Submit>
Run timedBatch(std::size_t batchSize, const Submit& submit) {
  Run run;
  const std::uint64_t buildsBefore = core::filterPlanBuilds();
  util::Stopwatch clock;
  run.feasible = submit(batchSize);
  run.totalMs = clock.elapsedMs();
  run.planBuilds = core::filterPlanBuilds() - buildsBefore;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args, 3, 5000);
  const auto batchSize =
      static_cast<std::size_t>(args.getInt("batch", cfg.paper ? 32 : 8));

  const std::vector<std::size_t> hostSizes =
      cfg.paper ? std::vector<std::size_t>{600, 1500} : std::vector<std::size_t>{400};

  util::TablePrinter table({"host N", "query N", "batch", "serial nocache (ms)",
                            "serial cached (ms)", "async batch (ms)",
                            "builds nocache/cached/async", "speedup"});
  std::vector<std::vector<std::string>> csvRows;
  bool sharingHeld = true;

  for (const std::size_t hostSize : hostSizes) {
    topo::BriteOptions bo;
    bo.nodes = hostSize;
    bo.m = 2;
    bo.seed = util::deriveSeed(cfg.seed, hostSize);
    const graph::Graph host = topo::brite(bo);
    const std::size_t queryNodes = hostSize / 3;

    util::RunningStats noCacheMs, cachedMs, asyncMs;
    std::uint64_t noCacheBuilds = 0, cachedBuilds = 0, asyncBuilds = 0;

    for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
      const service::EmbedRequest request =
          batchRequest(host, queryNodes, util::deriveSeed(cfg.seed, rep + 1));

      const Run noCache = timedBatch(batchSize, [&](std::size_t n) {
        service::NetEmbedService svc(host, /*planCacheCapacity=*/0);
        std::uint64_t feasible = 0;
        for (std::size_t i = 0; i < n; ++i) {
          feasible += svc.submit(request).result.feasible() ? 1 : 0;
        }
        return feasible;
      });

      const Run cached = timedBatch(batchSize, [&](std::size_t n) {
        service::NetEmbedService svc(host);
        std::uint64_t feasible = 0;
        for (std::size_t i = 0; i < n; ++i) {
          feasible += svc.submit(request).result.feasible() ? 1 : 0;
        }
        return feasible;
      });

      const Run async = timedBatch(batchSize, [&](std::size_t n) {
        service::AsyncNetEmbedService svc{graph::Graph(host)};
        std::vector<std::future<service::EmbedResponse>> futures;
        futures.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          futures.push_back(svc.submit(request).takeFuture());
        }
        std::uint64_t feasible = 0;
        for (auto& future : futures) {
          feasible += future.get().result.feasible() ? 1 : 0;
        }
        return feasible;
      });

      noCacheMs.add(noCache.totalMs);
      cachedMs.add(cached.totalMs);
      asyncMs.add(async.totalMs);
      noCacheBuilds = noCache.planBuilds;
      cachedBuilds = cached.planBuilds;
      asyncBuilds = async.planBuilds;
      if (cached.planBuilds != 1 || async.planBuilds != 1) sharingHeld = false;
      if (noCache.feasible != batchSize || cached.feasible != batchSize ||
          async.feasible != batchSize) {
        std::cout << "WARNING: not every batch query was feasible\n";
      }
    }

    const double speedup =
        asyncMs.mean() > 0.0 ? noCacheMs.mean() / asyncMs.mean() : 0.0;
    const std::string builds = std::to_string(noCacheBuilds) + "/" +
                               std::to_string(cachedBuilds) + "/" +
                               std::to_string(asyncBuilds);
    table.addRow({std::to_string(hostSize), std::to_string(queryNodes),
                  std::to_string(batchSize), meanCi(noCacheMs), meanCi(cachedMs),
                  meanCi(asyncMs), builds, util::formatFixed(speedup, 2) + "x"});
    csvRows.push_back({std::to_string(hostSize), std::to_string(queryNodes),
                       std::to_string(batchSize),
                       util::CsvWriter::field(noCacheMs.mean()),
                       util::CsvWriter::field(cachedMs.mean()),
                       util::CsvWriter::field(asyncMs.mean()),
                       std::to_string(noCacheBuilds), std::to_string(cachedBuilds),
                       std::to_string(asyncBuilds)});
  }

  emit("micro: batched submission with a shared FilterMatrix plan cache", table,
       csvRows,
       {"host_n", "query_n", "batch", "serial_nocache_ms", "serial_cached_ms",
        "async_batch_ms", "builds_nocache", "builds_cached", "builds_async"},
       cfg.csv);

  // --- saturation: queue at capacity, mixed priorities, shed accounting ----
  const auto satBatch =
      static_cast<std::size_t>(args.getInt("sat-batch", cfg.paper ? 64 : 24));
  const std::size_t satCapacity = 4;
  bool saturationHeld = true;
  {
    topo::BriteOptions bo;
    bo.nodes = 300;
    bo.m = 2;
    bo.seed = util::deriveSeed(cfg.seed, 777);
    const graph::Graph host = topo::brite(bo);
    const service::EmbedRequest base =
        batchRequest(host, 100, util::deriveSeed(cfg.seed, 778));

    service::AsyncServiceOptions options;
    options.workers = 2;
    options.queueCapacity = satCapacity;
    options.overloadPolicy = util::OverloadPolicy::ShedLowestPriority;
    service::AsyncNetEmbedService svc{graph::Graph(host), options};
    svc.setTenantWeight(1, 3.0);
    svc.setTenantWeight(2, 1.0);

    util::RunningStats admitMs;
    double admitMaxMs = 0.0;
    std::vector<service::SubmitTicket> tickets;
    tickets.reserve(satBatch);
    constexpr service::Priority kPriorities[] = {
        service::Priority::Low, service::Priority::Normal, service::Priority::High};
    for (std::size_t i = 0; i < satBatch; ++i) {
      service::EmbedRequest request = base;
      request.qos.priority = kPriorities[i % 3];
      request.qos.tenant = 1 + i % 2;
      util::Stopwatch admitClock;
      tickets.push_back(svc.submit(std::move(request)));
      const double ms = admitClock.elapsedMs();
      admitMs.add(ms);
      admitMaxMs = std::max(admitMaxMs, ms);
    }
    svc.drain();

    std::size_t done = 0, refused = 0, preempted = 0, other = 0;
    for (service::SubmitTicket& ticket : tickets) {
      auto& future = ticket.future();
      if (future.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
        saturationHeld = false;  // a ticket that never resolves is the bug
        ++other;
        continue;
      }
      switch (future.get().status) {
        case service::RequestStatus::Done: ++done; break;
        case service::RequestStatus::Rejected: ++refused; break;
        case service::RequestStatus::Preempted: ++preempted; break;
        default: ++other; break;
      }
    }
    const auto queueStats = svc.queueStats();
    if (done + refused != satBatch || other != 0) saturationHeld = false;
    // Preemption is off in this scenario; the status must not appear.
    if (preempted != 0) saturationHeld = false;
    if (queueStats.shed != refused) saturationHeld = false;
    // Queue-wait percentiles come from the scheduler's reservoir: every
    // admitted job that reached a worker must have been sampled, and under
    // saturation the p99 wait dominates the submit-side admit latency.
    if (queueStats.admissionWaitSamples != done) saturationHeld = false;
    if (queueStats.admissionWaitP99Ms < queueStats.admissionWaitP50Ms) {
      saturationHeld = false;
    }
    // The per-class breakdown must tile the totals: every completion and
    // every wait sample belongs to exactly one priority class.
    std::uint64_t classCompleted = 0, classWaits = 0;
    int lastPriority = INT_MIN;
    for (const auto& cls : queueStats.classes) {
      classCompleted += cls.completed;
      classWaits += cls.waitSamples;
      if (cls.priority <= lastPriority) saturationHeld = false;  // ascending
      lastPriority = cls.priority;
      if (cls.completed > 0 && cls.serviceEwmaMs <= 0.0) saturationHeld = false;
    }
    if (classCompleted != queueStats.completed) saturationHeld = false;
    if (classWaits != queueStats.admissionWaitSamples) saturationHeld = false;

    util::TablePrinter satTable({"batch", "capacity", "done", "shed",
                                 "admit mean (ms)", "admit max (ms)",
                                 "wait p50 (ms)", "wait p99 (ms)"});
    satTable.addRow({std::to_string(satBatch), std::to_string(satCapacity),
                     std::to_string(done), std::to_string(refused),
                     util::formatFixed(admitMs.mean(), 3),
                     util::formatFixed(admitMaxMs, 3),
                     util::formatFixed(queueStats.admissionWaitP50Ms, 3),
                     util::formatFixed(queueStats.admissionWaitP99Ms, 3)});
    emit("micro: QoS saturation (bounded queue, mixed priorities, shed policy)",
         satTable,
         {{std::to_string(satBatch), std::to_string(satCapacity),
           std::to_string(done), std::to_string(refused),
           util::CsvWriter::field(admitMs.mean()),
           util::CsvWriter::field(admitMaxMs),
           util::CsvWriter::field(queueStats.admissionWaitP50Ms),
           util::CsvWriter::field(queueStats.admissionWaitP99Ms)}},
         {"sat_batch", "queue_capacity", "done", "shed", "admit_mean_ms",
          "admit_max_ms", "wait_p50_ms", "wait_p99_ms"},
         cfg.csv);
  }

  if (!sharingHeld) {
    std::cout << "FAIL: a cached batch performed more than one stage-1 build\n";
    return 1;
  }
  if (!saturationHeld) {
    std::cout << "FAIL: saturation scenario lost a request (done + shed != "
                 "batch, or a ticket never resolved)\n";
    return 1;
  }
  std::cout << "OK: every cached batch shared exactly one stage-1 plan build; "
               "saturation resolved every ticket (done + shed == batch)\n";
  return 0;
}
