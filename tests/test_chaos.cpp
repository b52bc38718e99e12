// Chaos suite: seeded fault schedules across the thread pool, the plan
// builder, the engines and both service front ends. The invariants under
// test are the robustness contract of util/fault.hpp + QoS::retry:
//   * every ticket resolves under every injected fault (no hung futures),
//   * the accounting identity done+rejected+expired+preempted+failed
//     (+cancelled) == submitted extends to injected failures,
//   * retried requests that succeed produce the same solutions a fault-free
//     run produces, delivered exactly once,
//   * degradations (cache bypass, worker loss, inline fallback) keep serving
//     and are counted.
// Every suite name starts with "Chaos" — the CI chaos job and the TSan
// filter select on that prefix, and NETEMBED_CHAOS_SEED widens the seed set.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "service/async.hpp"
#include "service/ticket.hpp"
#include "topo/regular.hpp"
#include "topo/sample.hpp"
#include "trace/planetlab.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using core::Algorithm;
using service::AsyncNetEmbedService;
using service::AsyncServiceOptions;
using service::EmbedRequest;
using service::EmbedResponse;
using service::NetEmbedService;
using service::RequestStatus;
using service::SubmitTicket;
using service::TicketCallbacks;
using graph::Graph;
using util::FaultInjector;
using util::FaultSpec;
using util::InjectedFault;
namespace faultsite = util::faultsite;

constexpr auto kResolveBudget = std::chrono::seconds(60);

/// Every test runs with the injector scoped to its body: disable() on exit
/// clears all armed sites, so no schedule leaks into the next test.
struct FaultGuard {
  explicit FaultGuard(std::uint64_t seed) {
    FaultInjector::instance().enable(seed);
  }
  ~FaultGuard() { FaultInjector::instance().disable(); }
};

Graph chaosHost() {
  trace::PlanetLabOptions o;
  o.sites = 40;
  o.clusters = 5;
  o.deadSites = 0;
  o.pairLossRate = 0.3;
  o.seed = 11;
  Graph host = trace::synthesize(o);
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    host.nodeAttrs(n).set("slots", 64.0);
  }
  return host;
}

EmbedRequest delayRequest(const Graph& host, std::uint64_t seed,
                          std::size_t maxSolutions = 1) {
  util::Rng rng(seed);
  auto sub = topo::sampleConnectedSubgraph(host, 5, 6, rng);
  topo::widenDelayWindows(sub.graph, 0.1);
  EmbedRequest request;
  request.query = std::move(sub.graph);
  request.edgeConstraint = topo::delayWindowConstraint();
  request.options.maxSolutions = maxSolutions;
  return request;
}

EmbedResponse resolve(std::future<EmbedResponse>& future) {
  if (future.wait_for(kResolveBudget) != std::future_status::ready) {
    ADD_FAILURE() << "future did not resolve within the budget";
    std::abort();  // a hung scheduler would otherwise stall the whole suite
  }
  return future.get();
}

EmbedResponse resolve(SubmitTicket& ticket) { return resolve(ticket.future()); }

/// Like resolve(), but for futures expected to carry an exception.
void awaitResolved(std::future<EmbedResponse>& future) {
  if (future.wait_for(kResolveBudget) != std::future_status::ready) {
    ADD_FAILURE() << "future did not resolve within the budget";
    std::abort();
  }
}

// --- the injector itself -----------------------------------------------------

TEST(ChaosFaultInjector, DeterministicSeededDecisions) {
  constexpr const char* kSite = "test.site";
  const auto run = [&](std::uint64_t seed) {
    FaultInjector& fi = FaultInjector::instance();
    fi.enable(seed);
    fi.arm(kSite, FaultSpec{.probability = 0.5});
    std::vector<bool> decisions;
    decisions.reserve(200);
    for (int i = 0; i < 200; ++i) decisions.push_back(fi.shouldFire(kSite));
    return decisions;
  };
  const std::vector<bool> a = run(42);
  const std::vector<bool> b = run(42);
  FaultInjector::instance().disable();
  EXPECT_EQ(a, b) << "same seed must replay the same schedule";
  const std::size_t fires =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 50u);
  EXPECT_LT(fires, 150u);
}

TEST(ChaosFaultInjector, DisabledProbesNeverFireAndUnarmedSitesAreFree) {
  FaultInjector& fi = FaultInjector::instance();
  ASSERT_FALSE(FaultInjector::enabled());
  EXPECT_FALSE(fi.shouldFire("anything"));
  {
    FaultGuard guard(7);
    EXPECT_FALSE(fi.shouldFire("never.armed"));
    fi.arm("armed.site");  // defaults: fire every arrival
    EXPECT_TRUE(fi.shouldFire("armed.site"));
    EXPECT_EQ(fi.fires("armed.site"), 1u);
  }
  EXPECT_FALSE(FaultInjector::enabled());
}

TEST(ChaosFaultInjector, SkipFirstAndMaxFiresShapeTheSchedule) {
  FaultGuard guard(9);
  FaultInjector& fi = FaultInjector::instance();
  fi.arm("shaped", FaultSpec{.skipFirst = 3, .maxFires = 2});
  std::vector<bool> decisions;
  for (int i = 0; i < 8; ++i) decisions.push_back(fi.shouldFire("shaped"));
  const std::vector<bool> expected = {false, false, false, true,
                                      true,  false, false, false};
  EXPECT_EQ(decisions, expected);
  EXPECT_EQ(fi.arrivals("shaped"), 8u);
  EXPECT_EQ(fi.fires("shaped"), 2u);
}

// --- thread pool -------------------------------------------------------------

TEST(ChaosThreadPool, WorkerDeathDrainsQueueAndDegradesToInline) {
  // A PRIVATE pool: killing sharedPool() workers would degrade every later
  // test in this process.
  FaultGuard guard(3);
  FaultInjector::instance().arm(faultsite::kPoolWorkerDeath,
                                FaultSpec{.maxFires = 2});
  util::ThreadPool pool(2);
  ASSERT_EQ(pool.liveWorkerCount(), 2u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 16) << "no queued task may be stranded by worker loss";
  EXPECT_EQ(pool.workerDeaths(), 2u);
  EXPECT_EQ(pool.liveWorkerCount(), 0u);
  // Degraded mode: later submits run inline on the caller and still finish.
  pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 17);
  EXPECT_GE(pool.serialFallbacks(), 1u);
  // parallelFor takes the serial path outright on a dead pool.
  std::atomic<int> visited{0};
  util::parallelFor(pool, 64, [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 64);
}

TEST(ChaosThreadPool, SubmitFailureSurvivesParallelFor) {
  util::ThreadPool pool(2);
  {
    FaultGuard guard(5);
    FaultInjector::instance().arm(faultsite::kPoolSubmit,
                                  FaultSpec{.maxFires = 1});
    std::atomic<int> visited{0};
    EXPECT_THROW(util::parallelFor(
                     pool, 256,
                     [&](std::size_t) {
                       visited.fetch_add(1, std::memory_order_relaxed);
                     },
                     /*grain=*/8),
                 InjectedFault);
  }
  // The pool survives the refused submission: full runs work afterwards.
  std::atomic<int> visited{0};
  util::parallelFor(pool, 256, [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 256);
}

// --- engines -----------------------------------------------------------------

TEST(ChaosEngines, MidSearchCrashFailsCleanlyAcrossAllEngines) {
  const Graph host = topo::ring(12);
  // A 6-node path: long enough that the stochastic engines (Anneal, Genetic)
  // cannot solve it in their seeded initial state before the first
  // shouldStop poll — the probe site every engine shares.
  const Graph query = topo::line(6);
  const expr::ConstraintSet none;
  const core::Problem problem(query, host, none);
  for (const Algorithm algorithm :
       {Algorithm::ECF, Algorithm::RWB, Algorithm::LNS, Algorithm::Naive,
        Algorithm::Anneal, Algorithm::Genetic, Algorithm::Portfolio}) {
    FaultGuard guard(11);
    // Unlimited fires: every shouldStop poll throws, so even the portfolio's
    // independent contenders all die and the race surfaces the error.
    FaultInjector::instance().arm(faultsite::kEngineStep, FaultSpec{});
    core::SearchOptions options;
    options.maxSolutions = 1;
    core::SearchContext context(options);
    EXPECT_THROW((void)core::engineFor(algorithm).run(problem, context),
                 InjectedFault)
        << core::algorithmName(algorithm);
  }
}

TEST(ChaosEngines, ThrowMidSearchResolvesFailedOnBothFrontEnds) {
  const Graph host = chaosHost();
  // Async front end: the future carries the exception, status reads Failed,
  // and onComplete receives the exception_ptr — never a hang.
  {
    AsyncNetEmbedService svc(host);
    FaultGuard guard(13);
    FaultInjector::instance().arm(faultsite::kEngineStep, FaultSpec{});
    std::promise<std::exception_ptr> seen;
    auto seenFuture = seen.get_future();
    TicketCallbacks callbacks;
    callbacks.onComplete = [&seen](const EmbedResponse& response,
                                   std::exception_ptr error) {
      EXPECT_EQ(response.status, RequestStatus::Failed);
      seen.set_value(error);
    };
    SubmitTicket ticket =
        svc.submit(delayRequest(host, 21), std::move(callbacks));
    awaitResolved(ticket.future());
    EXPECT_EQ(ticket.status(), RequestStatus::Failed);
    EXPECT_THROW((void)ticket.future().get(), InjectedFault);
    ASSERT_EQ(seenFuture.wait_for(kResolveBudget), std::future_status::ready);
    const std::exception_ptr error = seenFuture.get();
    ASSERT_TRUE(error) << "onComplete must receive the exception_ptr";
    EXPECT_THROW(std::rethrow_exception(error), InjectedFault);
    EXPECT_NE(ticket.errorMessage().find("injected fault"), std::string::npos);
  }
  // Sync ticketed front end: same contract.
  {
    NetEmbedService svc(host);
    FaultGuard guard(13);
    FaultInjector::instance().arm(faultsite::kEngineStep, FaultSpec{});
    std::promise<std::exception_ptr> seen;
    auto seenFuture = seen.get_future();
    TicketCallbacks callbacks;
    callbacks.onComplete = [&seen](const EmbedResponse&,
                                   std::exception_ptr error) {
      seen.set_value(error);
    };
    SubmitTicket ticket =
        svc.submitTicketed(delayRequest(host, 21), std::move(callbacks));
    awaitResolved(ticket.future());
    EXPECT_EQ(ticket.status(), RequestStatus::Failed);
    EXPECT_THROW((void)ticket.future().get(), InjectedFault);
    ASSERT_EQ(seenFuture.wait_for(kResolveBudget), std::future_status::ready);
    const std::exception_ptr error = seenFuture.get();
    ASSERT_TRUE(error);
    EXPECT_THROW(std::rethrow_exception(error), InjectedFault);
  }
}

// --- graceful degradation ----------------------------------------------------

TEST(ChaosService, PlanBuildFaultDegradesToCacheBypass) {
  const Graph host = chaosHost();
  NetEmbedService svc(host);
  EmbedRequest request = delayRequest(host, 31, /*maxSolutions=*/2);
  request.algorithm = Algorithm::ECF;  // plan-using engine, cache engaged
  const std::uint64_t before = service::detail::cacheBypassFallbacks();
  FaultGuard guard(17);
  FaultInjector::instance().arm(faultsite::kPlanBuild,
                                FaultSpec{.maxFires = 1});
  const EmbedResponse response = svc.submit(request);
  EXPECT_EQ(response.status, RequestStatus::Done);
  EXPECT_EQ(service::detail::cacheBypassFallbacks(), before + 1);
  EXPECT_NE(response.diagnostics.find("plan cache bypassed"),
            std::string::npos);
}

TEST(ChaosPlan, SpuriousCancelRetriesViaBypassWithIdenticalMappings) {
  const Graph host = chaosHost();
  EmbedRequest request = delayRequest(host, 33, /*maxSolutions=*/2);
  request.algorithm = Algorithm::ECF;
  NetEmbedService svc(host);
  const EmbedResponse clean = svc.submit(request);
  ASSERT_EQ(clean.status, RequestStatus::Done);

  NetEmbedService faulted(host);
  const std::uint64_t before = service::detail::cacheBypassFallbacks();
  FaultGuard guard(19);
  // The cancellation predicate lies exactly once: the build aborts with
  // FilterBuildCancelled although nothing requested a stop. The engine
  // detects the lie, rethrows, and the service serves the request through
  // the cache-bypass rung — with the same answer.
  FaultInjector::instance().arm(faultsite::kPlanCancel,
                                FaultSpec{.maxFires = 1});
  const EmbedResponse response = faulted.submit(request);
  EXPECT_EQ(response.status, RequestStatus::Done);
  EXPECT_EQ(service::detail::cacheBypassFallbacks(), before + 1);
  EXPECT_EQ(response.result.solutionCount, clean.result.solutionCount);
  EXPECT_EQ(response.result.mappings, clean.result.mappings);
}

TEST(ChaosScheduler, DequeueLatencySpikeDelaysDispatchOnly) {
  const Graph host = chaosHost();
  AsyncServiceOptions options;
  options.workers = 1;
  AsyncNetEmbedService svc(host, options);
  FaultGuard guard(23);
  FaultInjector::instance().arm(
      faultsite::kQosDequeue,
      FaultSpec{.maxFires = 1, .delay = std::chrono::milliseconds(30),
                .throws = false});
  const auto started = std::chrono::steady_clock::now();
  auto future = svc.submit(delayRequest(host, 41)).takeFuture();
  const EmbedResponse response = resolve(future);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(response.status, RequestStatus::Done);
  EXPECT_GE(elapsed, std::chrono::milliseconds(30));
}

// --- retrying tickets --------------------------------------------------------

TEST(ChaosTicket, SyncTicketRetriesTransientFaultWithBackoff) {
  const Graph host = chaosHost();
  NetEmbedService svc(host);
  EmbedRequest request = delayRequest(host, 51);
  request.qos.retry.maxAttempts = 3;
  request.qos.retry.baseBackoff = std::chrono::milliseconds(1);
  FaultGuard guard(29);
  // Exactly one mid-search crash: attempt 1 dies, attempt 2 completes.
  FaultInjector::instance().arm(faultsite::kEngineStep,
                                FaultSpec{.skipFirst = 20, .maxFires = 1});
  SubmitTicket ticket = svc.submitTicketed(request, {});
  const EmbedResponse response = resolve(ticket);
  EXPECT_EQ(response.status, RequestStatus::Done);
  EXPECT_EQ(response.attempts, 2u);
  EXPECT_EQ(ticket.attempts(), 2u);
}

TEST(ChaosTicket, SyncTicketCancelDuringBackoffResolvesCancelled) {
  const Graph host = chaosHost();
  NetEmbedService svc(host);
  EmbedRequest request = delayRequest(host, 53);
  request.qos.retry.maxAttempts = 3;
  request.qos.retry.baseBackoff = std::chrono::seconds(2);
  FaultGuard guard(31);
  // Every attempt crashes, so the ticket parks in its 2 s backoff.
  FaultInjector::instance().arm(faultsite::kEngineStep, FaultSpec{});
  SubmitTicket ticket = svc.submitTicketed(request, {});
  const auto deadline = std::chrono::steady_clock::now() + kResolveBudget;
  while (ticket.status() != RequestStatus::Retrying &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ticket.status(), RequestStatus::Retrying);
  const auto cancelledAt = std::chrono::steady_clock::now();
  EXPECT_TRUE(ticket.cancel());
  const EmbedResponse response = resolve(ticket);
  const auto waited = std::chrono::steady_clock::now() - cancelledAt;
  EXPECT_EQ(response.status, RequestStatus::Cancelled);
  EXPECT_EQ(ticket.attempts(), 1u) << "the cancel must preempt attempt 2";
  EXPECT_LT(waited, std::chrono::seconds(1))
      << "the cancel must cut the backoff short, not wait it out";
}

TEST(ChaosAsyncService, RetriedResultsMatchFaultFree) {
  const Graph host = chaosHost();
  EmbedRequest request = delayRequest(host, 53, /*maxSolutions=*/3);
  request.algorithm = Algorithm::ECF;  // deterministic enumeration order
  request.options.storeLimit = 8;

  EmbedResponse clean;
  std::vector<core::Mapping> cleanStream;
  {
    AsyncNetEmbedService svc(host);
    TicketCallbacks callbacks;
    callbacks.onSolution = [&cleanStream](const core::Mapping& m) {
      cleanStream.push_back(m);
      return true;
    };
    SubmitTicket ticket = svc.submit(request, std::move(callbacks));
    clean = resolve(ticket);
    ASSERT_EQ(clean.status, RequestStatus::Done);
    ASSERT_EQ(clean.attempts, 1u);
  }

  AsyncNetEmbedService svc(host);
  std::vector<core::Mapping> faultedStream;
  std::mutex streamMutex;
  EmbedRequest retried = request;
  retried.qos.retry.maxAttempts = 3;
  retried.qos.retry.baseBackoff = std::chrono::milliseconds(1);
  FaultGuard guard(31);
  FaultInjector::instance().arm(faultsite::kEngineStep,
                                FaultSpec{.skipFirst = 40, .maxFires = 1});
  TicketCallbacks callbacks;
  callbacks.onSolution = [&](const core::Mapping& m) {
    std::lock_guard lock(streamMutex);
    faultedStream.push_back(m);
    return true;
  };
  SubmitTicket ticket = svc.submit(retried, std::move(callbacks));
  const EmbedResponse response = resolve(ticket);
  EXPECT_EQ(response.status, RequestStatus::Done);
  EXPECT_GE(response.attempts, 2u) << "the schedule must have forced a retry";
  // The acceptance bar: a retried success is indistinguishable from a
  // fault-free one — same solutions, each streamed exactly once.
  EXPECT_EQ(response.result.solutionCount, clean.result.solutionCount);
  EXPECT_EQ(response.result.mappings, clean.result.mappings);
  EXPECT_EQ(faultedStream, cleanStream);
  EXPECT_EQ(svc.controlStats().transientRetries, 1u);
}

TEST(ChaosAsyncService, RetryExhaustionFailsWithStoredError) {
  const Graph host = chaosHost();
  AsyncNetEmbedService svc(host);
  EmbedRequest request = delayRequest(host, 55);
  request.qos.retry.maxAttempts = 2;
  request.qos.retry.baseBackoff = std::chrono::milliseconds(1);
  FaultGuard guard(37);
  FaultInjector::instance().arm(faultsite::kEngineStep, FaultSpec{});
  std::promise<EmbedResponse> placeholderPromise;
  auto placeholderFuture = placeholderPromise.get_future();
  TicketCallbacks callbacks;
  callbacks.onComplete = [&placeholderPromise](const EmbedResponse& response,
                                               std::exception_ptr) {
    placeholderPromise.set_value(response);
  };
  SubmitTicket ticket = svc.submit(request, std::move(callbacks));
  awaitResolved(ticket.future());
  EXPECT_EQ(ticket.status(), RequestStatus::Failed);
  EXPECT_EQ(ticket.attempts(), 2u);
  EXPECT_NE(ticket.errorMessage().find("injected fault"), std::string::npos);
  EXPECT_THROW((void)ticket.future().get(), InjectedFault);
  // The onComplete placeholder attributes the failure: model version and
  // attempt count instead of a zeroed response.
  ASSERT_EQ(placeholderFuture.wait_for(kResolveBudget),
            std::future_status::ready);
  const EmbedResponse placeholder = placeholderFuture.get();
  EXPECT_EQ(placeholder.status, RequestStatus::Failed);
  EXPECT_EQ(placeholder.modelVersion, svc.version());
  EXPECT_EQ(placeholder.attempts, 2u);
}

TEST(ChaosAsyncService, RetryBudgetBoundsAlwaysFailingLowClass) {
  const Graph host = chaosHost();
  AsyncServiceOptions options;
  options.workers = 1;
  options.control.retryBudgetPerClass = 1;
  AsyncNetEmbedService svc(host, options);
  FaultGuard guard(41);
  FaultInjector::instance().arm(faultsite::kEngineStep, FaultSpec{});
  const auto lowRetrying = [&](std::uint64_t seed) {
    EmbedRequest request = delayRequest(host, seed);
    request.qos.priority = service::Priority::Low;
    request.qos.retry.maxAttempts = 3;
    request.qos.retry.baseBackoff = std::chrono::milliseconds(1);
    return request;
  };
  SubmitTicket first = svc.submit(lowRetrying(61), {});
  SubmitTicket second = svc.submit(lowRetrying(62), {});
  awaitResolved(first.future());
  awaitResolved(second.future());
  EXPECT_EQ(first.status(), RequestStatus::Failed);
  EXPECT_EQ(second.status(), RequestStatus::Failed);
  // One of the two held the single retry slot and exhausted its attempts;
  // the other was abandoned at its first retry — but still resolved with
  // the real error, not a hang or a bland rejection.
  const std::uint32_t a = first.attempts();
  const std::uint32_t b = second.attempts();
  EXPECT_EQ(std::max(a, b), 3u);
  EXPECT_EQ(std::min(a, b), 1u);
  EXPECT_EQ(svc.controlStats().retriesAbandoned, 1u);
  EXPECT_THROW((void)first.future().get(), InjectedFault);
  EXPECT_THROW((void)second.future().get(), InjectedFault);
}

TEST(ChaosAsyncService, ShutdownSettlesRetryBacklog) {
  const Graph host = chaosHost();
  auto svc = std::make_unique<AsyncNetEmbedService>(host);
  FaultGuard guard(43);
  FaultInjector::instance().arm(faultsite::kEngineStep, FaultSpec{});
  EmbedRequest request = delayRequest(host, 63);
  request.qos.retry.maxAttempts = 5;
  // A long backoff parks the request on the retry timer where the scheduler
  // cannot see it; shutdown must settle it, not strand its future.
  request.qos.retry.baseBackoff = std::chrono::seconds(5);
  request.qos.retry.maxBackoff = std::chrono::seconds(5);
  SubmitTicket ticket = svc->submit(request, {});
  const auto deadline = std::chrono::steady_clock::now() + kResolveBudget;
  while (ticket.status() != RequestStatus::Retrying &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ticket.status(), RequestStatus::Retrying);
  svc->shutdown(AsyncNetEmbedService::ShutdownMode::CancelPending);
  awaitResolved(ticket.future());
  EXPECT_EQ(ticket.status(), RequestStatus::Cancelled);
  svc.reset();
}

// --- the accounting identity under mixed schedules ---------------------------

TEST(ChaosAsyncService, AccountingIdentityHoldsUnderMixedFaultSchedules) {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("NETEMBED_CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }
  const Graph host = chaosHost();
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    AsyncServiceOptions options;
    options.workers = 2;
    options.queueCapacity = 4;
    options.overloadPolicy = util::OverloadPolicy::Reject;
    options.control.retryBudgetPerClass = 2;
    AsyncNetEmbedService svc(host, options);
    FaultGuard guard(seed);
    FaultInjector& fi = FaultInjector::instance();
    // A mixed probabilistic schedule over every seam a request crosses.
    // kPoolWorkerDeath stays unarmed: killing sharedPool() workers would
    // outlive this test.
    fi.arm(faultsite::kEngineStep, FaultSpec{.probability = 0.002});
    fi.arm(faultsite::kPlanBuild, FaultSpec{.probability = 0.3});
    fi.arm(faultsite::kPlanCancel, FaultSpec{.probability = 0.001});
    fi.arm(faultsite::kQosDequeue,
           FaultSpec{.probability = 0.2,
                     .delay = std::chrono::milliseconds(2)});

    constexpr std::size_t kSubmitted = 24;
    std::vector<SubmitTicket> tickets;
    tickets.reserve(kSubmitted);
    for (std::size_t i = 0; i < kSubmitted; ++i) {
      EmbedRequest request = delayRequest(host, 100 + i);
      request.qos.priority = static_cast<service::Priority>(i % 3);
      request.qos.tenant = i % 4;
      request.qos.retry.maxAttempts = 2;
      request.qos.retry.baseBackoff = std::chrono::milliseconds(1);
      request.qos.computeBudget = std::chrono::milliseconds(500);
      if (i % 5 == 0) {
        request.qos.admissionDeadline = std::chrono::milliseconds(250);
      }
      tickets.push_back(svc.submit(std::move(request), {}));
    }
    std::size_t done = 0, rejected = 0, expired = 0, preempted = 0,
                failed = 0, cancelled = 0;
    for (SubmitTicket& ticket : tickets) {
      awaitResolved(ticket.future());  // no hung futures, ever
      switch (ticket.status()) {
        case RequestStatus::Done: ++done; break;
        case RequestStatus::Rejected: ++rejected; break;
        case RequestStatus::Expired: ++expired; break;
        case RequestStatus::Preempted: ++preempted; break;
        case RequestStatus::Failed: ++failed; break;
        case RequestStatus::Cancelled: ++cancelled; break;
        default:
          ADD_FAILURE() << "non-terminal status "
                        << service::requestStatusName(ticket.status());
      }
    }
    EXPECT_EQ(done + rejected + expired + preempted + failed + cancelled,
              kSubmitted)
        << "the accounting identity must extend to injected failures";
    svc.drain();
  }
}

}  // namespace
