// The asynchronous batched front end: futures and callbacks resolve, queued
// requests share stage-1 plans per model version, version bumps invalidate
// the cache, and concurrent submitters survive a mutating reservation thread.
// Plus the request-lifecycle API v2: SubmitTicket status/cancel, streaming
// onSolution, QoS admission (priorities, deadlines, budgets, overload
// policies) and the two shutdown modes.

#include "service/async.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/verify.hpp"
#include "topo/regular.hpp"
#include "topo/sample.hpp"
#include "trace/planetlab.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;
using core::Algorithm;
using service::AsyncNetEmbedService;
using service::AsyncServiceOptions;
using service::EmbedRequest;
using service::EmbedResponse;
using service::NetworkModel;
using service::RequestStatus;
using service::SubmitTicket;
using service::TicketCallbacks;
using graph::Graph;

constexpr auto kResolveBudget = std::chrono::seconds(60);

Graph asyncHost() {
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

/// Topology-only enumeration with a huge solution space: a 3-node path into
/// the PlanetLab mesh — ideal for observing streaming/cancellation mid-run.
EmbedRequest pathRequest(std::size_t maxSolutions, std::size_t storeLimit = 8) {
  EmbedRequest request;
  request.query = topo::line(3);
  request.algorithm = Algorithm::ECF;  // serial, deterministic, streams in order
  request.options.maxSolutions = maxSolutions;
  request.options.storeLimit = storeLimit;
  return request;
}

/// A streaming sink that parks the worker inside the FIRST onSolution call
/// until release() — the staging primitive for deterministic mid-search
/// cancellation: while parked, the request is provably mid-enumeration.
struct StreamGate {
  std::promise<void> firstPromise;
  std::shared_future<void> first = firstPromise.get_future().share();
  std::promise<void> releasePromise;
  std::shared_future<void> release = releasePromise.get_future().share();
  std::atomic<bool> armed{true};

  core::SolutionSink sink() {
    return [this](const core::Mapping&) {
      if (armed.exchange(false)) {
        firstPromise.set_value();
        release.wait();
      }
      return true;
    };
  }

  void waitFirst() {
    ASSERT_EQ(first.wait_for(kResolveBudget), std::future_status::ready)
        << "no solution streamed";
  }
  void open() { releasePromise.set_value(); }
};

TEST(AsyncService, FutureResolvesWithFeasibleMapping) {
  AsyncNetEmbedService svc(asyncHost());
  EmbedRequest request = delayRequest(*svc.hostSnapshot(), 1);
  auto future = svc.submit(request).takeFuture();
  const EmbedResponse response = resolve(future);
  ASSERT_TRUE(response.result.feasible());
  EXPECT_EQ(response.modelVersion, svc.version());

  const auto constraints =
      expr::ConstraintSet::edgeOnly(topo::delayWindowConstraint());
  const core::Problem problem(request.query, *svc.hostSnapshot(), constraints);
  EXPECT_TRUE(core::verifyMapping(problem, response.result.mappings.front()).ok);
}

TEST(AsyncService, BatchOfIdenticalQueriesBuildsExactlyOnePlan) {
  AsyncServiceOptions options;
  options.workers = 2;
  AsyncNetEmbedService svc(asyncHost(), options);
  EmbedRequest request = delayRequest(*svc.hostSnapshot(), 2);
  request.algorithm = Algorithm::ECF;  // a plan-using engine, deterministically

  const std::uint64_t buildsBefore = core::filterPlanBuilds();
  std::vector<std::future<EmbedResponse>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(svc.submit(request).takeFuture());
  for (auto& future : futures) {
    const EmbedResponse response = resolve(future);
    EXPECT_TRUE(response.result.feasible());
    EXPECT_EQ(response.algorithmUsed, Algorithm::ECF);
  }
  EXPECT_EQ(core::filterPlanBuilds() - buildsBefore, 1u)
      << "a same-signature batch must share one stage-1 build";

  const auto stats = svc.planCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

TEST(AsyncService, VersionBumpRekeysCachedPlansInsteadOfInvalidating) {
  AsyncNetEmbedService svc(asyncHost());
  EmbedRequest request = delayRequest(*svc.hostSnapshot(), 3);
  request.algorithm = Algorithm::ECF;

  const std::uint64_t builds0 = core::filterPlanBuilds();
  const std::uint64_t patches0 = core::filterPlanPatches();
  auto f1 = svc.submit(request).takeFuture();
  const EmbedResponse r1 = resolve(f1);
  ASSERT_TRUE(r1.result.feasible());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u);

  // Same signature again at the same version: pure cache hit, no build.
  auto f2 = svc.submit(request).takeFuture();
  (void)resolve(f2);
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u);

  // A reservation bumps the model version, but it only touches "slots" —
  // which the delay constraint never reads. The delta proves the cached plan
  // untouched, so the post-bump query reuses it: no rebuild, no patch.
  EmbedRequest reserveReq = request;
  NetworkModel::ReservationSpec spec;
  spec.nodeCapacityAttrs = {"slots"};
  for (graph::NodeId n = 0; n < reserveReq.query.nodeCount(); ++n) {
    reserveReq.query.nodeAttrs(n).set("slots", 1.0);
  }
  const auto id = svc.reserve(reserveReq.query, r1.result.mappings.front(), spec);
  EXPECT_GT(svc.version(), r1.modelVersion);

  auto f3 = svc.submit(request).takeFuture();
  const EmbedResponse r3 = resolve(f3);
  EXPECT_EQ(r3.modelVersion, svc.version());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u)
      << "an irrelevant delta must not force a rebuild";
  EXPECT_EQ(core::filterPlanPatches() - patches0, 0u);
  EXPECT_EQ(svc.planCacheStats().invalidations, 0u);
  EXPECT_GE(svc.planCacheStats().rekeys, 1u);

  // A constraint-relevant mutation (one link's delay floor) is patched —
  // still no from-scratch rebuild.
  const auto host = svc.hostSnapshot();
  const double floorDelay = host->edgeAttrs(0).getDouble("minDelay", 5.0);
  svc.setEdgeMetric(host->edgeSource(0), host->edgeTarget(0), "minDelay",
                    floorDelay * 1.01);
  auto f4 = svc.submit(request).takeFuture();
  const EmbedResponse r4 = resolve(f4);
  EXPECT_EQ(r4.modelVersion, svc.version());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u);
  EXPECT_EQ(core::filterPlanPatches() - patches0, 1u)
      << "a relevant single-edge delta must patch, not rebuild";
  svc.release(id);
}

TEST(AsyncService, CallbackOverloadDeliversResponse) {
  AsyncNetEmbedService svc(asyncHost());
  std::promise<EmbedResponse> delivered;
  TicketCallbacks callbacks;
  callbacks.onComplete = [&](const EmbedResponse& response,
                             std::exception_ptr error) {
    EXPECT_FALSE(error);
    delivered.set_value(response);
  };
  (void)svc.submit(delayRequest(*svc.hostSnapshot(), 4), std::move(callbacks));
  auto future = delivered.get_future();
  const EmbedResponse response = resolve(future);
  EXPECT_TRUE(response.result.feasible());
  EXPECT_EQ(response.modelVersion, svc.version());
}

TEST(AsyncService, CallbackOverloadDeliversErrors) {
  AsyncNetEmbedService svc(asyncHost());
  EmbedRequest bad = delayRequest(*svc.hostSnapshot(), 5);
  bad.edgeConstraint = "vEdge..broken";
  std::promise<std::exception_ptr> delivered;
  TicketCallbacks callbacks;
  callbacks.onComplete = [&](const EmbedResponse&, std::exception_ptr error) {
    delivered.set_value(error);
  };
  (void)svc.submit(std::move(bad), std::move(callbacks));
  const std::exception_ptr error = delivered.get_future().get();
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), expr::SyntaxError);
}

TEST(AsyncService, SyntaxErrorPropagatesThroughFuture) {
  AsyncNetEmbedService svc(asyncHost());
  EmbedRequest bad = delayRequest(*svc.hostSnapshot(), 6);
  bad.edgeConstraint = "vEdge..broken";
  auto future = svc.submit(std::move(bad)).takeFuture();
  EXPECT_THROW((void)future.get(), expr::SyntaxError);
}

TEST(AsyncService, QueuedRequestsDoNotEscalateToPortfolio) {
  // The scheduler runs one engine per queued request; only an explicit
  // Algorithm::Portfolio request may race (regardless of core count).
  AsyncNetEmbedService svc(asyncHost());
  EmbedRequest request = delayRequest(*svc.hostSnapshot(), 7);
  ASSERT_FALSE(request.algorithm.has_value());
  ASSERT_EQ(request.options.maxSolutions, 1u);
  auto future = svc.submit(request).takeFuture();
  const EmbedResponse response = resolve(future);
  EXPECT_TRUE(response.result.feasible());
  EXPECT_EQ(response.diagnostics.find("portfolio"), std::string::npos)
      << response.diagnostics;

  request.algorithm = Algorithm::Portfolio;
  auto raced = svc.submit(request).takeFuture();
  const EmbedResponse racedResponse = resolve(raced);
  EXPECT_TRUE(racedResponse.result.feasible());
  EXPECT_NE(racedResponse.diagnostics.find("portfolio"), std::string::npos)
      << racedResponse.diagnostics;
}

TEST(AsyncService, DrainResolvesEverythingAccepted) {
  AsyncServiceOptions options;
  options.workers = 2;
  AsyncNetEmbedService svc(asyncHost(), options);
  std::vector<std::future<EmbedResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(svc.submit(delayRequest(*svc.hostSnapshot(), 20 + i)).takeFuture());
  }
  svc.drain();
  EXPECT_EQ(svc.pendingRequests(), 0u);
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(future.get().result.feasible());
  }
}

TEST(AsyncService, DestructorDrainsInFlightRequests) {
  std::vector<std::future<EmbedResponse>> futures;
  {
    AsyncNetEmbedService svc(asyncHost());
    for (int i = 0; i < 6; ++i) {
      futures.push_back(svc.submit(delayRequest(*svc.hostSnapshot(), 40 + i)).takeFuture());
    }
  }  // ~AsyncNetEmbedService drains the queue
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(future.get().result.feasible());
  }
}

// The archetype stress test: N submitter threads race mixed first-match and
// enumeration queries while a reservation thread bumps the model version.
// Every future must resolve, every response must carry a version that
// existed, and no feasible mapping may violate its constraints (reservations
// only touch "slots", which the delay constraint never reads, so mappings
// verify against any snapshot).
TEST(AsyncService, StressConcurrentSubmittersAndReservations) {
  constexpr int kSubmitters = 3;
  constexpr int kQueriesPerThread = 8;
  constexpr int kReservationRounds = 4;

  AsyncServiceOptions options;
  options.workers = 3;
  options.planCacheCapacity = 8;
  AsyncNetEmbedService svc(asyncHost(), options);
  const std::uint64_t v0 = svc.version();

  std::atomic<std::uint64_t> reservationsMade{0};
  std::thread reserver([&] {
    NetworkModel::ReservationSpec spec;
    spec.nodeCapacityAttrs = {"slots"};
    for (int round = 0; round < kReservationRounds; ++round) {
      EmbedRequest request = delayRequest(*svc.hostSnapshot(), 100 + round);
      for (graph::NodeId n = 0; n < request.query.nodeCount(); ++n) {
        request.query.nodeAttrs(n).set("slots", 1.0);
      }
      auto future = svc.submit(request).takeFuture();
      const EmbedResponse response = resolve(future);
      if (!response.result.feasible()) continue;
      try {
        const auto id =
            svc.reserve(request.query, response.result.mappings.front(), spec);
        reservationsMade.fetch_add(1, std::memory_order_relaxed);
        svc.release(id);  // another version bump
      } catch (const std::exception&) {
        // Capacity raced away — legal under concurrency, not a failure.
      }
    }
  });

  std::vector<std::thread> submitters;
  std::atomic<int> resolved{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::pair<EmbedRequest, std::future<EmbedResponse>>> inflight;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Mix first-match and bounded enumeration signatures; reuse a few
        // seeds across threads so the plan cache sees concurrent sharers.
        EmbedRequest request = delayRequest(
            *svc.hostSnapshot(), 200 + (t * kQueriesPerThread + i) % 5,
            i % 2 == 0 ? 1 : 4);
        auto future = svc.submit(request).takeFuture();
        inflight.emplace_back(std::move(request), std::move(future));
      }
      for (auto& [request, future] : inflight) {
        const EmbedResponse response = resolve(future);
        resolved.fetch_add(1, std::memory_order_relaxed);
        if (response.modelVersion < v0) failures.fetch_add(1);
        if (response.result.feasible()) {
          const auto constraints =
              expr::ConstraintSet::edgeOnly(topo::delayWindowConstraint());
          const auto host = svc.hostSnapshot();
          const core::Problem problem(request.query, *host, constraints);
          for (const core::Mapping& m : response.result.mappings) {
            if (!core::verifyMapping(problem, m).ok) failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  reserver.join();

  EXPECT_EQ(resolved.load(), kSubmitters * kQueriesPerThread);
  EXPECT_EQ(failures.load(), 0);
  const std::uint64_t finalVersion = svc.version();
  EXPECT_GE(finalVersion, v0 + 2 * reservationsMade.load());
  // Post-drain sanity: a fresh query runs against the final version.
  auto future = svc.submit(delayRequest(*svc.hostSnapshot(), 300)).takeFuture();
  EXPECT_EQ(resolve(future).modelVersion, finalVersion);
}

// Delta-path stress: monitoring mutators rewrite constraint-relevant link
// metrics and irrelevant node attrs while submitters race same-signature
// queries, so cached plans are concurrently re-keyed, patched, reused and
// (for raced unready builders) dropped. Every future must resolve, versions
// must be monotonic, and after the feed quiesces the patched plan chain must
// agree byte-for-byte with a from-scratch service over the final host.
TEST(AsyncService, StressMutateWhileQueryKeepsPatchedPlansExact) {
  constexpr int kSubmitters = 3;
  constexpr int kQueriesPerThread = 6;
  constexpr int kMutationsPerThread = 24;

  AsyncServiceOptions options;
  options.workers = 3;
  options.planCacheCapacity = 8;
  AsyncNetEmbedService svc(asyncHost(), options);
  const std::uint64_t v0 = svc.version();

  std::atomic<bool> stopMutating{false};
  std::vector<std::thread> mutators;
  for (int m = 0; m < 2; ++m) {
    mutators.emplace_back([&, m] {
      util::Rng rng(500 + m);
      const auto pristine = svc.hostSnapshot();
      for (int i = 0; i < kMutationsPerThread && !stopMutating.load(); ++i) {
        if (i % 3 == 2) {
          // Irrelevant to the delay constraint: exercises pure reuse.
          svc.setNodeAttr(static_cast<graph::NodeId>(rng.index(pristine->nodeCount())),
                          "load", rng.uniform(0.0, 1.0));
        } else {
          const auto e =
              static_cast<graph::EdgeId>(rng.index(pristine->edgeCount()));
          const double delay =
              pristine->edgeAttrs(e).getDouble("minDelay", 5.0);
          svc.setEdgeMetric(pristine->edgeSource(e), pristine->edgeTarget(e),
                            "minDelay",
                            delay * (rng.bernoulli(0.5) ? 1.02 : 0.98));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<std::thread> submitters;
  std::atomic<int> resolved{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // A few shared seeds: concurrent same-signature queries hit the same
        // (possibly patch-pending) builder.
        EmbedRequest request =
            delayRequest(*svc.hostSnapshot(), 400 + (t + i) % 3, 2);
        request.algorithm = Algorithm::ECF;
        auto future = svc.submit(std::move(request)).takeFuture();
        const EmbedResponse response = resolve(future);
        resolved.fetch_add(1, std::memory_order_relaxed);
        if (response.status != RequestStatus::Done) failures.fetch_add(1);
        if (response.modelVersion < v0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  stopMutating.store(true);
  for (std::thread& thread : mutators) thread.join();
  EXPECT_EQ(resolved.load(), kSubmitters * kQueriesPerThread);
  EXPECT_EQ(failures.load(), 0);

  // Quiesced ground truth: the (re-keyed, possibly patch-chained) cache must
  // answer exactly like a fresh service over the final host.
  EmbedRequest finalRequest = delayRequest(*svc.hostSnapshot(), 401, 0);
  finalRequest.algorithm = Algorithm::ECF;
  finalRequest.options.storeLimit = 10000;
  auto cachedFuture = svc.submit(finalRequest).takeFuture();
  const EmbedResponse viaCache = resolve(cachedFuture);
  service::NetEmbedService fresh{
      service::NetworkModel(graph::Graph(*svc.hostSnapshot()))};
  const EmbedResponse viaFresh = fresh.submit(finalRequest);
  EXPECT_EQ(viaCache.result.solutionCount, viaFresh.result.solutionCount);
  EXPECT_EQ(viaCache.result.mappings, viaFresh.result.mappings);
}

// --- request lifecycle v2: tickets, streaming, QoS admission -----------------

// The acceptance scenario: solutions stream out while the enumeration is
// still running, the ticket cancel stops the engine mid-search, and the
// cancelled run provably expanded fewer tree nodes than the uncancelled one.
TEST(AsyncService, TicketStreamsThenCancelStopsEngineEarly) {
  constexpr std::size_t kMax = 2000;
  const Graph host = asyncHost();

  // Uncancelled reference over the same host/request.
  service::NetEmbedService reference{NetworkModel(Graph(host))};
  const EmbedResponse full = reference.submit(pathRequest(kMax));
  ASSERT_EQ(full.result.solutionCount, kMax)
      << "the instance must be rich enough to observe a mid-run cancel";
  const std::uint64_t fullVisits = full.result.stats.treeNodesVisited;

  AsyncServiceOptions options;
  options.workers = 1;
  AsyncNetEmbedService svc(Graph(host), options);
  StreamGate gate;
  SubmitTicket ticket = svc.submit(pathRequest(kMax), {gate.sink(), {}});
  gate.waitFirst();  // >= 1 onSolution fired, enumeration still in flight
  EXPECT_EQ(ticket.status(), RequestStatus::Running);
  EXPECT_TRUE(ticket.cancel());
  gate.open();

  const EmbedResponse cancelled = resolve(ticket);
  EXPECT_EQ(cancelled.status, RequestStatus::Cancelled);
  EXPECT_EQ(ticket.status(), RequestStatus::Cancelled);
  EXPECT_GE(ticket.solutionsStreamed(), 1u);
  EXPECT_GE(cancelled.result.solutionCount, 1u);
  EXPECT_LT(cancelled.result.solutionCount, kMax)
      << "cancel must truncate the enumeration";
  EXPECT_LT(cancelled.result.stats.treeNodesVisited, fullVisits)
      << "the engine must stop expanding nodes once cancelled";
  EXPECT_NE(cancelled.result.outcome, core::Outcome::Complete);
}

// Differential: the ticket API returns byte-identical results to the legacy
// submit path for the same seed/options — deterministic ECF enumeration and
// a seeded RWB walk.
TEST(AsyncService, TicketResultsMatchLegacySubmitByteForByte) {
  const Graph host = asyncHost();
  service::NetEmbedService sync{NetworkModel(Graph(host))};
  AsyncNetEmbedService svc{Graph(host)};

  EmbedRequest ecf = pathRequest(/*maxSolutions=*/32, /*storeLimit=*/32);
  const EmbedResponse viaLegacy = sync.submit(ecf);
  SubmitTicket ecfTicket = svc.submit(ecf);
  const EmbedResponse viaTicket = resolve(ecfTicket);
  EXPECT_EQ(viaTicket.status, RequestStatus::Done);
  EXPECT_EQ(viaTicket.algorithmUsed, viaLegacy.algorithmUsed);
  EXPECT_EQ(viaTicket.result.outcome, viaLegacy.result.outcome);
  EXPECT_EQ(viaTicket.result.solutionCount, viaLegacy.result.solutionCount);
  EXPECT_EQ(viaTicket.result.mappings, viaLegacy.result.mappings);
  EXPECT_EQ(ecfTicket.solutionsStreamed(), viaLegacy.result.solutionCount);

  EmbedRequest rwb = delayRequest(host, /*seed=*/12, /*maxSolutions=*/4);
  rwb.algorithm = Algorithm::RWB;
  rwb.options.storeLimit = 4;
  rwb.options.seed = 77;
  const EmbedResponse rwbLegacy = sync.submit(rwb);
  SubmitTicket rwbTicket = svc.submit(rwb);
  const EmbedResponse rwbViaTicket = resolve(rwbTicket);
  EXPECT_EQ(rwbViaTicket.result.solutionCount, rwbLegacy.result.solutionCount);
  EXPECT_EQ(rwbViaTicket.result.mappings, rwbLegacy.result.mappings);
}

// Regression (the leaked-promise fix): cancelling a queued-but-not-started
// request must resolve its future with a Cancelled status immediately.
TEST(AsyncService, CancelQueuedRequestResolvesFutureWithCancelledStatus) {
  AsyncServiceOptions options;
  options.workers = 1;
  AsyncNetEmbedService svc(asyncHost(), options);

  StreamGate gate;
  SubmitTicket runner = svc.submit(pathRequest(/*maxSolutions=*/5), {gate.sink(), {}});
  gate.waitFirst();  // the single worker is provably busy

  SubmitTicket queued = svc.submit(delayRequest(*svc.hostSnapshot(), 61));
  EXPECT_EQ(queued.status(), RequestStatus::Queued);
  EXPECT_TRUE(queued.cancel());
  ASSERT_EQ(queued.future().wait_for(kResolveBudget), std::future_status::ready)
      << "a cancelled queued request must not leak a never-satisfied promise";
  const EmbedResponse response = queued.future().get();
  EXPECT_EQ(response.status, RequestStatus::Cancelled);
  EXPECT_EQ(response.result.solutionCount, 0u);
  EXPECT_EQ(queued.status(), RequestStatus::Cancelled);
  EXPECT_FALSE(queued.cancel()) << "cancel on a resolved ticket reports false";

  gate.open();
  EXPECT_EQ(resolve(runner).status, RequestStatus::Done);
}

// Explicit shutdown mode (vs the always-drain destructor of old): queued
// requests resolve Cancelled without running; the running one is stopped
// cooperatively and resolves with its partial result.
TEST(AsyncService, ShutdownCancelPendingResolvesQueuedAndRunning) {
  AsyncServiceOptions options;
  options.workers = 1;
  options.shutdownMode = AsyncNetEmbedService::ShutdownMode::CancelPending;
  AsyncNetEmbedService svc(asyncHost(), options);

  StreamGate gate;
  SubmitTicket runner = svc.submit(pathRequest(/*maxSolutions=*/2000), {gate.sink(), {}});
  gate.waitFirst();
  SubmitTicket queuedA = svc.submit(delayRequest(*svc.hostSnapshot(), 62));
  SubmitTicket queuedB = svc.submit(delayRequest(*svc.hostSnapshot(), 63));

  std::thread shutdownThread(
      [&] { svc.shutdown(AsyncNetEmbedService::ShutdownMode::CancelPending); });
  // Queued futures resolve during shutdown, before the worker join (the
  // runner is still parked in its sink at this point).
  EXPECT_EQ(resolve(queuedA).status, RequestStatus::Cancelled);
  EXPECT_EQ(resolve(queuedB).status, RequestStatus::Cancelled);
  gate.open();
  shutdownThread.join();

  const EmbedResponse partial = resolve(runner);
  EXPECT_EQ(partial.status, RequestStatus::Cancelled);
  EXPECT_GE(partial.result.solutionCount, 1u);

  // Post-shutdown submissions resolve Rejected instead of hanging.
  SubmitTicket late = svc.submit(delayRequest(*svc.hostSnapshot(), 64));
  EXPECT_EQ(resolve(late).status, RequestStatus::Rejected);
}

TEST(AsyncService, HighPriorityDequeuesBeforeLowUnderSaturation) {
  AsyncServiceOptions options;
  options.workers = 1;
  AsyncNetEmbedService svc(asyncHost(), options);

  StreamGate gate;
  SubmitTicket runner = svc.submit(pathRequest(/*maxSolutions=*/3), {gate.sink(), {}});
  gate.waitFirst();

  std::mutex orderMutex;
  std::vector<char> order;
  const auto record = [&](char label) {
    TicketCallbacks cb;
    cb.onComplete = [&, label](const EmbedResponse&, std::exception_ptr) {
      std::lock_guard lock(orderMutex);
      order.push_back(label);
    };
    return cb;
  };
  EmbedRequest low = delayRequest(*svc.hostSnapshot(), 65);
  low.qos.priority = service::Priority::Low;
  EmbedRequest high = delayRequest(*svc.hostSnapshot(), 66);
  high.qos.priority = service::Priority::High;
  SubmitTicket lowTicket = svc.submit(std::move(low), record('L'));
  SubmitTicket highTicket = svc.submit(std::move(high), record('H'));

  gate.open();
  svc.drain();
  EXPECT_EQ(resolve(lowTicket).status, RequestStatus::Done);
  EXPECT_EQ(resolve(highTicket).status, RequestStatus::Done);
  std::lock_guard lock(orderMutex);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'H') << "the High request must jump the Low one";
  EXPECT_EQ(order[1], 'L');
}

TEST(AsyncService, AdmissionDeadlineExpiresQueuedRequest) {
  AsyncServiceOptions options;
  options.workers = 1;
  AsyncNetEmbedService svc(asyncHost(), options);

  StreamGate gate;
  SubmitTicket runner = svc.submit(pathRequest(/*maxSolutions=*/3), {gate.sink(), {}});
  gate.waitFirst();

  EmbedRequest hurried = delayRequest(*svc.hostSnapshot(), 67);
  hurried.qos.admissionDeadline = std::chrono::milliseconds(5);
  SubmitTicket ticket = svc.submit(std::move(hurried));
  // Hold the worker well past the deadline, then let it dequeue.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.open();

  const EmbedResponse response = resolve(ticket);
  EXPECT_EQ(response.status, RequestStatus::Expired);
  EXPECT_EQ(ticket.solutionsStreamed(), 0u);
  EXPECT_EQ(svc.queueStats().expired, 1u);
  EXPECT_EQ(resolve(runner).status, RequestStatus::Done);
}

// The QoS compute budget (here its deterministic visit form) bounds how much
// work a request may burn, stopping the engine mid-search.
TEST(AsyncService, QosVisitBudgetBoundsSearchWork) {
  AsyncNetEmbedService svc(asyncHost());

  EmbedRequest unbounded = pathRequest(/*maxSolutions=*/100000, /*storeLimit=*/4);
  auto fullFuture = svc.submit(unbounded).takeFuture();
  const EmbedResponse full = resolve(fullFuture);
  ASSERT_GT(full.result.stats.treeNodesVisited, 1000u);

  EmbedRequest capped = pathRequest(/*maxSolutions=*/100000, /*storeLimit=*/4);
  capped.qos.visitBudget = 100;
  SubmitTicket ticket = svc.submit(std::move(capped));
  const EmbedResponse budgeted = resolve(ticket);
  EXPECT_EQ(budgeted.status, RequestStatus::Done);
  EXPECT_NE(budgeted.result.outcome, core::Outcome::Complete);
  EXPECT_LE(budgeted.result.stats.treeNodesVisited, 101u)
      << "the visit budget must stop the engine at the next poll";
  EXPECT_LT(budgeted.result.solutionCount, full.result.solutionCount);
}

TEST(AsyncService, RejectPolicyResolvesOverflowTicketRejected) {
  AsyncServiceOptions options;
  options.workers = 1;
  options.queueCapacity = 1;
  options.overloadPolicy = util::OverloadPolicy::Reject;
  AsyncNetEmbedService svc(asyncHost(), options);

  StreamGate gate;
  SubmitTicket runner = svc.submit(pathRequest(/*maxSolutions=*/3), {gate.sink(), {}});
  gate.waitFirst();
  SubmitTicket queued = svc.submit(delayRequest(*svc.hostSnapshot(), 68));
  SubmitTicket overflow = svc.submit(delayRequest(*svc.hostSnapshot(), 69));

  // The refusal is synchronous: the ticket comes back already resolved.
  EXPECT_EQ(overflow.status(), RequestStatus::Rejected);
  EXPECT_EQ(resolve(overflow).status, RequestStatus::Rejected);
  EXPECT_EQ(svc.queueStats().rejected, 1u);

  gate.open();
  EXPECT_EQ(resolve(queued).status, RequestStatus::Done);
  EXPECT_EQ(resolve(runner).status, RequestStatus::Done);
}

TEST(AsyncService, ShedLowestPriorityDisplacesQueuedLowForHigh) {
  AsyncServiceOptions options;
  options.workers = 1;
  options.queueCapacity = 1;
  options.overloadPolicy = util::OverloadPolicy::ShedLowestPriority;
  AsyncNetEmbedService svc(asyncHost(), options);

  StreamGate gate;
  SubmitTicket runner = svc.submit(pathRequest(/*maxSolutions=*/3), {gate.sink(), {}});
  gate.waitFirst();

  EmbedRequest low = delayRequest(*svc.hostSnapshot(), 70);
  low.qos.priority = service::Priority::Low;
  SubmitTicket lowTicket = svc.submit(std::move(low));
  EXPECT_EQ(lowTicket.status(), RequestStatus::Queued);

  EmbedRequest high = delayRequest(*svc.hostSnapshot(), 71);
  high.qos.priority = service::Priority::High;
  SubmitTicket highTicket = svc.submit(std::move(high));

  // The queued Low request was shed to make room; its future resolves now.
  EXPECT_EQ(resolve(lowTicket).status, RequestStatus::Rejected);
  EXPECT_EQ(svc.queueStats().shed, 1u);

  gate.open();
  EXPECT_EQ(resolve(highTicket).status, RequestStatus::Done);
  EXPECT_EQ(resolve(runner).status, RequestStatus::Done);
}

// --- the synchronous service's ticket form -----------------------------------

TEST(TicketApi, SyncServiceTicketStreamsAndCancels) {
  service::NetEmbedService svc(asyncHost());
  StreamGate gate;
  SubmitTicket ticket = svc.submitTicketed(pathRequest(/*maxSolutions=*/2000),
                                           {gate.sink(), {}});
  gate.waitFirst();
  EXPECT_TRUE(ticket.cancel());
  gate.open();
  const EmbedResponse response = resolve(ticket);
  EXPECT_EQ(response.status, RequestStatus::Cancelled);
  EXPECT_GE(ticket.solutionsStreamed(), 1u);
  EXPECT_LT(response.result.solutionCount, 2000u);
}

TEST(TicketApi, SyncServiceTicketMatchesLegacySubmit) {
  service::NetEmbedService svc(asyncHost());
  const EmbedRequest request = pathRequest(/*maxSolutions=*/16, /*storeLimit=*/16);
  const EmbedResponse legacy = svc.submit(request);
  SubmitTicket ticket = svc.submitTicketed(request, {});
  const EmbedResponse viaTicket = resolve(ticket);
  EXPECT_EQ(viaTicket.status, RequestStatus::Done);
  EXPECT_EQ(viaTicket.result.solutionCount, legacy.result.solutionCount);
  EXPECT_EQ(viaTicket.result.mappings, legacy.result.mappings);
  EXPECT_EQ(viaTicket.result.outcome, legacy.result.outcome);
}

TEST(TicketApi, DroppingUnconsumedTicketCancelsAndJoins) {
  service::NetEmbedService svc(asyncHost());
  {
    SubmitTicket ticket =
        svc.submitTicketed(pathRequest(/*maxSolutions=*/0), {});
    (void)ticket;
  }  // ~SubmitTicket requests stop and joins the runner — must not hang
  SUCCEED();
}

// --- the self-tuning control plane -------------------------------------------

TEST(ControlPlane, NonPositiveAdmissionDeadlineExpiresImmediately) {
  AsyncServiceOptions options;
  options.workers = 1;
  AsyncNetEmbedService svc(asyncHost(), options);

  // A caller that computed its remaining slack and landed on zero (or past
  // it) asked for "no wait at all" — it must not degrade to "wait forever".
  EmbedRequest zero = pathRequest(/*maxSolutions=*/1);
  zero.qos.admissionDeadline = std::chrono::milliseconds(0);
  SubmitTicket zeroTicket = svc.submit(zero);
  EXPECT_EQ(resolve(zeroTicket).status, RequestStatus::Expired);

  EmbedRequest negative = pathRequest(/*maxSolutions=*/1);
  negative.qos.admissionDeadline = std::chrono::milliseconds(-50);
  SubmitTicket negativeTicket = svc.submit(negative);
  EXPECT_EQ(resolve(negativeTicket).status, RequestStatus::Expired);

  // The default-constructed QoS (nullopt) still means "no deadline".
  SubmitTicket unbounded = svc.submit(pathRequest(/*maxSolutions=*/1));
  const EmbedResponse response = resolve(unbounded);
  EXPECT_EQ(response.status, RequestStatus::Done);
  EXPECT_EQ(response.result.solutionCount, 1u);

  svc.drain();  // the completed counter lands after the future resolves
  const auto stats = svc.queueStats();
  EXPECT_EQ(stats.expired, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ControlPlane, SlackPropagationTightensComputeBudget) {
  // The same gated request twice: without slack propagation it enumerates to
  // completion after the gate opens; with it, the admission slack became the
  // compute budget at dispatch, so by the time the gate opens (well past the
  // deadline) the engine stops at its next poll with a partial result.
  const auto runOnce = [](bool propagateSlack) {
    AsyncServiceOptions options;
    options.workers = 1;
    options.control.propagateSlack = propagateSlack;
    AsyncNetEmbedService svc(asyncHost(), options);

    EmbedRequest request = pathRequest(/*maxSolutions=*/0, /*storeLimit=*/4);
    request.qos.admissionDeadline = std::chrono::milliseconds(250);
    StreamGate gate;
    SubmitTicket ticket = svc.submit(std::move(request), {gate.sink(), {}});
    gate.waitFirst();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    gate.open();
    return resolve(ticket);
  };

  const EmbedResponse unbounded = runOnce(/*propagateSlack=*/false);
  EXPECT_EQ(unbounded.status, RequestStatus::Done);
  EXPECT_EQ(unbounded.result.outcome, core::Outcome::Complete);

  const EmbedResponse budgeted = runOnce(/*propagateSlack=*/true);
  EXPECT_EQ(budgeted.status, RequestStatus::Done);
  EXPECT_NE(budgeted.result.outcome, core::Outcome::Complete)
      << "the slack-derived budget must stop the gated enumeration";
  EXPECT_GE(budgeted.result.solutionCount, 1u);
}

TEST(ControlPlane, HighPreemptsLongestRunningLow) {
  AsyncServiceOptions options;
  options.workers = 1;
  options.control.preemptLowForHigh = true;
  AsyncNetEmbedService svc(asyncHost(), options);

  EmbedRequest low = pathRequest(/*maxSolutions=*/0);
  low.qos.priority = service::Priority::Low;
  StreamGate gate;
  SubmitTicket lowTicket = svc.submit(std::move(low), {gate.sink(), {}});
  gate.waitFirst();  // the only worker is provably mid-enumeration

  EmbedRequest high = pathRequest(/*maxSolutions=*/1);
  high.qos.priority = service::Priority::High;
  SubmitTicket highTicket = svc.submit(std::move(high));
  // The preemption chain fires synchronously inside submit.
  EXPECT_EQ(svc.controlStats().preemptionsFired, 1u);

  gate.open();
  const EmbedResponse lowResponse = resolve(lowTicket);
  EXPECT_EQ(lowResponse.status, RequestStatus::Preempted);
  EXPECT_GE(lowResponse.result.solutionCount, 1u)
      << "a preempted request keeps its partial result";
  EXPECT_NE(lowResponse.result.outcome, core::Outcome::Complete);

  const EmbedResponse highResponse = resolve(highTicket);
  EXPECT_EQ(highResponse.status, RequestStatus::Done);
  EXPECT_EQ(highResponse.result.solutionCount, 1u);
}

TEST(ControlPlane, PreemptedRequestRequeuesAndCompletes) {
  AsyncServiceOptions options;
  options.workers = 1;
  options.control.preemptLowForHigh = true;
  options.control.requeuePreempted = true;
  AsyncNetEmbedService svc(asyncHost(), options);

  EmbedRequest low = pathRequest(/*maxSolutions=*/8);
  low.qos.priority = service::Priority::Low;
  StreamGate gate;  // arms once: the re-run streams straight through
  SubmitTicket lowTicket = svc.submit(std::move(low), {gate.sink(), {}});
  gate.waitFirst();

  EmbedRequest high = pathRequest(/*maxSolutions=*/1);
  high.qos.priority = service::Priority::High;
  SubmitTicket highTicket = svc.submit(std::move(high));
  EXPECT_EQ(svc.controlStats().preemptionsFired, 1u);

  gate.open();
  EXPECT_EQ(resolve(highTicket).status, RequestStatus::Done);
  // The preempted Low request went back through admission (behind the High
  // work) instead of resolving, and its fresh attempt ran to completion.
  const EmbedResponse lowResponse = resolve(lowTicket);
  EXPECT_EQ(lowResponse.status, RequestStatus::Done);
  EXPECT_EQ(lowResponse.result.solutionCount, 8u)
      << "the fresh attempt must reach its full max-solutions quota";
  EXPECT_EQ(svc.controlStats().preemptRequeues, 1u);
}

TEST(ControlPlane, StressMixedLoadResolvesEveryTicket) {
  // TSan target: every control-plane feature on at once under a mutating
  // model. The assertion is accountability — every ticket reaches a terminal
  // status, nothing throws, nothing hangs.
  AsyncServiceOptions options;
  options.workers = 2;
  options.queueCapacity = 8;
  options.overloadPolicy = util::OverloadPolicy::ShedLowestPriority;
  options.control.queue.adaptiveCapacity = true;
  options.control.queue.targetQueueDelay = std::chrono::milliseconds(100);
  options.control.queue.lowPriorityShedWatermark = 0.75;
  options.control.propagateSlack = true;
  options.control.preemptLowForHigh = true;
  options.control.requeuePreempted = true;
  AsyncNetEmbedService svc(asyncHost(), options);
  svc.setTenantWeight(1, 3.0);
  svc.setTenantWeight(2, 1.0);

  const auto host = svc.hostSnapshot();
  std::vector<SubmitTicket> tickets;
  for (int i = 0; i < 48; ++i) {
    EmbedRequest request = pathRequest(/*maxSolutions=*/4);
    request.qos.priority = static_cast<service::Priority>(i % 3);
    request.qos.tenant = static_cast<std::uint64_t>(i % 3);
    if (i % 4 == 0)
      request.qos.admissionDeadline = std::chrono::milliseconds(250);
    if (i % 5 == 0) request.qos.computeBudget = std::chrono::milliseconds(50);
    tickets.push_back(svc.submit(std::move(request)));
    if (i % 8 == 0)
      svc.setEdgeMetric(host->edgeSource(0), host->edgeTarget(0), "minDelay",
                        1.0 + static_cast<double>(i));
  }

  for (auto& ticket : tickets) {
    const EmbedResponse response = resolve(ticket);
    EXPECT_NE(response.status, RequestStatus::Queued);
    EXPECT_NE(response.status, RequestStatus::Running);
    EXPECT_NE(response.status, RequestStatus::Failed);
  }
  svc.drain();
  const auto stats = svc.queueStats();
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.effectiveCapacity, 0u);
}

/// Host for the reservation-path pins: large enough that a 5-node
/// reservation's incident-edge share sits well under the patch-vs-rebuild
/// cutoff (classifyDelta rebuilds past 1/4 of the host's edges).
Graph reservationHost() {
  trace::PlanetLabOptions o;
  o.sites = 80;
  o.clusters = 8;
  o.deadSites = 0;
  o.pairLossRate = 0.3;
  o.seed = 13;
  Graph host = trace::synthesize(o);
  for (graph::NodeId n = 0; n < host.nodeCount(); ++n) {
    host.nodeAttrs(n).set("slots", 64.0);
  }
  return host;
}

/// A query whose node constraint reads the reservation capacity attr, so
/// every reserve/release delta is constraint-relevant.
EmbedRequest slotsRequest(const Graph& host, std::uint64_t seed, double demand,
                          std::size_t maxSolutions = 1) {
  EmbedRequest request = delayRequest(host, seed, maxSolutions);
  request.nodeConstraint = "rNode.slots >= vNode.slots";
  for (graph::NodeId n = 0; n < request.query.nodeCount(); ++n) {
    request.query.nodeAttrs(n).set("slots", demand);
  }
  return request;
}

// The dynamic-workload pin (PR 9): a reserve/release round trip records
// attribute-only deltas on the mapped nodes, and because the node constraint
// reads the capacity attr, same-signature queries across the two version
// bumps take the FilterPlan::patch path — never a from-scratch rebuild,
// never a cache invalidation. This is the seam the sim::Driver's live
// reservations lean on.
TEST(AsyncService, ReserveReleaseRoundTripPatchesPlans) {
  AsyncNetEmbedService svc(reservationHost());
  EmbedRequest request = slotsRequest(*svc.hostSnapshot(), 8, 1.0);
  request.algorithm = Algorithm::ECF;

  const std::uint64_t builds0 = core::filterPlanBuilds();
  const std::uint64_t patches0 = core::filterPlanPatches();
  auto f1 = svc.submit(request).takeFuture();
  const EmbedResponse r1 = resolve(f1);
  ASSERT_TRUE(r1.result.feasible());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u);

  NetworkModel::ReservationSpec spec;
  spec.nodeCapacityAttrs = {"slots"};
  const auto id = svc.reserve(request.query, r1.result.mappings.front(), spec);
  EXPECT_GT(svc.version(), r1.modelVersion);

  auto f2 = svc.submit(request).takeFuture();
  const EmbedResponse r2 = resolve(f2);
  ASSERT_TRUE(r2.result.feasible());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u)
      << "an attribute-only reservation delta must not force a rebuild";
  EXPECT_EQ(core::filterPlanPatches() - patches0, 1u)
      << "a constraint-relevant reservation delta must take the patch path";
  EXPECT_EQ(svc.planCacheStats().invalidations, 0u);

  // The release is the inverse attribute-only delta: patched again.
  svc.release(id);
  auto f3 = svc.submit(request).takeFuture();
  const EmbedResponse r3 = resolve(f3);
  ASSERT_TRUE(r3.result.feasible());
  EXPECT_EQ(core::filterPlanBuilds() - builds0, 1u);
  EXPECT_EQ(core::filterPlanPatches() - patches0, 2u)
      << "the release delta must patch as well";
  EXPECT_EQ(svc.planCacheStats().invalidations, 0u);
}

// Concurrent reserve/release cycles racing in-flight *ticketed* queries —
// the churn pattern the sim driver's wall-clock mode produces. Every ticket
// must stream and resolve Done with a feasible mapping (the churner's
// reservations leave ample slots headroom), and the reservation ledger must
// balance so post-join capacity equals the pristine host's.
TEST(AsyncService, ConcurrentReserveReleaseRacesTicketedQueries) {
  constexpr int kTickets = 12;
  constexpr int kReserveRounds = 6;

  AsyncServiceOptions options;
  options.workers = 3;
  AsyncNetEmbedService svc(reservationHost());
  const std::uint64_t v0 = svc.version();

  std::atomic<std::uint64_t> roundTrips{0};
  std::thread churner([&] {
    NetworkModel::ReservationSpec spec;
    spec.nodeCapacityAttrs = {"slots"};
    for (int round = 0; round < kReserveRounds; ++round) {
      EmbedRequest request = slotsRequest(*svc.hostSnapshot(), 500 + round, 2.0);
      auto future = svc.submit(request).takeFuture();
      const EmbedResponse response = resolve(future);
      if (!response.result.feasible()) continue;
      try {
        const auto id =
            svc.reserve(request.query, response.result.mappings.front(), spec);
        roundTrips.fetch_add(1, std::memory_order_relaxed);
        svc.release(id);
      } catch (const std::exception&) {
        // Capacity raced away under a concurrent reservation — legal.
      }
    }
  });

  std::vector<SubmitTicket> tickets;
  std::atomic<std::uint64_t> streamed{0};
  for (int i = 0; i < kTickets; ++i) {
    EmbedRequest request =
        slotsRequest(*svc.hostSnapshot(), 600 + i, 1.0, i % 2 == 0 ? 1 : 3);
    TicketCallbacks callbacks;
    callbacks.onSolution = [&streamed](const core::Mapping&) {
      streamed.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
    tickets.push_back(svc.submit(std::move(request), std::move(callbacks)));
  }
  for (SubmitTicket& ticket : tickets) {
    const EmbedResponse response = resolve(ticket);
    EXPECT_EQ(response.status, RequestStatus::Done);
    EXPECT_TRUE(response.result.feasible());
    EXPECT_GE(response.modelVersion, v0);
  }
  churner.join();

  EXPECT_GE(streamed.load(), static_cast<std::uint64_t>(kTickets));
  EXPECT_GT(roundTrips.load(), 0u);
  // Each round trip is two version bumps; the ledger balanced, so the final
  // host snapshot carries pristine capacity everywhere.
  EXPECT_GE(svc.version(), v0 + 2 * roundTrips.load());
  const auto host = svc.hostSnapshot();
  for (graph::NodeId n = 0; n < host->nodeCount(); ++n) {
    ASSERT_DOUBLE_EQ(host->nodeAttrs(n).getDouble("slots", -1.0), 64.0);
  }
}

}  // namespace
