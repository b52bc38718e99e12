#pragma once
// The asynchronous, QoS-scheduled NETEMBED front end.
//
// The paper frames NETEMBED as a *service* (§III, Fig. 1): many applications
// query one shared model of the real network concurrently. This class is the
// queued counterpart of NetEmbedService::submit, rebuilt around an explicit
// request lifecycle: submissions pass a bounded util::QosScheduler admission
// queue (priority classes, per-tenant weighted fair dequeue, admission
// deadlines, pluggable overload policy) and hand back a SubmitTicket that
// can cancel the request at any point of its life, report its status, and
// stream solutions incrementally through TicketCallbacks::onSolution.
//
// Concurrency model:
//  * Queries never touch the live NetworkModel. Every mutation (reservation,
//    release, measurement batch) happens under a mutex and publishes an
//    immutable snapshot {host graph, version} with *structural sharing*: the
//    graph copy shares its topology block and all untouched attribute chunks
//    with the live model (see graph::Graph), so a monitoring update costs
//    O(delta), not O(|host|). A worker picks the newest snapshot when its
//    request starts executing and runs against it unsynchronized.
//    EmbedResponse::modelVersion records exactly which snapshot answered the
//    query.
//  * Stage-1 plans are shared through a FilterPlanCache keyed by
//    (snapshot version, query signature): concurrent same-signature requests
//    — a batch of identical queries — perform exactly one FilterMatrix
//    build. Mutations are announced to the cache as ModelDeltas
//    (NetworkModel::lastDelta): cached plans are re-keyed to the new version
//    and lazily reused as-is (delta provably irrelevant to the constraints),
//    patched (only the delta-affected filter cells re-evaluated), or rebuilt
//    (structural / oversized delta) on their next use — so a version bump no
//    longer costs every query a from-scratch stage-1 build.
//  * Queued requests do NOT auto-escalate to the racing portfolio: the
//    scheduler already keeps every core busy with distinct requests, so each
//    runs the single §VIII-predicted engine. An explicit
//    Algorithm::Portfolio request still races.
//  * Cancellation is cooperative end to end: SubmitTicket::cancel pulls a
//    queued request out of the admission queue (its future resolves with
//    RequestStatus::Cancelled immediately) or, once running, stops the
//    engine mid-search and mid-filter-build through the std::stop_token
//    chained into its SearchContext.
//
// Shutdown: AsyncServiceOptions::shutdownMode picks between Drain (the
// default and the historical behavior — every accepted request resolves
// before the service dies) and CancelPending (queued requests resolve
// Cancelled without running; running ones are stopped cooperatively and
// resolve with their partial result). Futures stay valid either way.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/service.hpp"
#include "service/ticket.hpp"
#include "util/scheduler.hpp"

namespace netembed::service {

struct AsyncServiceOptions {
  /// Scheduler worker count; 0 selects the hardware concurrency.
  std::size_t workers = 0;
  /// Plan-cache capacity (signatures per model version); 0 disables
  /// plan sharing.
  std::size_t planCacheCapacity = 64;
  /// Admission-queue bound (queued requests; running ones do not count);
  /// 0 = unbounded (the historical behavior).
  std::size_t queueCapacity = 0;
  /// What submit does when the queue is at capacity.
  util::OverloadPolicy overloadPolicy = util::OverloadPolicy::Block;
  /// What the destructor does with requests still pending.
  util::QosScheduler::ShutdownMode shutdownMode =
      util::QosScheduler::ShutdownMode::Drain;

  /// The closed-loop overload controller. All defaults off: the service then
  /// behaves exactly like the static PR-4 front end.
  struct ControlPolicy {
    /// Queue-side control: adaptive capacity from per-class service-time
    /// EWMAs and the early low-priority shed watermark (see
    /// util::QosScheduler::ControlPolicy).
    util::QosScheduler::ControlPolicy queue{};
    /// Convert a request's remaining admission slack into its wall-clock
    /// compute budget at dispatch: a request admitted close to its deadline
    /// runs with a correspondingly small budget instead of burning a full
    /// search budget on an answer nobody is waiting for any more. Only ever
    /// *tightens* an explicit QoS::computeBudget; requests without an
    /// admission deadline are untouched.
    bool propagateSlack = false;
    /// Floor for the slack-derived budget (a request admitted exactly at its
    /// deadline still gets this much compute rather than zero).
    static constexpr std::chrono::milliseconds kMinSlackBudget{1};
    /// When High-class work queues behind a full worker set, stop the
    /// longest-running strictly-lower-class search (its per-attempt stop
    /// token fires; the ticket resolves RequestStatus::Preempted with its
    /// partial result). Best-effort and cooperative: the victim stops at its
    /// next deadline poll.
    bool preemptLowForHigh = false;
    /// Instead of resolving a preempted request, re-admit it (non-blocking;
    /// a refused re-queue resolves Preempted after all). Its admission
    /// deadline, if any, keeps running across attempts.
    bool requeuePreempted = false;
    /// Ceiling on requests of one priority class concurrently holding a
    /// retry slot (QoS::retry): a request is charged once at its first
    /// transient-failure retry and released at terminal resolution, so a
    /// flood of failing Low work cannot monopolize the queue with retries
    /// while High requests wait. Over budget, the retry is abandoned and
    /// the ticket resolves Failed with the attempt's error. 0 = unbounded.
    std::size_t retryBudgetPerClass = 0;
  };
  ControlPolicy control{};
};

class AsyncNetEmbedService {
 public:
  using Options = AsyncServiceOptions;
  using ShutdownMode = util::QosScheduler::ShutdownMode;

  explicit AsyncNetEmbedService(NetworkModel model, Options options = {});
  explicit AsyncNetEmbedService(graph::Graph host, Options options = {})
      : AsyncNetEmbedService(NetworkModel(std::move(host)), options) {}

  AsyncNetEmbedService(const AsyncNetEmbedService&) = delete;
  AsyncNetEmbedService& operator=(const AsyncNetEmbedService&) = delete;

  /// Applies Options::shutdownMode (Drain by default: every accepted request
  /// resolves its future / fires its callbacks first).
  ~AsyncNetEmbedService();

  // --- submission ----------------------------------------------------------

  /// Queue one query through QoS admission (request.qos: priority class,
  /// admission deadline, compute budget, tenant). The ticket reports status,
  /// cancels, and counts streamed solutions; callbacks.onSolution receives
  /// every feasible mapping as the search admits it. A request refused at
  /// admission (full queue under Reject/ShedLowestPriority, expired
  /// admission deadline, post-shutdown submit) still returns a valid ticket
  /// whose future is already resolved with the terminal status.
  [[nodiscard]] SubmitTicket submit(EmbedRequest request,
                                    TicketCallbacks callbacks = {});

  /// Fair-share weight for a tenant's requests (default 1.0). Applies from
  /// the next dequeue.
  void setTenantWeight(std::uint64_t tenant, double weight) {
    qos_->setTenantWeight(tenant, weight);
  }

  /// Requests accepted but not yet resolved (queued + running).
  [[nodiscard]] std::size_t pendingRequests() const { return qos_->pending(); }

  /// Block until every request accepted so far has resolved.
  void drain() { qos_->drain(); }

  /// Idempotent early shutdown; the destructor otherwise runs it with
  /// Options::shutdownMode. After shutdown, submissions resolve Rejected.
  void shutdown(ShutdownMode mode);

  /// Admission-queue counters (accepted/rejected/shed/expired/cancelled).
  [[nodiscard]] util::QosScheduler::Stats queueStats() const {
    return qos_->stats();
  }

  /// Control-plane counters. The pool/cache degradation entries are deltas
  /// since this service was constructed (the underlying counters are
  /// process-wide).
  struct ControlStats {
    /// Preemption stop-tokens fired at running lower-class attempts.
    std::uint64_t preemptionsFired = 0;
    /// Preempted requests successfully re-admitted to the queue.
    std::uint64_t preemptRequeues = 0;
    /// Transient-failure retries dispatched back into the queue (QoS::retry).
    std::uint64_t transientRetries = 0;
    /// Retries given up on (budget exhausted, re-admission refused,
    /// shutdown); the ticket resolved Failed with the attempt's error.
    std::uint64_t retriesAbandoned = 0;
    /// Degradation rung 1: plan-cache builds that failed transiently and
    /// were served by a cache-bypass direct build instead.
    std::uint64_t cacheBypassFallbacks = 0;
    /// Degradation rung 2: shared-pool workers lost to injected deaths, and
    /// tasks the degraded pool ran inline on their submitter.
    std::uint64_t poolWorkersLost = 0;
    std::uint64_t poolSerialFallbacks = 0;
  };
  [[nodiscard]] ControlStats controlStats() const;

  // --- synchronized model access -------------------------------------------

  [[nodiscard]] std::uint64_t version() const;

  /// The host graph the next query would run against (an immutable
  /// snapshot; safe to read while mutations continue).
  [[nodiscard]] std::shared_ptr<const graph::Graph> hostSnapshot() const;

  /// Reserve resources for a mapping (paper §III component 3). Bumps the
  /// model version and publishes a fresh snapshot; queries already running
  /// keep their old snapshot, queries dequeued afterwards see the new one.
  NetworkModel::ReservationId reserve(const graph::Graph& query,
                                      const core::Mapping& mapping,
                                      const NetworkModel::ReservationSpec& spec);
  void release(NetworkModel::ReservationId id);
  [[nodiscard]] std::size_t activeReservations() const;

  /// Monitoring-style updates; each publishes a fresh snapshot.
  std::size_t applyMeasurements(std::span<const NetworkModel::Measurement> batch);
  void setNodeAttr(graph::NodeId n, std::string_view attr, graph::AttrValue value);
  void setEdgeMetric(graph::NodeId u, graph::NodeId v, std::string_view attr,
                     graph::AttrValue value);

  [[nodiscard]] FilterPlanCache::Stats planCacheStats() const {
    return planCache_.stats();
  }

  [[nodiscard]] std::size_t workerCount() const noexcept {
    return qos_->workerCount();
  }

 private:
  struct Snapshot {
    std::shared_ptr<const graph::Graph> host;
    std::uint64_t version = 0;
  };

  [[nodiscard]] std::shared_ptr<const Snapshot> currentSnapshot() const;
  void publishSnapshotLocked();
  void registerInflight(const std::shared_ptr<detail::TicketState>& state);
  void unregisterInflight(const detail::TicketState* key);

  /// What kind of (re-)admission enqueueRequest performs. Anything but None
  /// uses the non-blocking trySubmit — re-queues run on scheduler workers or
  /// the retry timer, which must never Block-wait on queue space.
  enum class Requeue : std::uint8_t { None, Preempt, Retry };

  /// One transiently failed request waiting out its backoff before
  /// re-admission.
  struct PendingRetry {
    util::QosScheduler::Clock::time_point due;
    std::shared_ptr<detail::TicketState> state;
    EmbedRequest request;
    std::optional<util::QosScheduler::Clock::time_point> admitBy;
  };

  /// Build and submit the scheduler job for one (possibly re-queued)
  /// request; arms the ticket's queue-removal hook on success.
  void enqueueRequest(std::shared_ptr<detail::TicketState> state,
                      EmbedRequest request,
                      std::optional<util::QosScheduler::Clock::time_point> admitBy,
                      Requeue requeue);
  /// Charge the per-class retry budget (first retry only) and park the
  /// request on the backoff timer; abandons the retry instead when over
  /// budget or already shutting down.
  void scheduleRetry(std::shared_ptr<detail::TicketState> state,
                     EmbedRequest request,
                     std::optional<util::QosScheduler::Clock::time_point> admitBy);
  /// The backoff timer thread: re-admits pending retries as they come due.
  void retryLoop();
  /// Give back the ticket's retry-budget slot, if it holds one. Idempotent.
  void releaseRetryBudget(detail::TicketState& state, Priority cls);
  /// Stop retrying: resolve the ticket Failed with the last attempt's error
  /// (or a synthesized one naming `why`).
  void abandonRetry(const std::shared_ptr<detail::TicketState>& state,
                    Priority cls, const char* why);
  /// One execution attempt on a scheduler worker: slack propagation, preempt
  /// slot registration, and the re-queue round trip.
  void runAttempt(const std::shared_ptr<detail::TicketState>& state,
                  const EmbedRequest& request,
                  std::optional<util::QosScheduler::Clock::time_point> admitBy);
  /// Fire the preemption chain for newly queued work of class `priority`
  /// when every worker is busy and one of them runs strictly lower work.
  void maybePreemptFor(int priority);

  mutable std::mutex modelMutex_;  // guards model_ and snapshot_ publication
  NetworkModel model_;
  std::shared_ptr<const Snapshot> snapshot_;
  mutable FilterPlanCache planCache_;
  Options options_;

  // Unresolved ticket states, for CancelPending shutdown's cooperative stop
  // fan-out. Entries are erased as requests resolve.
  std::mutex inflightMutex_;
  std::unordered_map<const detail::TicketState*, std::weak_ptr<detail::TicketState>>
      inflight_;

  // Attempts currently executing with preemption enabled, keyed by ticket:
  // maybePreemptFor picks its victim here. Registered/unregistered by
  // runAttempt around the engine run.
  std::mutex slotsMutex_;
  std::unordered_map<const detail::TicketState*,
                     std::shared_ptr<detail::PreemptSlot>>
      runningSlots_;
  std::atomic<std::uint64_t> preemptionsFired_{0};
  std::atomic<std::uint64_t> preemptRequeues_{0};

  // Retry plane: requests waiting out a transient-failure backoff, the timer
  // thread that re-admits them, and the per-class outstanding-retry counts
  // backing ControlPolicy::retryBudgetPerClass.
  std::mutex retryMutex_;
  std::condition_variable retryCv_;
  std::vector<PendingRetry> retryQueue_;
  bool retryStopping_ = false;
  std::array<std::atomic<std::size_t>, 3> retryOutstanding_{};
  std::atomic<std::uint64_t> transientRetries_{0};
  std::atomic<std::uint64_t> retriesAbandoned_{0};
  std::thread retryTimer_;

  // Construction-time baselines of the process-wide degradation counters,
  // so ControlStats reports this service's share.
  std::uint64_t baseCacheBypass_ = 0;
  std::uint64_t basePoolDeaths_ = 0;
  std::uint64_t basePoolSerial_ = 0;

  // Shared so a ticket's queue-removal hook (SubmitTicket::cancel) keeps the
  // scheduler object alive even if a stale copy of the hook races service
  // destruction — it then lands on a joined, empty queue (a harmless miss)
  // instead of freed memory. The destructor body settles every in-flight
  // request (shutdown) before any member dies, so jobs never touch a dead
  // model, snapshot or cache.
  std::shared_ptr<util::QosScheduler> qos_;
};

}  // namespace netembed::service
