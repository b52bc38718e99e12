#include "service/async.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace netembed::service {

namespace {

RequestStatus statusForDrop(util::QosDropReason reason,
                            bool isPreemptRequeue) noexcept {
  switch (reason) {
    case util::QosDropReason::Rejected:
    case util::QosDropReason::Shed:
      // A shed request was displaced by higher-priority work — from the
      // submitter's perspective that is an admission refusal. A *re-queue*
      // of a preempted attempt that finds no room reports what actually
      // ended the request: the preemption.
      return isPreemptRequeue ? RequestStatus::Preempted
                              : RequestStatus::Rejected;
    case util::QosDropReason::Expired: return RequestStatus::Expired;
    case util::QosDropReason::Cancelled: return RequestStatus::Cancelled;
  }
  return RequestStatus::Rejected;
}

}  // namespace

AsyncNetEmbedService::AsyncNetEmbedService(NetworkModel model, Options options)
    : model_(std::move(model)),
      planCache_(options.planCacheCapacity),
      options_(options),
      qos_(std::make_shared<util::QosScheduler>(
          util::QosScheduler::Options{options.workers, options.queueCapacity,
                                      options.overloadPolicy,
                                      options.control.queue})) {
  publishSnapshotLocked();  // construction is single-threaded; no lock needed
  baseCacheBypass_ = detail::cacheBypassFallbacks();
  basePoolDeaths_ = util::sharedPool().workerDeaths();
  basePoolSerial_ = util::sharedPool().serialFallbacks();
  retryTimer_ = std::thread([this] { retryLoop(); });
}

AsyncNetEmbedService::~AsyncNetEmbedService() { shutdown(options_.shutdownMode); }

void AsyncNetEmbedService::shutdown(ShutdownMode mode) {
  // Settle the retry backlog before the admission queue: a request parked on
  // the backoff timer is invisible to the scheduler, so qos_->shutdown alone
  // would leave its future hanging. Drain cuts the backoff short and
  // re-admits; CancelPending resolves Cancelled. New scheduleRetry calls
  // from still-running attempts abandon immediately (retryStopping_).
  std::vector<PendingRetry> backlog;
  {
    std::lock_guard lock(retryMutex_);
    retryStopping_ = true;
    backlog = std::move(retryQueue_);
    retryQueue_.clear();
  }
  retryCv_.notify_all();
  if (retryTimer_.joinable()) retryTimer_.join();
  for (PendingRetry& entry : backlog) {
    if (mode == ShutdownMode::Drain) {
      transientRetries_.fetch_add(1, std::memory_order_relaxed);
      enqueueRequest(entry.state, std::move(entry.request), entry.admitBy,
                     Requeue::Retry);
    } else {
      releaseRetryBudget(*entry.state, entry.request.qos.priority);
      detail::resolveDropped(*entry.state, RequestStatus::Cancelled,
                             "cancelled at shutdown while awaiting retry");
      unregisterInflight(entry.state.get());
    }
  }
  if (mode == ShutdownMode::CancelPending) {
    // Cooperative stop for everything still alive: queued requests resolve
    // Cancelled through the scheduler's drop path below; running ones see
    // the stop at their next poll and resolve with their partial result.
    std::vector<std::shared_ptr<detail::TicketState>> live;
    {
      std::lock_guard lock(inflightMutex_);
      live.reserve(inflight_.size());
      for (const auto& [key, weak] : inflight_) {
        (void)key;
        if (auto state = weak.lock()) live.push_back(std::move(state));
      }
    }
    for (const auto& state : live) state->stop.request_stop();
  }
  qos_->shutdown(mode);
}

SubmitTicket AsyncNetEmbedService::submit(EmbedRequest request,
                                          TicketCallbacks callbacks) {
  auto state = std::make_shared<detail::TicketState>(std::move(callbacks));
  SubmitTicket ticket(state);
  registerInflight(state);

  std::optional<util::QosScheduler::Clock::time_point> admitBy;
  if (request.qos.admissionDeadline) {
    // An explicitly non-positive deadline means "no wait at all": the
    // admitBy point is already in the past, so the request expires at its
    // first admission check (Block wait or dequeue) — the lazy-expiry
    // contract — instead of silently degrading to an unbounded wait.
    admitBy =
        util::QosScheduler::Clock::now() + *request.qos.admissionDeadline;
  }
  enqueueRequest(state, std::move(request), admitBy, Requeue::None);
  return ticket;
}

void AsyncNetEmbedService::enqueueRequest(
    std::shared_ptr<detail::TicketState> state, EmbedRequest request,
    std::optional<util::QosScheduler::Clock::time_point> admitBy,
    Requeue requeue) {
  const int priority = static_cast<int>(request.qos.priority);
  const Priority cls = request.qos.priority;

  util::QosScheduler::Job job;
  job.priority = priority;
  job.tenant = request.qos.tenant;
  job.admitBy = admitBy;
  job.run = [this, state, request = std::move(request), admitBy] {
    runAttempt(state, request, admitBy);
  };
  job.onDrop = [this, state, requeue, cls](util::QosDropReason reason) {
    if (requeue == Requeue::Retry &&
        (reason == util::QosDropReason::Rejected ||
         reason == util::QosDropReason::Shed)) {
      // A retry whose re-admission found no room: the informative outcome is
      // the error that caused the retry, not a bland "rejected".
      abandonRetry(state, cls, "re-admission refused (queue full)");
      return;
    }
    releaseRetryBudget(*state, cls);
    detail::resolveDropped(*state,
                           statusForDrop(reason, requeue == Requeue::Preempt),
                           std::string("dropped at admission: ") +
                               util::qosDropReasonName(reason));
    unregisterInflight(state.get());
  };

  // A re-queue runs on a scheduler worker (or the retry timer): it must
  // never Block-wait for space there (a single-worker scheduler would
  // deadlock against itself).
  const util::QosScheduler::JobId id = requeue != Requeue::None
                                           ? qos_->trySubmit(std::move(job))
                                           : qos_->submit(std::move(job));
  if (id != 0) {
    if (requeue == Requeue::Preempt) {
      preemptRequeues_.fetch_add(1, std::memory_order_relaxed);
    }
    // Arm the queue-removal side of cancel(). The job may already be
    // running — cancel(id) then misses and the stop token carries the
    // cancel instead. The hook shares ownership of the scheduler (not the
    // service): a copy raced against service destruction lands on the
    // joined, empty queue — a harmless miss, never freed memory.
    {
      std::lock_guard lock(state->mutex);
      if (!state->resolved) {
        state->tryDequeue = [qos = qos_, id] { return qos->cancel(id); };
      }
    }
    if (options_.control.preemptLowForHigh) maybePreemptFor(priority);
  }
}

void AsyncNetEmbedService::runAttempt(
    const std::shared_ptr<detail::TicketState>& state,
    const EmbedRequest& request,
    std::optional<util::QosScheduler::Clock::time_point> admitBy) {
  // Pin the newest snapshot for the whole run: the plan cache key and the
  // response's modelVersion must describe the exact host graph searched.
  const std::shared_ptr<const Snapshot> snapshot = currentSnapshot();

  // Deadline-slack propagation: the wall-clock budget of this attempt is at
  // most the slack that remained at dispatch (executeEmbed only ever
  // tightens SearchOptions::timeout from it). A nearly-expired request burns
  // a sliver of compute, not a full search budget.
  const EmbedRequest* toRun = &request;
  EmbedRequest tightened;
  if (options_.control.propagateSlack && admitBy) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        *admitBy - util::QosScheduler::Clock::now());
    const auto budget =
        std::max(remaining, Options::ControlPolicy::kMinSlackBudget);
    if (request.qos.computeBudget.count() == 0 ||
        budget < request.qos.computeBudget) {
      tightened = request;
      tightened.qos.computeBudget = budget;
      toRun = &tightened;
    }
  }

  std::shared_ptr<detail::PreemptSlot> slot;
  if (options_.control.preemptLowForHigh) {
    slot = std::make_shared<detail::PreemptSlot>();
    slot->priority = static_cast<int>(request.qos.priority);
    slot->started = util::QosScheduler::Clock::now();
    slot->requeueOnPreempt = options_.control.requeuePreempted;
    std::lock_guard lock(slotsMutex_);
    runningSlots_[state.get()] = slot;
  }

  const detail::RunOutcome outcome = detail::runTicketedAttempt(
      state, *toRun, *snapshot->host, snapshot->version,
      /*allowPortfolioEscalation=*/false, &planCache_, slot.get());

  if (slot) {
    std::lock_guard lock(slotsMutex_);
    runningSlots_.erase(state.get());
  }

  if (outcome == detail::RunOutcome::RequeuePreempted) {
    // Back into the queue, original admission deadline still ticking. The
    // ticket stays registered in inflight_ across attempts.
    enqueueRequest(state, request, admitBy, Requeue::Preempt);
    return;
  }
  if (outcome == detail::RunOutcome::RetryTransient) {
    // Park the ORIGINAL request on the backoff timer, not the
    // slack-tightened copy: the retry re-derives its budget from the slack
    // remaining at its own dispatch.
    scheduleRetry(state, request, admitBy);
    return;
  }
  releaseRetryBudget(*state, request.qos.priority);
  unregisterInflight(state.get());
}

void AsyncNetEmbedService::scheduleRetry(
    std::shared_ptr<detail::TicketState> state, EmbedRequest request,
    std::optional<util::QosScheduler::Clock::time_point> admitBy) {
  const Priority cls = request.qos.priority;
  const std::size_t budget = options_.control.retryBudgetPerClass;
  if (budget != 0 && !state->retryCharged.load(std::memory_order_acquire)) {
    // Charge the class budget once per request, at its first retry; the
    // slot is held until terminal resolution.
    auto& outstanding = retryOutstanding_[static_cast<std::size_t>(cls)];
    std::size_t current = outstanding.load(std::memory_order_relaxed);
    for (;;) {
      if (current >= budget) {
        abandonRetry(state, cls, "per-class retry budget exhausted");
        return;
      }
      if (outstanding.compare_exchange_weak(current, current + 1,
                                            std::memory_order_acq_rel)) {
        state->retryCharged.store(true, std::memory_order_release);
        break;
      }
    }
  }
  // Seed mixes only stable identities (tenant) with the per-ticket attempt
  // count inside nextRetryBackoff — deterministic, so chaos schedules replay.
  const auto backoff =
      detail::nextRetryBackoff(request.qos.retry, request.qos.tenant, *state);
  PendingRetry entry;
  entry.due = util::QosScheduler::Clock::now() + backoff;
  entry.state = state;
  entry.request = std::move(request);
  entry.admitBy = admitBy;
  {
    std::lock_guard lock(retryMutex_);
    if (!retryStopping_) {
      retryQueue_.push_back(std::move(entry));
      retryCv_.notify_one();
      return;
    }
  }
  abandonRetry(state, cls, "service shutting down");
}

void AsyncNetEmbedService::retryLoop() {
  std::unique_lock lock(retryMutex_);
  for (;;) {
    if (retryQueue_.empty()) {
      if (retryStopping_) return;
      retryCv_.wait(lock,
                    [&] { return retryStopping_ || !retryQueue_.empty(); });
      continue;
    }
    const auto next = std::min_element(
        retryQueue_.begin(), retryQueue_.end(),
        [](const PendingRetry& a, const PendingRetry& b) {
          return a.due < b.due;
        });
    if (!retryStopping_ && util::QosScheduler::Clock::now() < next->due) {
      // Wait on a copy: wait_until reads its deadline again after it
      // re-locks, and a scheduleRetry push_back meanwhile may have
      // reallocated retryQueue_ under `next`. Re-scan after the wait: a
      // later-armed retry may be due earlier.
      const auto due = next->due;
      retryCv_.wait_until(lock, due);
      continue;
    }
    PendingRetry entry = std::move(*next);
    retryQueue_.erase(next);
    lock.unlock();
    transientRetries_.fetch_add(1, std::memory_order_relaxed);
    enqueueRequest(entry.state, std::move(entry.request), entry.admitBy,
                   Requeue::Retry);
    lock.lock();
  }
}

void AsyncNetEmbedService::releaseRetryBudget(detail::TicketState& state,
                                              Priority cls) {
  if (!state.retryCharged.exchange(false, std::memory_order_acq_rel)) return;
  retryOutstanding_[static_cast<std::size_t>(cls)].fetch_sub(
      1, std::memory_order_acq_rel);
}

void AsyncNetEmbedService::abandonRetry(
    const std::shared_ptr<detail::TicketState>& state, Priority cls,
    const char* why) {
  retriesAbandoned_.fetch_add(1, std::memory_order_relaxed);
  releaseRetryBudget(*state, cls);
  std::exception_ptr error;
  {
    std::lock_guard lock(state->mutex);
    error = state->lastError;
  }
  if (!error) {
    error = std::make_exception_ptr(
        std::runtime_error(std::string("retry abandoned: ") + why));
  }
  detail::resolveError(*state, error, version());
  unregisterInflight(state.get());
}

AsyncNetEmbedService::ControlStats AsyncNetEmbedService::controlStats() const {
  ControlStats out;
  out.preemptionsFired = preemptionsFired_.load(std::memory_order_relaxed);
  out.preemptRequeues = preemptRequeues_.load(std::memory_order_relaxed);
  out.transientRetries = transientRetries_.load(std::memory_order_relaxed);
  out.retriesAbandoned = retriesAbandoned_.load(std::memory_order_relaxed);
  out.cacheBypassFallbacks = detail::cacheBypassFallbacks() - baseCacheBypass_;
  const util::ThreadPool& pool = util::sharedPool();
  out.poolWorkersLost = pool.workerDeaths() - basePoolDeaths_;
  out.poolSerialFallbacks = pool.serialFallbacks() - basePoolSerial_;
  return out;
}

void AsyncNetEmbedService::maybePreemptFor(int priority) {
  // Only worth firing when nothing will pick the queued job up on its own:
  // every worker busy, at least one of them on strictly lower-class work.
  if (qos_->runningCount() < qos_->workerCount()) return;
  std::shared_ptr<detail::PreemptSlot> victim;
  {
    std::lock_guard lock(slotsMutex_);
    for (const auto& [key, slot] : runningSlots_) {
      (void)key;
      if (slot->priority >= priority) continue;
      if (slot->preempted.load(std::memory_order_relaxed)) continue;
      // Lowest class first; within a class the longest-running attempt (it
      // has had the most service, and its restart loses the least slack).
      if (!victim || slot->priority < victim->priority ||
          (slot->priority == victim->priority &&
           slot->started < victim->started)) {
        victim = slot;
      }
    }
    if (victim) victim->preempted.store(true, std::memory_order_release);
  }
  if (victim) {
    victim->attempt.request_stop();
    preemptionsFired_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AsyncNetEmbedService::registerInflight(
    const std::shared_ptr<detail::TicketState>& state) {
  std::lock_guard lock(inflightMutex_);
  inflight_.emplace(state.get(), state);
}

void AsyncNetEmbedService::unregisterInflight(const detail::TicketState* key) {
  std::lock_guard lock(inflightMutex_);
  inflight_.erase(key);
}

std::uint64_t AsyncNetEmbedService::version() const {
  std::lock_guard lock(modelMutex_);
  return model_.version();
}

std::shared_ptr<const graph::Graph> AsyncNetEmbedService::hostSnapshot() const {
  return currentSnapshot()->host;
}

NetworkModel::ReservationId AsyncNetEmbedService::reserve(
    const graph::Graph& query, const core::Mapping& mapping,
    const NetworkModel::ReservationSpec& spec) {
  std::lock_guard lock(modelMutex_);
  const NetworkModel::ReservationId id = model_.reserve(query, mapping, spec);
  publishSnapshotLocked();
  return id;
}

void AsyncNetEmbedService::release(NetworkModel::ReservationId id) {
  std::lock_guard lock(modelMutex_);
  model_.release(id);
  publishSnapshotLocked();
}

void AsyncNetEmbedService::publishSnapshotLocked() {
  // Structural sharing: the Graph copy shares its topology block and every
  // untouched attribute chunk with the model's live host, so a snapshot
  // costs O(elements / chunk) pointer copies — not the former deep copy.
  // Queries in flight keep reading the snapshot they pinned.
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->host = std::make_shared<const graph::Graph>(model_.host());
  snapshot->version = model_.version();
  // Announce the mutation to the plan cache *before* the new snapshot
  // becomes visible (both happen under modelMutex_, which currentSnapshot()
  // also takes): cached stage-1 plans are carried across the bump as lazy
  // patch sources instead of being invalidated wholesale.
  planCache_.applyDelta(model_.version(), model_.lastDelta());
  snapshot_ = std::move(snapshot);
}

std::size_t AsyncNetEmbedService::activeReservations() const {
  std::lock_guard lock(modelMutex_);
  return model_.activeReservations();
}

std::size_t AsyncNetEmbedService::applyMeasurements(
    std::span<const NetworkModel::Measurement> batch) {
  std::lock_guard lock(modelMutex_);
  const std::size_t applied = model_.applyMeasurements(batch);
  if (applied > 0) publishSnapshotLocked();
  return applied;
}

void AsyncNetEmbedService::setNodeAttr(graph::NodeId n, std::string_view attr,
                                       graph::AttrValue value) {
  std::lock_guard lock(modelMutex_);
  model_.setNodeAttr(n, attr, std::move(value));
  publishSnapshotLocked();
}

void AsyncNetEmbedService::setEdgeMetric(graph::NodeId u, graph::NodeId v,
                                         std::string_view attr,
                                         graph::AttrValue value) {
  std::lock_guard lock(modelMutex_);
  model_.setEdgeMetric(u, v, attr, std::move(value));
  publishSnapshotLocked();
}

std::shared_ptr<const AsyncNetEmbedService::Snapshot>
AsyncNetEmbedService::currentSnapshot() const {
  std::lock_guard lock(modelMutex_);
  return snapshot_;
}


}  // namespace netembed::service
