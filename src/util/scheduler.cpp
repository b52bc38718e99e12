#include "util/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace netembed::util {

const char* overloadPolicyName(OverloadPolicy p) noexcept {
  switch (p) {
    case OverloadPolicy::Block: return "block";
    case OverloadPolicy::Reject: return "reject";
    case OverloadPolicy::ShedLowestPriority: return "shed-lowest-priority";
  }
  return "?";
}

const char* qosDropReasonName(QosDropReason r) noexcept {
  switch (r) {
    case QosDropReason::Rejected: return "rejected";
    case QosDropReason::Shed: return "shed";
    case QosDropReason::Expired: return "expired";
    case QosDropReason::Cancelled: return "cancelled";
  }
  return "?";
}

namespace {

struct QueuedJob {
  QosScheduler::JobId id = 0;  // ids are monotonic => id order = admission order
  QosScheduler::Job job;
  QosScheduler::Clock::time_point admitted;  // queue-wait measurement anchor
};

struct TenantState {
  double weight = 1.0;
  double pass = 0.0;       // stride-scheduling virtual time consumed
  std::size_t queued = 0;  // jobs of this tenant across all classes
};

/// Fire an onDrop callback per its must-not-throw contract: a throw is
/// swallowed so it can never strand the `resolving` accounting (which would
/// deadlock drain()/shutdown()).
void fireDrop(QosScheduler::Job& job, QosDropReason reason) noexcept {
  if (!job.onDrop) return;
  try {
    job.onDrop(reason);
  } catch (...) {
  }
}

}  // namespace

struct QosScheduler::Impl {
  // One mutex rules the whole queue: admissions, dequeues and weight changes
  // are short critical sections, and the jobs themselves (searches taking
  // milliseconds to seconds) run far outside it.
  mutable std::mutex mutex;
  std::condition_variable workCv;   // workers: "a job is queued" / shutdown
  std::condition_variable spaceCv;  // Block submitters: "the queue shrank"
  std::condition_variable idleCv;   // drain(): "nothing queued or running"

  Options options;
  bool stopping = false;
  bool shuttingDown = false;  // a shutdown() call is in progress
  bool joined = false;        // shutdown finished: workers joined, drops done

  JobId nextId = 1;
  std::size_t queuedTotal = 0;
  std::size_t running = 0;
  // Accepted jobs popped from the queue whose onDrop is still being fired.
  // Counted so drain() cannot return between a drop decision and the
  // callback that resolves the dropped job's future.
  std::size_t resolving = 0;
  Stats stats;

  // priority class -> tenant -> FIFO. Dequeue walks the highest class; shed
  // walks the lowest. Tenant maps stay small (a handful of applications).
  std::map<int, std::map<std::uint64_t, std::deque<QueuedJob>>> classes;
  std::unordered_map<std::uint64_t, TenantState> tenants;
  // Pass of the most recent dequeue: a tenant going active re-enters at the
  // current service level instead of claiming its whole idle period back.
  double virtualTime = 0.0;

  // Queue-wait reservoir (uniform sampling, fixed footprint): every dequeue
  // — including one that expires on arrival — contributes its admission
  // latency; stats() derives p50/p99 from the sample.
  static constexpr std::size_t kWaitReservoirCap = 1024;
  std::vector<double> waitReservoir;
  std::uint64_t waitSamples = 0;
  std::uint64_t waitRngState = 0x9e3779b97f4a7c15ull;  // splitmix64 stream

  // Per-priority-class controller inputs: a service-time EWMA from completed
  // jobs and a smaller per-class wait reservoir. The adaptive capacity is a
  // Little's-law inversion over the completion-weighted mean of the EWMAs.
  static constexpr std::size_t kClassReservoirCap = 512;
  struct ClassTrack {
    std::uint64_t completed = 0;
    double serviceEwmaMs = 0.0;
    std::vector<double> waitReservoir;
    std::uint64_t waitSamples = 0;
    std::uint64_t rngState = 0xbf58476d1ce4e5b9ull;
  };
  std::map<int, ClassTrack> classTrack;

  std::size_t workerCountHint = 1;  // set before the threads spawn
  std::vector<std::thread> workers;

  static void reservoirAddLocked(std::vector<double>& reservoir,
                                 std::uint64_t& samples, std::uint64_t& rng,
                                 std::size_t cap, double ms) {
    ++samples;
    if (reservoir.size() < cap) {
      reservoir.push_back(ms);
      return;
    }
    // splitmix64: cheap, deterministic, no <random> machinery under the lock.
    const std::uint64_t slot = splitmix64(rng) % samples;
    if (slot < cap) reservoir[slot] = ms;
  }

  void sampleWaitLocked(Clock::time_point admitted, int priority) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - admitted).count();
    reservoirAddLocked(waitReservoir, waitSamples, waitRngState,
                       kWaitReservoirCap, ms);
    ClassTrack& ct = classTrack[priority];
    reservoirAddLocked(ct.waitReservoir, ct.waitSamples, ct.rngState,
                       kClassReservoirCap, ms);
  }

  void recordServiceLocked(int priority, double serviceMs) {
    ClassTrack& ct = classTrack[priority];
    constexpr double alpha = ControlPolicy::kServiceEwmaAlpha;
    ct.serviceEwmaMs = ct.completed == 0
                           ? serviceMs
                           : alpha * serviceMs + (1.0 - alpha) * ct.serviceEwmaMs;
    ++ct.completed;
  }

  /// The capacity admissions check against right now. Static queueCapacity
  /// until the controller has at least one completed job to learn from (or
  /// when adaptive control is off); then targetQueueDelay * workers / mean
  /// service time, clamped. 0 = unbounded.
  [[nodiscard]] std::size_t effectiveCapacityLocked() const {
    if (!options.control.adaptiveCapacity) return options.queueCapacity;
    std::uint64_t completed = 0;
    double weightedMs = 0.0;
    for (const auto& [priority, ct] : classTrack) {
      (void)priority;
      completed += ct.completed;
      weightedMs += ct.serviceEwmaMs * static_cast<double>(ct.completed);
    }
    if (completed == 0) return options.queueCapacity;
    const double meanMs = weightedMs / static_cast<double>(completed);
    const double targetMs = std::chrono::duration<double, std::milli>(
                                options.control.targetQueueDelay)
                                .count();
    if (meanMs <= 0.0 || targetMs <= 0.0) {
      return ControlPolicy::kMinAdaptiveCapacity;
    }
    const double derived =
        std::ceil(targetMs * static_cast<double>(workerCountHint) / meanMs);
    return static_cast<std::size_t>(std::clamp(
        derived, static_cast<double>(ControlPolicy::kMinAdaptiveCapacity),
        static_cast<double>(ControlPolicy::kMaxAdaptiveCapacity)));
  }

  TenantState& tenant(std::uint64_t id) { return tenants[id]; }

  void enqueueLocked(QueuedJob&& qj) {
    TenantState& ts = tenant(qj.job.tenant);
    if (ts.queued++ == 0) ts.pass = std::max(ts.pass, virtualTime);
    auto& fifo = classes[qj.job.priority][qj.job.tenant];
    // EDF within the bucket: deadline-bearing jobs sort ahead of unbounded
    // ones by earliest admitBy; ties — and the no-deadline common case —
    // fall back to id order, i.e. admission order, so a deadline-free bucket
    // is exactly the historical FIFO.
    const auto before = [](const QueuedJob& a, const QueuedJob& b) {
      const bool ad = a.job.admitBy.has_value();
      const bool bd = b.job.admitBy.has_value();
      if (ad != bd) return ad;
      if (ad && *a.job.admitBy != *b.job.admitBy)
        return *a.job.admitBy < *b.job.admitBy;
      return a.id < b.id;
    };
    fifo.insert(std::upper_bound(fifo.begin(), fifo.end(), qj, before),
                std::move(qj));
    ++queuedTotal;
    ++stats.accepted;
  }

  /// Remove one bookkept job (already popped from its deque).
  void noteRemovedLocked(const QueuedJob& qj) {
    --queuedTotal;
    --tenant(qj.job.tenant).queued;
    spaceCv.notify_one();
  }

  /// Erase now-empty structure around `tenantIt` in `classIt`.
  template <class ClassIt, class TenantIt>
  void pruneLocked(ClassIt classIt, TenantIt tenantIt) {
    if (tenantIt->second.empty()) classIt->second.erase(tenantIt);
    if (classIt->second.empty()) classes.erase(classIt);
  }

  /// Highest class, then the tenant with the lowest pass (ties to the lower
  /// tenant id — fully deterministic). Does NOT advance the stride clock:
  /// the caller charges via chargeStrideLocked only when the job actually
  /// dispatches, so a job that expired in the queue costs its tenant nothing
  /// (an expired pop used to charge a full quantum, bleeding fair share from
  /// deadline-heavy tenants to their neighbors).
  QueuedJob popFairLocked() {
    const auto classIt = std::prev(classes.end());
    auto& byTenant = classIt->second;
    auto best = byTenant.begin();
    for (auto it = std::next(best); it != byTenant.end(); ++it) {
      if (tenant(it->first).pass < tenant(best->first).pass) best = it;
    }
    QueuedJob qj = std::move(best->second.front());
    best->second.pop_front();
    noteRemovedLocked(qj);
    pruneLocked(classIt, best);
    return qj;
  }

  /// Advance the stride clock for one dispatched job of `tenantId`.
  void chargeStrideLocked(std::uint64_t tenantId) {
    TenantState& ts = tenant(tenantId);
    virtualTime = ts.pass;
    ts.pass += 1.0 / std::max(ts.weight, 1e-9);
  }

  /// The most recently admitted job of the lowest queued class (the shed
  /// victim): it has waited least and its class ranks last. Buckets are
  /// deadline-sorted (EDF), so the highest id can sit anywhere in a deque —
  /// scan the whole class, not just the backs.
  QueuedJob popShedVictimLocked() {
    const auto classIt = classes.begin();
    auto& byTenant = classIt->second;
    auto bestTenant = byTenant.begin();
    auto bestJob = bestTenant->second.begin();
    for (auto it = byTenant.begin(); it != byTenant.end(); ++it) {
      for (auto jt = it->second.begin(); jt != it->second.end(); ++jt) {
        if (jt->id > bestJob->id) {
          bestTenant = it;
          bestJob = jt;
        }
      }
    }
    QueuedJob qj = std::move(*bestJob);
    bestTenant->second.erase(bestJob);
    noteRemovedLocked(qj);
    pruneLocked(classIt, bestTenant);
    return qj;
  }

  void notifyIfIdleLocked() {
    if (queuedTotal == 0 && running == 0 && resolving == 0) idleCv.notify_all();
  }

  void workerLoop() {
    std::unique_lock lock(mutex);
    for (;;) {
      workCv.wait(lock, [&] { return stopping || queuedTotal > 0; });
      if (queuedTotal == 0) return;  // stopping with nothing left to run
      QueuedJob qj = popFairLocked();
      sampleWaitLocked(qj.admitted, qj.job.priority);
      if (qj.job.admitBy && Clock::now() >= *qj.job.admitBy) {
        // Expired on arrival: no stride charge — the tenant got no service.
        ++stats.expired;
        ++resolving;
        lock.unlock();
        fireDrop(qj.job, QosDropReason::Expired);
        lock.lock();
        --resolving;
        notifyIfIdleLocked();
        continue;
      }
      chargeStrideLocked(qj.job.tenant);
      ++running;
      lock.unlock();
      // Injected dispatch-latency spike (clock skew / noisy-neighbor
      // scheduling delay). Delay-only and outside the lock: the rest of the
      // scheduler keeps admitting and dispatching while this worker stalls.
      if (FaultInjector::enabled()) faultDelay(faultsite::kQosDequeue);
      const Clock::time_point started = Clock::now();
      try {
        qj.job.run();
      } catch (...) {
        // The Job contract says run() must not throw; swallowing here keeps
        // one misbehaving job from taking the worker (and the queue) down.
      }
      const double serviceMs =
          std::chrono::duration<double, std::milli>(Clock::now() - started)
              .count();
      lock.lock();
      --running;
      ++stats.completed;
      recordServiceLocked(qj.job.priority, serviceMs);
      // New service-time data can grow the adaptive capacity — wake Block
      // submitters so they re-check against the new bound.
      if (options.control.adaptiveCapacity) spaceCv.notify_all();
      notifyIfIdleLocked();
    }
  }
};

QosScheduler::QosScheduler() : QosScheduler(Options{}) {}

QosScheduler::QosScheduler(Options options) : impl_(new Impl) {
  impl_->options = options;
  std::size_t n = options.workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  impl_->workerCountHint = n;
  impl_->workers.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      impl_->workers.emplace_back([this] { impl_->workerLoop(); });
    }
  } catch (...) {
    // Thread spawn failed (resource exhaustion): stop and join whatever
    // spawned, free the Impl, and surface the error — no zombie workers
    // parked on workCv, no leak.
    {
      std::lock_guard lock(impl_->mutex);
      impl_->stopping = true;
      impl_->workCv.notify_all();
    }
    for (std::thread& worker : impl_->workers) {
      if (worker.joinable()) worker.join();
    }
    delete impl_;
    throw;
  }
}

QosScheduler::~QosScheduler() {
  shutdown(ShutdownMode::Drain);
  delete impl_;
}

QosScheduler::JobId QosScheduler::submit(Job job) {
  return submitImpl(std::move(job), /*allowBlock=*/true);
}

QosScheduler::JobId QosScheduler::trySubmit(Job job) {
  return submitImpl(std::move(job), /*allowBlock=*/false);
}

QosScheduler::JobId QosScheduler::submitImpl(Job job, bool allowBlock) {
  // A drop decided under the lock fires its callback after release.
  std::optional<QosDropReason> dropIncoming;
  std::optional<QueuedJob> victim;
  JobId id = 0;
  {
    std::unique_lock lock(impl_->mutex);
    for (;;) {
      if (impl_->stopping) {
        ++impl_->stats.rejected;
        dropIncoming = QosDropReason::Rejected;
        break;
      }
      const std::size_t cap = impl_->effectiveCapacityLocked();
      // Early watermark shed (ShedLowestPriority only): past the configured
      // fraction of capacity, a newcomer strictly below the highest queued
      // class is shed on arrival — the remaining headroom is reserved for
      // the top class instead of being consumed first-come-first-served.
      const double watermark = impl_->options.control.lowPriorityShedWatermark;
      if (impl_->options.overload == OverloadPolicy::ShedLowestPriority &&
          watermark < 1.0 && cap > 0 && !impl_->classes.empty() &&
          impl_->queuedTotal >=
              std::max<std::size_t>(
                  1, static_cast<std::size_t>(
                         std::ceil(watermark * static_cast<double>(cap)))) &&
          job.priority < std::prev(impl_->classes.end())->first) {
        ++impl_->stats.shed;
        dropIncoming = QosDropReason::Shed;
        break;
      }
      if (cap == 0 || impl_->queuedTotal < cap) {
        id = impl_->nextId++;
        impl_->enqueueLocked(QueuedJob{id, std::move(job), Clock::now()});
        break;
      }
      if (impl_->options.overload == OverloadPolicy::Reject ||
          (impl_->options.overload == OverloadPolicy::Block && !allowBlock)) {
        ++impl_->stats.rejected;
        dropIncoming = QosDropReason::Rejected;
        break;
      }
      if (impl_->options.overload == OverloadPolicy::ShedLowestPriority) {
        ++impl_->stats.shed;
        if (job.priority > impl_->classes.begin()->first) {
          victim = impl_->popShedVictimLocked();
          ++impl_->resolving;  // until the victim's onDrop has fired
          id = impl_->nextId++;
          impl_->enqueueLocked(QueuedJob{id, std::move(job), Clock::now()});
        } else {
          // The newcomer is (at best) tied with the lowest queued class: it
          // is itself the lowest-priority work on offer, so it is the shed.
          dropIncoming = QosDropReason::Shed;
        }
        break;
      }
      // Block: wait for space, bounded by the job's own admission deadline.
      if (job.admitBy) {
        if (Clock::now() >= *job.admitBy) {
          ++impl_->stats.expired;
          dropIncoming = QosDropReason::Expired;
          break;
        }
        impl_->spaceCv.wait_until(lock, *job.admitBy);
      } else {
        impl_->spaceCv.wait(lock);
      }
    }
    // Account the incoming drop like every other: its onDrop (fired below,
    // outside the lock) may touch the submitting service, so shutdown must
    // not report done until it has run.
    if (dropIncoming) ++impl_->resolving;
  }
  if (victim) {
    fireDrop(victim->job, QosDropReason::Shed);
    std::lock_guard lock(impl_->mutex);
    --impl_->resolving;
    impl_->notifyIfIdleLocked();
  }
  if (dropIncoming) {
    fireDrop(job, *dropIncoming);
    std::lock_guard lock(impl_->mutex);
    --impl_->resolving;
    impl_->notifyIfIdleLocked();
    return 0;
  }
  impl_->workCv.notify_one();
  return id;
}

bool QosScheduler::cancel(JobId id) {
  std::optional<QueuedJob> dropped;
  {
    std::lock_guard lock(impl_->mutex);
    // Return right after pruneLocked: it may erase the iterators being
    // walked, so no loop may advance past the removal point.
    const auto findAndErase = [&]() -> bool {
      for (auto classIt = impl_->classes.begin();
           classIt != impl_->classes.end(); ++classIt) {
        for (auto tenantIt = classIt->second.begin();
             tenantIt != classIt->second.end(); ++tenantIt) {
          auto& fifo = tenantIt->second;
          const auto it =
              std::find_if(fifo.begin(), fifo.end(),
                           [&](const QueuedJob& qj) { return qj.id == id; });
          if (it == fifo.end()) continue;
          dropped = std::move(*it);
          fifo.erase(it);
          ++impl_->stats.cancelled;
          ++impl_->resolving;  // until onDrop below has fired
          impl_->noteRemovedLocked(*dropped);
          impl_->pruneLocked(classIt, tenantIt);
          return true;
        }
      }
      return false;
    };
    findAndErase();
  }
  if (!dropped) return false;
  fireDrop(dropped->job, QosDropReason::Cancelled);
  {
    std::lock_guard lock(impl_->mutex);
    --impl_->resolving;
    impl_->notifyIfIdleLocked();
  }
  return true;
}

void QosScheduler::setTenantWeight(std::uint64_t tenant, double weight) {
  std::lock_guard lock(impl_->mutex);
  impl_->tenants[tenant].weight = std::max(weight, 1e-9);
}

void QosScheduler::drain() {
  std::unique_lock lock(impl_->mutex);
  impl_->idleCv.wait(lock, [&] {
    return impl_->queuedTotal == 0 && impl_->running == 0 &&
           impl_->resolving == 0;
  });
}

void QosScheduler::shutdown(ShutdownMode mode) {
  std::vector<QueuedJob> dropped;
  {
    std::unique_lock lock(impl_->mutex);
    if (impl_->shuttingDown) {
      // Another thread is (or was) shutting down; wait for it to finish
      // rather than double-joining the same workers.
      impl_->idleCv.wait(lock, [&] { return impl_->joined; });
      return;
    }
    impl_->shuttingDown = true;
    impl_->stopping = true;
    if (mode == ShutdownMode::CancelPending) {
      for (auto& [priority, byTenant] : impl_->classes) {
        (void)priority;
        for (auto& [tenant, fifo] : byTenant) {
          (void)tenant;
          for (QueuedJob& qj : fifo) dropped.push_back(std::move(qj));
        }
      }
      impl_->classes.clear();
      impl_->queuedTotal = 0;
      for (auto& [id, ts] : impl_->tenants) {
        (void)id;
        ts.queued = 0;
      }
      impl_->stats.cancelled += dropped.size();
      impl_->resolving += dropped.size();  // until the drops below have fired
    }
    impl_->workCv.notify_all();
    impl_->spaceCv.notify_all();
  }
  // Resolve the dropped queue before the (possibly long) join so waiters on
  // those jobs' results unblock immediately.
  for (QueuedJob& qj : dropped) {
    fireDrop(qj.job, QosDropReason::Cancelled);
  }
  if (!dropped.empty()) {
    std::lock_guard lock(impl_->mutex);
    impl_->resolving -= dropped.size();
    impl_->notifyIfIdleLocked();
  }
  for (std::thread& worker : impl_->workers) {
    if (worker.joinable()) worker.join();
  }
  std::unique_lock lock(impl_->mutex);
  // A concurrent cancel() may still be mid-onDrop (it popped its job before
  // the queue was cleared); the callback can touch the submitting service,
  // so shutdown must not report done — and let that service die — until
  // every drop has fired.
  impl_->idleCv.wait(lock, [&] { return impl_->resolving == 0; });
  impl_->joined = true;
  impl_->idleCv.notify_all();
}

std::size_t QosScheduler::queuedCount() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->queuedTotal;
}

std::size_t QosScheduler::runningCount() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->running;
}

std::size_t QosScheduler::pending() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->queuedTotal + impl_->running;
}

std::size_t QosScheduler::workerCount() const noexcept {
  return impl_->workers.size();
}

QosScheduler::Stats QosScheduler::stats() const {
  std::lock_guard lock(impl_->mutex);
  Stats out = impl_->stats;
  out.admissionWaitSamples = impl_->waitSamples;
  if (!impl_->waitReservoir.empty()) {
    out.admissionWaitP50Ms = quantileNearestRank(impl_->waitReservoir, 0.5);
    out.admissionWaitP99Ms = quantileNearestRank(impl_->waitReservoir, 0.99);
  }
  out.classes.reserve(impl_->classTrack.size());
  for (const auto& [priority, ct] : impl_->classTrack) {
    Stats::ClassStats cs;
    cs.priority = priority;
    cs.completed = ct.completed;
    cs.serviceEwmaMs = ct.serviceEwmaMs;
    cs.waitSamples = ct.waitSamples;
    if (!ct.waitReservoir.empty()) {
      cs.waitP50Ms = quantileNearestRank(ct.waitReservoir, 0.5);
      cs.waitP99Ms = quantileNearestRank(ct.waitReservoir, 0.99);
    }
    out.classes.push_back(cs);
  }
  out.effectiveCapacity = impl_->effectiveCapacityLocked();
  return out;
}

}  // namespace netembed::util
