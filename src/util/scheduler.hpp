#pragma once
// QoS-aware admission scheduling for the service layer.
//
// The async NETEMBED front end used to accept work unboundedly into a FIFO
// ThreadPool; serving many concurrent applications (paper §III) needs a real
// admission queue instead. QosScheduler provides exactly the queue the
// request-lifecycle API is built on:
//
//  * a *bounded* admission queue with a pluggable overload policy — Block
//    the submitter, Reject the newcomer, or ShedLowestPriority (evict the
//    most recently admitted job of the lowest priority class to make room
//    for a higher-priority newcomer);
//  * strict priority classes: a queued higher-priority job always dequeues
//    before any lower-priority one;
//  * weighted fair dequeue across tenants *within* a class, via stride
//    scheduling (each tenant advances a virtual "pass" by 1/weight per
//    dequeue; the lowest pass runs next, ties break to the lower tenant id,
//    so the order is deterministic and a weight-3 tenant gets 3x the
//    dequeues of a weight-1 tenant under saturation);
//  * admission deadlines: a job that waits in the queue past its admitBy
//    point is dropped (checked when a worker would dequeue it, and while a
//    Block-policy submitter waits for space). Within a (class, tenant)
//    bucket, deadline-bearing jobs dequeue earliest-deadline-first ahead of
//    unbounded ones (EDF); with no deadlines the bucket is the historical
//    FIFO;
//  * an optional adaptive controller (ControlPolicy): per-class service-time
//    EWMAs from completed jobs derive the effective queue capacity via
//    Little's law (target queue delay x workers / mean service time) and an
//    early-shed watermark, instead of steering on the static queueCapacity;
//  * cancellation of queued jobs by id, and a two-mode shutdown (Drain runs
//    everything accepted; CancelPending drops the queue).
//
// Jobs that will never run are reported exactly once through their onDrop
// callback with the reason; a job is either run() or onDrop()'d, never both.
// Callbacks fire outside the scheduler lock (on the submitter, worker,
// canceller or shutdown thread — whichever decided the drop).

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

namespace netembed::util {

/// What submit() does when the queue is at capacity.
enum class OverloadPolicy : std::uint8_t {
  /// Wait for space (or for the job's admission deadline / shutdown).
  Block,
  /// Drop the newcomer immediately with QosDropReason::Rejected.
  Reject,
  /// Make room by evicting the most recently admitted job of the lowest
  /// queued priority class — if the newcomer outranks it. A newcomer at (or
  /// below) the lowest queued priority is itself the shed victim.
  ShedLowestPriority,
};
[[nodiscard]] const char* overloadPolicyName(OverloadPolicy p) noexcept;

/// Why a job was dropped without running.
enum class QosDropReason : std::uint8_t { Rejected, Shed, Expired, Cancelled };
[[nodiscard]] const char* qosDropReasonName(QosDropReason r) noexcept;

class QosScheduler {
 public:
  using JobId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  /// Closed-loop admission control. Defaults reproduce the static behavior
  /// exactly: a fixed queueCapacity bound and no early shedding.
  struct ControlPolicy {
    /// Per-class service-time EWMA smoothing factor in (0, 1].
    static constexpr double kServiceEwmaAlpha = 0.2;
    /// Clamp range of the adaptive capacity.
    static constexpr std::size_t kMinAdaptiveCapacity = 2;
    static constexpr std::size_t kMaxAdaptiveCapacity = 4096;

    /// Derive the effective queue capacity from observed service times:
    /// capacity = targetQueueDelay * workers / mean service time (the mean
    /// weighted over per-class EWMAs by completion count), clamped to
    /// [kMinAdaptiveCapacity, kMaxAdaptiveCapacity]. Until the first
    /// completion the static queueCapacity applies. Off = always the static
    /// bound.
    bool adaptiveCapacity = false;
    /// The queue delay the adaptive capacity aims to keep a newly admitted
    /// job under (Little's law inversion).
    std::chrono::milliseconds targetQueueDelay{250};
    /// Under ShedLowestPriority only: when the queue depth reaches this
    /// fraction of the effective capacity, a newcomer ranking strictly below
    /// the highest queued class is shed immediately — reserving the
    /// remaining headroom for top-class work. 1.0 (the default) disables
    /// early shedding (only a full queue sheds).
    double lowPriorityShedWatermark = 1.0;
  };

  struct Options {
    /// Worker count; 0 selects the hardware concurrency (at least 1).
    std::size_t workers = 0;
    /// Queued-job bound (running jobs do not count); 0 = unbounded.
    std::size_t queueCapacity = 0;
    OverloadPolicy overload = OverloadPolicy::Block;
    ControlPolicy control{};
  };

  struct Job {
    /// Executed on a worker thread. Must not throw (exceptions are swallowed
    /// to keep the worker alive — wrap fallible work in its own try/catch).
    std::function<void()> run;
    /// Fired exactly once if the job will never run. May be empty. Must not
    /// throw (like run(), exceptions are swallowed — a throw must never
    /// strand the scheduler's internal drop accounting).
    std::function<void(QosDropReason)> onDrop;
    /// Higher dequeues strictly first.
    int priority = 0;
    /// Fair-queueing identity (see setTenantWeight).
    std::uint64_t tenant = 0;
    /// Queue-wait deadline; nullopt = wait forever.
    std::optional<Clock::time_point> admitBy;
  };

  enum class ShutdownMode : std::uint8_t {
    Drain,          // run every queued job, then join
    CancelPending,  // drop every queued job (onDrop(Cancelled)), then join;
                    // jobs already running finish on their own
  };

  QosScheduler();  // all-default Options
  explicit QosScheduler(Options options);
  /// shutdown(Drain) unless a shutdown already happened.
  ~QosScheduler();

  QosScheduler(const QosScheduler&) = delete;
  QosScheduler& operator=(const QosScheduler&) = delete;

  /// Admit one job. Returns its id, or 0 when the job was dropped instead —
  /// the onDrop callback has then already fired (Rejected/Shed per policy,
  /// Expired when a Block wait outlived the job's admission deadline,
  /// Rejected after shutdown).
  JobId submit(Job job);

  /// submit() that never blocks the caller: under OverloadPolicy::Block a
  /// full queue drops the job with Rejected instead of waiting for space.
  /// Safe to call from a scheduler worker thread (a blocking submit there
  /// could deadlock a single-worker scheduler); the preemption re-queue path
  /// uses exactly this.
  JobId trySubmit(Job job);

  /// Drop a still-queued job (onDrop(Cancelled) fires before returning).
  /// False when the job already started, finished, or was never queued —
  /// cancelling running work is the caller's business (stop tokens).
  bool cancel(JobId id);

  /// Fair-share weight for a tenant (default 1.0; clamped to > 0). Takes
  /// effect from the next dequeue. Tenants never seen keep the default.
  void setTenantWeight(std::uint64_t tenant, double weight);

  /// Block until no job is queued or running.
  void drain();

  /// Idempotent; joins the workers. Safe to call before destruction to pick
  /// CancelPending.
  void shutdown(ShutdownMode mode);

  [[nodiscard]] std::size_t queuedCount() const;
  [[nodiscard]] std::size_t runningCount() const;
  /// Queued + running.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::size_t workerCount() const noexcept;

  struct Stats {
    std::uint64_t accepted = 0;   // submit() admissions
    std::uint64_t completed = 0;  // run() returned
    std::uint64_t rejected = 0;   // dropped: queue full / shutdown
    std::uint64_t shed = 0;       // dropped: ShedLowestPriority
    std::uint64_t expired = 0;    // dropped: admission deadline
    std::uint64_t cancelled = 0;  // dropped: cancel() or CancelPending
    // Admission-latency distribution: queue wait from a job's admission to
    // the moment a worker dequeues it (expired dequeues included — they
    // waited too). Estimated from a fixed-size uniform reservoir so the
    // memory stays O(1) no matter how long the scheduler lives; the
    // percentiles are what an adaptive admission controller would steer on
    // (derive capacity / shed thresholds from observed wait, not a static
    // knob). Zero until the first dequeue.
    std::uint64_t admissionWaitSamples = 0;  // dequeues observed (not capped)
    // Nearest-rank percentiles (see util::quantileNearestRank): always an
    // observed wait, never an interpolation, and the rank rounds up so the
    // tail is not under-reported.
    double admissionWaitP50Ms = 0.0;
    double admissionWaitP99Ms = 0.0;

    /// Per-priority-class service/wait tracking (one entry per class ever
    /// completed or dequeued, ascending priority) — the signals the adaptive
    /// controller steers on, surfaced for benches and dashboards.
    struct ClassStats {
      int priority = 0;
      std::uint64_t completed = 0;   // run() returned
      double serviceEwmaMs = 0.0;    // EWMA of run() wall time
      std::uint64_t waitSamples = 0; // dequeues observed for this class
      double waitP50Ms = 0.0;
      double waitP99Ms = 0.0;
    };
    std::vector<ClassStats> classes;
    /// The capacity admissions are currently checked against: the static
    /// queueCapacity, or the adaptive derivation once it has service-time
    /// data (0 = unbounded).
    std::size_t effectiveCapacity = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  JobId submitImpl(Job job, bool allowBlock);

  struct Impl;
  Impl* impl_;  // pimpl keeps <thread>/<condition_variable>/<map> out here
};

}  // namespace netembed::util
