#pragma once
// Deterministic, site-keyed fault injection.
//
// NETEMBED's robustness story (retrying tickets, graceful degradation) is
// only trustworthy if the failure paths are *testable*: this registry plants
// named probe sites at the hot seams — thread-pool dispatch, stage-1 plan
// build/patch, scheduler dequeue, the per-visit engine poll — and fires
// faults on a seeded, reproducible schedule. Inert by default: a disabled
// injector costs each probe one relaxed atomic load and nothing else, so the
// probes stay compiled into production paths.
//
// Determinism: the decision for the N-th arrival at a site is a pure
// function of (seed, site name, N). Two runs with the same seed, the same
// armed specs and the same per-site arrival counts fire the same faults —
// which is exactly what a chaos test replays.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace netembed::util {

namespace detail {
/// The global probe gate. Header-visible so FaultInjector::enabled() inlines
/// to a single relaxed load — the per-visited-node engine probe cannot
/// afford an out-of-line call.
extern std::atomic<bool> gFaultsEnabled;
}  // namespace detail

/// What an armed probe site throws. Deliberately a plain std::runtime_error
/// subtype: every layer that must survive "some component failed" (the
/// shared plan builder's transient-failure path, ticket resolution, retry
/// classification) already handles that shape.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(std::string site)
      : std::runtime_error("injected fault at site '" + site + "'"),
        site_(std::move(site)) {}
  [[nodiscard]] const std::string& site() const noexcept { return site_; }

 private:
  std::string site_;
};

/// Firing schedule for one armed site.
struct FaultSpec {
  /// Chance each arrival (past skipFirst) fires, decided deterministically
  /// from (seed, site, arrival index). 1.0 = every arrival.
  double probability = 1.0;
  /// Arrivals at the site that never fire, before the schedule starts.
  /// {skipFirst: N, maxFires: 1} crashes exactly the (N+1)-th arrival —
  /// the deterministic "mid-search crash on attempt 1" recipe.
  std::uint64_t skipFirst = 0;
  /// Total fires after which the site goes quiet. 0 = unlimited.
  std::uint64_t maxFires = 0;
  /// Sleep served on every fire, before any throw: latency-spike
  /// simulation.
  std::chrono::milliseconds delay{0};
  /// Whether a throwing probe (faultPoint) actually throws on fire. False
  /// turns a throw-site into a pure delay fault.
  bool throws = true;
};

/// The process-wide registry. Typical test shape:
///
///   auto& fi = util::FaultInjector::instance();
///   fi.enable(seed);
///   fi.arm(util::faultsite::kEngineStep, {.skipFirst = 100, .maxFires = 1});
///   ... run the workload ...
///   fi.disable();  // clears every site and counter
class FaultInjector {
 public:
  [[nodiscard]] static FaultInjector& instance();

  /// The zero-cost gate every probe checks first: one relaxed atomic load,
  /// inlined at the call site.
  [[nodiscard]] static bool enabled() noexcept {
    return detail::gFaultsEnabled.load(std::memory_order_relaxed);
  }

  /// Turn injection on under `seed`. Sites armed earlier stay armed; their
  /// arrival/fire counters reset so a schedule replays from the start.
  void enable(std::uint64_t seed);
  /// Turn injection off and clear every armed site and counter.
  void disable();

  /// Arm (or re-arm, resetting its counters) one probe site.
  void arm(const char* site, FaultSpec spec = {});

  /// Probe side: count one arrival at `site` and decide whether it fires.
  /// Serves spec.delay on a fire. Unarmed sites never fire (and are not
  /// counted). `specOut`, when given, receives the armed spec on a fire.
  [[nodiscard]] bool shouldFire(const char* site, FaultSpec* specOut = nullptr);

  /// Arrivals counted at a site since it was (re-)armed.
  [[nodiscard]] std::uint64_t arrivals(const char* site) const;
  /// Fires served at a site since it was (re-)armed.
  [[nodiscard]] std::uint64_t fires(const char* site) const;

 private:
  FaultInjector() = default;
  struct Impl;
  [[nodiscard]] Impl& impl() const;
};

/// Probe helpers (all no-ops while the injector is disabled or the site is
/// unarmed; callers still guard with FaultInjector::enabled() to keep the
/// hot path at a single relaxed load):

/// Decision probe: true when the site fires (after serving its delay).
[[nodiscard]] bool faultFires(const char* site);
/// Throwing probe: serve the delay, then throw InjectedFault on a fire
/// (unless the spec was armed with throws = false).
void faultPoint(const char* site);
/// Delay-only probe: serve the delay on a fire, never throw.
void faultDelay(const char* site);

/// The probe-site catalogue (see README "Fault tolerance" for what each
/// simulates and which degradation answers it).
namespace faultsite {
/// ThreadPool worker checks before dequeuing: a fire makes the worker exit
/// (worker-death simulation; the last one drains the queue first).
inline constexpr const char* kPoolWorkerDeath = "pool.worker_death";
/// ThreadPool::submit: a fire throws (task-spawn failure simulation).
inline constexpr const char* kPoolSubmit = "pool.submit";
/// FilterPlan::build: allocation-failure simulation for stage-1 builds.
inline constexpr const char* kPlanBuild = "plan.build";
/// FilterPlan::patch: same, for the incremental path.
inline constexpr const char* kPlanPatch = "plan.patch";
/// The filtered engines' build-cancellation predicate: a fire reports
/// "cancelled" without any real stop (spurious cancellation).
inline constexpr const char* kPlanCancel = "plan.spurious_cancel";
/// QosScheduler worker between dequeue and dispatch: delay-only
/// (clock-skew / scheduling latency spike).
inline constexpr const char* kQosDequeue = "qos.dequeue";
/// SearchContext::shouldStop — the one poll every engine runs per visited
/// node: mid-search crash.
inline constexpr const char* kEngineStep = "engine.step";
}  // namespace faultsite

}  // namespace netembed::util
