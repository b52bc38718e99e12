#pragma once
// The VNE scorecard: what one simulated scenario run is judged by.
//
// Dynamic-VNE papers compare embedders on a small canon of time-series
// metrics — acceptance ratio, revenue/cost, substrate utilization — measured
// under an arrival/departure process rather than on isolated instances.
// sim::Metrics is the accumulator the sim::Driver feeds while replaying a
// trace; finalize() freezes it into a Scorecard and *enforces the accounting
// identity*: every submitted request must land in exactly one terminal
// status (done + rejected + expired + preempted + failed + cancelled ==
// submitted), and the withdrawals at departure must be among the cancelled.
// A violation is a harness bug, not a data point, so it throws
// std::logic_error instead of producing a plausible-looking report.
//
// Utilization is integrated in time (reserved capacity x duration) and
// reported per bucket, so a burst that saturates the substrate mid-run is
// visible as a utilization plateau plus an acceptance dip in the same
// bucket — the signature plot of the dynamic regime.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/qos.hpp"

namespace netembed::sim {

/// Per-priority-class slice: submissions, acceptances, and the virtual (or
/// wall) admission-wait tail computed with util::quantileNearestRank.
struct ClassScore {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  double waitP50Ms = 0.0;
  double waitP99Ms = 0.0;
};

/// One time bucket of the scenario horizon.
struct BucketScore {
  std::uint64_t startUs = 0;
  std::uint64_t endUs = 0;
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t departures = 0;
  double acceptanceRatio = 0.0;  // accepted / arrivals (0 when no arrivals)
  double cpuUtilization = 0.0;   // time-averaged reserved cpu / capacity
  double bwUtilization = 0.0;    // time-averaged reserved bw / capacity
};

/// Ticket terminal statuses; the accounting identity binds these.
struct TerminalCounts {
  std::size_t submitted = 0;
  std::size_t done = 0;
  std::size_t rejected = 0;
  std::size_t expired = 0;
  std::size_t preempted = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  /// Departures that withdrew a still-unresolved request (its ticket cancel
  /// took hold and it resolved Cancelled): the embedding's lifetime lapsed
  /// before service. A subset of `cancelled`, outside the identity.
  std::size_t withdrawnAtDeparture = 0;
};

/// Control-plane churn over the run (service::ControlStats deltas plus
/// driver-side counts).
struct ChurnScore {
  std::uint64_t preemptionsFired = 0;
  std::uint64_t transientRetries = 0;
  std::uint64_t retriesAbandoned = 0;
  std::uint64_t cacheBypassFallbacks = 0;
  std::uint64_t faultsInjected = 0;
  std::uint64_t mutationsApplied = 0;
  std::uint64_t planBuilds = 0;   // process-counter deltas over the run
  std::uint64_t planPatches = 0;
};

/// Frozen result of one scenario run. Byte-deterministic per seed when the
/// driver ran on the virtual clock (toJson() of two same-seed runs compares
/// equal) — the CI sim-smoke gate.
struct Scorecard {
  std::string scenario;
  std::string config;
  std::uint64_t seed = 0;
  std::uint64_t horizonUs = 0;

  TerminalCounts terminals;
  /// Sim-level outcome classification (finer than ticket status): accepted
  /// embeddings hold reservations until departure; a Done ticket with no
  /// feasible embedding while reservations hold resources is a *capacity*
  /// reject (trace queries are feasible on the pristine host by
  /// construction, so the depleted substrate is what refused), with no
  /// reservations active it is a no-solution reject; a virtual-deadline
  /// miss is an expiredVirtual (adjudicated driver-side on the virtual
  /// clock, so it never reaches the service).
  std::size_t accepted = 0;
  std::size_t rejectedNoSolution = 0;
  std::size_t rejectedCapacity = 0;
  std::size_t expiredVirtual = 0;
  double acceptanceRatio = 0.0;

  double revenue = 0.0;  // sum of accepted demands (cpu + bw)
  double cost = 0.0;     // accepted resources + compute cost over *all* requests
  double revenueCostRatio = 0.0;

  double avgCpuUtilization = 0.0;
  double peakCpuUtilization = 0.0;
  double avgBwUtilization = 0.0;
  double peakBwUtilization = 0.0;
  /// True when an arrival was capacity-rejected and a later arrival was
  /// accepted after at least one departure — the departures-release-capacity
  /// proof the acceptance gate checks.
  bool reacceptedAfterSaturation = false;

  std::array<ClassScore, 3> byClass{};  // indexed by service::Priority
  std::vector<BucketScore> buckets;
  ChurnScore churn;

  void writeJson(std::ostream& out, int indent = 0) const;
  void printTable(std::ostream& out) const;
  [[nodiscard]] std::string toJson() const;
};

/// Streaming accumulator the driver feeds event by event.
class Metrics {
 public:
  struct Options {
    std::uint64_t horizonUs = 1;
    std::size_t buckets = 8;
    double cpuCapacity = 1.0;  // total substrate cpu capacity (for utilization)
    double bwCapacity = 1.0;   // total substrate bw capacity
    double computeCostPerVisit = 1e-3;
  };

  explicit Metrics(const Options& options);

  // --- arrival lifecycle ---------------------------------------------------
  void onArrival(std::uint64_t tUs, service::Priority p);
  void onAccepted(std::uint64_t tUs, service::Priority p, double revenue,
                  double resourceCost);
  void onRejectedNoSolution();
  void onRejectedCapacity();
  void onExpiredVirtual();
  void onDeparture(std::uint64_t tUs);
  void onWaitSample(service::Priority p, double waitMs);
  void onCompute(std::uint64_t treeNodesVisited);
  /// Record a ticket's terminal status; throws std::logic_error for a
  /// non-terminal status (Queued/Running/Retrying) — the driver must only
  /// report settled tickets.
  void onTerminalStatus(service::RequestStatus s);
  /// A departure withdrew its unresolved request (see
  /// TerminalCounts::withdrawnAtDeparture).
  void onWithdrawnAtDeparture();

  // --- utilization timeline ------------------------------------------------
  /// Integrate the currently reserved capacity forward to tUs (monotonic).
  void advanceTo(std::uint64_t tUs);
  /// Update the reserved totals after a reserve/release at the current time.
  void setReserved(double cpu, double bw);

  ChurnScore& churn() noexcept { return churn_; }

  /// Freeze into a Scorecard. Integrates the timeline to the horizon,
  /// computes ratios and wait quantiles, and enforces the accounting
  /// identity (throws std::logic_error on violation).
  [[nodiscard]] Scorecard finalize(std::string scenario, std::string config,
                                   std::uint64_t seed) const;

 private:
  struct BucketAcc {
    std::size_t arrivals = 0;
    std::size_t accepted = 0;
    std::size_t departures = 0;
    double cpuIntegralUs = 0.0;
    double bwIntegralUs = 0.0;
  };

  [[nodiscard]] std::size_t bucketIndex(std::uint64_t tUs) const noexcept;

  Options opt_;
  std::vector<BucketAcc> buckets_;
  TerminalCounts terminals_;
  std::size_t accepted_ = 0;
  std::size_t rejectedNoSolution_ = 0;
  std::size_t rejectedCapacity_ = 0;
  std::size_t expiredVirtual_ = 0;
  double revenue_ = 0.0;
  double resourceCost_ = 0.0;
  std::uint64_t visits_ = 0;
  std::array<std::size_t, 3> classSubmitted_{};
  std::array<std::size_t, 3> classAccepted_{};
  std::array<std::vector<double>, 3> classWaitsMs_;
  bool sawCapacityReject_ = false;
  bool sawDeparture_ = false;
  bool sawDepartureSinceCapacityReject_ = false;
  bool reaccepted_ = false;
  ChurnScore churn_;
  // utilization timeline
  std::uint64_t cursorUs_ = 0;
  double reservedCpu_ = 0.0;
  double reservedBw_ = 0.0;
  double peakCpu_ = 0.0;
  double peakBw_ = 0.0;
};

}  // namespace netembed::sim
