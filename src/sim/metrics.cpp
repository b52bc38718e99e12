#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/csv.hpp"
#include "util/stats.hpp"

namespace netembed::sim {

namespace {

std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

const char* kClassNames[3] = {"low", "normal", "high"};

}  // namespace

Metrics::Metrics(const Options& options) : opt_(options) {
  if (opt_.horizonUs == 0) opt_.horizonUs = 1;
  if (opt_.buckets == 0) opt_.buckets = 1;
  buckets_.resize(opt_.buckets);
}

std::size_t Metrics::bucketIndex(std::uint64_t tUs) const noexcept {
  // Buckets span ceil(horizon/buckets) us each (the last one may be shorter);
  // advanceTo() and finalize() use the same boundaries.
  const std::uint64_t span = (opt_.horizonUs + buckets_.size() - 1) / buckets_.size();
  return std::min(static_cast<std::size_t>(tUs / std::max<std::uint64_t>(span, 1)),
                  buckets_.size() - 1);
}

void Metrics::onArrival(std::uint64_t tUs, service::Priority p) {
  ++terminals_.submitted;
  ++buckets_[bucketIndex(tUs)].arrivals;
  ++classSubmitted_[static_cast<std::size_t>(p)];
}

void Metrics::onAccepted(std::uint64_t tUs, service::Priority p, double revenue,
                         double resourceCost) {
  ++accepted_;
  ++buckets_[bucketIndex(tUs)].accepted;
  ++classAccepted_[static_cast<std::size_t>(p)];
  revenue_ += revenue;
  resourceCost_ += resourceCost;
  if (sawDepartureSinceCapacityReject_) reaccepted_ = true;
}

void Metrics::onRejectedNoSolution() { ++rejectedNoSolution_; }

void Metrics::onRejectedCapacity() {
  ++rejectedCapacity_;
  sawCapacityReject_ = true;
}

void Metrics::onExpiredVirtual() { ++expiredVirtual_; }

void Metrics::onDeparture(std::uint64_t tUs) {
  ++buckets_[bucketIndex(tUs)].departures;
  sawDeparture_ = true;
  if (sawCapacityReject_) sawDepartureSinceCapacityReject_ = true;
}

void Metrics::onWaitSample(service::Priority p, double waitMs) {
  classWaitsMs_[static_cast<std::size_t>(p)].push_back(waitMs);
}

void Metrics::onCompute(std::uint64_t treeNodesVisited) {
  visits_ += treeNodesVisited;
}

void Metrics::onTerminalStatus(service::RequestStatus s) {
  switch (s) {
    case service::RequestStatus::Done: ++terminals_.done; return;
    case service::RequestStatus::Rejected: ++terminals_.rejected; return;
    case service::RequestStatus::Expired: ++terminals_.expired; return;
    case service::RequestStatus::Preempted: ++terminals_.preempted; return;
    case service::RequestStatus::Failed: ++terminals_.failed; return;
    case service::RequestStatus::Cancelled: ++terminals_.cancelled; return;
    case service::RequestStatus::Queued:
    case service::RequestStatus::Running:
    case service::RequestStatus::Retrying:
      break;
  }
  throw std::logic_error(
      std::string("sim::Metrics: non-terminal ticket status '") +
      service::requestStatusName(s) + "' reported to the scorecard");
}

void Metrics::onWithdrawnAtDeparture() { ++terminals_.withdrawnAtDeparture; }

void Metrics::advanceTo(std::uint64_t tUs) {
  if (tUs <= cursorUs_) return;
  std::uint64_t t = std::min(cursorUs_, opt_.horizonUs);
  const std::uint64_t end = std::min(tUs, opt_.horizonUs);
  const std::uint64_t bucketSpan = (opt_.horizonUs + buckets_.size() - 1) / buckets_.size();
  while (t < end) {
    const std::size_t b = bucketIndex(t);
    const std::uint64_t bucketEnd =
        b + 1 == buckets_.size() ? opt_.horizonUs
                                 : std::min<std::uint64_t>((b + 1) * bucketSpan, opt_.horizonUs);
    const std::uint64_t seg = std::min(end, bucketEnd) - t;
    buckets_[b].cpuIntegralUs += reservedCpu_ * static_cast<double>(seg);
    buckets_[b].bwIntegralUs += reservedBw_ * static_cast<double>(seg);
    t += seg;
  }
  cursorUs_ = tUs;
}

void Metrics::setReserved(double cpu, double bw) {
  reservedCpu_ = cpu;
  reservedBw_ = bw;
  peakCpu_ = std::max(peakCpu_, cpu);
  peakBw_ = std::max(peakBw_, bw);
}

Scorecard Metrics::finalize(std::string scenario, std::string config,
                            std::uint64_t seed) const {
  const TerminalCounts& t = terminals_;
  const std::size_t settled =
      t.done + t.rejected + t.expired + t.preempted + t.failed + t.cancelled;
  if (settled != t.submitted) {
    throw std::logic_error(
        "sim::Metrics: accounting identity violated: done+rejected+expired+"
        "preempted+failed+cancelled = " +
        std::to_string(settled) + " but submitted = " +
        std::to_string(t.submitted));
  }
  if (t.withdrawnAtDeparture > t.cancelled) {
    throw std::logic_error(
        "sim::Metrics: withdrawn at departure = " +
        std::to_string(t.withdrawnAtDeparture) + " exceeds cancelled = " +
        std::to_string(t.cancelled));
  }
  if (accepted_ + rejectedNoSolution_ + rejectedCapacity_ + expiredVirtual_ >
      t.submitted) {
    throw std::logic_error("sim::Metrics: outcome classification exceeds submissions");
  }

  Scorecard s;
  s.scenario = std::move(scenario);
  s.config = std::move(config);
  s.seed = seed;
  s.horizonUs = opt_.horizonUs;
  s.terminals = t;
  s.accepted = accepted_;
  s.rejectedNoSolution = rejectedNoSolution_;
  s.rejectedCapacity = rejectedCapacity_;
  s.expiredVirtual = expiredVirtual_;
  s.acceptanceRatio =
      t.submitted ? static_cast<double>(accepted_) / static_cast<double>(t.submitted)
                  : 0.0;
  s.revenue = revenue_;
  s.cost = resourceCost_ +
           opt_.computeCostPerVisit * static_cast<double>(visits_);
  s.revenueCostRatio = s.cost > 0.0 ? s.revenue / s.cost : 0.0;
  s.reacceptedAfterSaturation = reaccepted_;
  s.churn = churn_;

  // Freeze the utilization timeline: a const snapshot mustn't mutate the
  // accumulator, so integrate the tail segment locally.
  std::vector<BucketAcc> buckets = buckets_;
  if (cursorUs_ < opt_.horizonUs) {
    Metrics tail(*this);
    tail.advanceTo(opt_.horizonUs);
    buckets = tail.buckets_;
  }
  const std::uint64_t bucketSpan = (opt_.horizonUs + buckets.size() - 1) / buckets.size();
  double cpuIntegral = 0.0;
  double bwIntegral = 0.0;
  s.buckets.reserve(buckets.size());
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    BucketScore bs;
    bs.startUs = b * bucketSpan;
    bs.endUs = b + 1 == buckets.size() ? opt_.horizonUs
                                       : std::min<std::uint64_t>((b + 1) * bucketSpan,
                                                                 opt_.horizonUs);
    bs.arrivals = buckets[b].arrivals;
    bs.accepted = buckets[b].accepted;
    bs.departures = buckets[b].departures;
    bs.acceptanceRatio =
        bs.arrivals ? static_cast<double>(bs.accepted) / static_cast<double>(bs.arrivals)
                    : 0.0;
    const double spanUs = static_cast<double>(bs.endUs - bs.startUs);
    if (spanUs > 0.0 && opt_.cpuCapacity > 0.0) {
      bs.cpuUtilization = buckets[b].cpuIntegralUs / (spanUs * opt_.cpuCapacity);
    }
    if (spanUs > 0.0 && opt_.bwCapacity > 0.0) {
      bs.bwUtilization = buckets[b].bwIntegralUs / (spanUs * opt_.bwCapacity);
    }
    cpuIntegral += buckets[b].cpuIntegralUs;
    bwIntegral += buckets[b].bwIntegralUs;
    s.buckets.push_back(bs);
  }
  const double horizon = static_cast<double>(opt_.horizonUs);
  if (opt_.cpuCapacity > 0.0) {
    s.avgCpuUtilization = cpuIntegral / (horizon * opt_.cpuCapacity);
    s.peakCpuUtilization = peakCpu_ / opt_.cpuCapacity;
  }
  if (opt_.bwCapacity > 0.0) {
    s.avgBwUtilization = bwIntegral / (horizon * opt_.bwCapacity);
    s.peakBwUtilization = peakBw_ / opt_.bwCapacity;
  }

  for (std::size_t c = 0; c < 3; ++c) {
    ClassScore& cs = s.byClass[c];
    cs.submitted = classSubmitted_[c];
    cs.accepted = classAccepted_[c];
    cs.waitP50Ms = util::quantileNearestRank(classWaitsMs_[c], 0.50);
    cs.waitP99Ms = util::quantileNearestRank(classWaitsMs_[c], 0.99);
  }
  return s;
}

void Scorecard::writeJson(std::ostream& out, int indent) const {
  const std::string p0(indent, ' ');
  const std::string p1(indent + 2, ' ');
  const std::string p2(indent + 4, ' ');
  out << p0 << "{\n";
  out << p1 << "\"scenario\": \"" << scenario << "\",\n";
  out << p1 << "\"config\": \"" << config << "\",\n";
  out << p1 << "\"seed\": " << seed << ",\n";
  out << p1 << "\"horizon_us\": " << horizonUs << ",\n";
  out << p1 << "\"terminals\": {\"submitted\": " << terminals.submitted
      << ", \"done\": " << terminals.done
      << ", \"rejected\": " << terminals.rejected
      << ", \"expired\": " << terminals.expired
      << ", \"preempted\": " << terminals.preempted
      << ", \"failed\": " << terminals.failed
      << ", \"cancelled\": " << terminals.cancelled
      << ", \"withdrawn_at_departure\": " << terminals.withdrawnAtDeparture
      << "},\n";
  out << p1 << "\"accepted\": " << accepted << ",\n";
  out << p1 << "\"rejected_no_solution\": " << rejectedNoSolution << ",\n";
  out << p1 << "\"rejected_capacity\": " << rejectedCapacity << ",\n";
  out << p1 << "\"expired_virtual\": " << expiredVirtual << ",\n";
  out << p1 << "\"acceptance_ratio\": " << jnum(acceptanceRatio) << ",\n";
  out << p1 << "\"revenue\": " << jnum(revenue) << ",\n";
  out << p1 << "\"cost\": " << jnum(cost) << ",\n";
  out << p1 << "\"revenue_cost_ratio\": " << jnum(revenueCostRatio) << ",\n";
  out << p1 << "\"avg_cpu_utilization\": " << jnum(avgCpuUtilization) << ",\n";
  out << p1 << "\"peak_cpu_utilization\": " << jnum(peakCpuUtilization) << ",\n";
  out << p1 << "\"avg_bw_utilization\": " << jnum(avgBwUtilization) << ",\n";
  out << p1 << "\"peak_bw_utilization\": " << jnum(peakBwUtilization) << ",\n";
  out << p1 << "\"reaccepted_after_saturation\": "
      << (reacceptedAfterSaturation ? "true" : "false") << ",\n";
  out << p1 << "\"by_class\": {";
  for (std::size_t c = 0; c < 3; ++c) {
    if (c) out << ", ";
    out << "\"" << kClassNames[c] << "\": {\"submitted\": " << byClass[c].submitted
        << ", \"accepted\": " << byClass[c].accepted
        << ", \"wait_p50_ms\": " << jnum(byClass[c].waitP50Ms)
        << ", \"wait_p99_ms\": " << jnum(byClass[c].waitP99Ms) << "}";
  }
  out << "},\n";
  out << p1 << "\"churn\": {\"preemptions_fired\": " << churn.preemptionsFired
      << ", \"transient_retries\": " << churn.transientRetries
      << ", \"retries_abandoned\": " << churn.retriesAbandoned
      << ", \"cache_bypass_fallbacks\": " << churn.cacheBypassFallbacks
      << ", \"faults_injected\": " << churn.faultsInjected
      << ", \"mutations_applied\": " << churn.mutationsApplied
      << ", \"plan_builds\": " << churn.planBuilds
      << ", \"plan_patches\": " << churn.planPatches << "},\n";
  out << p1 << "\"buckets\": [\n";
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const BucketScore& bs = buckets[b];
    out << p2 << "{\"start_us\": " << bs.startUs << ", \"end_us\": " << bs.endUs
        << ", \"arrivals\": " << bs.arrivals << ", \"accepted\": " << bs.accepted
        << ", \"departures\": " << bs.departures
        << ", \"acceptance_ratio\": " << jnum(bs.acceptanceRatio)
        << ", \"cpu_utilization\": " << jnum(bs.cpuUtilization)
        << ", \"bw_utilization\": " << jnum(bs.bwUtilization) << "}"
        << (b + 1 < buckets.size() ? "," : "") << "\n";
  }
  out << p1 << "]\n";
  out << p0 << "}";
}

std::string Scorecard::toJson() const {
  std::ostringstream out;
  writeJson(out, 0);
  return out.str();
}

void Scorecard::printTable(std::ostream& out) const {
  out << "scenario " << scenario << " | config " << config << " | seed " << seed
      << " | horizon " << horizonUs / 1000 << " ms\n";
  out << "  submitted " << terminals.submitted << "  accepted " << accepted
      << " (" << util::formatFixed(acceptanceRatio * 100.0, 1) << "%)"
      << "  reject[no-solution " << rejectedNoSolution << ", capacity "
      << rejectedCapacity << "]  expired(virtual) " << expiredVirtual
      << "  withdrawn at departure " << terminals.withdrawnAtDeparture << "\n";
  out << "  revenue " << util::formatFixed(revenue, 2) << "  cost "
      << util::formatFixed(cost, 2) << "  R/C "
      << util::formatFixed(revenueCostRatio, 3) << "  cpu-util avg "
      << util::formatFixed(avgCpuUtilization * 100.0, 1) << "% peak "
      << util::formatFixed(peakCpuUtilization * 100.0, 1) << "%  bw-util avg "
      << util::formatFixed(avgBwUtilization * 100.0, 1) << "% peak "
      << util::formatFixed(peakBwUtilization * 100.0, 1) << "%\n";
  out << "  churn: preemptions " << churn.preemptionsFired << ", retries "
      << churn.transientRetries << " (abandoned " << churn.retriesAbandoned
      << "), faults " << churn.faultsInjected << ", mutations "
      << churn.mutationsApplied << ", plan builds/patches " << churn.planBuilds
      << "/" << churn.planPatches
      << (reacceptedAfterSaturation ? "  [reaccepted after saturation]" : "")
      << "\n";

  util::TablePrinter classes({"class", "submitted", "accepted", "wait p50 ms",
                              "wait p99 ms"});
  for (std::size_t c = 0; c < 3; ++c) {
    classes.addRow({kClassNames[c], std::to_string(byClass[c].submitted),
                    std::to_string(byClass[c].accepted),
                    util::formatFixed(byClass[c].waitP50Ms, 3),
                    util::formatFixed(byClass[c].waitP99Ms, 3)});
  }
  classes.print(out);

  util::TablePrinter table({"bucket [ms]", "arrivals", "accepted", "departures",
                            "accept %", "cpu util %", "bw util %"});
  for (const BucketScore& b : buckets) {
    table.addRow({std::to_string(b.startUs / 1000) + ".." +
                      std::to_string(b.endUs / 1000),
                  std::to_string(b.arrivals), std::to_string(b.accepted),
                  std::to_string(b.departures),
                  util::formatFixed(b.acceptanceRatio * 100.0, 1),
                  util::formatFixed(b.cpuUtilization * 100.0, 1),
                  util::formatFixed(b.bwUtilization * 100.0, 1)});
  }
  table.print(out);
}

}  // namespace netembed::sim
