// The dynamic-workload simulator: seeded trace generators round-trip through
// CSV and replay deterministically; the scorecard's accounting identity is
// enforced (a violation throws, never reports); live reservations deplete
// and departures verifiably re-open capacity; chaos composition stays
// byte-deterministic; and the wall-clock mode resolves every ticket.

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;

// ---------------------------------------------------------------------------
// Trace generation + CSV
// ---------------------------------------------------------------------------

TEST(SimTrace, GeneratorDeterministicSortedAndPaired) {
  sim::TraceGenOptions g;
  g.seed = 404;
  g.arrivals = 32;
  g.mutationsPerArrival = 0.5;

  const sim::Trace a = sim::poissonTrace(g);
  const sim::Trace b = sim::poissonTrace(g);
  EXPECT_EQ(a, b) << "same seed must generate the identical trace";

  g.seed = 405;
  EXPECT_FALSE(a == sim::poissonTrace(g));

  EXPECT_EQ(a.arrivalCount(), 32u);
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].timeUs, a.events[i].timeUs);
  }
  // Every arrival has exactly one departure, holdUs later.
  std::size_t departures = 0;
  for (const sim::TraceEvent& e : a.events) {
    if (e.kind != sim::TraceEventKind::Arrival) {
      departures += e.kind == sim::TraceEventKind::Departure;
      continue;
    }
    ASSERT_GT(e.holdUs, 0u);
    bool found = false;
    for (const sim::TraceEvent& d : a.events) {
      if (d.kind == sim::TraceEventKind::Departure && d.id == e.id) {
        EXPECT_EQ(d.timeUs, e.timeUs + e.holdUs);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "arrival " << e.id << " has no departure";
  }
  EXPECT_EQ(departures, a.arrivalCount());
}

TEST(SimTrace, BurstAndDiurnalShapesDiffer) {
  sim::TraceGenOptions g;
  g.seed = 7;
  g.arrivals = 24;
  const sim::Trace p = sim::poissonTrace(g);
  const sim::Trace burst = sim::burstTrace(g);
  const sim::Trace diurnal = sim::diurnalTrace(g);
  EXPECT_FALSE(p == burst);
  EXPECT_FALSE(p == diurnal);
  EXPECT_EQ(burst.arrivalCount(), 24u);
  EXPECT_EQ(diurnal.arrivalCount(), 24u);
}

TEST(SimTrace, CsvRoundTripIsExact) {
  sim::TraceGenOptions g;
  g.seed = 99;
  g.arrivals = 20;
  g.mutationsPerArrival = 0.7;  // exercise the mutation rows too
  const sim::Trace trace = sim::diurnalTrace(g);

  std::ostringstream out;
  trace.writeCsv(out);
  std::istringstream in(out.str());
  const sim::Trace parsed = sim::Trace::readCsv(in);
  EXPECT_EQ(trace, parsed)
      << "CSV round trip must be exact (doubles written with %.17g)";
}

TEST(SimTrace, CsvRejectsMalformedInput) {
  {
    std::istringstream in("not,a,trace,header\n");
    EXPECT_THROW((void)sim::Trace::readCsv(in), std::runtime_error);
  }
  {
    // Valid header, truncated row.
    sim::Trace t;
    std::ostringstream out;
    t.writeCsv(out);
    std::istringstream in(out.str() + "100,arrival,0\n");
    EXPECT_THROW((void)sim::Trace::readCsv(in), std::runtime_error);
  }
  {
    sim::Trace t;
    std::ostringstream out;
    t.writeCsv(out);
    std::istringstream in(out.str() +
                          "100,teleport,0,3,3,1,normal,0,0,0,50,1,1,0\n");
    EXPECT_THROW((void)sim::Trace::readCsv(in), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Scorecard accounting
// ---------------------------------------------------------------------------

TEST(SimMetrics, AccountingIdentityEnforced) {
  sim::Metrics::Options o;
  o.horizonUs = 1000;
  sim::Metrics m(o);
  m.onArrival(0, service::Priority::Normal);
  m.onArrival(10, service::Priority::Normal);
  m.onTerminalStatus(service::RequestStatus::Done);
  // One arrival never settled: the identity must throw, not report.
  EXPECT_THROW((void)m.finalize("s", "c", 1), std::logic_error);
  m.onTerminalStatus(service::RequestStatus::Rejected);
  EXPECT_NO_THROW((void)m.finalize("s", "c", 1));
  // A withdrawal at departure must be one of the cancelled terminals.
  m.onWithdrawnAtDeparture();
  EXPECT_THROW((void)m.finalize("s", "c", 1), std::logic_error);
}

TEST(SimMetrics, NonTerminalStatusIsAHarnessBug) {
  sim::Metrics m(sim::Metrics::Options{});
  EXPECT_THROW(m.onTerminalStatus(service::RequestStatus::Queued),
               std::logic_error);
  EXPECT_THROW(m.onTerminalStatus(service::RequestStatus::Running),
               std::logic_error);
  EXPECT_THROW(m.onTerminalStatus(service::RequestStatus::Retrying),
               std::logic_error);
}

TEST(SimMetrics, BucketedUtilizationIntegratesReservations) {
  sim::Metrics::Options o;
  o.horizonUs = 1000;
  o.buckets = 2;  // span 500us each
  o.cpuCapacity = 10.0;
  o.bwCapacity = 4.0;
  o.computeCostPerVisit = 1e-3;
  sim::Metrics m(o);

  m.onArrival(0, service::Priority::Normal);
  m.onTerminalStatus(service::RequestStatus::Done);
  m.onAccepted(0, service::Priority::Normal, 7.0, 7.0);
  m.onCompute(1000);
  m.setReserved(5.0, 2.0);
  m.advanceTo(600);  // crosses the bucket boundary at 500
  m.onDeparture(600);
  m.setReserved(0.0, 0.0);
  m.onWaitSample(service::Priority::Normal, 1.0);
  m.onWaitSample(service::Priority::Normal, 2.0);
  m.onWaitSample(service::Priority::Normal, 3.0);

  const sim::Scorecard s = m.finalize("unit", "unit", 1);
  ASSERT_EQ(s.buckets.size(), 2u);
  EXPECT_EQ(s.buckets[0].arrivals, 1u);
  EXPECT_EQ(s.buckets[0].accepted, 1u);
  EXPECT_EQ(s.buckets[1].departures, 1u);
  // [0,500): 5 cpu reserved of 10 => 50%; [500,600): 5 cpu over a 500us
  // bucket => 10%; the tail to the horizon integrates zero.
  EXPECT_DOUBLE_EQ(s.buckets[0].cpuUtilization, 0.5);
  EXPECT_DOUBLE_EQ(s.buckets[1].cpuUtilization, 0.1);
  EXPECT_DOUBLE_EQ(s.buckets[0].bwUtilization, 0.5);
  EXPECT_DOUBLE_EQ(s.buckets[1].bwUtilization, 0.1);
  EXPECT_DOUBLE_EQ(s.avgCpuUtilization, 0.3);
  EXPECT_DOUBLE_EQ(s.peakCpuUtilization, 0.5);
  EXPECT_DOUBLE_EQ(s.acceptanceRatio, 1.0);
  EXPECT_DOUBLE_EQ(s.revenue, 7.0);
  EXPECT_DOUBLE_EQ(s.cost, 8.0);  // 7 resource + 1000 visits * 1e-3
  EXPECT_DOUBLE_EQ(s.byClass[1].waitP50Ms, 2.0);
}

// ---------------------------------------------------------------------------
// Driver scenarios (virtual clock unless stated)
// ---------------------------------------------------------------------------

sim::Trace smallPoisson(std::uint64_t seed, std::size_t arrivals,
                        double mutationsPerArrival = 0.0) {
  sim::TraceGenOptions g;
  g.seed = seed;
  g.arrivals = arrivals;
  g.arrivalsPerSec = 150.0;
  g.meanHoldMs = 120.0;
  g.mutationsPerArrival = mutationsPerArrival;
  return sim::poissonTrace(g);
}

TEST(SimDriver, DeterministicScorecardPerSeed) {
  const graph::Graph host = sim::capacitatedHost(40, 3, 16.0, 24.0);
  const sim::Trace trace = smallPoisson(3, 24, 0.4);
  sim::DriverOptions opt;
  opt.service.workers = 2;

  sim::Driver a(host, opt);
  sim::Driver b(host, opt);
  const sim::Scorecard card = a.run(trace, "unit", "static", 3);
  // Serialized replay settles every ticket before the next event fires, so
  // no departure ever finds its request unresolved.
  EXPECT_EQ(card.terminals.withdrawnAtDeparture, 0u);
  const std::string ja = card.toJson();
  const std::string jb = b.run(trace, "unit", "static", 3).toJson();
  EXPECT_EQ(ja, jb) << "virtual clock must be byte-deterministic per seed";

  const sim::Trace other = smallPoisson(4, 24, 0.4);
  sim::Driver c(host, opt);
  EXPECT_NE(ja, c.run(other, "unit", "static", 3).toJson());
}

TEST(SimDriver, DepartureReleasesCapacity) {
  // The bench's burst_overload shape, scaled down: a tight host, on/off
  // bursts, long holds. Reservations must pile up to saturation (capacity
  // rejects) and departures must verifiably re-open admission.
  const graph::Graph host = sim::capacitatedHost(40, 21, 5.0, 8.0);
  sim::TraceGenOptions g;
  g.seed = 22;
  g.arrivals = 48;
  g.arrivalsPerSec = 120.0;
  g.meanHoldMs = 400.0;
  g.burstFactor = 8.0;
  g.burstLenMs = 60.0;
  g.gapLenMs = 140.0;
  g.cpuDemandMin = 2.0;
  g.cpuDemandMax = 3.0;
  g.bwDemandMin = 2.0;
  g.bwDemandMax = 4.0;
  g.deadlineShare = 0.0;
  const sim::Trace trace = sim::burstTrace(g);

  sim::DriverOptions opt;
  opt.service.workers = 2;
  sim::Driver driver(host, opt);
  const sim::Scorecard card = driver.run(trace, "burst", "static", 22);

  EXPECT_GT(card.rejectedCapacity, 0u) << "the burst must saturate the host";
  EXPECT_GT(card.accepted, 0u);
  EXPECT_TRUE(card.reacceptedAfterSaturation)
      << "an arrival after a departure must be re-accepted";
  EXPECT_EQ(card.accepted + card.rejectedNoSolution + card.rejectedCapacity +
                card.expiredVirtual,
            card.terminals.submitted)
      << "every virtual-clock arrival settles into exactly one outcome";
}

TEST(SimDriver, MutationEventsFlowThroughTheLiveModel) {
  const graph::Graph host = sim::capacitatedHost(40, 5, 16.0, 24.0);
  sim::TraceGenOptions g;
  g.seed = 55;
  g.arrivals = 24;
  g.mutationsPerArrival = 0.6;
  const sim::Trace trace = sim::diurnalTrace(g);
  std::size_t mutationEvents = 0;
  for (const sim::TraceEvent& e : trace.events) {
    mutationEvents += e.kind == sim::TraceEventKind::Mutation;
  }
  ASSERT_GT(mutationEvents, 0u);

  sim::DriverOptions opt;
  opt.service.workers = 2;
  sim::Driver driver(host, opt);
  const sim::Scorecard card = driver.run(trace, "diurnal", "static", 55);
  EXPECT_EQ(card.churn.mutationsApplied, mutationEvents);
  EXPECT_GT(card.churn.planBuilds, 0u);
}

TEST(SimDriver, VirtualDeadlineExpiryAdjudicatedDriverSide) {
  // One slow virtual worker, every arrival deadline-bound: queued arrivals
  // whose virtual wait exceeds the deadline are counted Expired by the
  // driver without ever reaching the service.
  const graph::Graph host = sim::capacitatedHost(40, 9, 16.0, 24.0);
  sim::TraceGenOptions g;
  g.seed = 66;
  g.arrivals = 16;
  g.arrivalsPerSec = 400.0;
  g.deadlineShare = 1.0;
  g.deadlineMs = 1.0;
  const sim::Trace trace = sim::poissonTrace(g);

  sim::DriverOptions opt;
  opt.service.workers = 2;
  opt.virtualWorkers = 1;
  opt.virtualBaseServiceUs = 20'000.0;  // 20ms per job >> 1ms deadline
  sim::Driver driver(host, opt);
  const sim::Scorecard card = driver.run(trace, "expiry", "static", 66);

  EXPECT_GT(card.expiredVirtual, 0u);
  EXPECT_EQ(card.terminals.expired, card.expiredVirtual);
  EXPECT_EQ(card.accepted + card.rejectedNoSolution + card.rejectedCapacity +
                card.expiredVirtual,
            card.terminals.submitted);
}

TEST(SimDriver, ChaosCompositionDeterministicAndDisarmed) {
  const graph::Graph host = sim::capacitatedHost(40, 13, 16.0, 24.0);
  const sim::Trace trace = smallPoisson(13, 24);

  sim::DriverOptions opt;
  opt.service.workers = 2;
  opt.chaosEnabled = true;
  opt.chaosSeed = util::deriveSeed(13, 99);
  opt.chaosPlanBuildProb = 0.25;
  opt.chaosEngineStepProb = 0.0008;
  opt.chaosMaxFiresPerSite = 12;
  opt.retryAttempts = 3;

  sim::Driver a(host, opt);
  const sim::Scorecard cardA = a.run(trace, "chaos", "retry", 13);
  EXPECT_FALSE(util::FaultInjector::enabled())
      << "the driver must disarm the process-wide injector";
  EXPECT_GT(cardA.churn.faultsInjected, 0u);

  sim::Driver b(host, opt);
  EXPECT_EQ(cardA.toJson(), b.run(trace, "chaos", "retry", 13).toJson())
      << "the same chaos seed must replay the same fault schedule";
}

TEST(SimDriver, WallClockModeResolvesAllTickets) {
  const graph::Graph host = sim::capacitatedHost(40, 17, 16.0, 24.0);
  const sim::Trace trace = smallPoisson(17, 16);

  sim::DriverOptions opt;
  opt.clock = sim::ClockMode::Wall;
  // The trace's mean hold is 120 ms; at 5x that is 24 ms of wall time, far
  // above a request's service time even under sanitizers or a loaded box.
  // At 200x (0.6 ms) every lifetime could lapse before its ticket resolved,
  // and each departure would cancel its pending request, leaving nothing
  // accepted.
  opt.wallSpeedup = 5.0;
  opt.service.workers = 2;
  sim::Driver driver(host, opt);
  // finalize() enforces the accounting identity, so a clean return proves
  // every ticket resolved to a terminal status.
  const sim::Scorecard card = driver.run(trace, "wall", "static", 17);
  EXPECT_EQ(card.terminals.submitted, trace.arrivalCount());
  EXPECT_GT(card.accepted, 0u);
  EXPECT_LE(card.terminals.withdrawnAtDeparture, card.terminals.cancelled);
}

}  // namespace
