// Self-tests of the benchmark's own machinery: seeded inputs, the tail
// percentile rule and span self-time arithmetic.
//
//   perfbench_selftest
//
// The input checks build every workload's host three times (the 100k-node
// hugehost_pods host: ~15 s, ~1 GB). Exits non-zero if any check failed.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

using namespace perfbench;

std::uint64_t inputsFor(Workload w, std::uint64_t seed) {
  const graph::Graph host = makeHost(w);
  return hashInputs(w, host, seed, /*requests=*/24, /*batches=*/4);
}

void testInputs() {
  for (const Workload w :
       {Workload::PlanetlabChurn, Workload::BriteEnumerate, Workload::HugehostPods}) {
    const std::string name = workloadName(w);
    const std::uint64_t a = inputsFor(w, 1);
    check(a == inputsFor(w, 1), name + ": same seed gives identical inputs");
    check(a != inputsFor(w, 2), name + ": another seed gives different inputs");
  }
  // The held-out seed must not coincide with the tuning seeds 1..10.
  check(kHeldOutSeed > 10, "held-out seed lies outside the tuning seeds");
}

void testTailRule() {
  struct Case {
    std::size_t n;
    double percentile;
    std::size_t rank;
  };
  for (const Case c : {Case{100, 90.0, 90}, Case{1000, 99.0, 990},
                       Case{15000, 99.0, 14850}, Case{50, 80.0, 40},
                       Case{20, 50.0, 10}}) {
    const TailRank t = tailRank(c.n);
    check(t.rank == c.rank && std::abs(t.percentile - c.percentile) < 1e-9 && t.enough,
          "tail rule at n=" + std::to_string(c.n) + " is p" +
              std::to_string(c.percentile) + " (rank " + std::to_string(t.rank) + ")");
  }
  const TailRank few = tailRank(12);
  check(!few.enough && few.percentile == 50.0 && few.rank == 6,
        "tail rule below 20 samples falls back to the median");
  bool always = true;
  for (std::size_t n = 20; n <= 5000; ++n) {
    const TailRank t = tailRank(n);
    // At least 10 samples above, and no higher capped percentile would do.
    always = always && n - t.rank >= kTailBeyond && t.percentile <= kTailCapPercent &&
             (t.percentile == kTailCapPercent || n - (t.rank + 1) < kTailBeyond) &&
             nearestRank(t.percentile, n) == t.rank;
  }
  check(always, "tail rule leaves >= 10 samples above for n in [20, 5000]");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  check(atRank(v, tailRank(v.size()).rank) == 90.0, "p90 of 1..100 is 90");
  check(median(v) == 50.0, "nearest-rank median of 1..100 is 50");
}

void testSelfTimes() {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] runs past
  // the parent; a grandchild inside the first child must not count.
  std::vector<Span> spans = {
      {1, 0, 7, "service", "parent", 0, 100},
      {2, 1, 7, "expr", "a", 10, 30},
      {3, 1, 7, "core", "b", 20, 50},
      {4, 1, 7, "core", "c", 90, 120},
      {5, 2, 7, "core", "grandchild", 12, 18},
      {6, 0, 8, "service", "lone", 5, 9},
  };
  const auto self = selfTimes(spans);
  check(self.at(1) == 100 - 40 - 10, "parent self = duration - union of children");
  check(self.at(2) == 20 - 6, "child self excludes its own child");
  check(self.at(4) == 30, "leaf self = duration");
  check(self.at(6) == 4, "root without children keeps its duration");
  SpanLog log(true);
  const std::uint64_t id = log.record(1, 0, "core", "core.search", [] {});
  check(log.spans().size() == 1 && log.spans()[0].id == id && id != 0 &&
            log.spans()[0].endNs >= log.spans()[0].startNs,
        "span log records a timed call");
  SpanLog off(false);
  int ran = 0;
  check(off.record(1, 0, "core", "x", [&] { ++ran; }) == 0 && ran == 1 &&
            off.spans().empty(),
        "disabled span log runs the call and records nothing");
}

}  // namespace

int main() {
  testTailRule();
  testSelfTimes();
  testInputs();
  std::cout << (failures == 0 ? "all self-tests passed\n" : "self-tests FAILED\n");
  return failures == 0 ? 0 : 1;
}
