// The word kernels and everything built on them.
//
// Three layers of evidence:
//   1. kernel matrix — every word kernel against an independently computed
//      reference, across word counts that straddle each vector width the
//      compiler may vectorize to and its scalar tail;
//   2. Bitset tails — the bit-level wrappers for sizes 0..130 and multi-word
//      rows, against a std::vector<bool> model (ghost bits past size() must
//      never appear);
//   3. dynamic ordering — it must keep its domain-count invariant and
//      enumerate exactly the static order's solution set.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/dynamic_order.hpp"
#include "core/ecf.hpp"
#include "core/plan.hpp"
#include "core/rwb.hpp"
#include "core/verify.hpp"
#include "topo/brite.hpp"
#include "topo/sample.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace {

using namespace netembed;

std::vector<std::uint64_t> randomWords(std::size_t n, util::Rng& rng) {
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& w : out) w = rng.next();
  return out;
}

// --- 1. kernel matrix ---------------------------------------------------------

class SimdKernels : public testing::TestWithParam<std::size_t> {};

// The portable kernels are the only ISA there is, so "every reachable ISA"
// is one run.
TEST_P(SimdKernels, EveryReachableIsaMatchesTheReference) {
  const std::size_t n = GetParam();
  util::Rng rng(7777 + n);
  const std::vector<std::uint64_t> a = randomWords(n, rng);
  const std::vector<std::uint64_t> b = randomWords(n, rng);
  const std::vector<std::uint64_t> c = randomWords(n, rng);

  // Independent references (plain loops, no shared code with the kernels).
  std::vector<std::uint64_t> refAnd(n), refCopyAndNot(n), refCopyAndAndNot(n);
  std::uint64_t refAliveAnd = 0, refAliveCaan = 0;
  std::size_t refPop = 0, refAndPop = 0;
  for (std::size_t i = 0; i < n; ++i) {
    refAnd[i] = a[i] & b[i];
    refAliveAnd |= refAnd[i];
    refCopyAndNot[i] = a[i] & ~b[i];
    refCopyAndAndNot[i] = a[i] & b[i] & ~c[i];
    refAliveCaan |= refCopyAndAndNot[i];
    refPop += static_cast<std::size_t>(__builtin_popcountll(a[i]));
    refAndPop += static_cast<std::size_t>(__builtin_popcountll(refAnd[i]));
  }

  std::vector<std::uint64_t> dst = a;
  EXPECT_EQ(util::simd::andInto(dst.data(), b.data(), n) != 0, refAliveAnd != 0);
  EXPECT_EQ(dst, refAnd);

  std::vector<std::uint64_t> out(n, ~std::uint64_t{0});
  util::simd::copyAndNot(out.data(), a.data(), b.data(), n);
  EXPECT_EQ(out, refCopyAndNot);

  out.assign(n, ~std::uint64_t{0});
  EXPECT_EQ(
      util::simd::copyAndAndNot(out.data(), a.data(), b.data(), c.data(), n) != 0,
      refAliveCaan != 0);
  EXPECT_EQ(out, refCopyAndAndNot);

  dst = a;
  EXPECT_EQ(util::simd::andIntoPopcount(dst.data(), b.data(), n), refAndPop);
  EXPECT_EQ(dst, refAnd);

  EXPECT_EQ(util::simd::popcount(a.data(), n), refPop);
}

// 0..9 cover every tail of a 2- and 4-word vector stride; 16/17 straddle an
// 8-word stride; the larger counts cover multi-stride rows with every tail
// length.
INSTANTIATE_TEST_SUITE_P(WordCounts, SimdKernels,
                         testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12,
                                         13, 15, 16, 17, 23, 24, 31, 33, 64, 130));

// --- 2. Bitset tails ---------------------------------------------------------

class SimdBitsetTails : public testing::TestWithParam<std::size_t> {};

/// Popcount of a row, through the kernel the engines use.
std::size_t rowCount(const util::Bitset& b) {
  return util::simd::popcount(b.words().data(), b.wordCount());
}

TEST_P(SimdBitsetTails, BitsetOpsMatchABoolVectorModel) {
  const std::size_t bits = GetParam();
  util::Rng rng(99 + bits);
  std::vector<bool> modelA(bits), modelB(bits), modelC(bits);
  util::Bitset a(bits), b(bits), c(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.bernoulli(0.4)) { modelA[i] = true; a.set(i); }
    if (rng.bernoulli(0.4)) { modelB[i] = true; b.set(i); }
    if (rng.bernoulli(0.2)) { modelC[i] = true; c.set(i); }
  }
  std::size_t refAndCount = 0;
  bool refAnyAnd = false;
  for (std::size_t i = 0; i < bits; ++i) {
    refAndCount += (modelA[i] && modelB[i]) ? 1u : 0u;
    refAnyAnd = refAnyAnd || (modelA[i] && modelB[i]);
  }

  util::Bitset d = a;
  EXPECT_EQ(d.andWith(b.words()), refAnyAnd);
  EXPECT_EQ(rowCount(d), refAndCount);
  for (std::size_t i = 0; i < bits; ++i) {
    ASSERT_EQ(d.test(i), modelA[i] && modelB[i]) << "bit " << i;
  }

  std::vector<std::uint64_t> row(a.words().begin(), a.words().end());
  EXPECT_EQ(util::simd::andIntoPopcount(row.data(), b.words().data(), row.size()),
            refAndCount);

  d.assign(bits);
  d.assignAndNot(a.words(), b);
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    ASSERT_EQ(d.test(i), modelA[i] && !modelB[i]) << "bit " << i;
    survivors += d.test(i) ? 1u : 0u;
  }
  EXPECT_EQ(rowCount(d), survivors);

  d.assign(bits);
  const bool alive = d.assignAndAndNot(a.words(), b.words(), c);
  bool refAlive = false;
  for (std::size_t i = 0; i < bits; ++i) {
    const bool expect = modelA[i] && modelB[i] && !modelC[i];
    ASSERT_EQ(d.test(i), expect) << "bit " << i;
    refAlive = refAlive || expect;
  }
  EXPECT_EQ(alive, refAlive);
}

// 0..130 covers every tail of the first three words; 319+ are multi-word
// rows whose bodies the compiler's vector loops run.
INSTANTIATE_TEST_SUITE_P(BitCounts, SimdBitsetTails,
                         testing::Values(0, 1, 2, 31, 32, 63, 64, 65, 66, 95,
                                         127, 128, 129, 130, 319, 320, 321, 512,
                                         515, 1024, 1030));

// --- 3. dynamic ordering ------------------------------------------------------

struct Instance {
  graph::Graph host{false};
  graph::Graph query{false};
  expr::ConstraintSet constraints;
};

core::SearchOptions enumerateAll(core::Ordering ordering,
                                 core::BitsetMode mode = core::BitsetMode::Auto) {
  core::SearchOptions o;
  o.ordering = ordering;
  o.bitsetMode = mode;
  o.storeLimit = 1u << 20;
  return o;
}

Instance smallInstance(std::uint64_t seed) {
  topo::BriteOptions bo;
  bo.nodes = 26;
  bo.m = 2;
  bo.seed = util::deriveSeed(seed, 1);
  Instance inst;
  inst.host = topo::brite(bo);
  util::Rng rng(util::deriveSeed(seed, 2));
  auto sub = topo::sampleConnectedSubgraph(inst.host, 5, 7, rng);
  topo::widenDelayWindows(sub.graph, 0.5);
  inst.query = std::move(sub.graph);
  inst.constraints = expr::ConstraintSet::edgeOnly(topo::delayWindowConstraint());
  return inst;
}

class OrderingDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingDifferential, DynamicEnumeratesTheStaticSolutionSet) {
  const Instance inst = smallInstance(GetParam());
  const core::Problem problem(inst.query, inst.host, inst.constraints);

  for (const core::BitsetMode mode :
       {core::BitsetMode::Off, core::BitsetMode::Auto, core::BitsetMode::Force}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const core::EmbedResult stat =
        core::ecfSearch(problem, enumerateAll(core::Ordering::Static, mode));
    const core::EmbedResult dyn =
        core::ecfSearch(problem, enumerateAll(core::Ordering::Dynamic, mode));
    ASSERT_EQ(stat.outcome, core::Outcome::Complete);
    ASSERT_EQ(dyn.outcome, core::Outcome::Complete);
    EXPECT_EQ(dyn.solutionCount, stat.solutionCount);
    // Same *set*; the visit order may legitimately differ.
    const std::set<core::Mapping> statSet(stat.mappings.begin(),
                                          stat.mappings.end());
    const std::set<core::Mapping> dynSet(dyn.mappings.begin(), dyn.mappings.end());
    EXPECT_EQ(dynSet, statSet);
    for (const core::Mapping& m : dyn.mappings) {
      EXPECT_TRUE(core::verifyMapping(problem, m).ok);
    }

    // RWB under dynamic ordering agrees on feasibility and returns a member
    // of the same solution set.
    core::SearchOptions rwbOpts = enumerateAll(core::Ordering::Dynamic, mode);
    rwbOpts.seed = 17;
    const core::EmbedResult rwb = core::rwbSearch(problem, rwbOpts);
    EXPECT_EQ(rwb.feasible(), stat.solutionCount > 0);
    if (rwb.feasible()) {
      EXPECT_TRUE(statSet.count(rwb.mappings[0]) > 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingDifferential,
                         testing::Values(11, 22, 33, 44, 55, 66));

TEST(OrderingDifferential, RootSplitWorkersAgreeUnderDynamic) {
  // One DomainTracker per root-split worker, no sharing: the parallel
  // dynamic enumeration must produce exactly the serial static set. (This
  // is the dynamic-order case the TSan CI job runs.)
  const Instance inst = smallInstance(77);
  const core::Problem problem(inst.query, inst.host, inst.constraints);
  const core::EmbedResult serial =
      core::ecfSearch(problem, enumerateAll(core::Ordering::Static));
  ASSERT_EQ(serial.outcome, core::Outcome::Complete);

  core::SearchOptions split = enumerateAll(core::Ordering::Dynamic);
  split.rootSplitThreads = 3;
  const core::EmbedResult parallel = core::ecfSearch(problem, split);
  ASSERT_EQ(parallel.outcome, core::Outcome::Complete);
  EXPECT_EQ(parallel.solutionCount, serial.solutionCount);
  EXPECT_EQ(std::set<core::Mapping>(parallel.mappings.begin(),
                                    parallel.mappings.end()),
            std::set<core::Mapping>(serial.mappings.begin(),
                                    serial.mappings.end()));
}

// --- DomainTracker invariants -------------------------------------------------

TEST(DomainTracker, CountsStayConsistentThroughRandomWalks) {
  const Instance inst = smallInstance(314);
  const core::Problem problem(inst.query, inst.host, inst.constraints);
  const auto plan =
      core::FilterPlan::build(problem, enumerateAll(core::Ordering::Dynamic));
  core::DomainTracker tracker(*plan);
  ASSERT_TRUE(tracker.countsConsistent());

  util::Rng rng(2718);
  const std::size_t nq = inst.query.nodeCount();
  std::vector<std::size_t> initialCounts(nq);
  for (graph::NodeId v = 0; v < nq; ++v) initialCounts[v] = tracker.liveCount(v);

  for (int walk = 0; walk < 40; ++walk) {
    // Descend to a random depth, asserting the popcount invariant after
    // every assign, then unwind fully and demand exact restoration.
    std::size_t depth = 0;
    while (tracker.assignedCount() < nq && rng.bernoulli(0.8)) {
      const graph::NodeId v = tracker.selectNext();
      ASSERT_FALSE(tracker.isAssigned(v));
      if (tracker.liveCount(v) == 0) break;
      // Pick a random live candidate from the maintained domain.
      std::vector<graph::NodeId> live;
      util::forEachSetBit(tracker.domain(v),
                          [&](std::size_t r) {
                            live.push_back(static_cast<graph::NodeId>(r));
                          });
      ASSERT_EQ(live.size(), tracker.liveCount(v));
      const graph::NodeId r = live[rng.index(live.size())];
      tracker.assign(v, r);  // dead-end results still must undo cleanly
      ++depth;
      ASSERT_TRUE(tracker.countsConsistent()) << "after assign at depth " << depth;
    }
    while (depth > 0) {
      tracker.unassign();
      --depth;
      ASSERT_TRUE(tracker.countsConsistent()) << "after unassign to depth " << depth;
    }
    ASSERT_EQ(tracker.assignedCount(), 0u);
    for (graph::NodeId v = 0; v < nq; ++v) {
      ASSERT_EQ(tracker.liveCount(v), initialCounts[v]) << "node " << v;
    }
  }
}

TEST(DomainTracker, FirstNodeMatchesTheLemma1Front) {
  const Instance inst = smallInstance(555);
  const core::Problem problem(inst.query, inst.host, inst.constraints);
  const auto plan =
      core::FilterPlan::build(problem, enumerateAll(core::Ordering::Static));
  // With the plan Lemma-1 sorted, the depth-0 dynamic pick is exactly the
  // static front: same count key, same tie-break.
  EXPECT_EQ(core::DomainTracker::firstNode(*plan), plan->order.front());
}

}  // namespace
