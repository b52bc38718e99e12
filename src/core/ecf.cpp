#include "core/ecf.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>

#include "core/dynamic_order.hpp"
#include "core/filter.hpp"
#include "core/plan.hpp"
#include "util/bitset.hpp"
#include "util/fault.hpp"
#include "util/latch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace netembed::core {

namespace {

/// One depth-first explorer over the shared plan. Serial search runs a
/// single worker over the whole root candidate list; root-split search runs
/// one per thread, pulling root candidates from a shared cursor. Stopping,
/// solution admission and maxSolutions accounting all go through the shared
/// SearchContext, so workers halt together and the solution count stays
/// exact.
class FilteredWorker {
 public:
  /// `ordering` is the *resolved* policy (Auto already collapsed to Static
  /// or Dynamic via chooseOrdering) so every worker of a team agrees.
  FilteredWorker(const Problem& problem, const FilterPlan& plan,
                 SearchContext& context, bool randomize, Ordering ordering,
                 std::uint64_t seed)
      : plan_(plan),
        context_(context),
        randomize_(randomize),
        dynamic_(ordering == Ordering::Dynamic),
        rng_(seed) {
    const std::size_t nq = problem.query->nodeCount();
    mapping_.assign(nq, graph::kInvalidNode);
    used_.assign(problem.host->nodeCount());
    scratch_.assign(problem.host->nodeCount());
    candidateBuffers_.resize(nq);
    if (dynamic_) tracker_ = std::make_unique<DomainTracker>(plan);
  }

  /// Explore the subtree of each root candidate claimed from `cursor`.
  void run(std::span<const graph::NodeId> roots, std::atomic<std::size_t>& cursor) {
    const graph::NodeId v0 =
        dynamic_ ? DomainTracker::firstNode(plan_) : plan_.order.front();
    for (;;) {
      if (limitsHit()) return;
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= roots.size()) return;
      const graph::NodeId r = roots[i];
      ++stats_.treeNodesVisited;
      mapping_[v0] = r;
      if (dynamic_) {
        // Domains absorb the used-set (r is dropped from every live domain),
        // so the dynamic path never consults `used_`.
        if (tracker_->assign(v0, r)) descendDynamic(1);
        tracker_->unassign();
      } else {
        used_.set(r);
        descend(1);
        used_.reset(r);
      }
      mapping_[v0] = graph::kInvalidNode;
      if (stopped_) return;
    }
  }

  [[nodiscard]] const SearchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool stoppedEarly() const noexcept { return stopped_; }

 private:
  bool limitsHit() {
    if (stopped_) return true;
    if (context_.shouldStop(stats_.treeNodesVisited)) stopped_ = true;
    return stopped_;
  }

  void collectCandidates(graph::NodeId v, std::vector<graph::NodeId>& out) {
    out.clear();
    const FilterMatrix& fm = plan_.filters;
    const auto& earlier = plan_.earlier[v];
    const auto emit = [&](std::size_t r) {
      out.push_back(static_cast<graph::NodeId>(r));
    };
    if (earlier.empty()) {
      // Root / next component: viable minus used, fused into one pass.
      scratch_.assignAndNot(fm.viableBits(v), used_);
      scratch_.forEachSet(emit);
      return;
    }
    // Word-parallel path (eq. 2): when every constrainer cell carries bitset
    // rows, AND them into the reusable scratch with viability and `used_`
    // folded into the first constrainer's pass (a & b & ~c in one sweep),
    // then walk the surviving bits. One scratch per worker suffices: the
    // result is drained into the per-depth buffer before the search descends.
    bool allBits = true;
    for (const FilterMatrix::Constrainer& c : earlier) {
      if (!fm.hasCandidateBits(c.owner, c.slot)) {
        allBits = false;
        break;
      }
    }
    if (allBits) {
      const FilterMatrix::Constrainer& first = earlier.front();
      if (!scratch_.assignAndAndNot(
              fm.candidateBits(first.owner, first.slot, mapping_[first.owner]),
              fm.viableBits(v), used_)) {
        return;
      }
      for (std::size_t i = 1; i < earlier.size(); ++i) {
        const FilterMatrix::Constrainer& c = earlier[i];
        if (!scratch_.andWith(fm.candidateBits(c.owner, c.slot, mapping_[c.owner]))) {
          return;
        }
      }
      scratch_.forEachSet(emit);
      return;
    }
    // Hybrid/CSR path: iterate the smallest sorted cell and probe the rest —
    // an O(1) bit test where a cell has rows, binary search where it is
    // sparse. Identical sets in identical (ascending) order as above.
    std::span<const graph::NodeId> base;
    const FilterMatrix::Constrainer* baseC = nullptr;
    std::size_t baseSize = static_cast<std::size_t>(-1);
    for (const FilterMatrix::Constrainer& c : earlier) {
      const auto cell = fm.candidates(c.owner, c.slot, mapping_[c.owner]);
      if (cell.size() < baseSize) {
        baseSize = cell.size();
        base = cell;
        baseC = &c;
      }
      if (baseSize == 0) return;
    }
    for (const graph::NodeId r : base) {
      if (used_.test(r)) continue;
      if (!fm.isViable(v, r)) continue;  // forward arc-consistency prune
      bool inAll = true;
      for (const FilterMatrix::Constrainer& c : earlier) {
        if (&c == baseC) continue;  // r was drawn from this cell
        if (fm.hasCandidateBits(c.owner, c.slot)) {
          if (!util::testBit(fm.candidateBits(c.owner, c.slot, mapping_[c.owner]), r)) {
            inAll = false;
            break;
          }
          continue;
        }
        const auto cell = fm.candidates(c.owner, c.slot, mapping_[c.owner]);
        if (!std::binary_search(cell.begin(), cell.end(), r)) {
          inAll = false;
          break;
        }
      }
      if (inAll) out.push_back(r);
    }
  }

  void descend(std::size_t depth) {
    if (limitsHit()) return;
    stats_.peakCovered = std::max(stats_.peakCovered, depth);
    if (depth == plan_.order.size()) {
      if (!context_.offerSolution(mapping_)) stopped_ = true;
      return;
    }
    const graph::NodeId v = plan_.order[depth];
    std::vector<graph::NodeId>& candidates = candidateBuffers_[depth];
    collectCandidates(v, candidates);
    if (randomize_) rng_.shuffle(candidates);

    for (const graph::NodeId r : candidates) {
      if (limitsHit()) return;
      ++stats_.treeNodesVisited;
      mapping_[v] = r;
      used_.set(r);
      descend(depth + 1);
      used_.reset(r);
      mapping_[v] = graph::kInvalidNode;
      if (stopped_) return;
    }
    ++stats_.backtracks;
  }

  /// Smallest-live-domain descent: pick the unassigned node with the fewest
  /// live candidates (tracker-maintained, exact in every bitset mode), walk
  /// its domain row, and let the tracker's wipeout signal prune assignments
  /// whose forward-checked neighbors lost their last candidate. Same
  /// solution set as descend(); only the visit order differs.
  void descendDynamic(std::size_t depth) {
    if (limitsHit()) return;
    stats_.peakCovered = std::max(stats_.peakCovered, depth);
    if (depth == plan_.order.size()) {
      if (!context_.offerSolution(mapping_)) stopped_ = true;
      return;
    }
    const graph::NodeId v = tracker_->selectNext();
    std::vector<graph::NodeId>& candidates = candidateBuffers_[depth];
    candidates.clear();
    util::forEachSetBit(tracker_->domain(v), [&](std::size_t r) {
      candidates.push_back(static_cast<graph::NodeId>(r));
    });
    if (randomize_) rng_.shuffle(candidates);

    for (const graph::NodeId r : candidates) {
      if (limitsHit()) return;
      ++stats_.treeNodesVisited;
      mapping_[v] = r;
      if (tracker_->assign(v, r)) descendDynamic(depth + 1);
      tracker_->unassign();
      mapping_[v] = graph::kInvalidNode;
      if (stopped_) return;
    }
    ++stats_.backtracks;
  }

  const FilterPlan& plan_;
  SearchContext& context_;
  bool randomize_;
  bool dynamic_;
  util::Rng rng_;

  Mapping mapping_;
  util::Bitset used_;     // host nodes taken by the current partial mapping
  util::Bitset scratch_;  // eq.-2 intersection accumulator
  std::vector<std::vector<graph::NodeId>> candidateBuffers_;
  std::unique_ptr<DomainTracker> tracker_;  // dynamic ordering only
  SearchStats stats_;
  bool stopped_ = false;
};

}  // namespace

namespace detail {

EmbedResult filteredSearch(const Problem& problem, SearchContext& context,
                           bool randomize) {
  util::Stopwatch total;
  problem.validate();
  const SearchOptions& options = context.options();

  // Acquire the stage-1 plan: through the context's shared builder when one
  // is installed (service plan cache, portfolio race) — the first consumer
  // builds and everyone else reuses — otherwise via a private build.
  // FilterOverflow (the space blow-up that motivates LNS) propagates to the
  // caller; the portfolio converts it into a contender drop-out.
  std::shared_ptr<const FilterPlan> plan;
  // Collects the stats of a build THIS thread performs, even one that throws
  // mid-way — the cost of a doomed build (overflow, lost race, deadline)
  // must still reach the caller's stats. Stays zero for plan reusers and for
  // waiters whose shared build failed on another thread: they did no work.
  SearchStats setupStats;
  try {
    const auto cancelled = [&context] {
      // Spurious-cancellation probe: reports "cancelled" to the plan build
      // without any real stop. The catch below detects the lie (the context
      // was never actually stopped) and rethrows, making it a transient
      // failure instead of a silent empty-partial result.
      if (util::FaultInjector::enabled() &&
          util::faultFires(util::faultsite::kPlanCancel)) {
        return true;
      }
      return context.shouldStop();
    };
    if (const auto& builder = context.planBuilder()) {
      const SharedPlanBuilder::Acquired acquired =
          builder->get(problem, options, cancelled, &setupStats);
      plan = acquired.plan;
      SearchStats setup = plan->buildStats;
      if (!acquired.builtHere) {
        // The build was billed to the consumer that performed it; a reuser
        // inherits the entry count (a plan property) but no build cost.
        setup.filterBuildMs = 0.0;
        setup.constraintEvals = 0;
      }
      context.mergeStats(setup);
    } else {
      plan = FilterPlan::build(problem, options, cancelled, &setupStats);
      context.mergeStats(plan->buildStats);
    }
  } catch (const FilterOverflow&) {
    // Space blow-up (the documented failure mode that motivates LNS): merge
    // what the setup measured, then surface the overflow to the caller — the
    // portfolio converts it into a contender drop-out.
    context.mergeStats(setupStats);
    throw;
  } catch (const FilterBuildCancelled&) {
    // A genuine cancel always leaves the context stopped (the predicate
    // above routes through shouldStop, which records the reason). A
    // cancellation with NO stop on record is spurious — injected or a buggy
    // caller — and resolving it as an empty partial would silently lose the
    // request; rethrow so the retry/degradation layers treat it as a
    // transient failure instead.
    if (!context.stopRequested()) {
      context.mergeStats(setupStats);
      throw;
    }
    // Cancel or deadline fired mid-build (a lost race, an expired timeout):
    // the engine was told to stop before it could start searching.
    context.mergeStats(setupStats);
    EmbedResult result = context.finish(/*exhausted=*/false);
    result.stats.searchMs = total.elapsedMs();
    return result;
  }
  context.beginSearchPhase();

  // Empty query: the empty mapping is the one embedding.
  if (plan->order.empty()) {
    context.offerSolution({});
    EmbedResult result = context.finish(/*exhausted=*/true);
    result.stats.searchMs = total.elapsedMs();
    return result;
  }

  // Resolve Ordering::Auto against the built plan (a pure function of the
  // plan's viable-set sizes, so every worker and every portfolio contender
  // sharing this plan lands on the same choice).
  const Ordering ordering = chooseOrdering(*plan, options.ordering);

  // Dynamic ordering picks its own first node (smallest stage-1 viable set,
  // static position as tie-break) — identical to order.front() on the
  // Lemma-1 sorted plans every ordering but Declared builds.
  const graph::NodeId rootNode = ordering == Ordering::Dynamic
                                     ? DomainTracker::firstNode(*plan)
                                     : plan->order.front();
  const auto viableRoots = plan->filters.viable(rootNode);
  std::vector<graph::NodeId> roots(viableRoots.begin(), viableRoots.end());
  // The root shuffle gets its own stream: worker 0 seeds its candidate
  // shuffles with the raw seed, and reusing it here would hand same-length
  // lists the exact same permutation, correlating the root order with the
  // walk's candidate orders.
  constexpr std::uint64_t kRootShuffleStream = ~std::uint64_t{0};
  if (randomize) {
    util::Rng(util::deriveSeed(options.seed, kRootShuffleStream)).shuffle(roots);
  }

  std::size_t workers = options.rootSplitThreads == 0
                            ? util::sharedPool().threadCount() + 1
                            : options.rootSplitThreads;
  workers = std::max<std::size_t>(1, std::min(workers, std::max<std::size_t>(
                                                           roots.size(), 1)));
  // Never root-split from inside a shared-pool task (e.g. bench repetitions
  // run on the pool): the blocking wait below would pin a worker thread while
  // its subtasks sit queued behind it, and enough concurrent callers would
  // starve the queue into deadlock. The workers > 1 guard keeps the serial
  // path from lazily instantiating the pool just to ask.
  if (workers > 1 && util::sharedPool().isWorkerThread()) workers = 1;

  std::atomic<std::size_t> cursor{0};
  bool exhausted = true;
  if (workers == 1) {
    FilteredWorker worker(problem, *plan, context, randomize, ordering,
                          options.seed);
    worker.run(roots, cursor);
    context.mergeStats(worker.stats());
    exhausted = !worker.stoppedEarly();
  } else {
    // Root-split: workers-1 pool tasks plus this thread all pull root
    // candidates from the shared cursor. The caller participating keeps
    // forward progress guaranteed even when the pool is saturated or tiny.
    std::vector<std::unique_ptr<FilteredWorker>> team;
    team.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      team.push_back(std::make_unique<FilteredWorker>(
          problem, *plan, context, randomize, ordering,
          w == 0 ? options.seed : util::deriveSeed(options.seed, w)));
    }
    util::CompletionLatch latch;
    std::exception_ptr firstError;
    std::mutex errorMutex;
    // A throwing worker (user sink, bad_alloc) must not escape into the
    // pool's worker loop nor leave `pending` undecremented: capture the
    // first exception, cancel the siblings, and rethrow on this thread.
    const auto runGuarded = [&](std::size_t w) {
      try {
        team[w]->run(roots, cursor);
      } catch (...) {
        {
          std::lock_guard lock(errorMutex);
          if (!firstError) firstError = std::current_exception();
        }
        context.requestCancel();
      }
    };
    for (std::size_t w = 1; w < workers; ++w) {
      util::submitCounted(
          util::sharedPool(), latch,
          [&, w] {
            runGuarded(w);
            latch.done();
          },
          [&] { context.requestCancel(); });
    }
    runGuarded(0);
    latch.wait();
    if (firstError) std::rethrow_exception(firstError);
    for (const auto& worker : team) {
      context.mergeStats(worker->stats());
      exhausted = exhausted && !worker->stoppedEarly();
    }
  }

  EmbedResult result = context.finish(exhausted);
  result.stats.searchMs = total.elapsedMs();
  return result;
}

}  // namespace detail

EmbedResult ecfSearch(const Problem& problem, const SearchOptions& options,
                      const SolutionSink& sink) {
  SearchContext context(options, sink);
  return detail::filteredSearch(problem, context, /*randomize=*/false);
}

EmbedResult ecfSearch(const Problem& problem, SearchContext& context) {
  return detail::filteredSearch(problem, context, /*randomize=*/false);
}

}  // namespace netembed::core
