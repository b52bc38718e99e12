#include "core/plan.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/fault.hpp"

namespace netembed::core {

namespace {

std::atomic<std::uint64_t> gPlanBuilds{0};
std::atomic<std::uint64_t> gPlanPatches{0};
std::atomic<std::uint64_t> gPlanInPlacePatches{0};

/// Lemma-1 static order + per-node earlier-constrainer index over a filled
/// matrix. Shared verbatim by build() and patch(): a patched plan must sort
/// from the same iota start so its order is byte-identical to a fresh
/// build's.
void finalizeOrder(FilterPlan& plan, const SearchOptions& options, std::size_t nq) {
  plan.order.assign(nq, 0);
  std::iota(plan.order.begin(), plan.order.end(), 0);
  if (options.ordering != Ordering::Declared) {
    // Lemma 1: ascending candidate count minimizes the permutation tree.
    std::stable_sort(plan.order.begin(), plan.order.end(),
                     [&](graph::NodeId a, graph::NodeId b) {
                       return plan.filters.viable(a).size() <
                              plan.filters.viable(b).size();
                     });
  }
  std::vector<std::size_t> position(nq, 0);
  for (std::size_t d = 0; d < nq; ++d) position[plan.order[d]] = d;

  plan.earlier.assign(nq, std::vector<FilterMatrix::Constrainer>{});
  for (graph::NodeId v = 0; v < nq; ++v) {
    for (const FilterMatrix::Constrainer& c : plan.filters.constrainersOf(v)) {
      if (position[c.owner] < position[v]) plan.earlier[v].push_back(c);
    }
  }
}

}  // namespace

std::uint64_t filterPlanBuilds() noexcept {
  return gPlanBuilds.load(std::memory_order_relaxed);
}

std::uint64_t filterPlanPatches() noexcept {
  return gPlanPatches.load(std::memory_order_relaxed);
}

std::uint64_t filterPlanInPlacePatches() noexcept {
  return gPlanInPlacePatches.load(std::memory_order_relaxed);
}

DeltaImpact classifyDelta(const Problem& problem, const ModelDelta& delta) {
  if (delta.structural) return DeltaImpact::Rebuild;
  if (delta.empty()) return DeltaImpact::Unaffected;

  // Attribute references are static in the constraint language, so the set
  // of attribute ids a plan can depend on is exact: a delta touching none of
  // them is provably irrelevant. Anything else (including a problem whose
  // constraints we cannot introspect) falls through to the patch/rebuild
  // decision.
  std::vector<graph::AttrId> referenced;
  const auto collect = [&referenced](const expr::Constraint* c) {
    if (!c) return;
    const std::vector<std::uint32_t>& used = c->program().attrsUsed();
    referenced.insert(referenced.end(), used.begin(), used.end());
  };
  collect(problem.edgeConstraint());
  collect(problem.nodeConstraint());
  std::sort(referenced.begin(), referenced.end());
  if (!delta.touchesAnyAttr(referenced)) return DeltaImpact::Unaffected;

  // Patch cost scales with the affected host edges (touched + incident to
  // touched nodes; affectedEdgeMask is the shared rule the patch itself
  // uses); past a fraction of the host the parallel full rebuild wins, and
  // a conservative cutoff also bounds the patch's worst case.
  const graph::Graph& h = *problem.host;
  std::vector<char> affected;
  if (!affectedEdgeMask(h, delta, affected)) {
    return DeltaImpact::Rebuild;  // foreign delta
  }
  std::size_t affectedCount = 0;
  for (const char a : affected) affectedCount += a != 0;
  if (affectedCount * kPatchEdgeShareDivisor > h.edgeCount()) {
    return DeltaImpact::Rebuild;
  }
  return DeltaImpact::Patchable;
}

Ordering chooseOrdering(const FilterPlan& plan, Ordering requested) noexcept {
  if (requested != Ordering::Auto) return requested;
  // Dynamic pays for its per-assignment bookkeeping only when both ordering
  // signals point its way:
  //
  //  * viable-size spread: a wide spread means the Lemma-1 sort already
  //    front-loads the tight nodes (the sparse-instance shape, measured
  //    spread ~0.8 on the PlanetLab bench instance) and static ordering wins
  //    for free. Near-uniform sizes give the static sort nothing to order by.
  //
  //  * stage-1 density: totalEntries over the cells' theoretical capacity.
  //    Near-full cells (dense Waxman with widened windows: 0.90; pure
  //    topology cliques: 1.0) make every constrainer AND a no-op — the live
  //    domains barely diverge from the viable rows, smallest-domain
  //    selection learns nothing, and Dynamic measures 0.6-0.7x. Selective
  //    cells (the planted-bottleneck clique: 0.27) are where joint pruning
  //    collapses domains mid-descent and Dynamic measures 16x+.
  //
  // Thresholds sit in the wide empirical gaps between those poles, not at
  // fitted edges.
  constexpr double kSpreadThreshold = 0.15;
  constexpr double kDensityThreshold = 0.5;
  const std::size_t nq = plan.order.size();
  if (nq == 0) return Ordering::Static;
  std::size_t minSize = static_cast<std::size_t>(-1);
  std::size_t maxSize = 0;
  std::size_t cells = 0;
  for (std::size_t v = 0; v < nq; ++v) {
    const std::size_t n = plan.filters.viable(static_cast<graph::NodeId>(v)).size();
    minSize = std::min(minSize, n);
    maxSize = std::max(maxSize, n);
    cells += plan.filters.slots(static_cast<graph::NodeId>(v)).size();
  }
  if (maxSize == 0) return Ordering::Static;  // infeasible; order is moot
  const double spread =
      static_cast<double>(maxSize - minSize) / static_cast<double>(maxSize);
  if (spread > kSpreadThreshold) return Ordering::Static;
  const std::size_t capacity = cells * plan.filters.hostAdjacencySlots();
  if (capacity == 0) return Ordering::Static;  // edgeless query or host
  const double density =
      static_cast<double>(plan.filters.totalEntries()) /
      static_cast<double>(capacity);
  return density <= kDensityThreshold ? Ordering::Dynamic : Ordering::Static;
}

std::shared_ptr<const FilterPlan> FilterPlan::build(
    const Problem& problem, const SearchOptions& options,
    const std::function<bool()>& cancelled, SearchStats* partial) {
  // Injected allocation failure, thrown before any work: SharedPlanBuilder
  // treats it as a transient build failure (role released, next caller
  // retries), and the service's cache-bypass ladder catches repeats.
  if (util::FaultInjector::enabled()) {
    util::faultPoint(util::faultsite::kPlanBuild);
  }
  // Build into the caller's partial-stats slot when given: if the matrix
  // build throws (overflow, cancel), the work done so far stays observable
  // instead of dying with the discarded plan.
  SearchStats local;
  SearchStats& stats = partial ? *partial : local;
  auto plan = std::make_shared<FilterPlan>();
  plan->filters = FilterMatrix::build(problem, options, stats, cancelled);
  finalizeOrder(*plan, options, problem.query->nodeCount());
  plan->buildStats = stats;
  gPlanBuilds.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

std::shared_ptr<const FilterPlan> FilterPlan::patch(
    std::shared_ptr<const FilterPlan> base, const Problem& problem,
    const SearchOptions& options, const ModelDelta& delta,
    const std::function<bool()>& cancelled, SearchStats* partial) {
  // Probe before any mutation begins, so an injected failure leaves the
  // base plan intact on either path.
  if (util::FaultInjector::enabled()) {
    util::faultPoint(util::faultsite::kPlanPatch);
  }
  SearchStats local;
  SearchStats& stats = partial ? *partial : local;
  // The count can only fall once we hold the last visible copy: no other
  // thread can clone a reference it does not have. So a reading of 1 here is
  // stable exclusivity, not a race window.
  const bool inPlace = base.use_count() == 1;
  std::shared_ptr<FilterPlan> plan;
  if (inPlace) {
    // Sole owner: splice the delta straight into the existing matrix. The
    // const_cast is sound — every FilterPlan is created mutable through
    // make_shared and only exposed through const pointers.
    plan = std::const_pointer_cast<FilterPlan>(std::move(base));
  } else {
    // Structural copy first (no constraint evaluations — the dominant
    // rebuild cost), then splice. The shared base stays untouched: in-flight
    // searches against the old version keep their plan.
    plan = std::make_shared<FilterPlan>();
    plan->filters = base->filters;
  }
  plan->filters.patch(problem, options, delta, stats, cancelled);
  finalizeOrder(*plan, options, problem.query->nodeCount());
  plan->buildStats = stats;
  gPlanPatches.fetch_add(1, std::memory_order_relaxed);
  if (inPlace) gPlanInPlacePatches.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

bool SharedPlanBuilder::mergeDelta(const ModelDelta& later) {
  std::lock_guard lock(mutex_);
  if (plan_ || error_ || building_ || !patchSource_) return false;
  patchSource_->delta.merge(later);
  return true;
}

SharedPlanBuilder::Acquired SharedPlanBuilder::get(
    const Problem& problem, const SearchOptions& options,
    const std::function<bool()>& cancelled, SearchStats* partial) {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (plan_) return {plan_, /*builtHere=*/false};
    if (error_) std::rethrow_exception(error_);
    if (!building_) {
      building_ = true;
      // MOVED out (not copied) so the builder's own reference to the base
      // plan is gone during resolution — a copy here would keep use_count at
      // 2 and defeat patch's exclusivity test. mergeDelta refuses to
      // touch the source while building_ is set, and a failed build restores
      // it below unless the in-place patch already consumed the base.
      std::optional<PatchSource> source = std::move(patchSource_);
      patchSource_.reset();
      // True once the base plan may have been mutated in place: from then on
      // a throw must NOT hand the (possibly corrupted) source to the next
      // taker — it full-builds instead.
      bool sourceConsumed = false;
      lock.unlock();
      std::shared_ptr<const FilterPlan> built;
      bool builtHere = true;
      try {
        if (source) {
          switch (classifyDelta(problem, source->delta)) {
            case DeltaImpact::Unaffected:
              // Provably identical candidate sets: the inherited plan IS the
              // plan for this version. No build, no patch, no cost.
              built = source->base;
              builtHere = false;
              break;
            case DeltaImpact::Patchable:
              // With the builder's reference moved into `source`, a base no
              // in-flight search still holds is exclusively ours and patches
              // in place (no structural copy).
              sourceConsumed = true;
              built = FilterPlan::patch(std::move(source->base), problem, options,
                                        source->delta, cancelled, partial);
              break;
            case DeltaImpact::Rebuild:
              built = FilterPlan::build(problem, options, cancelled, partial);
              break;
          }
        } else {
          built = FilterPlan::build(problem, options, cancelled, partial);
        }
      } catch (const FilterBuildCancelled&) {
        // This consumer was told to stop; the build itself is still wanted.
        // Release the builder role so a live waiter can take over, with the
        // patch source restored when it is still intact.
        lock.lock();
        building_ = false;
        if (source && !sourceConsumed) patchSource_ = std::move(source);
        cv_.notify_all();
        throw;
      } catch (const FilterOverflow&) {
        // Deterministic: the plan can never materialize under these options
        // — record the failure for every sharer (a negative cache).
        lock.lock();
        building_ = false;
        error_ = std::current_exception();
        cv_.notify_all();
        throw;
      } catch (...) {
        // Transient failure (bad_alloc under pressure, a throwing user
        // constraint): fail this consumer but release the builder role — a
        // later consumer may well succeed, and a sticky record would poison
        // the cached builder for its whole (version, signature) lifetime.
        lock.lock();
        building_ = false;
        if (source && !sourceConsumed) patchSource_ = std::move(source);
        cv_.notify_all();
        throw;
      }
      lock.lock();
      building_ = false;
      plan_ = std::move(built);
      cv_.notify_all();
      return {plan_, builtHere};
    }
    // Someone else is building: wait, but keep honoring our own cancellation
    // (a portfolio loser waiting on the winner-to-be's build must still die).
    cv_.wait_for(lock, std::chrono::milliseconds(2),
                 [&] { return plan_ != nullptr || error_ != nullptr || !building_; });
    if (!plan_ && !error_ && cancelled && cancelled()) throw FilterBuildCancelled();
  }
}

std::shared_ptr<const FilterPlan> SharedPlanBuilder::ready() const {
  std::lock_guard lock(mutex_);
  return plan_;
}

}  // namespace netembed::core
