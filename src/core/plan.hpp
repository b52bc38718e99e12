#pragma once
// The shareable stage-1 search plan.
//
// ECF and RWB spend their setup phase building the same three immutable
// structures: the FilterMatrix, the Lemma-1 static order, and the per-node
// index of constrainers assigned earlier in that order. The plan depends only
// on the problem instance and the plan-relevant options (ordering Declared
// or not, maxFilterEntries, bitsetMode — the latter changes only the cell
// representation, never the candidate sets) — not on seeds, budgets or
// thread counts — so one build
// can back any number of concurrent searches: every root-split worker, both
// filtered contenders of a portfolio race, and every queued service request
// with the same (model version, query signature).
//
// SharedPlanBuilder is the sharing primitive: consumers call get() with their
// own Problem and cancellation predicate; the first caller builds, the rest
// block on the same build and receive the shared immutable plan. A cancelled
// builder hands the build over to the next live waiter, so one consumer's
// deadline never poisons the plan for the others.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/delta.hpp"
#include "core/filter.hpp"
#include "core/problem.hpp"
#include "core/search.hpp"

namespace netembed::core {

/// How a host-model delta relates to a stage-1 plan for `problem`.
enum class DeltaImpact : std::uint8_t {
  /// No constraint reads any changed attribute (attribute references are
  /// static in the expression language, so this is provable): the candidate
  /// sets cannot have moved and the old plan serves the new version as-is.
  Unaffected,
  /// Bounded incremental re-evaluation pays: patch the plan.
  Patchable,
  /// Structural change, or the delta reaches too much of the host for a
  /// patch to beat a (parallel) rebuild: fall back to a full build.
  Rebuild,
};

/// Conservative patch-vs-rebuild threshold: a delta whose affected host
/// edges (touched edges + edges incident to touched nodes) exceed 1/this of
/// the host's edge count is classified Rebuild.
inline constexpr std::size_t kPatchEdgeShareDivisor = 4;

[[nodiscard]] DeltaImpact classifyDelta(const Problem& problem,
                                        const ModelDelta& delta);

/// Shard-scoped patch floor: a touched shard whose affected-edge count stays
/// at or below this many edges is always patchable regardless of the shard's
/// edge-share ratio — on a sharded host a delta confined to a couple of
/// small shards should never force a full rebuild.
inline constexpr std::size_t kPatchShardEdgeFloor = 256;

/// classifyDelta against the shard partition a base plan was built with.
/// Unsharded maps reduce exactly to the flat rule above. Sharded, the E/4
/// cutoff applies per *touched* shard (cross-shard edges charge both sides):
/// the patch is accepted when every touched shard is individually cheap —
/// either under its own edge-share cutoff or under kPatchShardEdgeFloor —
/// because patch work is shard-local under the sharded build.
[[nodiscard]] DeltaImpact classifyDelta(const Problem& problem,
                                        const ModelDelta& delta,
                                        const ShardMap& shards);

/// Immutable per-instance setup shared by every filtered search: stage-1
/// filters, Lemma-1 static order, and for each query node the constrainers
/// whose owner precedes it in that order. Built once, read concurrently
/// without synchronization.
struct FilterPlan {
  FilterMatrix filters;
  std::vector<graph::NodeId> order;
  std::vector<std::vector<FilterMatrix::Constrainer>> earlier;
  /// What the build cost (filterEntries / filterBuildMs / constraintEvals).
  /// Consumers that reuse the plan merge the entries but not the build time.
  SearchStats buildStats;

  /// Build the plan. Throws FilterOverflow past options.maxFilterEntries and
  /// FilterBuildCancelled when `cancelled` fires mid-build. On a throw,
  /// `partial` (when given) holds the stats of the work performed before the
  /// failure, so the caller can still account a doomed build's cost.
  [[nodiscard]] static std::shared_ptr<const FilterPlan> build(
      const Problem& problem, const SearchOptions& options,
      const std::function<bool()>& cancelled = {}, SearchStats* partial = nullptr);

  /// Derive the plan for a mutated host from `base` (built against the
  /// pre-mutation host) by re-evaluating only the delta-affected filter
  /// cells, then recomputing the Lemma-1 order and constrainer index exactly
  /// as build() would — the result is candidate-set- and order-identical to
  /// a from-scratch build against `problem.host`. The caller must have
  /// classified the delta Patchable (or Unaffected, where reusing `base`
  /// directly is cheaper still). Throws like build(); `base` is never
  /// modified.
  [[nodiscard]] static std::shared_ptr<const FilterPlan> patch(
      const FilterPlan& base, const Problem& problem, const SearchOptions& options,
      const ModelDelta& delta, const std::function<bool()>& cancelled = {},
      SearchStats* partial = nullptr);

  /// patch() that takes ownership of `base`. When the caller's reference is
  /// the last one (use_count() == 1 — no in-flight search, no other cache
  /// entry), the cells are spliced directly into the existing matrix,
  /// skipping the structural copy entirely; otherwise this falls back to
  /// patch()'s copy-then-splice. The in-place mutation is invisible by
  /// construction: a sole owner has, by definition, no concurrent reader.
  /// On a throw from the in-place path the (consumed) base is corrupted —
  /// callers must treat the pointer they passed as gone either way.
  [[nodiscard]] static std::shared_ptr<const FilterPlan> patchOwned(
      std::shared_ptr<const FilterPlan> base, const Problem& problem,
      const SearchOptions& options, const ModelDelta& delta,
      const std::function<bool()>& cancelled = {}, SearchStats* partial = nullptr);
};

/// Resolve Ordering::Auto against a built plan; Static/Dynamic pass through.
/// The predictor is the relative spread of the plan's stage-1 viable-set
/// sizes (one popcount per query node, already materialized as list sizes):
/// when the sizes are near-uniform the Lemma-1 static order has nothing to
/// discriminate on and smallest-live-domain dynamic ordering pays for its
/// bookkeeping many times over (17x on planted cliques); when they spread,
/// the static sort already captures most of the ordering win and Dynamic's
/// per-assignment cost is pure regression (0.73x on brite_dense).
/// Deterministic per plan — every root-split worker and portfolio contender
/// resolves to the same choice.
[[nodiscard]] Ordering chooseOrdering(const FilterPlan& plan,
                                      Ordering requested) noexcept;

/// Process-wide count of *completed* FilterPlan builds. Test and bench hook:
/// a portfolio race or a same-signature batch asserts sharing by taking the
/// counter delta around the run.
[[nodiscard]] std::uint64_t filterPlanBuilds() noexcept;

/// Process-wide count of completed FilterPlan::patch calls — the
/// incremental-update twin of filterPlanBuilds(): a monitoring-style version
/// bump that re-keys cached plans shows up here instead of in the build
/// counter.
[[nodiscard]] std::uint64_t filterPlanPatches() noexcept;

/// Of filterPlanPatches(), how many ran in place on an exclusively-owned
/// plan (no structural copy). Tests assert the cache's delta re-keying takes
/// the in-place path when nothing else holds the old plan.
[[nodiscard]] std::uint64_t filterPlanInPlacePatches() noexcept;

/// One lazily-built FilterPlan shared by several consumers.
///
/// Thread-safe. The first get() builds (polling its caller's `cancelled`
/// predicate); concurrent get()s block until the build resolves. Outcomes:
///  * success        — every caller receives the same shared plan;
///  * FilterOverflow — sticky: recorded and rethrown to every caller (the
///    plan can never materialize under these options);
///  * FilterBuildCancelled — NOT sticky: the cancelled caller rethrows, and
///    the next live waiter takes over the build, so a shared builder survives
///    any individual consumer's deadline or lost race;
///  * anything else (bad_alloc, a throwing constraint) — NOT sticky either:
///    the failing caller rethrows and the builder role is released, so a
///    transient failure never poisons the builder for later consumers.
class SharedPlanBuilder {
 public:
  SharedPlanBuilder() = default;
  /// Pre-resolved builder: every get() returns `plan` without building.
  explicit SharedPlanBuilder(std::shared_ptr<const FilterPlan> plan)
      : plan_(std::move(plan)) {}

  /// A plan inherited across a model-version bump: `base` was built against
  /// the pre-delta host. The first get() resolves it against its caller's
  /// (post-delta) problem — reusing `base` outright when classifyDelta says
  /// Unaffected, patching when Patchable, falling back to a full build when
  /// Rebuild. The service plan cache re-keys entries with this instead of
  /// invalidating them.
  struct PatchSource {
    std::shared_ptr<const FilterPlan> base;
    ModelDelta delta;
  };
  explicit SharedPlanBuilder(PatchSource source)
      : patchSource_(std::move(source)) {}

  /// Fold a later delta into an unresolved patch source, so one builder can
  /// absorb several version bumps before anyone asks for the plan. Returns
  /// false — the caller must drop or replace the builder — once resolution
  /// started (plan built / building / failed) or there is no patch source.
  /// The cache calls this only on builders it exclusively owns: merging
  /// under the feet of an in-flight get() would hand that caller a plan for
  /// a different version than its snapshot.
  [[nodiscard]] bool mergeDelta(const ModelDelta& later);

  struct Acquired {
    std::shared_ptr<const FilterPlan> plan;
    /// True when this call performed the build — the caller that accounts
    /// the build cost in its stats.
    bool builtHere = false;
  };

  /// Get the shared plan, building it on first call. `problem` must describe
  /// the same instance for every caller (that is the sharer's contract — the
  /// portfolio passes one problem, the service cache keys by signature);
  /// each caller passes its own reference because the earliest acquirer's
  /// problem may die before a later caller triggers the build. When this
  /// call performs a build that throws, `partial` (if given) receives the
  /// stats of the work done before the failure.
  [[nodiscard]] Acquired get(const Problem& problem, const SearchOptions& options,
                             const std::function<bool()>& cancelled = {},
                             SearchStats* partial = nullptr);

  /// The plan if already built, nullptr otherwise. Never blocks.
  [[nodiscard]] std::shared_ptr<const FilterPlan> ready() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::shared_ptr<const FilterPlan> plan_;  // set at most once
  std::exception_ptr error_;                // sticky failure (FilterOverflow)
  bool building_ = false;
  std::optional<PatchSource> patchSource_;  // cleared once plan_ resolves
};

}  // namespace netembed::core
