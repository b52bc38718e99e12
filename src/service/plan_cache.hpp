#pragma once
// Shared stage-1 plan cache for the service layer.
//
// The FilterPlan depends only on (host graph, query graph, constraints,
// plan-relevant options) — so every query with the same signature against the
// same NetworkModel version can share one build. The cache hands out
// core::SharedPlanBuilder instances: concurrent same-signature queries that
// miss together still share, because they receive the same builder *before*
// the build completes and the builder serializes it.
//
// Invalidation vs. re-keying: the cache only ever holds entries for the
// newest model version it has seen. A mutation announced through
// applyDelta() *carries* entries across the bump instead of dropping them —
// each completed plan is re-wrapped in a SharedPlanBuilder::PatchSource so
// its next consumer reuses it outright (delta provably irrelevant), patches
// it (bounded re-evaluation of the delta-affected cells), or rebuilds
// (structural / oversized delta), per core::classifyDelta. An acquire() with
// a newer version than any announced delta falls back to the historical
// behavior and drops every older entry (a mutation happened behind the
// cache's back, so no delta chain exists). An acquire() with an *older*
// version — a racing reader that sampled the version just before a bump —
// gets a private, uncached builder: correct for its snapshot, invisible to
// everyone else.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/plan.hpp"
#include "core/search.hpp"
#include "graph/graph.hpp"

namespace netembed::service {

/// Deterministic plan signature: serializes the query structure, node/edge
/// attributes, constraint sources, and the plan-relevant options
/// (ordering Declared or not, maxFilterEntries, bitsetMode). Two requests share a stage-1 plan iff
/// their signatures match; using the full serialization (not a hash) as the
/// cache key makes collisions impossible.
[[nodiscard]] std::string planSignature(const graph::Graph& query,
                                        const std::string& edgeConstraint,
                                        const std::string& nodeConstraint,
                                        const core::SearchOptions& options);

/// Thread-safe LRU cache of SharedPlanBuilders keyed by query signature,
/// scoped to one model version at a time.
class FilterPlanCache {
 public:
  /// `capacity` = max retained signatures; 0 disables caching entirely
  /// (every acquire returns a fresh private builder).
  explicit FilterPlanCache(std::size_t capacity = 32) : capacity_(capacity) {}

  struct Stats {
    std::uint64_t hits = 0;          // acquire found an existing builder
    std::uint64_t misses = 0;        // acquire inserted a new builder
    std::uint64_t invalidations = 0; // entries dropped by version bumps
    std::uint64_t evictions = 0;     // entries dropped by capacity
    std::uint64_t bypasses = 0;      // stale-version acquires served uncached
    std::uint64_t rekeys = 0;        // entries carried across a version bump
                                     // by applyDelta (reuse/patch on demand)
    std::size_t size = 0;            // current entry count
  };

  /// False when capacity is 0: callers can skip computing a signature —
  /// acquire() would discard it and hand back a private builder anyway.
  [[nodiscard]] bool enabled() const noexcept { return capacity_ != 0; }

  /// The builder shared by every in-flight and future query with this
  /// signature against `modelVersion`. Never returns nullptr.
  [[nodiscard]] std::shared_ptr<core::SharedPlanBuilder> acquire(
      std::uint64_t modelVersion, std::string signature);

  /// Announce a model mutation: `newVersion` is the post-mutation version,
  /// `delta` its footprint (NetworkModel::lastDelta). Cached plans are
  /// re-keyed to the new version as lazy patch sources instead of being
  /// invalidated; entries whose plan never completed — and is possibly still
  /// being built by an in-flight query against the old version — are
  /// dropped, unless this cache exclusively owns the builder, in which case
  /// the delta is folded into its pending patch source (so back-to-back
  /// mutations with no query in between accumulate into one patch). A
  /// structural delta drops everything. Call under the same synchronization
  /// that ordered the mutation *before* publishing the new version to
  /// queries, so no acquire(newVersion) can race ahead and trigger the
  /// no-delta invalidation path.
  void applyDelta(std::uint64_t newVersion, const core::ModelDelta& delta);

  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Entry {
    std::shared_ptr<core::SharedPlanBuilder> builder;
    std::list<std::string>::iterator lruPos;  // into lru_, most-recent front
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t version_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;
  Stats stats_;
};

}  // namespace netembed::service
