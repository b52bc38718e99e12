#pragma once
// Stage-1 candidate filters for ECF and RWB (paper §V-A).
//
// For every *directed use* of a query edge (v's slot pointing at neighbour
// w) and every host node r, the filter stores the set of host nodes s such
// that mapping v->r, w->s satisfies topology, node-level checks (node
// constraint + degree bound) and the edge constraint expression:
//
//     F[v][slot(w)][r] = { s : ok(v->r, w->s) }
//
// Cells have a dual representation:
//   * CSR (always): sorted lists per (v, slot) — ordered enumeration and the
//     memory floor on sparse instances;
//   * packed 64-bit bitset rows (per BitsetMode / density heuristic): the
//     same sets as word masks over host nodes, so eq.-2 intersection is one
//     AND per 64 host nodes instead of a binary search per probe. Node
//     viability is always also available as a bit row (viableBits).
// The paper's negative filter F-bar is represented implicitly: candidate
// sets are always computed by intersecting positive cells, which is
// equivalent and strictly cheaper (the explicit F-bar's O(n^5) space is what
// motivates LNS in §V-C).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/delta.hpp"
#include "core/problem.hpp"
#include "core/search.hpp"
#include "core/shard.hpp"
#include "util/bitset.hpp"

namespace netembed::core {

/// Thrown when filter construction exceeds SearchOptions::maxFilterEntries.
class FilterOverflow : public std::runtime_error {
 public:
  explicit FilterOverflow(std::size_t entries)
      : std::runtime_error("filter matrix exceeds entry budget (" +
                           std::to_string(entries) + " entries)") {}
};

/// Thrown when the build's `cancelled` poll fires (deadline or external
/// cancel). Not an error: the engine was told to stop before it could start
/// searching, and reports Inconclusive.
class FilterBuildCancelled : public std::runtime_error {
 public:
  FilterBuildCancelled() : std::runtime_error("filter build cancelled") {}
};

class FilterMatrix {
 public:
  /// One directed use of a query edge, owned by node v: v -> neighbor
  /// (outgoing true) or neighbor -> v (outgoing false). Undirected edges
  /// produce one outgoing slot at each endpoint.
  struct Slot {
    graph::NodeId neighbor;
    graph::EdgeId edge;
    bool outgoing;
  };

  /// Reverse index entry: slot `slot` of node `owner` constrains this node.
  struct Constrainer {
    graph::NodeId owner;
    std::uint32_t slot;
  };

  /// Build the filters; fills stats.filterEntries / filterBuildMs /
  /// constraintEvals. Throws FilterOverflow past the entry budget. The
  /// `cancelled` predicate (may be empty) is polled periodically during
  /// every O(NQ*NR)+ stage (node viability, the stage-1 constraint sweep,
  /// the CSR/bitset scatter) — a portfolio loser or an expired deadline must
  /// not keep burning CPU on a build nobody will search; when it returns
  /// true the build throws FilterBuildCancelled. The predicate may be
  /// invoked concurrently when parallelFilterBuild is on. The host is
  /// partitioned by ShardMap::forHost; the shard count changes how the build
  /// runs, never what it produces.
  [[nodiscard]] static FilterMatrix build(
      const Problem& problem, const SearchOptions& options, SearchStats& stats,
      const std::function<bool()>& cancelled = {});

  /// build() over an explicit partition of `problem.host`'s nodes. For
  /// tests and benchmarks that compare shard counts: every map yields
  /// byte-identical cells, viable lists and viability rows.
  [[nodiscard]] static FilterMatrix build(
      const Problem& problem, const SearchOptions& options, const ShardMap& shards,
      SearchStats& stats, const std::function<bool()>& cancelled = {});

  /// Incrementally re-evaluate this matrix against an attribute-only host
  /// delta: `problem.host` is the post-mutation graph (same topology as the
  /// one this matrix was built from), `delta` names the touched nodes/edges.
  /// Only the (query edge, host edge) pairs whose outcome can have changed —
  /// edges in the delta plus every edge incident to a touched node, since
  /// edge constraints may read endpoint attributes — are re-evaluated; CSR
  /// lists, bitset rows, the viability bit-matrix and the viable lists are
  /// spliced in place. The result is candidate-set-identical to a fresh
  /// build (cell bitset coverage keeps the original build's density
  /// decision; candidate *sets* never differ). Past a work threshold the
  /// re-evaluation, the per-cell splice and the viability re-gate fan out
  /// over util::parallelFor (query edges / cells / query nodes are disjoint
  /// write domains), honoring parallelFilterBuild like build(). Callers must
  /// have rejected
  /// structural deltas (see classifyDelta in core/plan.hpp). Throws
  /// FilterOverflow when edits push the entry count past the budget and
  /// FilterBuildCancelled when `cancelled` fires. On either throw the matrix
  /// is left in an unspecified state — discard it.
  void patch(const Problem& problem, const SearchOptions& options,
             const ModelDelta& delta, SearchStats& stats,
             const std::function<bool()>& cancelled = {});

  [[nodiscard]] std::span<const Slot> slots(graph::NodeId v) const {
    return slots_[v];
  }

  [[nodiscard]] std::span<const Constrainer> constrainersOf(graph::NodeId v) const {
    return constrainers_[v];
  }

  /// Candidate continuations: host nodes for slots_[owner][slot].neighbor
  /// when owner is mapped at r. Sorted ascending.
  [[nodiscard]] std::span<const graph::NodeId> candidates(graph::NodeId owner,
                                                          std::uint32_t slot,
                                                          graph::NodeId r) const {
    const Csr& csr = cells_[slotBase_[owner] + slot];
    return std::span<const graph::NodeId>(csr.data.data() + csr.offsets[r],
                                          csr.offsets[r + 1] - csr.offsets[r]);
  }

  /// True when cell (owner, slot) carries bitset rows (dense enough under
  /// the build's BitsetMode). Uniform per cell: either every row of the cell
  /// has a mask or none does.
  [[nodiscard]] bool hasCandidateBits(graph::NodeId owner, std::uint32_t slot) const {
    return !cellBits_[slotBase_[owner] + slot].empty();
  }

  /// The bitset row matching candidates(owner, slot, r): bit s is set iff s
  /// is in the CSR list. Only valid when hasCandidateBits(owner, slot).
  [[nodiscard]] std::span<const std::uint64_t> candidateBits(graph::NodeId owner,
                                                             std::uint32_t slot,
                                                             graph::NodeId r) const {
    return cellBits_[slotBase_[owner] + slot].row(r);
  }

  /// Host nodes viable for v considering node-level checks and non-emptiness
  /// of every slot cell (strengthened eq. 1). Sorted ascending.
  [[nodiscard]] std::span<const graph::NodeId> viable(graph::NodeId v) const {
    return viable_[v];
  }

  /// viable(v) as a bit row (always built; hostWords() words wide).
  [[nodiscard]] std::span<const std::uint64_t> viableBits(graph::NodeId v) const {
    return viableBits_.row(v);
  }

  /// Stage-0 node-level viability of v (degree bound + node constraint),
  /// before the slot-support check that viableBits adds. hostWords() wide.
  [[nodiscard]] std::span<const std::uint64_t> nodeOkBits(graph::NodeId v) const {
    return nodeOkBits_.row(v);
  }

  [[nodiscard]] bool isViable(graph::NodeId v, graph::NodeId r) const {
    return viableBits_.test(v, r);
  }

  /// Words per host-node bit row — the width of every candidateBits /
  /// viableBits span and of any scratch Bitset intersected against them.
  [[nodiscard]] std::size_t hostWords() const noexcept {
    return viableBits_.wordsPerRow();
  }

  /// Host-node count the rows are sized for (columns of every bit row).
  [[nodiscard]] std::size_t hostNodes() const noexcept { return viableBits_.cols(); }

  [[nodiscard]] std::size_t totalEntries() const noexcept { return totalEntries_; }

  /// A cell's theoretical entry capacity: the host's directed adjacency-pair
  /// count (2E undirected, E directed). totalEntries() / (cellCount x this)
  /// is the stage-1 density the ordering predictor steers on.
  [[nodiscard]] std::size_t hostAdjacencySlots() const noexcept {
    return hostAdjacencySlots_;
  }

  /// The host partition this matrix was built with; FilterPlan::patch
  /// classifies deltas against it.
  [[nodiscard]] const ShardMap& shardMap() const noexcept { return shards_; }

  /// Per-structure memory accounting for the bench memory trajectory.
  struct MemoryBreakdown {
    std::size_t csrBytes = 0;        // offsets + data of every cell
    std::size_t bitRowBytes = 0;     // per-cell candidate bit matrices
    std::size_t viabilityBytes = 0;  // viableBits_ + nodeOkBits_ + viable lists
    [[nodiscard]] std::size_t total() const noexcept {
      return csrBytes + bitRowBytes + viabilityBytes;
    }
  };
  [[nodiscard]] MemoryBreakdown memoryBreakdown() const noexcept;

 private:
  struct Csr {
    std::vector<std::uint32_t> offsets;  // host-node-indexed, size NR+1
    std::vector<graph::NodeId> data;
  };

  std::vector<std::vector<Slot>> slots_;            // per query node
  std::vector<std::uint32_t> slotBase_;             // prefix sum into cells_
  std::vector<Csr> cells_;                          // per (node, slot)
  std::vector<util::BitMatrix> cellBits_;           // parallel to cells_; may be empty
  std::vector<std::vector<Constrainer>> constrainers_;
  std::vector<std::vector<graph::NodeId>> viable_;  // per query node, sorted
  util::BitMatrix viableBits_;                      // nq x nr
  /// Node-level viability (degree bound + node constraint) kept separate
  /// from viableBits_ — patch() needs it to re-gate pair evaluations without
  /// re-running the node constraint over untouched host nodes.
  util::BitMatrix nodeOkBits_;                      // nq x nr
  std::size_t totalEntries_ = 0;
  std::size_t hostAdjacencySlots_ = 0;

  ShardMap shards_;
};

}  // namespace netembed::core
