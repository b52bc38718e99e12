#pragma once
// Shared search-facing types: options, statistics, outcomes, results.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace netembed::core {

/// A (possibly partial) node mapping: query node id -> host node id.
/// Complete mappings have no kInvalidNode entries.
using Mapping = std::vector<graph::NodeId>;

/// Search engines. ECF/RWB/LNS are the paper's algorithms, Naive/Anneal/
/// Genetic the baselines, and Portfolio races ECF, RWB and LNS concurrently,
/// cancelling the losers as soon as one finds a match or proves
/// infeasibility (§VIII: no single algorithm dominates).
enum class Algorithm : std::uint8_t { ECF, RWB, LNS, Naive, Anneal, Genetic, Portfolio };
[[nodiscard]] const char* algorithmName(Algorithm a) noexcept;

/// How a search ended (paper §VII-E):
///  * Complete      — the search space was exhausted before any limit hit;
///                    with solutionCount == 0 this *proves* infeasibility.
///  * Partial       — stopped early (timeout or max-solutions) having found
///                    at least one feasible embedding.
///  * Inconclusive  — stopped early with none found; existence is unknown.
enum class Outcome : std::uint8_t { Complete, Partial, Inconclusive };
[[nodiscard]] const char* outcomeName(Outcome o) noexcept;

/// Variable-ordering policy for the filtered engines (ECF/RWB).
///  * Static  — the plan's Lemma-1 order (ascending stage-1 candidate count),
///    fixed before the search starts. Deterministic streams, byte-identical
///    to the historical behavior.
///  * Dynamic — classic smallest-live-domain: per-node candidate domains are
///    maintained incrementally as assignments constrain them (the same
///    constrainer-row ANDs the search performs anyway, with popcounts folded
///    into the pass), and each depth descends into the unassigned node with
///    the fewest live candidates, breaking ties by the static order. A node
///    whose domain wipes out prunes the subtree immediately. Enumerates the
///    exact same solution *set* as Static — only the visit order (and so the
///    first match under a cap) differs; still fully deterministic.
///  * Auto    — resolve to Static or Dynamic at search start from the plan's
///    domain-size spread: Dynamic only pays when stage-1 candidate counts are
///    too uniform for the static Lemma-1 order to discriminate (it wins 17x
///    on planted cliques but regresses 0.73x on brite_dense). Deterministic
///    per plan; resolved once, before any worker starts.
///  * Declared — query nodes in declaration order, fixed, with no Lemma-1
///    sort: the ablation baseline that shows what the sort buys. The only
///    ordering that changes the plan (its node order); Auto never picks it.
enum class Ordering : std::uint8_t { Static, Dynamic, Auto, Declared };
[[nodiscard]] const char* orderingName(Ordering o) noexcept;

/// Candidate-domain representation for stage-1 filter cells (§V-A). Every
/// cell always keeps its sorted CSR list (ordered enumeration, memory floor);
/// this chooses when a packed bitset row is built alongside it so eq.-2
/// intersections run word-parallel. Purely a performance knob: every mode
/// yields identical candidate sets in identical order.
enum class BitsetMode : std::uint8_t {
  /// Per-cell density heuristic: bitset rows only where the AND beats the
  /// sorted-list probe and the memory is proportionate (the default).
  Auto,
  /// CSR only — the iterate-smallest + binary-search path everywhere.
  Off,
  /// Bitset rows for every cell regardless of density (differential tests).
  Force,
};

struct SearchOptions {
  /// Wall-clock budget; zero means unlimited.
  std::chrono::milliseconds timeout{0};
  /// Stop after this many solutions; zero means enumerate all.
  std::size_t maxSolutions = 0;
  /// Retain at most this many mappings in the result (all are still counted).
  std::size_t storeLimit = 16;
  /// RNG seed (RWB and the randomized baselines).
  std::uint64_t seed = 1;

  // --- heuristics (all on by default; benches ablate them) ---
  /// LNS: start from the maximum-degree query node.
  bool lnsMaxDegreeStart = true;
  /// LNS: always expand the neighbour with the most links into Covered.
  bool lnsMostConnectedNeighbor = true;
  /// Build stage-1 filters in parallel over query edges.
  bool parallelFilterBuild = true;

  /// Dual CSR/bitset candidate domains (see BitsetMode).
  BitsetMode bitsetMode = BitsetMode::Auto;

  /// ECF/RWB variable order (see Ordering). Static keeps the historical
  /// byte-identical streams; Dynamic pays a small per-assignment bookkeeping
  /// cost to fail earlier on backtrack-heavy instances.
  Ordering ordering = Ordering::Static;

  /// Abort filter construction beyond this many stored candidate entries
  /// (the O(n^5) blow-up guard the paper motivates LNS with). 0 = unlimited.
  std::size_t maxFilterEntries = 200'000'000;

  /// Compute budget in visited tree nodes; zero means unlimited. Enforced
  /// per worker at the cooperative poll, so a root-split or portfolio run
  /// may expand up to (workers x budget) nodes in total — the knob bounds
  /// work deterministically for serial runs and approximately for parallel
  /// ones. The service maps QoS compute budgets onto it. Binds the engines
  /// that count tree-node visits (ECF/RWB/LNS/Naive/Anneal); the
  /// generation-based Genetic baseline polls coarsely and is bounded by the
  /// wall-clock budget only.
  std::uint64_t visitBudget = 0;

  /// Deadline poll stride, in visited tree nodes.
  std::uint64_t checkStride = 1024;

  /// ECF/RWB root-split parallelism: the first-depth candidate set (in
  /// Lemma-1 order) is partitioned across this many workers, each exploring
  /// its subtrees against the shared immutable FilterMatrix. 1 = serial
  /// (default); 0 = every shared-pool thread plus the participating caller
  /// (hardware threads + 1).
  std::size_t rootSplitThreads = 1;
};

struct SearchStats {
  std::uint64_t treeNodesVisited = 0;   // candidate assignments attempted
  std::uint64_t constraintEvals = 0;    // expression evaluations
  std::uint64_t backtracks = 0;
  std::size_t filterEntries = 0;        // stage-1 candidate entries stored
  std::uint64_t filterSweepVisits = 0;  // host adjacency entries stage 1 walked
  double filterBuildMs = 0.0;
  double searchMs = 0.0;                // total wall time incl. filter build
  double firstMatchMs = -1.0;           // -1 when no match was found
  std::size_t peakCovered = 0;          // LNS: deepest covered-set size

  void merge(const SearchStats& other) noexcept;
};

struct EmbedResult {
  Outcome outcome = Outcome::Inconclusive;
  std::uint64_t solutionCount = 0;
  std::vector<Mapping> mappings;  // first min(solutionCount, storeLimit)
  SearchStats stats;

  [[nodiscard]] bool feasible() const noexcept { return solutionCount > 0; }
  [[nodiscard]] bool provenInfeasible() const noexcept {
    return outcome == Outcome::Complete && solutionCount == 0;
  }
};

/// Invoked for every feasible mapping as it is found; return false to stop
/// the search (the result is then Partial). With rootSplitThreads > 1 the
/// sink may be invoked concurrently from several workers — guard any state it
/// mutates. Returning false requests a stop but does not fence other
/// workers: until the request propagates, further mappings may be admitted
/// and the sink invoked for them, so captured state must stay valid after a
/// false return.
using SolutionSink = std::function<bool(const Mapping&)>;

/// Render "q0->r3 q1->r7 ..." using node names.
[[nodiscard]] std::string formatMapping(const Mapping& m, const graph::Graph& query,
                                        const graph::Graph& host);

}  // namespace netembed::core
