#pragma once
// Dynamic smallest-domain variable ordering for the filtered engines.
//
// The paper fixes the variable order up front (Lemma 1: ascending stage-1
// candidate count). That ignores how domains shrink *during* search: after a
// few assignments the most constrained unassigned node is rarely the one the
// static order schedules next. DomainTracker maintains, per query node, the
// exact live candidate domain
//
//     D(w) = viable(w)  \  used  ∩  { candidates(v, s, m(v)) :
//                                     assigned v, slot s of v pointing at w }
//
// as a packed bit row with an incrementally-maintained popcount, updated by
// the same constrainer-row ANDs the search performs anyway (fused with the
// popcount in one pass — util::simd::andIntoPopcount). Selection picks the
// unassigned node with the smallest live count, breaking ties by the static
// Lemma-1 position, so Dynamic degenerates to exactly the static order when
// domains never diverge. A wipeout (any live domain hitting zero) is
// detected at assignment time and prunes the subtree immediately.
//
// Exactness matters for the differential contract: CSR-only cells contribute
// through a materialized scratch row, so the maintained domains — and hence
// the visit order — are identical across BitsetMode Off/Auto/Force, keeping
// "bitset mode is purely a performance knob" true under Dynamic too.
//
// Assignments form a stack (assign/unassign), mirroring the DFS; undo
// restores the saved rows and counts of exactly the nodes the assignment
// touched. One tracker per search worker; no sharing, no synchronization.

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/filter.hpp"
#include "core/plan.hpp"
#include "util/bitset.hpp"
#include "util/simd.hpp"

namespace netembed::core {

class DomainTracker {
 public:
  explicit DomainTracker(const FilterPlan& plan)
      : fm_(plan.filters),
        nq_(plan.order.size()),
        nr_(plan.filters.hostNodes()),
        words_(plan.filters.hostWords()) {
    staticPos_.assign(nq_, 0);
    for (std::size_t d = 0; d < nq_; ++d) staticPos_[plan.order[d]] = d;
    domains_.assign(nq_, nr_);
    counts_.assign(nq_, 0);
    assigned_.assign(nq_, 0);
    touchedEpoch_.assign(nq_, 0);
    scratch_.assign(nr_);
    frames_.resize(nq_ + 1);
    reset();
  }

  /// Back to the no-assignments state: every domain is its viable row.
  void reset() {
    for (graph::NodeId v = 0; v < nq_; ++v) {
      const auto row = fm_.viableBits(v);
      std::uint64_t* dst = domains_.rowData(v);
      for (std::size_t w = 0; w < words_; ++w) dst[w] = row[w];
      counts_[v] = static_cast<std::uint32_t>(fm_.viable(v).size());
      assigned_[v] = 0;
      touchedEpoch_[v] = 0;
    }
    depth_ = 0;
    epoch_ = 0;
  }

  /// The unassigned node with the smallest live domain; ties break toward
  /// the earliest static (Lemma-1) position. Precondition: at least one
  /// node is unassigned.
  [[nodiscard]] graph::NodeId selectNext() const noexcept {
    graph::NodeId best = graph::kInvalidNode;
    std::uint64_t bestKey = std::numeric_limits<std::uint64_t>::max();
    for (graph::NodeId v = 0; v < nq_; ++v) {
      if (assigned_[v]) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(counts_[v]) << 32) | staticPos_[v];
      if (key < bestKey) {
        bestKey = key;
        best = v;
      }
    }
    assert(best != graph::kInvalidNode);
    return best;
  }

  /// Record v -> r: narrow every unassigned neighbor's domain by the
  /// matching constrainer row, remove r from every unassigned domain, and
  /// push an undo frame. Returns false when any live domain wiped out —
  /// the caller should skip descending (and must still unassign()).
  bool assign(graph::NodeId v, graph::NodeId r) {
    assert(!assigned_[v]);
    Frame& f = frames_[depth_++];
    f.v = v;
    f.r = r;
    f.saved.clear();
    f.arena.clear();
    f.cleared.clear();
    assigned_[v] = 1;
    ++epoch_;

    bool alive = true;
    // Neighbor domains: D(w) &= candidates(v, slot, r), popcount fused in.
    for (std::uint32_t s = 0; s < fm_.slots(v).size(); ++s) {
      const graph::NodeId w = fm_.slots(v)[s].neighbor;
      if (assigned_[w]) continue;
      std::uint64_t* row = domains_.rowData(w);
      if (touchedEpoch_[w] != epoch_) {
        touchedEpoch_[w] = epoch_;
        f.saved.push_back({w, counts_[w]});
        f.arena.insert(f.arena.end(), row, row + words_);
      }
      std::span<const std::uint64_t> constr;
      if (fm_.hasCandidateBits(v, s)) {
        constr = fm_.candidateBits(v, s, r);
      } else {
        // CSR-only cell: materialize the sorted list as a row so the
        // maintained domain stays exact in every bitset mode.
        scratch_.clearAll();
        for (const graph::NodeId c : fm_.candidates(v, s, r)) scratch_.set(c);
        constr = scratch_.words();
      }
      counts_[w] = static_cast<std::uint32_t>(
          util::simd::andIntoPopcount(row, constr.data(), words_));
      if (counts_[w] == 0) alive = false;
    }
    // r is taken: drop it from every other live domain (a one-bit edit —
    // full-row saves above already cover the ANDed neighbors).
    for (graph::NodeId w = 0; w < nq_; ++w) {
      if (assigned_[w] || !domains_.test(w, r)) continue;
      domains_.reset(w, r);
      --counts_[w];
      if (touchedEpoch_[w] != epoch_) f.cleared.push_back(w);
      if (counts_[w] == 0) alive = false;
    }
    return alive;
  }

  /// Undo the most recent assign() (LIFO).
  void unassign() {
    assert(depth_ > 0);
    Frame& f = frames_[--depth_];
    const std::uint64_t* src = f.arena.data();
    for (const SavedDomain& s : f.saved) {
      std::uint64_t* row = domains_.rowData(s.node);
      for (std::size_t w = 0; w < words_; ++w) row[w] = src[w];
      counts_[s.node] = s.count;
      src += words_;
    }
    for (const graph::NodeId w : f.cleared) {
      domains_.set(w, f.r);
      ++counts_[w];
    }
    assigned_[f.v] = 0;
  }

  /// The live domain of `v` as a bit row (exact; ascending walk matches the
  /// static path's candidate enumeration order).
  [[nodiscard]] std::span<const std::uint64_t> domain(graph::NodeId v) const {
    return domains_.row(v);
  }
  [[nodiscard]] std::size_t liveCount(graph::NodeId v) const noexcept {
    return counts_[v];
  }
  [[nodiscard]] bool isAssigned(graph::NodeId v) const noexcept {
    return assigned_[v] != 0;
  }
  [[nodiscard]] std::size_t assignedCount() const noexcept { return depth_; }

  /// Test hook: every unassigned node's maintained count equals the
  /// popcount of its maintained row (the invariant incremental updates must
  /// preserve through any assign/unassign interleaving).
  [[nodiscard]] bool countsConsistent() const {
    for (graph::NodeId v = 0; v < nq_; ++v) {
      if (assigned_[v]) continue;
      const auto row = domains_.row(v);
      if (util::simd::popcount(row.data(), row.size()) != counts_[v]) return false;
    }
    return true;
  }

  /// The depth-0 pick under the dynamic rule, computable before any tracker
  /// exists: smallest stage-1 viable count, ties toward the static position.
  /// Equals plan.order.front() whenever the plan was Lemma-1 sorted.
  [[nodiscard]] static graph::NodeId firstNode(const FilterPlan& plan) {
    const std::size_t nq = plan.order.size();
    std::vector<std::size_t> pos(nq, 0);
    for (std::size_t d = 0; d < nq; ++d) pos[plan.order[d]] = d;
    graph::NodeId best = plan.order.front();
    for (graph::NodeId v = 0; v < nq; ++v) {
      const auto a = std::make_pair(plan.filters.viable(v).size(), pos[v]);
      const auto b = std::make_pair(plan.filters.viable(best).size(), pos[best]);
      if (a < b) best = v;
    }
    return best;
  }

 private:
  struct SavedDomain {
    graph::NodeId node;
    std::uint32_t count;
  };
  /// Undo record for one assignment: full copies of the rows that were
  /// ANDed, plus the nodes that only lost the single bit `r`.
  struct Frame {
    graph::NodeId v = graph::kInvalidNode;
    graph::NodeId r = graph::kInvalidNode;
    std::vector<SavedDomain> saved;
    std::vector<std::uint64_t> arena;  // saved rows, words_ each, in order
    std::vector<graph::NodeId> cleared;
  };

  const FilterMatrix& fm_;
  std::size_t nq_;
  std::size_t nr_;
  std::size_t words_;
  std::vector<std::size_t> staticPos_;
  util::BitMatrix domains_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint8_t> assigned_;
  std::vector<std::uint32_t> touchedEpoch_;  // dedups full-row saves per frame
  std::uint32_t epoch_ = 0;
  util::Bitset scratch_;  // CSR-cell row materialization
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
};

}  // namespace netembed::core
