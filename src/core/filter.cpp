#include "core/filter.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace netembed::core {

namespace {

/// Run `fn(i)` for every i in [0, n): over util::parallelFor when `parallel`
/// and there is more than one index, inline otherwise.
template <typename Fn>
void forEachIndex(bool parallel, std::size_t n, const Fn& fn) {
  if (parallel && n > 1) {
    util::parallelFor(n, fn, 1);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// True when the edge constraint reads none of the endpoint objects
/// (vSource/vTarget/rSource/rTarget): its outcome on an undirected host edge
/// is then the same in both orientations, so one evaluation serves both.
/// An unconstrained problem is trivially orientation-blind.
bool orientationBlind(const Problem& problem) {
  const expr::Constraint* edgeConstraint = problem.edgeConstraint();
  if (!edgeConstraint) return true;
  constexpr std::uint32_t endpointMask =
      (1u << static_cast<std::uint32_t>(expr::ObjectId::VSource)) |
      (1u << static_cast<std::uint32_t>(expr::ObjectId::VTarget)) |
      (1u << static_cast<std::uint32_t>(expr::ObjectId::RSource)) |
      (1u << static_cast<std::uint32_t>(expr::ObjectId::RTarget));
  return (edgeConstraint->program().objectsUsed() & endpointMask) == 0;
}

/// Dense bitmap of node-level viability (node constraint + degree bound),
/// computed once up front; O(NQ * NR) evaluations of the node constraint.
/// One task per (query node, 4,096-node chunk) fills a 64-word subrange of
/// the row, so tasks write disjoint words and a 100k-node host still splits
/// into enough tasks to keep the pool busy. Every task polls `cancelled`
/// first: on large hosts with an expensive node constraint this stage alone
/// can outlive a portfolio race or a deadline.
util::BitMatrix nodeViability(const Problem& p, const SearchOptions& options,
                              const std::function<bool()>& cancelled) {
  const std::size_t nq = p.query->nodeCount();
  const std::size_t nr = p.host->nodeCount();
  util::BitMatrix ok(nq, nr);
  constexpr std::size_t kChunkNodes = 64 * util::kBitsPerWord;
  const std::size_t chunks =
      std::max<std::size_t>(1, (nr + kChunkNodes - 1) / kChunkNodes);
  const auto evalTask = [&](std::size_t t) {
    if (cancelled && cancelled()) throw FilterBuildCancelled();
    const auto q = static_cast<graph::NodeId>(t / chunks);
    const std::size_t begin = (t % chunks) * kChunkNodes;
    const std::size_t end = std::min(begin + kChunkNodes, nr);
    std::uint64_t* row = ok.rowData(q);
    for (std::size_t r = begin; r < end; ++r) {
      const auto node = static_cast<graph::NodeId>(r);
      if (p.degreeOk(q, node) && p.nodeOk(q, node)) {
        row[r / util::kBitsPerWord] |= std::uint64_t{1} << (r % util::kBitsPerWord);
      }
    }
  };
  forEachIndex(options.parallelFilterBuild, nq * chunks, evalTask);
  return ok;
}

/// Density heuristic: does a cell with `entries` stored candidates over an
/// `nr`-node host earn bitset rows? A row AND costs one word per 64 host
/// nodes no matter how sparse the cell, but the per-word constant (one
/// word AND) is tiny next to the per-candidate constant of the hybrid
/// probe path it replaces (a gather + merge per surviving candidate):
/// measured on the sparse overlay instances the ANDs win until cells carry
/// fewer than ~one set bit per 16 words. Demand density >= 1/1024 — the
/// nr*nr/8-byte bitmap there costs ~32x the CSR list it shadows, an
/// acceptable ceiling since absolute size stays small for the hosts where
/// such sparse cells appear; hosts up to a few hundred nodes get rows
/// unconditionally because a handful of words beats any binary search.
[[nodiscard]] bool wantCellBits(BitsetMode mode, std::size_t entries,
                                std::size_t nr) noexcept {
  constexpr std::size_t kSmallHostBits = 512;
  constexpr std::size_t kMinBitsPerWord16 = util::kBitsPerWord * 16;
  switch (mode) {
    case BitsetMode::Off:
      return false;
    case BitsetMode::Force:
      return true;
    case BitsetMode::Auto:
      break;
  }
  return nr <= kSmallHostBits || entries * kMinBitsPerWord16 >= nr * nr;
}

}  // namespace

FilterMatrix FilterMatrix::build(const Problem& problem, const SearchOptions& options,
                                 SearchStats& stats,
                                 const std::function<bool()>& cancelled) {
  util::Stopwatch timer;
  problem.validate();
  const graph::Graph& q = *problem.query;
  const graph::Graph& h = *problem.host;
  const std::size_t nq = q.nodeCount();
  const std::size_t nr = h.nodeCount();
  const bool parallel = options.parallelFilterBuild;

  FilterMatrix fm;
  fm.slots_.resize(nq);
  fm.constrainers_.resize(nq);
  fm.viable_.resize(nq);
  fm.slotBase_.resize(nq + 1, 0);

  // --- enumerate slots -----------------------------------------------------
  for (graph::NodeId v = 0; v < nq; ++v) {
    for (const graph::Neighbor& nb : q.neighbors(v)) {
      fm.slots_[v].push_back({nb.node, nb.edge, true});
    }
    if (q.directed()) {
      for (const graph::Neighbor& nb : q.inNeighbors(v)) {
        fm.slots_[v].push_back({nb.node, nb.edge, false});
      }
    }
  }
  for (graph::NodeId v = 0; v < nq; ++v) {
    fm.slotBase_[v + 1] = fm.slotBase_[v] + static_cast<std::uint32_t>(fm.slots_[v].size());
    for (std::uint32_t s = 0; s < fm.slots_[v].size(); ++s) {
      fm.constrainers_[fm.slots_[v][s].neighbor].push_back({v, s});
    }
  }
  const std::size_t cellCount = fm.slotBase_[nq];
  fm.cells_.resize(cellCount);
  fm.cellBits_.resize(cellCount);
  fm.hostAdjacencySlots_ = h.edgeCount() * (h.directed() ? 1 : 2);

  // --- stage 0: node-level viability bitmap --------------------------------
  // Moved into the matrix at the end: patch() re-gates pair evaluations with
  // it so node constraints only re-run over the touched host nodes.
  util::BitMatrix nodeOk = nodeViability(problem, options, cancelled);

  // --- stage 1: evaluate the constraint per (query edge, host edge) -------
  //
  // matchPairs[e] holds (ra, rb) pairs meaning: query edge e, used in its
  // stored orientation src->dst, can map src->ra, dst->rb. The sweep for e
  // is anchored on whichever endpoint has fewer stage-0-viable host nodes
  // (src on a tie): it walks only the adjacency of the anchor's viable host
  // nodes y and skips every neighbour z that fails stage 0 for the other
  // endpoint, so host edges the node checks rule out are never touched —
  // a query edge with one free and one pinned endpoint costs the pinned
  // side's adjacency, not the host's. Each visit (y, z) is one oriented
  // pair src->u, dst->x, with (u, x) = (y, z) anchored on src and (z, y)
  // anchored on dst:
  //  * a directed host lists each edge once per direction — out-adjacency
  //    when anchored on src, in-adjacency on dst — so one visit;
  //  * an undirected host lists each edge at both endpoints, one visit per
  //    orientation. An endpoint-reading constraint is evaluated per visit;
  //    an orientation-blind one (see orientationBlind) once per edge — at
  //    the smaller anchor's visit when both orientations pass the gate, at
  //    the only passing visit otherwise — and mirrored.
  // That is exactly one evaluation per gated (query edge, host edge,
  // orientation), or per gated edge when orientation-blind, whichever end
  // anchors. Pair discovery order differs from host edge order, but stage
  // 2's counting sort keys cells on (host node, candidate), so the cells
  // do not depend on it. stats.filterSweepVisits counts the adjacency
  // entries walked.
  const bool blind = orientationBlind(problem);
  std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> matchPairs(
      q.edgeCount());
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> visits{0};
  std::atomic<std::size_t> entries{0};
  const std::size_t entryBudget =
      options.maxFilterEntries == 0 ? static_cast<std::size_t>(-1) : options.maxFilterEntries;

  // Poll sparsely: the predicate may check the wall clock, and the loop body
  // is a handful of lookups per visit.
  constexpr std::size_t kCancelPollStride = 4096;

  const auto evaluateQueryEdge = [&](std::size_t qeIndex) {
    const auto qe = static_cast<graph::EdgeId>(qeIndex);
    const graph::NodeId qa = q.edgeSource(qe);
    const graph::NodeId qb = q.edgeTarget(qe);
    auto& pairs = matchPairs[qeIndex];
    std::uint64_t localEvals = 0;
    const auto okA = nodeOk.row(qa);
    const auto okB = nodeOk.row(qb);
    const bool fromB = util::simd::popcount(okB.data(), okB.size()) <
                       util::simd::popcount(okA.data(), okA.size());
    const auto okAnchor = fromB ? okB : okA;
    const auto okOther = fromB ? okA : okB;
    std::size_t polls = 0;
    util::forEachSetBit(okAnchor, [&](std::size_t yIndex) {
      const auto y = static_cast<graph::NodeId>(yIndex);
      const bool yOkOther = util::testBit(okOther, y);
      for (const graph::Neighbor& nb :
           fromB && h.directed() ? h.inNeighbors(y) : h.neighbors(y)) {
        if (polls++ % kCancelPollStride == 0 && cancelled && cancelled()) {
          throw FilterBuildCancelled();
        }
        const graph::NodeId z = nb.node;
        if (!util::testBit(okOther, z)) continue;
        const graph::NodeId u = fromB ? z : y;
        const graph::NodeId x = fromB ? y : z;
        if (h.directed() || !blind) {
          if (problem.edgeOk(qe, qa, qb, nb.edge, u, x, localEvals)) {
            pairs.emplace_back(u, x);
          }
          continue;
        }
        const bool mirrored = yOkOther && util::testBit(okAnchor, z);
        if (mirrored && z < y) continue;  // evaluated at z's visit
        if (!problem.edgeOk(qe, qa, qb, nb.edge, u, x, localEvals)) continue;
        pairs.emplace_back(u, x);
        if (mirrored) pairs.emplace_back(x, u);
      }
    });

    evals.fetch_add(localEvals, std::memory_order_relaxed);
    visits.fetch_add(polls, std::memory_order_relaxed);
    // Every oriented pair lands in exactly two cells (one per endpoint).
    const std::size_t stored =
        entries.fetch_add(2 * pairs.size(), std::memory_order_relaxed) + 2 * pairs.size();
    if (stored > entryBudget) throw FilterOverflow(stored);
  };
  forEachIndex(parallel, q.edgeCount(), evaluateQueryEdge);

  // --- stage 2: scatter match pairs into per-slot CSR (+ bitset) cells ----
  // Slot (v, s) with edge e: if v == src(e) the cell keys on ra and stores
  // rb; otherwise it keys on rb and stores ra. Cells are disjoint, so the
  // scatter parallelizes over them directly.
  std::vector<std::pair<graph::NodeId, std::uint32_t>> cellOwner(cellCount);
  for (graph::NodeId v = 0; v < nq; ++v) {
    for (std::uint32_t s = 0; s < fm.slots_[v].size(); ++s) {
      cellOwner[fm.slotBase_[v] + s] = {v, s};
    }
  }

  const auto fillSlot = [&](std::size_t cellIndex) {
    if (cancelled && cancelled()) throw FilterBuildCancelled();
    const auto [v, s] = cellOwner[cellIndex];
    const Slot slot = fm.slots_[v][s];
    Csr& csr = fm.cells_[cellIndex];
    const bool vIsSource = q.edgeSource(slot.edge) == v;
    const auto& pairs = matchPairs[slot.edge];
    const std::size_t m = pairs.size();

    // Two stable counting passes (LSD radix over the host-node id): order by
    // stored value first, then scatter by key — O(E + NR) total, replacing
    // the former O(E log E) comparison sort, while producing the same
    // key-grouped, value-ascending layout.
    std::vector<graph::NodeId> keys(m), vals(m);
    for (std::size_t i = 0; i < m; ++i) {
      keys[i] = vIsSource ? pairs[i].first : pairs[i].second;
      vals[i] = vIsSource ? pairs[i].second : pairs[i].first;
    }
    std::vector<std::uint32_t> start(nr + 1, 0);
    for (std::size_t i = 0; i < m; ++i) ++start[vals[i] + 1];
    for (std::size_t r = 0; r < nr; ++r) start[r + 1] += start[r];
    std::vector<graph::NodeId> keysByVal(m), valsByVal(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t pos = start[vals[i]]++;
      keysByVal[pos] = keys[i];
      valsByVal[pos] = vals[i];
    }

    csr.offsets.assign(nr + 1, 0);
    for (std::size_t i = 0; i < m; ++i) ++csr.offsets[keysByVal[i] + 1];
    for (std::size_t r = 0; r < nr; ++r) csr.offsets[r + 1] += csr.offsets[r];
    csr.data.resize(m);
    std::vector<std::uint32_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
      csr.data[cursor[keysByVal[i]]++] = valsByVal[i];
    }

    if (wantCellBits(options.bitsetMode, m, nr)) {
      util::BitMatrix& bits = fm.cellBits_[cellIndex];
      bits.assign(nr, nr);
      for (graph::NodeId r = 0; r < nr; ++r) {
        std::uint64_t* row = bits.rowData(r);
        for (std::uint32_t i = csr.offsets[r]; i < csr.offsets[r + 1]; ++i) {
          const graph::NodeId c = csr.data[i];
          row[c / util::kBitsPerWord] |= std::uint64_t{1}
                                         << (c % util::kBitsPerWord);
        }
      }
    }
  };
  forEachIndex(parallel, cellCount, fillSlot);

  // --- viable lists + bit rows (strengthened eq. 1) -------------------------
  fm.viableBits_.assign(nq, nr);
  const auto fillViable = [&](std::size_t vIndex) {
    if (cancelled && cancelled()) throw FilterBuildCancelled();
    const auto v = static_cast<graph::NodeId>(vIndex);
    std::vector<graph::NodeId>& out = fm.viable_[v];
    std::uint64_t* row = fm.viableBits_.rowData(v);
    for (graph::NodeId r = 0; r < nr; ++r) {
      if (!nodeOk.test(v, r)) continue;
      bool allSlotsSupported = true;
      for (std::uint32_t s = 0; s < fm.slots_[v].size(); ++s) {
        const Csr& csr = fm.cells_[fm.slotBase_[v] + s];
        if (csr.offsets[r + 1] == csr.offsets[r]) {
          allSlotsSupported = false;
          break;
        }
      }
      if (allSlotsSupported) {
        out.push_back(r);
        row[r / util::kBitsPerWord] |= std::uint64_t{1} << (r % util::kBitsPerWord);
      }
    }
  };
  forEachIndex(parallel, nq, fillViable);

  fm.nodeOkBits_ = std::move(nodeOk);
  fm.totalEntries_ = entries.load();
  stats.filterEntries = fm.totalEntries_;
  stats.constraintEvals += evals.load();
  stats.filterSweepVisits += visits.load();
  stats.filterBuildMs = timer.elapsedMs();
  return fm;
}

void FilterMatrix::patch(const Problem& problem, const SearchOptions& options,
                         const ModelDelta& delta, SearchStats& stats,
                         const std::function<bool()>& cancelled) {
  util::Stopwatch timer;
  problem.validate();
  const graph::Graph& q = *problem.query;
  const graph::Graph& h = *problem.host;
  const std::size_t nq = q.nodeCount();
  const std::size_t nr = h.nodeCount();

  // --- affected sets --------------------------------------------------------
  // A touched edge changes its own constraint outcomes; a touched node
  // changes its node-level viability AND the outcome of every incident edge
  // (edge constraints may read rSource/rTarget attributes). Everything else
  // is untouched by construction — that is the whole point of the patch.
  // affectedEdgeMask is the same rule classifyDelta costed the patch with.
  std::vector<char> edgeAffected;
  if (!affectedEdgeMask(h, delta, edgeAffected)) {
    throw std::invalid_argument("FilterMatrix::patch: delta references ids outside the host");
  }
  std::vector<graph::EdgeId> affectedEdges;
  for (graph::EdgeId he = 0; he < h.edgeCount(); ++he) {
    if (edgeAffected[he]) affectedEdges.push_back(he);
  }
  std::vector<char> nodeAffected(nr, 0);
  for (const graph::NodeId n : delta.nodes) nodeAffected[n] = 1;
  for (const graph::EdgeId he : affectedEdges) {
    nodeAffected[h.edgeSource(he)] = 1;
    nodeAffected[h.edgeTarget(he)] = 1;
  }

  // --- refresh node-level viability for the touched nodes -------------------
  for (const graph::NodeId r : delta.nodes) {
    for (graph::NodeId v = 0; v < nq; ++v) {
      nodeOkBits_.setTo(v, r, problem.degreeOk(v, r) && problem.nodeOk(v, r));
    }
  }

  // --- re-evaluate the affected (query edge, host edge) pairs ---------------
  // Mirrors stage 1 of build() exactly (same gating, same once-per-edge
  // evaluation of an orientation-blind constraint) so a patched matrix is
  // candidate-set-identical to a fresh build; only the loop domain shrinks
  // to the affected host edges.
  const bool blind = orientationBlind(problem);

  // Which cells key on the mapped source endpoint of each query edge.
  std::vector<std::vector<std::pair<std::uint32_t, bool>>> cellsOfEdge(q.edgeCount());
  for (graph::NodeId v = 0; v < nq; ++v) {
    for (std::uint32_t s = 0; s < slots_[v].size(); ++s) {
      const Slot& slot = slots_[v][s];
      cellsOfEdge[slot.edge].push_back(
          {slotBase_[v] + s, q.edgeSource(slot.edge) == v});
    }
  }

  // One membership decision per (cell, key, val) — unique within a patch
  // because (key, val) determines the host edge and cells belong to one
  // query edge.
  struct Edit {
    graph::NodeId key;
    graph::NodeId val;
    bool present;
  };
  std::vector<std::vector<Edit>> cellEdits(cells_.size());
  std::atomic<std::uint64_t> evals{0};
  constexpr std::size_t kCancelPollStride = 1024;
  // Patch work scales with |affected host edges| x |query edges|; below this
  // many pair re-evaluations the parallelFor dispatch overhead dominates the
  // loop body, and a monitoring-style one-node bump stays serial.
  constexpr std::size_t kParallelPatchPairs = 2048;
  const bool parallel = options.parallelFilterBuild &&
                        affectedEdges.size() * q.edgeCount() >= kParallelPatchPairs;

  // Safe to fan out over query edges: every cell belongs to exactly one
  // query edge, so the cellEdits buckets written by distinct tasks are
  // disjoint, and the per-(qe, he) evaluation order within a bucket is the
  // serial order — patched cells stay byte-identical either way.
  const auto evaluateEdge = [&](std::size_t qeIndex) {
    const auto qe = static_cast<graph::EdgeId>(qeIndex);
    const graph::NodeId qa = q.edgeSource(qe);
    const graph::NodeId qb = q.edgeTarget(qe);
    std::uint64_t localEvals = 0;
    std::size_t polls = 0;
    for (const graph::EdgeId he : affectedEdges) {
      if (++polls % kCancelPollStride == 0 && cancelled && cancelled()) {
        throw FilterBuildCancelled();
      }
      const graph::NodeId ra = h.edgeSource(he);
      const graph::NodeId rb = h.edgeTarget(he);
      bool forward = false;
      bool backward = false;
      if (h.directed()) {
        forward = nodeOkBits_.test(qa, ra) && nodeOkBits_.test(qb, rb) &&
                  problem.edgeOk(qe, qa, qb, he, ra, rb, localEvals);
      } else if (blind) {
        const bool fGate = nodeOkBits_.test(qa, ra) && nodeOkBits_.test(qb, rb);
        const bool bGate = nodeOkBits_.test(qa, rb) && nodeOkBits_.test(qb, ra);
        const bool pass =
            (fGate || bGate) && problem.edgeOk(qe, qa, qb, he, ra, rb, localEvals);
        forward = fGate && pass;
        backward = bGate && pass;
      } else {
        forward = nodeOkBits_.test(qa, ra) && nodeOkBits_.test(qb, rb) &&
                  problem.edgeOk(qe, qa, qb, he, ra, rb, localEvals);
        backward = nodeOkBits_.test(qa, rb) && nodeOkBits_.test(qb, ra) &&
                   problem.edgeOk(qe, qa, qb, he, rb, ra, localEvals);
      }
      for (const auto& [cell, keyIsSource] : cellsOfEdge[qe]) {
        cellEdits[cell].push_back({keyIsSource ? ra : rb, keyIsSource ? rb : ra,
                                   forward});
        if (!h.directed()) {
          cellEdits[cell].push_back({keyIsSource ? rb : ra, keyIsSource ? ra : rb,
                                     backward});
        }
      }
    }
    evals.fetch_add(localEvals, std::memory_order_relaxed);
  };
  forEachIndex(parallel, q.edgeCount(), evaluateEdge);

  // --- splice the edits into the CSR cells (and their bit rows) -------------
  // Cells are disjoint (own CSR, own bit rows), so the splice fans out over
  // them directly; only the entry-count delta needs an atomic.
  std::atomic<std::ptrdiff_t> entryDelta{0};
  const auto spliceCell = [&](std::size_t c) {
    std::vector<Edit>& edits = cellEdits[c];
    if (edits.empty()) return;
    if (cancelled && cancelled()) throw FilterBuildCancelled();
    std::sort(edits.begin(), edits.end(), [](const Edit& a, const Edit& b) {
      return a.key != b.key ? a.key < b.key : a.val < b.val;
    });
    Csr& csr = cells_[c];
    std::vector<graph::NodeId> newData;
    newData.reserve(csr.data.size() + edits.size());
    std::vector<std::uint32_t> newOffsets(nr + 1, 0);
    std::size_t ei = 0;
    for (graph::NodeId r = 0; r < nr; ++r) {
      newOffsets[r] = static_cast<std::uint32_t>(newData.size());
      const std::uint32_t begin = csr.offsets[r];
      const std::uint32_t end = csr.offsets[r + 1];
      if (ei >= edits.size() || edits[ei].key != r) {
        newData.insert(newData.end(), csr.data.begin() + begin,
                       csr.data.begin() + end);
        continue;
      }
      // Merge the old sorted row with this key's sorted membership edits.
      std::uint32_t i = begin;
      while (ei < edits.size() && edits[ei].key == r) {
        const Edit& e = edits[ei];
        while (i < end && csr.data[i] < e.val) newData.push_back(csr.data[i++]);
        const bool wasPresent = i < end && csr.data[i] == e.val;
        if (e.present) newData.push_back(e.val);
        if (wasPresent) ++i;  // the old copy is replaced or removed
        ++ei;
      }
      while (i < end) newData.push_back(csr.data[i++]);
    }
    newOffsets[nr] = static_cast<std::uint32_t>(newData.size());
    entryDelta.fetch_add(static_cast<std::ptrdiff_t>(newData.size()) -
                             static_cast<std::ptrdiff_t>(csr.data.size()),
                         std::memory_order_relaxed);
    csr.data = std::move(newData);
    csr.offsets = std::move(newOffsets);

    if (!cellBits_[c].empty()) {
      util::BitMatrix& bits = cellBits_[c];
      graph::NodeId lastKey = graph::kInvalidNode;
      for (const Edit& e : edits) {
        if (e.key == lastKey) continue;
        lastKey = e.key;
        std::uint64_t* row = bits.rowData(e.key);
        std::fill(row, row + bits.wordsPerRow(), 0);
        for (std::uint32_t i = csr.offsets[e.key]; i < csr.offsets[e.key + 1]; ++i) {
          const graph::NodeId s = csr.data[i];
          row[s / util::kBitsPerWord] |= std::uint64_t{1} << (s % util::kBitsPerWord);
        }
      }
    }
  };
  forEachIndex(parallel, cells_.size(), spliceCell);
  totalEntries_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(totalEntries_) +
                                           entryDelta.load(std::memory_order_relaxed));

  const std::size_t entryBudget = options.maxFilterEntries == 0
                                      ? static_cast<std::size_t>(-1)
                                      : options.maxFilterEntries;
  if (totalEntries_ > entryBudget) throw FilterOverflow(totalEntries_);

  // --- viability (strengthened eq. 1) over the affected host nodes ----------
  std::vector<graph::NodeId> affectedNodes;
  for (graph::NodeId r = 0; r < nr; ++r) {
    if (nodeAffected[r]) affectedNodes.push_back(r);
  }
  // Each task owns one query node's bit row and viable list — disjoint.
  const auto regateNode = [&](std::size_t vIndex) {
    const auto v = static_cast<graph::NodeId>(vIndex);
    bool dirty = false;
    for (const graph::NodeId r : affectedNodes) {
      bool ok = nodeOkBits_.test(v, r);
      if (ok) {
        for (std::uint32_t s = 0; s < slots_[v].size(); ++s) {
          const Csr& csr = cells_[slotBase_[v] + s];
          if (csr.offsets[r + 1] == csr.offsets[r]) {
            ok = false;
            break;
          }
        }
      }
      if (ok != viableBits_.test(v, r)) {
        viableBits_.setTo(v, r, ok);
        dirty = true;
      }
    }
    if (dirty) {
      std::vector<graph::NodeId>& out = viable_[v];
      out.clear();
      for (graph::NodeId r = 0; r < nr; ++r) {
        if (viableBits_.test(v, r)) out.push_back(r);
      }
    }
  };
  forEachIndex(parallel, nq, regateNode);

  stats.filterEntries = totalEntries_;
  stats.constraintEvals += evals.load(std::memory_order_relaxed);
  stats.filterBuildMs = timer.elapsedMs();
}

FilterMatrix::MemoryBreakdown FilterMatrix::memoryBreakdown() const noexcept {
  MemoryBreakdown mb;
  for (const Csr& csr : cells_) {
    mb.csrBytes += csr.offsets.size() * sizeof(std::uint32_t) +
                   csr.data.size() * sizeof(graph::NodeId);
  }
  for (const util::BitMatrix& bits : cellBits_) {
    mb.bitRowBytes += bits.rows() * bits.wordsPerRow() * sizeof(std::uint64_t);
  }
  mb.viabilityBytes +=
      2 * viableBits_.rows() * viableBits_.wordsPerRow() * sizeof(std::uint64_t);
  for (const auto& list : viable_) mb.viabilityBytes += list.size() * sizeof(graph::NodeId);
  return mb;
}

}  // namespace netembed::core
