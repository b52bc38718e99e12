#include "core/filter.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace netembed::core {

namespace {

/// Dense bitmap of node-level viability (node constraint + degree bound),
/// computed once up front; O(NQ * NR) evaluations of the node constraint.
/// One task per (query node, shard) fills that shard's word subrange of the
/// row (a whole row on one shard), so tasks write disjoint words. Tasks are
/// cancellable mid-range — on large hosts with an expensive node constraint
/// this stage alone can outlive a portfolio race or a deadline — and, when
/// there is more than one shard, fault-injectable at plan.shard_build.
util::BitMatrix nodeViability(const Problem& p, const SearchOptions& options,
                              const ShardMap& shards,
                              const std::function<bool()>& cancelled) {
  const std::size_t nq = p.query->nodeCount();
  util::BitMatrix ok(nq, p.host->nodeCount());
  constexpr std::size_t kCancelPollStride = 4096;
  const std::size_t s = shards.shardCount();
  const auto evalTask = [&](std::size_t t) {
    if (s > 1 && util::FaultInjector::enabled()) {
      util::faultPoint(util::faultsite::kShardBuild);
    }
    const std::size_t q = t / s;
    const auto begin = static_cast<graph::NodeId>(shards.beginNode(t % s));
    const auto end = static_cast<graph::NodeId>(shards.endNode(t % s));
    std::uint64_t* row = ok.rowData(q);
    for (graph::NodeId r = begin; r < end; ++r) {
      if ((r - begin) % kCancelPollStride == 0 && cancelled && cancelled()) {
        throw FilterBuildCancelled();
      }
      if (p.degreeOk(static_cast<graph::NodeId>(q), r) &&
          p.nodeOk(static_cast<graph::NodeId>(q), r)) {
        row[r / util::kBitsPerWord] |= std::uint64_t{1} << (r % util::kBitsPerWord);
      }
    }
  };
  if (options.parallelFilterBuild && nq * s > 1) {
    util::parallelFor(nq * s, evalTask, 1);
  } else {
    for (std::size_t t = 0; t < nq * s; ++t) evalTask(t);
  }
  return ok;
}

/// Density heuristic: does a cell with `entries` stored candidates over an
/// `nr`-node host earn bitset rows? A row AND costs one word per 64 host
/// nodes no matter how sparse the cell, but the per-word constant (one
/// vectorized AND) is tiny next to the per-candidate constant of the hybrid
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
  problem.validate();
  return build(problem, options, ShardMap::forHost(problem.host->nodeCount()),
               stats, cancelled);
}

FilterMatrix FilterMatrix::build(const Problem& problem, const SearchOptions& options,
                                 const ShardMap& shards, SearchStats& stats,
                                 const std::function<bool()>& cancelled) {
  util::Stopwatch timer;
  problem.validate();
  const graph::Graph& q = *problem.query;
  const graph::Graph& h = *problem.host;
  const std::size_t nq = q.nodeCount();
  const std::size_t nr = h.nodeCount();

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

  // --- shard partition ------------------------------------------------------
  if (shards.hostNodes() != nr) {
    throw std::invalid_argument("FilterMatrix::build: shard map does not match the host");
  }
  fm.shards_ = shards;
  const std::size_t shardCount = shards.shardCount();

  // --- stage 0: node-level viability bitmap --------------------------------
  // Moved into the matrix at the end: patch() re-gates pair evaluations with
  // it so node constraints only re-run over the touched host nodes.
  util::BitMatrix nodeOk = nodeViability(problem, options, shards, cancelled);

  // Bucket the host edges by (source shard, target shard) — a stable
  // counting sort into bucketEdges[bucketStart[b], bucketStart[b + 1]) — and
  // summarize stage-0 viability per (query node, shard). Stage 1 then walks
  // buckets and skips every bucket whose shard pair cannot pass the
  // per-pair node gate in any orientation: the same gate the per-pair
  // evaluation applies, hoisted to shard granularity. Off-diagonal buckets
  // hold the cross-shard edges, evaluated under exactly the per-pair rules,
  // so candidate sets do not depend on the partition. One shard is one
  // bucket holding every edge in id order, so it skips the sort and leaves
  // bucketEdges empty.
  std::vector<std::uint64_t> nodeOkOcc(nq);
  for (std::size_t v = 0; v < nq; ++v) nodeOkOcc[v] = shards.occupancy(nodeOk.row(v));
  std::vector<std::size_t> bucketStart{0, h.edgeCount()};
  std::vector<graph::EdgeId> bucketEdges;
  if (shardCount > 1) {
    // Per-node shard ids, so the two passes below index instead of dividing.
    static_assert(ShardMap::kMaxShards <= 256, "shard ids are stored as bytes");
    std::vector<std::uint8_t> shardOfNode(nr);
    for (std::size_t k = 0; k < shardCount; ++k) {
      std::fill(shardOfNode.begin() + static_cast<std::ptrdiff_t>(shards.beginNode(k)),
                shardOfNode.begin() + static_cast<std::ptrdiff_t>(shards.endNode(k)),
                static_cast<std::uint8_t>(k));
    }
    const auto bucketOf = [&](graph::EdgeId he) {
      return shardOfNode[h.edgeSource(he)] * shardCount + shardOfNode[h.edgeTarget(he)];
    };
    bucketStart.assign(shardCount * shardCount + 1, 0);
    for (graph::EdgeId he = 0; he < h.edgeCount(); ++he) ++bucketStart[bucketOf(he) + 1];
    for (std::size_t b = 0; b + 1 < bucketStart.size(); ++b) {
      bucketStart[b + 1] += bucketStart[b];
    }
    bucketEdges.resize(h.edgeCount());
    std::vector<std::size_t> cursor(bucketStart.begin(), bucketStart.end() - 1);
    for (graph::EdgeId he = 0; he < h.edgeCount(); ++he) {
      bucketEdges[cursor[bucketOf(he)]++] = he;
    }
  }

  // --- stage 1: evaluate the constraint per (query edge, host edge) -------
  //
  // matchPairs[e] holds (ra, rb) pairs meaning: query edge e, used in its
  // stored orientation src->dst, can map src->ra, dst->rb. A constraint that
  // references none of the endpoint objects (vSource/vTarget/rSource/
  // rTarget) is orientation-blind, so each undirected (qe, he) pair is
  // evaluated once and mirrored — a 2x saving on the dominant loop.
  const expr::Constraint* edgeConstraint = problem.edgeConstraint();
  bool symmetric = true;
  if (edgeConstraint) {
    constexpr std::uint32_t endpointMask =
        (1u << static_cast<std::uint32_t>(expr::ObjectId::VSource)) |
        (1u << static_cast<std::uint32_t>(expr::ObjectId::VTarget)) |
        (1u << static_cast<std::uint32_t>(expr::ObjectId::RSource)) |
        (1u << static_cast<std::uint32_t>(expr::ObjectId::RTarget));
    symmetric = (edgeConstraint->program().objectsUsed() & endpointMask) == 0;
  }

  std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> matchPairs(
      q.edgeCount());
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::size_t> entries{0};
  const std::size_t entryBudget =
      options.maxFilterEntries == 0 ? static_cast<std::size_t>(-1) : options.maxFilterEntries;

  // Poll sparsely: the predicate may check the wall clock, and the loop body
  // is a handful of lookups per host edge.
  constexpr graph::EdgeId kCancelPollStride = 4096;

  const auto evaluateQueryEdge = [&](std::size_t qeIndex) {
    const auto qe = static_cast<graph::EdgeId>(qeIndex);
    const graph::NodeId qa = q.edgeSource(qe);
    const graph::NodeId qb = q.edgeTarget(qe);
    auto& pairs = matchPairs[qeIndex];
    std::uint64_t localEvals = 0;

    // Per-pair evaluation, the same for every partition.
    const auto okA = nodeOk.row(qa);
    const auto okB = nodeOk.row(qb);
    const auto evalHostEdge = [&](graph::EdgeId he) {
      const graph::NodeId ra = h.edgeSource(he);
      const graph::NodeId rb = h.edgeTarget(he);
      const bool forward = util::testBit(okA, ra) && util::testBit(okB, rb);
      if (h.directed()) {
        if (forward && problem.edgeOk(qe, qa, qb, he, ra, rb, localEvals)) {
          pairs.emplace_back(ra, rb);
        }
        return;
      }
      const bool backward = util::testBit(okA, rb) && util::testBit(okB, ra);
      if (symmetric) {
        if (!forward && !backward) return;
        if (!problem.edgeOk(qe, qa, qb, he, ra, rb, localEvals)) return;
        if (forward) pairs.emplace_back(ra, rb);
        if (backward) pairs.emplace_back(rb, ra);
      } else {
        if (forward && problem.edgeOk(qe, qa, qb, he, ra, rb, localEvals)) {
          pairs.emplace_back(ra, rb);
        }
        if (backward && problem.edgeOk(qe, qa, qb, he, rb, ra, localEvals)) {
          pairs.emplace_back(rb, ra);
        }
      }
    };

    // A bucket (sA, sB) can only yield pairs when some orientation passes
    // the per-shard stage-0 summary; every per-pair node gate inside a
    // skipped bucket would have failed before reaching edgeOk, so skipping
    // changes neither candidates nor eval counts. Pair discovery order
    // depends on the partition, but stage 2's counting sort keys cells on
    // (host node, candidate), making the CSR layout — and everything
    // downstream — order-independent.
    const auto anyOk = [&](graph::NodeId v, std::size_t k) {
      return ((nodeOkOcc[v] >> k) & 1u) != 0;
    };
    std::size_t polls = 0;
    for (std::size_t sA = 0; sA < shardCount; ++sA) {
      for (std::size_t sB = 0; sB < shardCount; ++sB) {
        const std::size_t b = sA * shardCount + sB;
        if (bucketStart[b] == bucketStart[b + 1]) continue;
        bool reachable = anyOk(qa, sA) && anyOk(qb, sB);
        if (!h.directed() && !reachable) {
          reachable = anyOk(qa, sB) && anyOk(qb, sA);
        }
        if (!reachable) continue;
        if (shardCount > 1 && util::FaultInjector::enabled()) {
          util::faultPoint(util::faultsite::kShardBuild);
        }
        for (std::size_t i = bucketStart[b], end = bucketStart[b + 1]; i < end; ++i) {
          if (polls++ % kCancelPollStride == 0 && cancelled && cancelled()) {
            throw FilterBuildCancelled();
          }
          evalHostEdge(bucketEdges.empty() ? static_cast<graph::EdgeId>(i)
                                           : bucketEdges[i]);
        }
      }
    }

    evals.fetch_add(localEvals, std::memory_order_relaxed);
    // Every oriented pair lands in exactly two cells (one per endpoint).
    const std::size_t stored =
        entries.fetch_add(2 * pairs.size(), std::memory_order_relaxed) + 2 * pairs.size();
    if (stored > entryBudget) throw FilterOverflow(stored);
  };

  if (options.parallelFilterBuild && q.edgeCount() > 1) {
    util::parallelFor(q.edgeCount(), evaluateQueryEdge, 1);
  } else {
    for (std::size_t i = 0; i < q.edgeCount(); ++i) evaluateQueryEdge(i);
  }

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
  if (options.parallelFilterBuild && cellCount > 1) {
    util::parallelFor(cellCount, fillSlot, 1);
  } else {
    for (std::size_t i = 0; i < cellCount; ++i) fillSlot(i);
  }

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
  if (options.parallelFilterBuild && nq > 1) {
    util::parallelFor(nq, fillViable, 1);
  } else {
    for (std::size_t v = 0; v < nq; ++v) fillViable(v);
  }

  fm.nodeOkBits_ = std::move(nodeOk);
  fm.totalEntries_ = entries.load();
  stats.filterEntries = fm.totalEntries_;
  stats.constraintEvals += evals.load();
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
  // Mirrors stage 1 of build() exactly (same gating, same symmetric-once
  // evaluation) so a patched matrix is candidate-set-identical to a fresh
  // build; only the loop domain shrinks from every host edge to the
  // affected ones.
  const expr::Constraint* edgeConstraint = problem.edgeConstraint();
  bool symmetric = true;
  if (edgeConstraint) {
    constexpr std::uint32_t endpointMask =
        (1u << static_cast<std::uint32_t>(expr::ObjectId::VSource)) |
        (1u << static_cast<std::uint32_t>(expr::ObjectId::VTarget)) |
        (1u << static_cast<std::uint32_t>(expr::ObjectId::RSource)) |
        (1u << static_cast<std::uint32_t>(expr::ObjectId::RTarget));
    symmetric = (edgeConstraint->program().objectsUsed() & endpointMask) == 0;
  }

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
      } else if (symmetric) {
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
  if (parallel && q.edgeCount() > 1) {
    util::parallelFor(q.edgeCount(), evaluateEdge, 1);
  } else {
    for (std::size_t i = 0; i < q.edgeCount(); ++i) evaluateEdge(i);
  }

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
  if (parallel && cells_.size() > 1) {
    util::parallelFor(cells_.size(), spliceCell, 1);
  } else {
    for (std::size_t c = 0; c < cells_.size(); ++c) spliceCell(c);
  }
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
  if (parallel && nq > 1) {
    util::parallelFor(nq, regateNode, 1);
  } else {
    for (std::size_t v = 0; v < nq; ++v) regateNode(v);
  }

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
