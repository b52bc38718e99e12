#pragma once
// Brute-force stage-1 oracle (paper §V-A):
//
//     F[v][slot(w)][r] = { s : ok(v->r, w->s) }
//
// evaluated the slow, obvious way — every (query edge, host edge,
// orientation), gated by Problem::degreeOk/nodeOk and decided by
// Problem::edgeOk — with none of FilterMatrix::build's sweep structure. The
// evaluation count follows the rule the build promises: one edgeOk per
// (query edge, host edge, orientation) whose two endpoints pass the node
// checks, or one per such host edge when the edge constraint reads no
// endpoint object (its outcome is then the same in both orientations).
//
// compare() checks a built or patched FilterMatrix against it cell for cell:
// CSR lists, bit rows (where the cell has them), the stage-0 rows, viable
// lists and viability rows, and the entry count. Header-only so the test
// suite and bench/perf_report share one oracle.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/filter.hpp"
#include "core/problem.hpp"
#include "util/bitset.hpp"

namespace netembed::reference {

struct Filter {
  /// pairs[qe]: every (ra, rb) such that src(qe)->ra, dst(qe)->rb passes,
  /// sorted ascending.
  std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> pairs;
  /// nodeOk[v][r]: degreeOk(v, r) && nodeOk(v, r).
  std::vector<std::vector<char>> nodeOk;
  /// edgeOk evaluations under the build's counting rule (see above).
  std::uint64_t evals = 0;
};

inline Filter build(const core::Problem& p) {
  const graph::Graph& q = *p.query;
  const graph::Graph& h = *p.host;
  Filter ref;
  ref.nodeOk.assign(q.nodeCount(), std::vector<char>(h.nodeCount(), 0));
  for (graph::NodeId v = 0; v < q.nodeCount(); ++v) {
    for (graph::NodeId r = 0; r < h.nodeCount(); ++r) {
      ref.nodeOk[v][r] = p.degreeOk(v, r) && p.nodeOk(v, r);
    }
  }
  bool blind = true;
  if (const expr::Constraint* c = p.edgeConstraint()) {
    for (const expr::ObjectId endpoint :
         {expr::ObjectId::VSource, expr::ObjectId::VTarget, expr::ObjectId::RSource,
          expr::ObjectId::RTarget}) {
      if (c->program().objectsUsed() & (1u << static_cast<std::uint32_t>(endpoint))) {
        blind = false;
      }
    }
  }
  ref.pairs.resize(q.edgeCount());
  for (graph::EdgeId qe = 0; qe < q.edgeCount(); ++qe) {
    const graph::NodeId qa = q.edgeSource(qe);
    const graph::NodeId qb = q.edgeTarget(qe);
    auto& out = ref.pairs[qe];
    for (graph::EdgeId he = 0; he < h.edgeCount(); ++he) {
      const graph::NodeId ra = h.edgeSource(he);
      const graph::NodeId rb = h.edgeTarget(he);
      const bool forward = ref.nodeOk[qa][ra] && ref.nodeOk[qb][rb];
      const bool backward =
          !h.directed() && ref.nodeOk[qa][rb] && ref.nodeOk[qb][ra];
      if (blind) {
        if ((forward || backward) && p.edgeOk(qe, qa, qb, he, ra, rb, ref.evals)) {
          if (forward) out.emplace_back(ra, rb);
          if (backward) out.emplace_back(rb, ra);
        }
        continue;
      }
      if (forward && p.edgeOk(qe, qa, qb, he, ra, rb, ref.evals)) {
        out.emplace_back(ra, rb);
      }
      if (backward && p.edgeOk(qe, qa, qb, he, rb, ra, ref.evals)) {
        out.emplace_back(rb, ra);
      }
    }
    std::sort(out.begin(), out.end());
  }
  return ref;
}

/// Empty when `fm` holds exactly the reference's filter for `p`; otherwise
/// a description of the first difference.
inline std::string compare(const core::FilterMatrix& fm, const core::Problem& p,
                           const Filter& ref) {
  const graph::Graph& q = *p.query;
  const std::size_t nr = p.host->nodeCount();
  std::ostringstream diff;
  if (fm.hostNodes() != nr) {
    diff << "hostNodes " << fm.hostNodes() << " != " << nr;
    return diff.str();
  }
  std::size_t expectedEntries = 0;
  for (const auto& pairs : ref.pairs) expectedEntries += 2 * pairs.size();
  if (fm.totalEntries() != expectedEntries) {
    diff << "totalEntries " << fm.totalEntries() << " != " << expectedEntries;
    return diff.str();
  }
  for (graph::NodeId v = 0; v < q.nodeCount(); ++v) {
    // supported[r]: how many of v's slot cells are non-empty at r.
    std::vector<std::uint32_t> supported(nr, 0);
    for (std::uint32_t s = 0; s < fm.slots(v).size(); ++s) {
      const graph::EdgeId e = fm.slots(v)[s].edge;
      const bool vIsSource = q.edgeSource(e) == v;
      std::vector<std::pair<graph::NodeId, graph::NodeId>> cell;  // (key, value)
      cell.reserve(ref.pairs[e].size());
      for (const auto& [ra, rb] : ref.pairs[e]) {
        cell.emplace_back(vIsSource ? ra : rb, vIsSource ? rb : ra);
      }
      std::sort(cell.begin(), cell.end());
      std::size_t i = 0;
      for (graph::NodeId r = 0; r < nr; ++r) {
        std::vector<graph::NodeId> expected;
        for (; i < cell.size() && cell[i].first == r; ++i) {
          expected.push_back(cell[i].second);
        }
        if (!expected.empty()) ++supported[r];
        const auto got = fm.candidates(v, s, r);
        if (!std::equal(got.begin(), got.end(), expected.begin(), expected.end())) {
          diff << "cell v=" << v << " slot=" << s << " r=" << r << ": "
               << got.size() << " candidates, expected " << expected.size();
          return diff.str();
        }
        if (!fm.hasCandidateBits(v, s)) continue;
        const auto bits = fm.candidateBits(v, s, r);
        std::size_t set = 0;
        for (const std::uint64_t w : bits) set += std::popcount(w);
        const bool allSet =
            std::all_of(expected.begin(), expected.end(),
                        [&](graph::NodeId c) { return util::testBit(bits, c); });
        if (set != expected.size() || !allSet) {
          diff << "bit row v=" << v << " slot=" << s << " r=" << r
               << " differs from its candidate list";
          return diff.str();
        }
      }
    }
    std::vector<graph::NodeId> expectedViable;
    for (graph::NodeId r = 0; r < nr; ++r) {
      if (util::testBit(fm.nodeOkBits(v), r) != (ref.nodeOk[v][r] != 0)) {
        diff << "stage-0 row v=" << v << " r=" << r;
        return diff.str();
      }
      const bool viable = ref.nodeOk[v][r] && supported[r] == fm.slots(v).size();
      if (util::testBit(fm.viableBits(v), r) != viable) {
        diff << "viability row v=" << v << " r=" << r;
        return diff.str();
      }
      if (viable) expectedViable.push_back(r);
    }
    const auto viable = fm.viable(v);
    if (!std::equal(viable.begin(), viable.end(), expectedViable.begin(),
                    expectedViable.end())) {
      diff << "viable list v=" << v << ": " << viable.size() << " nodes, expected "
           << expectedViable.size();
      return diff.str();
    }
  }
  return {};
}

}  // namespace netembed::reference
