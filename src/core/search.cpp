#include "core/search.hpp"

namespace netembed::core {

const char* algorithmName(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::ECF: return "ECF";
    case Algorithm::RWB: return "RWB";
    case Algorithm::LNS: return "LNS";
    case Algorithm::Naive: return "Naive";
    case Algorithm::Anneal: return "Anneal";
    case Algorithm::Genetic: return "Genetic";
    case Algorithm::Portfolio: return "Portfolio";
  }
  return "?";
}

const char* orderingName(Ordering o) noexcept {
  switch (o) {
    case Ordering::Static: return "static";
    case Ordering::Dynamic: return "dynamic";
    case Ordering::Auto: return "auto";
    case Ordering::Declared: return "declared";
  }
  return "?";
}

const char* outcomeName(Outcome o) noexcept {
  switch (o) {
    case Outcome::Complete: return "complete";
    case Outcome::Partial: return "partial";
    case Outcome::Inconclusive: return "inconclusive";
  }
  return "?";
}

void SearchStats::merge(const SearchStats& other) noexcept {
  treeNodesVisited += other.treeNodesVisited;
  constraintEvals += other.constraintEvals;
  backtracks += other.backtracks;
  filterEntries += other.filterEntries;
  filterBuildMs += other.filterBuildMs;
  searchMs += other.searchMs;
  if (firstMatchMs < 0) firstMatchMs = other.firstMatchMs;
  peakCovered = std::max(peakCovered, other.peakCovered);
}

std::string formatMapping(const Mapping& m, const graph::Graph& query,
                          const graph::Graph& host) {
  std::string out;
  for (std::size_t q = 0; q < m.size(); ++q) {
    if (!out.empty()) out += ' ';
    out += query.nodeName(static_cast<graph::NodeId>(q));
    out += "->";
    out += m[q] == graph::kInvalidNode ? std::string("?") : host.nodeName(m[q]);
  }
  return out;
}

}  // namespace netembed::core
