// Ablation: Lemma 1 static ordering on/off.
//
// ECF sorts query nodes by ascending candidate count before descending the
// permutation tree; Lemma 1 proves this minimizes the tree. This bench
// measures how much that buys on PlanetLab subgraph queries, in both tree
// nodes visited and wall time.

#include "common.hpp"

using namespace netembed;
using namespace netembed::bench;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args, 3, 2000);

  const graph::Graph& host = planetlabHost(cfg.seed);
  const auto constraints = expr::ConstraintSet::edgeOnly(topo::delayWindowConstraint());

  std::vector<std::size_t> sizes =
      cfg.paper ? std::vector<std::size_t>{20, 40, 80, 120, 160}
                : std::vector<std::size_t>{10, 20, 40};

  util::TablePrinter table({"N", "ordered ms", "unordered ms", "ordered visits",
                            "unordered visits", "visit ratio"});
  std::vector<std::vector<std::string>> csvRows;

  for (const std::size_t n : sizes) {
    util::RunningStats orderedMs, unorderedMs, orderedVisits, unorderedVisits;
    for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
      util::Rng rng(util::deriveSeed(cfg.seed, n * 1000 + rep));
      const graph::Graph query = sampledDelayQuery(host, n, 3 * n, 0.02, rng);
      const core::Problem problem(query, host, constraints);

      core::SearchOptions on;
      on.timeout = cfg.timeout;
      on.storeLimit = 1;
      core::SearchOptions off = on;
      off.ordering = core::Ordering::Declared;

      const auto a = core::ecfSearch(problem, on);
      const auto b = core::ecfSearch(problem, off);
      orderedMs.add(a.stats.searchMs);
      unorderedMs.add(b.stats.searchMs);
      orderedVisits.add(static_cast<double>(a.stats.treeNodesVisited));
      unorderedVisits.add(static_cast<double>(b.stats.treeNodesVisited));
    }
    const double ratio =
        orderedVisits.mean() > 0 ? unorderedVisits.mean() / orderedVisits.mean() : 0.0;
    table.addRow({std::to_string(n), meanCi(orderedMs), meanCi(unorderedMs),
                  util::formatFixed(orderedVisits.mean(), 0),
                  util::formatFixed(unorderedVisits.mean(), 0),
                  util::formatFixed(ratio, 2)});
    csvRows.push_back({std::to_string(n), util::CsvWriter::field(orderedMs.mean()),
                       util::CsvWriter::field(unorderedMs.mean()),
                       util::CsvWriter::field(orderedVisits.mean()),
                       util::CsvWriter::field(unorderedVisits.mean())});
  }

  emit("Ablation: ECF with vs without Lemma-1 static ordering (PlanetLab)", table,
       csvRows, {"n", "ordered_ms", "unordered_ms", "ordered_visits", "unordered_visits"},
       cfg.csv);
  return 0;
}
