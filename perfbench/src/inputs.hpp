#pragma once
// Seeded inputs of the three service workloads: the host network, the query
// stream and (for planetlab_churn) the monitoring-update schedule. Every
// input is a pure function of (workload, seed, index), so two runs with the
// same seed send byte-identical traffic and the self-tests can pin that with
// a hash.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "service/model.hpp"

namespace perfbench {

namespace graph = netembed::graph;

enum class Workload : std::uint8_t { HugehostPods, PlanetlabChurn, BriteEnumerate };

[[nodiscard]] std::optional<Workload> parseWorkload(std::string_view name);
[[nodiscard]] const char* workloadName(Workload w) noexcept;

/// Seed reserved for confirming a claimed gain after tuning on other seeds.
/// Never use it while developing a change.
inline constexpr std::uint64_t kHeldOutSeed = 7919;

/// Fixed shape of one workload (see README.md for why each value).
struct WorkloadSpec {
  Workload workload;
  std::size_t clients;        // closed-loop load generators
  std::size_t maxSolutions;   // cap on every request (> 1: ECF routing)
  std::size_t poolSize;       // distinct signatures; 0 = every request distinct
  std::size_t mutateEvery;    // publish a batch before every Nth request; 0 = never
  bool infeasibleTurns;       // every poolSize-th request is an infeasible variant
  std::size_t warmupRequests;   // untimed requests per set-up (0 = whole pool once)
  std::size_t setups;           // set-ups per run; setup_s is their median
  const char* edgeConstraint;
  const char* nodeConstraint;
};

[[nodiscard]] const WorkloadSpec& specFor(Workload w) noexcept;

/// The workload's host network. Fixed per workload: the run seed drives the
/// traffic (which signature each request sends, the hugehost_pods query
/// stream, the mutation schedule), not the instance.
[[nodiscard]] graph::Graph makeHost(Workload w);

/// Query of signature `key`. For pooled workloads `key` < poolSize indexes
/// the fixed pool (independent of `seed`); hugehost_pods derives a fresh
/// pod-local query per (seed, key).
/// `infeasible` returns the topo::makeInfeasible variant of the same query.
[[nodiscard]] graph::Graph makeQuery(Workload w, const graph::Graph& host,
                                     std::uint64_t seed, std::uint64_t key,
                                     bool infeasible);

/// Which signature request `index` of the timed stream sends.
struct Draw {
  std::uint64_t key = 0;
  bool infeasible = false;
};
[[nodiscard]] Draw drawRequest(Workload w, std::uint64_t seed, std::uint64_t index);

/// Key of warm-up request `r`: the whole pool once for pooled workloads, a
/// key disjoint from the timed stream for hugehost_pods.
[[nodiscard]] Draw warmupRequest(Workload w, std::uint64_t r);

/// Monitoring batch `k` (planetlab_churn): 8 distinct host edges get a new
/// minDelay derived from their value in the pristine host.
[[nodiscard]] std::vector<netembed::service::NetworkModel::Measurement> mutationBatch(
    const graph::Graph& pristine, std::uint64_t seed, std::uint64_t k);

/// Order-independent attribute hashing, so the digest does not depend on the
/// process-local interning order of attribute names.
[[nodiscard]] std::uint64_t hashGraph(const graph::Graph& g);

/// Digest of a workload's inputs: host, the first `requests` queries of the
/// timed stream (pool members included) and the first `batches` mutation
/// batches.
[[nodiscard]] std::uint64_t hashInputs(Workload w, const graph::Graph& host,
                                       std::uint64_t seed, std::uint64_t requests,
                                       std::uint64_t batches);

}  // namespace perfbench
