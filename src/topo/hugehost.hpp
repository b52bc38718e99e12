#pragma once
// Scalable pod-structured hosting networks for large-host filter builds.
//
// The ROADMAP's million-node north star needs a host generator that (a)
// reaches 10^5..10^6 nodes without a deep intermediate representation and
// (b) has the locality a pod-affinity node constraint exploits: `hugeHost`
// builds a composite of dense pods (data-center-style clusters laid out on
// the BRITE coordinate plane) joined by inter-pod trunk links — the same two-level
// shape as topo::composite, scaled up and streamed straight into one Graph:
// each pod's nodes and intra-pod edges are appended before the next pod
// starts, so peak auxiliary state is one pod's dedup set, not the host.
//
// Attributes match the BRITE generators so every existing constraint string
// works unchanged: nodes carry "pod" (index), "x"/"y" (km); edges carry
// "delay"/"minDelay"/"avgDelay"/"maxDelay" (ms), "bw" (Mbps) and
// "tier" = "intra" | "trunk". Deterministic per seed.

#include <cstdint>

#include "graph/graph.hpp"

namespace netembed::topo {

struct HugeHostOptions {
  /// Pod grid: pods * podSize total host nodes.
  std::size_t pods = 64;
  std::size_t podSize = 64;
  /// Intra-pod edges beyond the pod's spanning tree, as a multiple of
  /// podSize (1.0 doubles the tree; data-center pods are edge-rich).
  double extraIntraFactor = 1.0;
  /// Inter-pod links: a gateway ring (connectivity guarantee) plus this
  /// many random gateway-gateway chords.
  std::size_t trunkChords = 0;
  /// Pod plane side, km (pods are placed on a coarse grid of this pitch).
  double podPitchKm = 100.0;
  /// RTT per km of euclidean distance, ms; and the per-link floor.
  double delayPerKm = 0.01;
  double baseDelay = 0.5;
  std::uint64_t seed = 1;
};

/// Generate the pod-composite host. Undirected, connected; node ids are
/// contiguous per pod (pod p owns [p * podSize, (p + 1) * podSize)), so with
/// podSize 64 every pod is one word of a host-node bit row.
[[nodiscard]] graph::Graph hugeHost(const HugeHostOptions& options);

}  // namespace netembed::topo
