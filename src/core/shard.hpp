#pragma once
// Shard partitioning of the host-node id space for the stage-1 filter build.
//
// A ShardMap splits host nodes into contiguous ranges aligned to 64-bit word
// boundaries, so a shard's slice of any packed host-node bit row is just a
// word subrange. FilterMatrix::build uses it to run stage-0 viability per
// (query node, shard) and to bucket the stage-1 edge sweep by (source shard,
// target shard), skipping every bucket the stage-0 summary proves empty.
// FilterPlan::patch classifies a ModelDelta against the same partition.
// The search never sees the shards: the cells and viability rows it reads
// are byte-identical to a one-shard build.
//
// The shard count is capped at 64 so a set of shards fits one word (the
// build's per-query-node stage-0 summary), and clamped to the row's word
// count so every shard owns at least one word. The partitioner is
// contiguous equal-word ranges; the map is a value type, so a min-cut
// (METIS-style) partitioner can later swap in by emitting a different range
// table without touching any consumer.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bitset.hpp"

namespace netembed::core {

class ShardMap {
 public:
  /// A set of shards must fit one 64-bit word.
  static constexpr std::size_t kMaxShards = 64;

  /// The trivial single-shard map over zero nodes (a default-constructed
  /// FilterMatrix before build()).
  ShardMap() = default;

  /// Partition `hostNodes` ids into at most `shards` contiguous word-aligned
  /// ranges. `shards` is clamped to [1, min(kMaxShards, word count)], so
  /// tiny hosts silently get fewer shards than requested — every shard is
  /// guaranteed at least one 64-bit word of the row.
  ShardMap(std::size_t hostNodes, std::size_t shards)
      : hostNodes_(hostNodes), totalWords_(util::wordsForBits(hostNodes)) {
    const std::size_t cap =
        std::min(kMaxShards, totalWords_ == 0 ? std::size_t{1} : totalWords_);
    const std::size_t requested = shards == 0 ? 1 : std::min(shards, cap);
    wordsPerShard_ =
        (std::max<std::size_t>(totalWords_, 1) + requested - 1) / requested;
    count_ = totalWords_ == 0
                 ? 1
                 : (totalWords_ + wordsPerShard_ - 1) / wordsPerShard_;
  }

  /// The partition FilterMatrix::build uses for a host of `hostNodes`
  /// nodes: one shard below kMaxShards x 64 = 4,096 nodes, where the flat
  /// sweep is already cheap and a full split would give one-word shards,
  /// and kMaxShards shards from there up (balanced to fewer when the word
  /// count does not divide evenly: 63 on a 100,352-node host).
  [[nodiscard]] static ShardMap forHost(std::size_t hostNodes) {
    return ShardMap(hostNodes,
                    hostNodes < kMaxShards * util::kBitsPerWord ? 1 : kMaxShards);
  }

  [[nodiscard]] std::size_t shardCount() const noexcept { return count_; }
  [[nodiscard]] std::size_t hostNodes() const noexcept { return hostNodes_; }
  [[nodiscard]] std::size_t totalWords() const noexcept { return totalWords_; }

  /// First word of shard `k` within any host-node bit row.
  [[nodiscard]] std::size_t beginWord(std::size_t k) const noexcept {
    assert(k < count_);
    return k * wordsPerShard_;
  }
  /// One past the last word of shard `k` (the final shard may be short).
  [[nodiscard]] std::size_t endWord(std::size_t k) const noexcept {
    assert(k < count_);
    return std::min((k + 1) * wordsPerShard_, totalWords_);
  }

  /// First host-node id owned by shard `k`.
  [[nodiscard]] std::size_t beginNode(std::size_t k) const noexcept {
    return beginWord(k) * util::kBitsPerWord;
  }
  /// One past the last host-node id owned by shard `k`.
  [[nodiscard]] std::size_t endNode(std::size_t k) const noexcept {
    return std::min(endWord(k) * util::kBitsPerWord, hostNodes_);
  }

  /// The shard owning host node `r`.
  [[nodiscard]] std::size_t shardOf(std::size_t r) const noexcept {
    assert(r < hostNodes_);
    return (r / util::kBitsPerWord) / wordsPerShard_;
  }

  /// Occupancy summary of a host-node bit row: bit k is set iff shard k
  /// holds at least one set bit. `row` must span totalWords() words.
  [[nodiscard]] std::uint64_t occupancy(
      std::span<const std::uint64_t> row) const noexcept {
    assert(row.size() == totalWords_);
    std::uint64_t mask = 0;
    for (std::size_t k = 0; k < count_; ++k) {
      std::uint64_t any = 0;
      for (std::size_t w = beginWord(k); w < endWord(k); ++w) any |= row[w];
      if (any != 0) mask |= std::uint64_t{1} << k;
    }
    return mask;
  }

  friend bool operator==(const ShardMap&, const ShardMap&) = default;

 private:
  std::size_t hostNodes_ = 0;
  std::size_t totalWords_ = 0;
  std::size_t wordsPerShard_ = 1;
  std::size_t count_ = 1;
};

}  // namespace netembed::core
