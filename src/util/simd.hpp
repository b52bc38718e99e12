#pragma once
// Word kernels for the packed-word candidate algebra.
//
// The eq.-2 hot loop is word arithmetic over 64-bit rows: AND, the fused
// viable/used intersections, AND-with-popcount and popcount. Each kernel is
// one portable loop that the compiler inlines; at -O3 it auto-vectorizes the
// AND loops (SSE2 on x86-64, NEON on AArch64). Hand-written AVX-512/AVX2/NEON
// kernels behind runtime CPU dispatch measured slower end to end on the
// service benchmark, whose rows are 5-7 words: an inlined loop beats a
// dispatched out-of-line call with a masked vector tail at that length.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace netembed::util::simd {

/// The kernels have one implementation. The single-valued ISA name stays so
/// run provenance (perfbench records isaName(activeIsa())) keeps its field.
enum class Isa : std::uint8_t { Portable };
[[nodiscard]] constexpr const char* isaName(Isa) noexcept { return "portable"; }
[[nodiscard]] constexpr Isa activeIsa() noexcept { return Isa::Portable; }

// dst/a/b/c are word rows of length n; in-place dst == a is fine everywhere.

/// dst &= src. Returns the OR of the resulting words (non-zero iff any bit
/// survives) so callers can stop intersecting a dead set without a re-scan.
inline std::uint64_t andInto(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) noexcept {
  std::uint64_t alive = 0;
  for (std::size_t i = 0; i < n; ++i) alive |= (dst[i] &= src[i]);
  return alive;
}

/// dst = a & ~b — the fused "viable minus used" root/seed intersection.
inline void copyAndNot(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

/// dst = a & b & ~c, returning the OR of the result — the fused first
/// constrainer-row AND with viability and `used` folded in (one pass where
/// the unfused sequence takes three).
inline std::uint64_t copyAndAndNot(std::uint64_t* dst, const std::uint64_t* a,
                                   const std::uint64_t* b, const std::uint64_t* c,
                                   std::size_t n) noexcept {
  std::uint64_t alive = 0;
  for (std::size_t i = 0; i < n; ++i) alive |= (dst[i] = a[i] & b[i] & ~c[i]);
  return alive;
}

/// dst &= src, returning the popcount of the result — the dynamic-order
/// domain update (narrow the domain and learn its new size in one pass).
inline std::size_t andIntoPopcount(std::uint64_t* dst, const std::uint64_t* src,
                                   std::size_t n) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] &= src[i];
    count += static_cast<std::size_t>(__builtin_popcountll(dst[i]));
  }
  return count;
}

/// Population count over a word row.
inline std::size_t popcount(const std::uint64_t* w, std::size_t n) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return count;
}

}  // namespace netembed::util::simd
