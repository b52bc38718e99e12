#pragma once
// Runtime-dispatched SIMD kernels for the packed-word candidate algebra.
//
// The eq.-2 hot loop is word arithmetic over 64-bit rows (AND, ANDNOT,
// fused viable/used intersection, popcount reduction); this header exposes
// those operations as free functions that dispatch once-per-process to the
// widest instruction set the host supports — AVX-512 or AVX2 on x86, NEON on
// AArch64 — with the portable scalar loop as the always-available fallback.
//
// Dispatch contract:
//   * every ISA variant computes bit-identical results (they are bitwise
//     operations — the differential suites additionally pin identical
//     solution streams end to end);
//   * the active ISA is resolved once at startup from CPU feature detection,
//     overridable via the NETEMBED_SIMD environment variable
//     (scalar|avx2|avx512|neon). Requesting an ISA the host cannot execute
//     clamps down to the best supported one — an override can never crash;
//   * tests may switch the ISA mid-process through setActiveIsa(); the knob
//     is atomic so concurrent readers stay race-free.
//
// Short rows bypass dispatch entirely: below kInlineWordThreshold words the
// inlined scalar loop beats any vector unit once call overhead is counted
// (a 56-node clique host is a single word).

#include <cstddef>
#include <cstdint>

namespace netembed::util::simd {

enum class Isa : std::uint8_t { Scalar, Neon, Avx2, Avx512 };

[[nodiscard]] const char* isaName(Isa isa) noexcept;

/// The ISA kernels currently dispatch to. Resolved from CPU features and the
/// NETEMBED_SIMD override on first use.
[[nodiscard]] Isa activeIsa() noexcept;

/// Widest ISA this binary can execute on this host (ignores the override).
[[nodiscard]] Isa bestSupportedIsa() noexcept;

/// True when `isa` can execute on this host (Scalar always can).
[[nodiscard]] bool isaSupported(Isa isa) noexcept;

/// Test hook: force dispatch to `isa` (clamped to bestSupportedIsa()).
/// Returns the previously active ISA so tests can restore it.
Isa setActiveIsa(Isa isa) noexcept;

/// Rows at or below this word count run the inlined scalar loop regardless
/// of the active ISA: dispatch + call overhead exceeds the vector win.
inline constexpr std::size_t kInlineWordThreshold = 4;

namespace detail {

// --- portable reference kernels (also the inlined short-row fast path) ------

inline std::uint64_t andIntoScalar(std::uint64_t* dst, const std::uint64_t* src,
                                   std::size_t n) noexcept {
  std::uint64_t alive = 0;
  for (std::size_t i = 0; i < n; ++i) alive |= (dst[i] &= src[i]);
  return alive;
}

inline void andNotIntoScalar(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

inline void copyAndNotScalar(std::uint64_t* dst, const std::uint64_t* a,
                             const std::uint64_t* b, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

inline std::uint64_t copyAndAndNotScalar(std::uint64_t* dst, const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         const std::uint64_t* c,
                                         std::size_t n) noexcept {
  std::uint64_t alive = 0;
  for (std::size_t i = 0; i < n; ++i) alive |= (dst[i] = a[i] & b[i] & ~c[i]);
  return alive;
}

std::size_t popcountScalarImpl(const std::uint64_t* w, std::size_t n) noexcept;

inline std::size_t andIntoPopcountScalar(std::uint64_t* dst, const std::uint64_t* src,
                                         std::size_t n) noexcept;

inline std::uint64_t orReduceScalar(const std::uint64_t* w, std::size_t n) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc |= w[i];
  return acc;
}

// --- vector variants (defined in simd.cpp behind target attributes) ---------
#if defined(__x86_64__) || defined(_M_X64)
std::uint64_t andIntoAvx2(std::uint64_t*, const std::uint64_t*, std::size_t) noexcept;
void andNotIntoAvx2(std::uint64_t*, const std::uint64_t*, std::size_t) noexcept;
void copyAndNotAvx2(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
                    std::size_t) noexcept;
std::uint64_t copyAndAndNotAvx2(std::uint64_t*, const std::uint64_t*,
                                const std::uint64_t*, const std::uint64_t*,
                                std::size_t) noexcept;
std::size_t andIntoPopcountAvx2(std::uint64_t*, const std::uint64_t*,
                                std::size_t) noexcept;
std::size_t popcountAvx2(const std::uint64_t*, std::size_t) noexcept;

std::uint64_t andIntoAvx512(std::uint64_t*, const std::uint64_t*, std::size_t) noexcept;
void andNotIntoAvx512(std::uint64_t*, const std::uint64_t*, std::size_t) noexcept;
void copyAndNotAvx512(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
                      std::size_t) noexcept;
std::uint64_t copyAndAndNotAvx512(std::uint64_t*, const std::uint64_t*,
                                  const std::uint64_t*, const std::uint64_t*,
                                  std::size_t) noexcept;
std::size_t andIntoPopcountAvx512(std::uint64_t*, const std::uint64_t*,
                                  std::size_t) noexcept;
std::size_t popcountAvx512(const std::uint64_t*, std::size_t) noexcept;
#elif defined(__aarch64__)
std::uint64_t andIntoNeon(std::uint64_t*, const std::uint64_t*, std::size_t) noexcept;
void andNotIntoNeon(std::uint64_t*, const std::uint64_t*, std::size_t) noexcept;
void copyAndNotNeon(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
                    std::size_t) noexcept;
std::uint64_t copyAndAndNotNeon(std::uint64_t*, const std::uint64_t*,
                                const std::uint64_t*, const std::uint64_t*,
                                std::size_t) noexcept;
std::size_t andIntoPopcountNeon(std::uint64_t*, const std::uint64_t*,
                                std::size_t) noexcept;
std::size_t popcountNeon(const std::uint64_t*, std::size_t) noexcept;
#endif

/// Relaxed load of the dispatch knob (set once at startup, or by tests).
[[nodiscard]] Isa loadActiveIsa() noexcept;

}  // namespace detail

// --- dispatched entry points -------------------------------------------------
// dst/a/b/c are word rows of length n; dst may alias a/b/c only where the
// scalar loop would still be correct (in-place dst == a is fine everywhere).

/// dst &= src. Returns the OR of the resulting words (non-zero iff any bit
/// survives) so callers can stop intersecting a dead set without a re-scan.
inline std::uint64_t andInto(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) noexcept {
  if (n > kInlineWordThreshold) {
#if defined(__x86_64__) || defined(_M_X64)
    switch (detail::loadActiveIsa()) {
      case Isa::Avx512: return detail::andIntoAvx512(dst, src, n);
      case Isa::Avx2: return detail::andIntoAvx2(dst, src, n);
      default: break;
    }
#elif defined(__aarch64__)
    if (detail::loadActiveIsa() == Isa::Neon) return detail::andIntoNeon(dst, src, n);
#endif
  }
  return detail::andIntoScalar(dst, src, n);
}

/// dst &= ~src.
inline void andNotInto(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t n) noexcept {
  if (n > kInlineWordThreshold) {
#if defined(__x86_64__) || defined(_M_X64)
    switch (detail::loadActiveIsa()) {
      case Isa::Avx512: detail::andNotIntoAvx512(dst, src, n); return;
      case Isa::Avx2: detail::andNotIntoAvx2(dst, src, n); return;
      default: break;
    }
#elif defined(__aarch64__)
    if (detail::loadActiveIsa() == Isa::Neon) {
      detail::andNotIntoNeon(dst, src, n);
      return;
    }
#endif
  }
  detail::andNotIntoScalar(dst, src, n);
}

/// dst = a & ~b — the fused "viable minus used" root/seed intersection.
inline void copyAndNot(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t n) noexcept {
  if (n > kInlineWordThreshold) {
#if defined(__x86_64__) || defined(_M_X64)
    switch (detail::loadActiveIsa()) {
      case Isa::Avx512: detail::copyAndNotAvx512(dst, a, b, n); return;
      case Isa::Avx2: detail::copyAndNotAvx2(dst, a, b, n); return;
      default: break;
    }
#elif defined(__aarch64__)
    if (detail::loadActiveIsa() == Isa::Neon) {
      detail::copyAndNotNeon(dst, a, b, n);
      return;
    }
#endif
  }
  detail::copyAndNotScalar(dst, a, b, n);
}

/// dst = a & b & ~c, returning the OR of the result — the fused first
/// constrainer-row AND with viability and `used` folded in (one pass where
/// the unfused sequence takes three).
inline std::uint64_t copyAndAndNot(std::uint64_t* dst, const std::uint64_t* a,
                                   const std::uint64_t* b, const std::uint64_t* c,
                                   std::size_t n) noexcept {
  if (n > kInlineWordThreshold) {
#if defined(__x86_64__) || defined(_M_X64)
    switch (detail::loadActiveIsa()) {
      case Isa::Avx512: return detail::copyAndAndNotAvx512(dst, a, b, c, n);
      case Isa::Avx2: return detail::copyAndAndNotAvx2(dst, a, b, c, n);
      default: break;
    }
#elif defined(__aarch64__)
    if (detail::loadActiveIsa() == Isa::Neon) {
      return detail::copyAndAndNotNeon(dst, a, b, c, n);
    }
#endif
  }
  return detail::copyAndAndNotScalar(dst, a, b, c, n);
}

/// dst &= src, returning the popcount of the result — the dynamic-order
/// domain update (narrow the domain and learn its new size in one pass).
inline std::size_t andIntoPopcount(std::uint64_t* dst, const std::uint64_t* src,
                                   std::size_t n) noexcept {
  if (n > kInlineWordThreshold) {
#if defined(__x86_64__) || defined(_M_X64)
    switch (detail::loadActiveIsa()) {
      case Isa::Avx512: return detail::andIntoPopcountAvx512(dst, src, n);
      case Isa::Avx2: return detail::andIntoPopcountAvx2(dst, src, n);
      default: break;
    }
#elif defined(__aarch64__)
    if (detail::loadActiveIsa() == Isa::Neon) {
      return detail::andIntoPopcountNeon(dst, src, n);
    }
#endif
  }
  return detail::andIntoPopcountScalar(dst, src, n);
}

/// Population count over a word row.
inline std::size_t popcount(const std::uint64_t* w, std::size_t n) noexcept {
  if (n > kInlineWordThreshold) {
#if defined(__x86_64__) || defined(_M_X64)
    switch (detail::loadActiveIsa()) {
      case Isa::Avx512: return detail::popcountAvx512(w, n);
      case Isa::Avx2: return detail::popcountAvx2(w, n);
      default: break;
    }
#elif defined(__aarch64__)
    if (detail::loadActiveIsa() == Isa::Neon) return detail::popcountNeon(w, n);
#endif
  }
  return detail::popcountScalarImpl(w, n);
}

/// OR-reduction over a word row (non-zero iff any bit is set).
inline std::uint64_t orReduce(const std::uint64_t* w, std::size_t n) noexcept {
  // Pure load-OR saturates memory bandwidth even scalar; not worth dispatch.
  return detail::orReduceScalar(w, n);
}

namespace detail {

inline std::size_t andIntoPopcountScalar(std::uint64_t* dst, const std::uint64_t* src,
                                         std::size_t n) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] &= src[i];
    count += static_cast<std::size_t>(__builtin_popcountll(dst[i]));
  }
  return count;
}

}  // namespace detail

}  // namespace netembed::util::simd
