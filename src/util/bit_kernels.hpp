// Word-level bitset kernels behind BitVector / BitSpan / BitMatrix.
//
// Two loops per kernel, one path per block size:
//  * bitkern::scalar — one word per iteration, no unrolling, inline. The
//    public entry points run it at the call site for blocks of n <=
//    kInlineWords words, which covers every per-process row at realistic
//    process counts; it is also the reference the out-of-line loops must
//    match bit for bit (tests/bit_kernels_test.cpp).
//  * bitkern::detail — 4x-unrolled word loops, out of line in
//    bit_kernels.cpp, called directly for longer blocks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rdt::bitkern {

// Reference kernels: one word per iteration, nothing clever beyond
// single-word popcount. Also the inlined short-block fast path.
namespace scalar {

inline void or_into(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

inline bool or_into_changed(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t n) {
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t before = dst[i];
    const std::uint64_t merged = before | src[i];
    diff |= before ^ merged;
    dst[i] = merged;
  }
  return diff != 0;
}

inline void and_into(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

inline bool equal(const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return false;
  return true;
}

inline std::size_t popcount(const std::uint64_t* p, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(__builtin_popcountll(p[i]));
  return total;
}

inline bool any(const std::uint64_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (p[i]) return true;
  return false;
}

// Index of the first nonzero word, or n when all words are zero.
inline std::size_t first_nonzero(const std::uint64_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (p[i]) return i;
  return n;
}

}  // namespace scalar

// The 4x-unrolled long-block loops (definitions in bit_kernels.cpp). Call
// the public entry points below instead; they pick scalar or these by size.
namespace detail {

void or_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
bool or_into_changed(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n);
void and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
bool equal(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
std::size_t popcount(const std::uint64_t* p, std::size_t n);
bool any(const std::uint64_t* p, std::size_t n);
std::size_t first_nonzero(const std::uint64_t* p, std::size_t n);

}  // namespace detail

// Blocks at or under this many words run the scalar loop inline at the call
// site: per-process bitsets are one word for up to 64 processes, and an
// out-of-line call would cost more than the work itself.
inline constexpr std::size_t kInlineWords = 4;

inline void or_into(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) {
  if (n <= kInlineWords) {
    scalar::or_into(dst, src, n);
    return;
  }
  detail::or_into(dst, src, n);
}

inline bool or_into_changed(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t n) {
  if (n <= kInlineWords) return scalar::or_into_changed(dst, src, n);
  return detail::or_into_changed(dst, src, n);
}

inline void and_into(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n) {
  if (n <= kInlineWords) {
    scalar::and_into(dst, src, n);
    return;
  }
  detail::and_into(dst, src, n);
}

inline bool equal(const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t n) {
  if (n <= kInlineWords) return scalar::equal(a, b, n);
  return detail::equal(a, b, n);
}

inline std::size_t popcount(const std::uint64_t* p, std::size_t n) {
  if (n <= kInlineWords) return scalar::popcount(p, n);
  return detail::popcount(p, n);
}

inline bool any(const std::uint64_t* p, std::size_t n) {
  if (n <= kInlineWords) return scalar::any(p, n);
  return detail::any(p, n);
}

inline std::size_t first_nonzero(const std::uint64_t* p, std::size_t n) {
  if (n <= kInlineWords) return scalar::first_nonzero(p, n);
  return detail::first_nonzero(p, n);
}

// Index of the first set bit at or after `from` in a block of `size` bits,
// or `size` when there is none. Safe for any `from` including from >= size
// (returns size without touching memory — callers probe one past the end
// when iterating set bits, and empty spans carry a null word pointer).
std::size_t find_next(const std::uint64_t* words, std::size_t size,
                      std::size_t from);

}  // namespace rdt::bitkern
