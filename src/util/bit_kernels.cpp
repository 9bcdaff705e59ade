#include "util/bit_kernels.hpp"

namespace rdt::bitkern {

namespace detail {

void or_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    dst[i] |= src[i];
    dst[i + 1] |= src[i + 1];
    dst[i + 2] |= src[i + 2];
    dst[i + 3] |= src[i + 3];
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

bool or_into_changed(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n) {
  // Accumulate a difference mask instead of branching per word; one test at
  // the end decides `changed`.
  std::uint64_t diff = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t b0 = dst[i], b1 = dst[i + 1];
    const std::uint64_t b2 = dst[i + 2], b3 = dst[i + 3];
    const std::uint64_t m0 = b0 | src[i], m1 = b1 | src[i + 1];
    const std::uint64_t m2 = b2 | src[i + 2], m3 = b3 | src[i + 3];
    diff |= (b0 ^ m0) | (b1 ^ m1) | (b2 ^ m2) | (b3 ^ m3);
    dst[i] = m0;
    dst[i + 1] = m1;
    dst[i + 2] = m2;
    dst[i + 3] = m3;
  }
  for (; i < n; ++i) {
    const std::uint64_t before = dst[i];
    const std::uint64_t merged = before | src[i];
    diff |= before ^ merged;
    dst[i] = merged;
  }
  return diff != 0;
}

void and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    dst[i] &= src[i];
    dst[i + 1] &= src[i + 1];
    dst[i + 2] &= src[i + 2];
    dst[i + 3] &= src[i + 3];
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

bool equal(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t acc = (a[i] ^ b[i]) | (a[i + 1] ^ b[i + 1]) |
                              (a[i + 2] ^ b[i + 2]) | (a[i + 3] ^ b[i + 3]);
    if (acc != 0) return false;
  }
  for (; i < n; ++i)
    if (a[i] != b[i]) return false;
  return true;
}

std::size_t popcount(const std::uint64_t* p, std::size_t n) {
  // Four independent accumulators so the popcnt chain is not serialized on
  // one register.
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::size_t>(__builtin_popcountll(p[i]));
    c1 += static_cast<std::size_t>(__builtin_popcountll(p[i + 1]));
    c2 += static_cast<std::size_t>(__builtin_popcountll(p[i + 2]));
    c3 += static_cast<std::size_t>(__builtin_popcountll(p[i + 3]));
  }
  for (; i < n; ++i) c0 += static_cast<std::size_t>(__builtin_popcountll(p[i]));
  return c0 + c1 + c2 + c3;
}

bool any(const std::uint64_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if ((p[i] | p[i + 1] | p[i + 2] | p[i + 3]) != 0) return true;
  }
  for (; i < n; ++i)
    if (p[i]) return true;
  return false;
}

std::size_t first_nonzero(const std::uint64_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if ((p[i] | p[i + 1] | p[i + 2] | p[i + 3]) != 0) {
      if (p[i]) return i;
      if (p[i + 1]) return i + 1;
      if (p[i + 2]) return i + 2;
      return i + 3;
    }
  }
  for (; i < n; ++i)
    if (p[i]) return i;
  return n;
}

}  // namespace detail

std::size_t find_next(const std::uint64_t* words, std::size_t size,
                      std::size_t from) {
  // Explicit bound check: from >= size covers empty spans (null word
  // pointer) and the one-past-the-end probe — neither may read memory.
  if (from >= size) return size;
  const std::size_t num_words = (size + 63) / 64;
  std::size_t w = from >> 6;
  const std::uint64_t head = words[w] & (~0ULL << (from & 63));
  if (head != 0) {
    const std::size_t bit =
        (w << 6) + static_cast<std::size_t>(__builtin_ctzll(head));
    return bit < size ? bit : size;
  }
  const std::size_t remaining = num_words - w - 1;
  const std::size_t idx = first_nonzero(words + w + 1, remaining);
  if (idx == remaining) return size;
  w += 1 + idx;
  const std::size_t bit =
      (w << 6) + static_cast<std::size_t>(__builtin_ctzll(words[w]));
  return bit < size ? bit : size;
}

}  // namespace rdt::bitkern
