// Bounded LEB128 varint primitives shared by every wire-facing layer: the
// serve frame format (serve/wire.cpp) and the piggyback codec layer
// (protocols/codec.cpp) encode with the same bytes and reject the same
// malformed inputs.
//
// Contract (mirrors the serve wire format that first grew these helpers):
//  * `put(v, std::uint8_t*)` is the one writer: it stores the canonical
//    little-endian base-128 encoding at the pointer (room for kMaxBytes
//    is the caller's job) and returns one past its last byte. The vector
//    `put` appends through it (a value below 0x80, its own one-byte
//    encoding, inline), so every layer emits the same bytes.
//  * `get` decodes bounded to `end`, throwing std::invalid_argument on
//    truncation, on encodings longer than 10 bytes, on 10-byte encodings
//    whose final byte overflows 64 bits, and on non-minimal encodings (a
//    multi-byte encoding whose last byte is 0x00, e.g. `85 00` for 5), so
//    every accepted value has exactly one encoding. Errors are prefixed
//    "<domain>: byte N: ..." so each wire layer keeps its own vocabulary,
//    and `offset` is only advanced when a value is returned (callers that
//    need offset-untouched-on-throw for a composite parse snapshot it
//    before the parse and restore in their catch).
//
// The one-byte case of `get` and of the appending `put` is inline; longer
// encodings and every rejection take the out-of-line slow path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rdt::varint {

[[noreturn]] inline void fail(const char* domain, std::size_t offset,
                              const std::string& what) {
  std::ostringstream os;
  os << domain << ": byte " << offset << ": " << what;
  throw std::invalid_argument(os.str());
}

// The longest encoding of a 64-bit value.
inline constexpr std::size_t kMaxBytes = 10;

inline std::uint8_t* put(std::uint64_t v, std::uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

// The multi-byte half of the appending put().
[[gnu::noinline]] inline void put_slow(std::uint64_t v,
                                       std::vector<std::uint8_t>& out) {
  std::uint8_t buf[kMaxBytes] = {};
  const std::uint8_t* const end = put(v, buf);
  for (const std::uint8_t* b = buf; b != end; ++b) out.push_back(*b);
}

// Appends through the pointer writer. A value below 0x80 is its own
// one-byte encoding and is pushed inline: most of what the frame encoder
// appends is such values, and a buffer round trip for each costs it over
// half again its time.
inline void put(std::uint64_t v, std::vector<std::uint8_t>& out) {
  if (v < 0x80) {
    out.push_back(static_cast<std::uint8_t>(v));
    return;
  }
  put_slow(v, out);
}

struct Decoded {
  std::uint64_t value;
  std::size_t next;  // offset one past the encoding
};

// The multi-byte and failing half of get(): decodes from bytes[offset],
// which is either past `end` or has its continuation bit set. Returns the
// cursor by value, so the inline fast path never takes its address and a
// decode loop can keep the cursor in a register.
[[gnu::noinline]] inline Decoded get_slow(std::span<const std::uint8_t> bytes,
                                          std::size_t offset, std::size_t end,
                                          const char* domain,
                                          const char* what) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (offset >= end)
      fail(domain, offset, std::string("truncated varint while reading ") + what);
    const std::uint8_t b = bytes[offset++];
    if (shift == 63 && (b & 0x7Eu) != 0)
      fail(domain, offset - 1, std::string(what) + " varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      if (b == 0 && shift > 0)
        fail(domain, offset - 1,
             std::string(what) + " varint is non-minimal (overlong encoding)");
      return {v, offset};
    }
  }
  fail(domain, offset - 1, std::string(what) + " varint runs past 10 bytes");
}

// LEB128 decode, bounded to `end`. Rejects truncation, encodings longer
// than 10 bytes, 10-byte encodings whose final byte overflows 64 bits, and
// non-minimal encodings.
inline std::uint64_t get(std::span<const std::uint8_t> bytes,
                         std::size_t& offset, std::size_t end,
                         const char* domain, const char* what) {
  if (offset < end && bytes[offset] < 0x80) return bytes[offset++];
  const Decoded d = get_slow(bytes, offset, end, domain, what);
  offset = d.next;
  return d.value;
}

}  // namespace rdt::varint
