#include "protocols/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "util/bit_matrix.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

namespace rdt {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  varint::fail("piggyback", offset, what);
}

// "<what> <noun> <v> runs past the plane size <limit>" — out of line, so the
// decode loops carry no string building.
[[noreturn, gnu::cold, gnu::noinline]] void fail_past_plane(
    std::size_t offset, const char* what, const char* noun, std::uint64_t v,
    std::uint64_t limit) {
  fail(offset, std::string(what) + " " + noun + " " + std::to_string(v) +
                   " runs past the plane size " + std::to_string(limit));
}

[[noreturn, gnu::cold, gnu::noinline]] void fail_cap(std::size_t offset,
                                                     const char* what,
                                                     std::uint64_t v,
                                                     std::uint64_t cap) {
  fail(offset, std::string(what) + " " + std::to_string(v) +
                   " exceeds the piggyback cap " + std::to_string(cap - 1));
}

std::uint64_t get_varint(std::span<const std::uint8_t> bytes,
                         std::size_t& offset, std::size_t end,
                         const char* what) {
  return varint::get(bytes, offset, end, "piggyback", what);
}

// A varint bounded by an inclusive-exclusive cap — the workhorse for plane
// counts and gap offsets, where anything at or past the plane size is
// hostile input rather than a caller bug.
[[gnu::always_inline]] inline std::uint64_t get_capped(
    std::span<const std::uint8_t> bytes, std::size_t& offset, std::size_t end,
    std::uint64_t cap, const char* what) {
  const std::size_t at = offset;
  const std::uint64_t v = get_varint(bytes, offset, end, what);
  if (v >= cap) fail_cap(at, what, v, cap);
  return v;
}

[[noreturn, gnu::cold, gnu::noinline]] void fail_truncated(
    std::size_t at, std::size_t end, std::size_t want, const char* what) {
  fail(at, std::string("truncated ") + what + " (need " +
               std::to_string(want) + " bytes, have " +
               std::to_string(end - at) + ")");
}

[[gnu::always_inline]] inline void need_bytes(std::size_t at, std::size_t end,
                                              std::size_t want,
                                              const char* what) {
  if (end - at < want) fail_truncated(at, end, want, what);
}

std::size_t plane_bytes(std::size_t bits) { return (bits + 7) / 8; }

// --- byte-aligned bit planes (flat codec + delta masks) ---

[[noreturn, gnu::cold, gnu::noinline]] void fail_stray(std::size_t offset,
                                                       const char* what) {
  fail(offset, std::string(what) + " has stray bits beyond the plane width");
}

void put_bits(ConstBitSpan bits, std::vector<std::uint8_t>& out) {
  const std::uint64_t* words = bits.words();
  const std::size_t nbytes = plane_bytes(bits.size());
  for (std::size_t i = 0; i < nbytes; ++i)
    out.push_back(static_cast<std::uint8_t>(words[i / 8] >> (8 * (i % 8))));
}

// Reads ceil(size)/8 bytes into `dst`'s words, rejecting stray bits beyond
// the plane width (they would silently vanish on re-encode, breaking the
// roundtrip identity the fuzzer pins).
void get_bits(std::span<const std::uint8_t> bytes, std::size_t& at,
              std::size_t end, BitSpan dst, const char* what) {
  const std::size_t nbytes = plane_bytes(dst.size());
  need_bytes(at, end, nbytes, what);
  std::uint64_t* words = dst.words();
  for (std::size_t w = 0; w < dst.num_words(); ++w) words[w] = 0;
  for (std::size_t i = 0; i < nbytes; ++i)
    words[i / 8] |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * (i % 8));
  at += nbytes;
  if (!dst.tail_zero()) fail_stray(at - 1, what);
}

// A delta change mask: the nbytes low bytes of one word, written at `p`;
// returns one past them.
std::uint8_t* put_mask(std::uint64_t mask, std::size_t nbytes,
                       std::uint8_t* p) {
  for (std::size_t b = 0; b < nbytes; ++b)
    *p++ = static_cast<std::uint8_t>(mask >> (8 * b));
  return p;
}

// Reads one nbytes-byte change mask, rejecting bits outside `keep` (past n
// they name no entry, and would vanish on re-encode).
[[gnu::always_inline]] inline std::uint64_t get_mask(
    std::span<const std::uint8_t> bytes, std::size_t& at, std::size_t end,
    std::size_t nbytes, std::uint64_t keep, const char* what) {
  need_bytes(at, end, nbytes, what);
  std::uint64_t mask = 0;
  for (std::size_t b = 0; b < nbytes; ++b)
    mask |= static_cast<std::uint64_t>(bytes[at + b]) << (8 * b);
  if ((mask & ~keep) != 0) fail_stray(at, what);
  at += nbytes;
  return mask;
}

void put_index_u32(CkptIndex v, std::vector<std::uint8_t>& out) {
  RDT_CHECK(v >= 0 && v < kMaxPiggybackIndex,
            "piggyback index outside the encodable range");
  const auto u = static_cast<std::uint32_t>(v);
  out.push_back(static_cast<std::uint8_t>(u));
  out.push_back(static_cast<std::uint8_t>(u >> 8));
  out.push_back(static_cast<std::uint8_t>(u >> 16));
  out.push_back(static_cast<std::uint8_t>(u >> 24));
}

CkptIndex get_index_u32(std::span<const std::uint8_t> bytes, std::size_t& at,
                        std::size_t end, const char* what) {
  need_bytes(at, end, 4, what);
  std::uint32_t u = 0;
  for (int i = 0; i < 4; ++i)
    u |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  if (u >= static_cast<std::uint32_t>(kMaxPiggybackIndex))
    fail(at, std::string(what) + " " + std::to_string(u) +
                 " exceeds the piggyback cap");
  at += 4;
  return static_cast<CkptIndex>(u);
}

// --- gap-encoded strictly-increasing offset lists (sparse) ---

// Appends the gap of `pos` after the previous offset of a strictly
// increasing list: `next` is one past the previous offset (0 before the
// first), so the first gap is the position itself and each later gap is
// pos - prev - 1.
void put_gap(std::size_t pos, std::size_t& next, std::vector<std::uint8_t>& out) {
  varint::put(pos - next, out);
  next = pos + 1;
}

// Decodes one strictly-increasing gap-encoded offset list. Calls visit(pos)
// for each decoded position; positions are guaranteed in [0, limit) and
// strictly increasing.
template <typename Visit>
void get_offsets(std::span<const std::uint8_t> bytes, std::size_t& at,
                 std::size_t end, std::uint64_t limit, const char* what,
                 Visit&& visit) {
  const std::uint64_t count = get_capped(bytes, at, end, limit + 1, what);
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t gap_at = at;
    const std::uint64_t gap = get_varint(bytes, at, end, what);
    // next <= limit and gap < limit after this check, so no overflow below.
    if (gap >= limit) fail_past_plane(gap_at, what, "offset gap", gap, limit);
    const std::uint64_t pos = next + gap;
    if (pos >= limit) fail_past_plane(gap_at, what, "offset", pos, limit);
    visit(static_cast<std::size_t>(pos));
    next = pos + 1;
  }
}

}  // namespace

const char* to_cstring(PiggybackCodecKind kind) {
  switch (kind) {
    case PiggybackCodecKind::kFlat: return "flat";
    case PiggybackCodecKind::kDelta: return "delta";
    case PiggybackCodecKind::kSparse: return "sparse";
  }
  return "unknown";
}

std::optional<PiggybackCodecKind> codec_from_string(std::string_view id) {
  if (id == "flat") return PiggybackCodecKind::kFlat;
  if (id == "delta") return PiggybackCodecKind::kDelta;
  if (id == "sparse") return PiggybackCodecKind::kSparse;
  return std::nullopt;
}

void PiggybackCodec::reset(PiggybackCodecKind kind, int num_processes,
                           PayloadShape shape) {
  RDT_REQUIRE(num_processes >= 1 && num_processes <= kMaxCodecProcesses,
              "codec process count outside [1, kMaxCodecProcesses]");
  RDT_REQUIRE(kind != PiggybackCodecKind::kDelta ||
                  num_processes <= kMaxDeltaProcesses,
              "delta codec shadows are capped at kMaxDeltaProcesses");
  kind_ = kind;
  n_ = num_processes;
  shape_ = shape;
  row_words_ = bitdetail::words_for(static_cast<std::size_t>(n_));
  // Each side's delta shadows are sized and zeroed on its first use, so a
  // codec that only encodes never holds decoder shadows, and vice versa.
  enc_.sized = false;
  dec_.sized = false;
}

std::size_t PiggybackCodec::max_encoded_bytes() const {
  const auto n = static_cast<std::size_t>(n_);
  std::size_t bytes = 0;
  // Every plane's worst case across the three codecs: full varint lists
  // (10 bytes per entry plus a count) dominate the flat layout.
  if (shape_.tdv) bytes += 10 + n * 20;
  if (shape_.simple) bytes += 10 + n * 10;
  if (shape_.causal) bytes += 10 + n * (10 + n * 10 + plane_bytes(n));
  if (shape_.index) bytes += 10;
  return bytes;
}

std::size_t PiggybackCodec::channel(ProcessId src, ProcessId dest) const {
  RDT_CHECK(src >= 0 && src < n_ && dest >= 0 && dest < n_,
            "piggyback channel endpoints outside [0, n)");
  return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
         static_cast<std::size_t>(dest);
}

void PiggybackCodec::check_shape(std::size_t tdv_size, std::size_t simple_size,
                                 std::size_t causal_rows,
                                 std::size_t causal_cols,
                                 bool has_index) const {
  const auto n = static_cast<std::size_t>(n_);
  RDT_CHECK(tdv_size == (shape_.tdv ? n : 0),
            "payload tdv plane does not match the codec shape");
  RDT_CHECK(simple_size == (shape_.simple ? n : 0),
            "payload simple plane does not match the codec shape");
  RDT_CHECK(causal_rows == (shape_.causal ? n : 0) &&
                causal_cols == (shape_.causal ? n : 0),
            "payload causal plane does not match the codec shape");
  RDT_CHECK(has_index == shape_.index,
            "payload scalar index does not match the codec shape");
}

std::size_t PiggybackCodec::encode(ProcessId src, ProcessId dest,
                                   const PiggybackView& payload,
                                   std::vector<std::uint8_t>& out) {
  RDT_REQUIRE(n_ > 0, "encode() on a codec that was never reset()");
  check_shape(payload.tdv.size(), payload.simple.size(), payload.causal.rows(),
              payload.causal.cols(), payload.index != PiggybackView::kNoIndex);
  const std::size_t ch = channel(src, dest);
  switch (kind_) {
    case PiggybackCodecKind::kFlat: return encode_flat(payload, out);
    case PiggybackCodecKind::kSparse: return encode_sparse(payload, out);
    case PiggybackCodecKind::kDelta: return encode_delta(ch, payload, out);
  }
  RDT_ASSERT(false);
  return 0;
}

void PiggybackCodec::decode(ProcessId src, ProcessId dest,
                            std::span<const std::uint8_t> bytes,
                            std::size_t& offset, const PiggybackSlot& slot) {
  RDT_REQUIRE(n_ > 0, "decode() on a codec that was never reset()");
  check_shape(slot.tdv.size(), slot.simple.size(), slot.causal.rows(),
              slot.causal.cols(), slot.index != nullptr);
  const std::size_t ch = channel(src, dest);
  switch (kind_) {
    case PiggybackCodecKind::kFlat: offset = decode_flat(bytes, offset, slot); break;
    case PiggybackCodecKind::kSparse: offset = decode_sparse(bytes, offset, slot); break;
    case PiggybackCodecKind::kDelta: offset = decode_delta(ch, bytes, offset, slot); break;
  }
}

// --- flat: the byte-aligned reference layout ---

std::size_t PiggybackCodec::encode_flat(const PiggybackView& payload,
                                        std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  for (const CkptIndex v : payload.tdv) put_index_u32(v, out);
  if (shape_.simple) put_bits(payload.simple, out);
  if (shape_.causal)
    for (int r = 0; r < n_; ++r)
      put_bits(payload.causal.row(static_cast<std::size_t>(r)), out);
  if (shape_.index) put_index_u32(payload.index, out);
  return out.size() - start;
}

std::size_t PiggybackCodec::decode_flat(std::span<const std::uint8_t> bytes,
                                        std::size_t at,
                                        const PiggybackSlot& slot) const {
  const std::size_t end = bytes.size();
  for (CkptIndex& v : slot.tdv) v = get_index_u32(bytes, at, end, "tdv entry");
  if (shape_.simple) get_bits(bytes, at, end, slot.simple, "simple plane");
  if (shape_.causal)
    for (int r = 0; r < n_; ++r)
      get_bits(bytes, at, end, slot.causal.row(static_cast<std::size_t>(r)),
               "causal row");
  if (shape_.index) *slot.index = get_index_u32(bytes, at, end, "scalar index");
  return at;
}

// --- sparse: stateless varint planes + gap-encoded set bits ---

std::size_t PiggybackCodec::encode_sparse(const PiggybackView& payload,
                                          std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  for (const CkptIndex v : payload.tdv) {
    RDT_CHECK(v >= 0 && v < kMaxPiggybackIndex,
              "piggyback tdv entry outside the encodable range");
    varint::put(static_cast<std::uint64_t>(v), out);
  }
  // Bit planes as set-bit offsets over the row-major linearization r*n + c:
  // count the plane's set bits, then walk its word-aligned rows with
  // countr_zero (bits past n in a row's last word masked off).
  const auto n = static_cast<std::size_t>(n_);
  const std::uint64_t keep = bitdetail::tail_mask(n);
  auto word = [&](const std::uint64_t* row, std::size_t w) {
    return row[w] & (w + 1 == row_words_ ? keep : ~0ULL);
  };
  auto put_plane = [&](const std::uint64_t* words, std::size_t rows) {
    std::size_t count = 0;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t w = 0; w < row_words_; ++w)
        count += static_cast<std::size_t>(
            std::popcount(word(words + r * row_words_, w)));
    varint::put(count, out);
    std::size_t next = 0;
    for (std::size_t r = 0, row_base = 0; r < rows; ++r, row_base += n)
      for (std::size_t w = 0; w < row_words_; ++w)
        for (std::uint64_t bits = word(words + r * row_words_, w); bits != 0;
             bits &= bits - 1)
          put_gap(row_base + w * 64 +
                      static_cast<std::size_t>(std::countr_zero(bits)),
                  next, out);
  };
  if (shape_.simple) put_plane(payload.simple.words(), 1);
  if (shape_.causal) put_plane(payload.causal.row(0).words(), n);
  if (shape_.index) {
    RDT_CHECK(payload.index >= 0 && payload.index < kMaxPiggybackIndex,
              "piggyback index outside the encodable range");
    varint::put(static_cast<std::uint64_t>(payload.index), out);
  }
  return out.size() - start;
}

std::size_t PiggybackCodec::decode_sparse(std::span<const std::uint8_t> bytes,
                                          std::size_t at,
                                          const PiggybackSlot& slot) const {
  const std::size_t end = bytes.size();
  const auto n = static_cast<std::size_t>(n_);
  for (CkptIndex& v : slot.tdv)
    v = static_cast<CkptIndex>(
        get_capped(bytes, at, end,
                   static_cast<std::uint64_t>(kMaxPiggybackIndex), "tdv entry"));
  if (shape_.simple) {
    std::uint64_t* words = slot.simple.words();
    std::fill_n(words, row_words_, 0);
    get_offsets(bytes, at, end, n, "simple set-bit", [&](std::size_t pos) {
      words[pos >> 6] |= 1ULL << (pos & 63);
    });
  }
  if (shape_.causal) {
    // Offsets strictly increase, so the row only moves forward: track
    // (row, column) incrementally instead of dividing every offset by n.
    std::uint64_t* row = slot.causal.row(0).words();
    std::fill_n(row, n * row_words_, 0);
    std::size_t row_base = 0;  // r * n of the current row r
    get_offsets(bytes, at, end, n * n, "causal set-bit", [&](std::size_t pos) {
      while (pos - row_base >= n) {
        row_base += n;
        row += row_words_;
      }
      const std::size_t c = pos - row_base;
      row[c >> 6] |= 1ULL << (c & 63);
    });
  }
  if (shape_.index)
    *slot.index = static_cast<CkptIndex>(
        get_capped(bytes, at, end,
                   static_cast<std::uint64_t>(kMaxPiggybackIndex),
                   "scalar index"));
  return at;
}

// --- delta: per-channel shadows, encode only what changed ---
//
// n <= kMaxDeltaProcesses = 64, so every plane row is one word and a change
// mask over the n TDV entries or the n causal rows fits one word too. On
// the wire each mask is its ceil(n/8) low bytes, little-endian.
static_assert(kMaxDeltaProcesses <= 64,
              "the delta codec keeps one-word change masks");

void PiggybackCodec::size_shadows(ChannelPlanes& side) {
  // assign() zeroes in place once grown: a reset to the same geometry
  // allocates nothing, matching the PayloadArena discipline.
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t chs = n * n;
  side.tdv.assign(shape_.tdv ? chs * n : 0, 0);
  side.simple.assign(shape_.simple ? chs : 0, 0);
  side.causal.assign(shape_.causal ? chs * n : 0, 0);
  side.index.assign(shape_.index ? chs : 0, 0);
  side.sized = true;
}

std::size_t PiggybackCodec::encode_delta(std::size_t ch,
                                         const PiggybackView& payload,
                                         std::vector<std::uint8_t>& out) {
  if (!enc_.sized) size_shadows(enc_);
  const std::size_t start = out.size();
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t mask_bytes = plane_bytes(n);
  // Size the output once for the worst case and write through a pointer:
  // a TDV or index increment stays below kMaxPiggybackIndex = 2^30, so its
  // varint takes at most 5 bytes.
  std::size_t bound = 0;
  if (shape_.tdv) bound += mask_bytes + n * 5;
  if (shape_.simple) bound += mask_bytes;
  if (shape_.causal) bound += mask_bytes + n * mask_bytes;
  if (shape_.index) bound += 5;
  out.resize(start + bound);
  std::uint8_t* const first = out.data() + start;
  std::uint8_t* p = first;
  // Each plane: one pass builds the change mask, then a countr_zero walk
  // writes the changes and advances the channel's encoder shadow.
  if (shape_.tdv) {
    CkptIndex* shadow = enc_.tdv.data() + ch * n;
    const CkptIndex* tdv = payload.tdv.data();
    std::uint64_t changed = 0;
    for (std::size_t k = 0; k < n; ++k)
      changed |= static_cast<std::uint64_t>(tdv[k] != shadow[k]) << k;
    p = put_mask(changed, mask_bytes, p);
    for (; changed != 0; changed &= changed - 1) {
      const auto k = static_cast<std::size_t>(std::countr_zero(changed));
      RDT_CHECK(tdv[k] > shadow[k] && tdv[k] < kMaxPiggybackIndex,
                "tdv entries must grow monotonically per channel");
      p = varint::put(static_cast<std::uint64_t>(tdv[k] - shadow[k]), p);
      shadow[k] = tdv[k];
    }
  }
  if (shape_.simple) {
    std::uint64_t& shadow = enc_.simple[ch];
    p = put_mask(payload.simple.words()[0] ^ shadow, mask_bytes, p);
    shadow = payload.simple.words()[0];
  }
  if (shape_.causal) {
    std::uint64_t* shadow = enc_.causal.data() + ch * n;
    const std::uint64_t* rows = payload.causal.row(0).words();
    std::uint64_t changed = 0;
    for (std::size_t r = 0; r < n; ++r)
      changed |= static_cast<std::uint64_t>(rows[r] != shadow[r]) << r;
    p = put_mask(changed, mask_bytes, p);
    for (; changed != 0; changed &= changed - 1) {
      const auto r = static_cast<std::size_t>(std::countr_zero(changed));
      p = put_mask(rows[r] ^ shadow[r], mask_bytes, p);
      shadow[r] = rows[r];
    }
  }
  if (shape_.index) {
    CkptIndex& shadow = enc_.index[ch];
    RDT_CHECK(payload.index >= shadow && payload.index < kMaxPiggybackIndex,
              "the scalar index must grow monotonically per channel");
    p = varint::put(static_cast<std::uint64_t>(payload.index - shadow), p);
    shadow = payload.index;
  }
  const auto written = static_cast<std::size_t>(p - first);
  RDT_ASSERT(written <= bound);
  out.resize(start + written);
  return written;
}

std::size_t PiggybackCodec::decode_delta(std::size_t ch,
                                         std::span<const std::uint8_t> bytes,
                                         std::size_t at,
                                         const PiggybackSlot& slot) {
  if (!dec_.sized) size_shadows(dec_);
  const std::size_t end = bytes.size();
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t mask_bytes = plane_bytes(n);
  const std::uint64_t keep = bitdetail::tail_mask(n);
  // Parse into the slot seeded from the shadow; the shadow itself is only
  // advanced after the whole payload parsed, so a throw poisons nothing.
  if (shape_.tdv) {
    const CkptIndex* shadow = dec_.tdv.data() + ch * n;
    std::memcpy(slot.tdv.data(), shadow, n * sizeof(CkptIndex));
    for (std::uint64_t changed = get_mask(bytes, at, end, mask_bytes, keep,
                                          "tdv change mask");
         changed != 0; changed &= changed - 1) {
      const auto k = static_cast<std::size_t>(std::countr_zero(changed));
      const std::size_t d_at = at;
      const std::uint64_t d = get_varint(bytes, at, end, "tdv delta");
      if (d == 0) fail(d_at, "zero tdv delta is non-canonical");
      const std::uint64_t value = static_cast<std::uint64_t>(shadow[k]) + d;
      if (d >= static_cast<std::uint64_t>(kMaxPiggybackIndex) ||
          value >= static_cast<std::uint64_t>(kMaxPiggybackIndex))
        fail(d_at, "tdv delta pushes the entry past the piggyback cap");
      slot.tdv[k] = static_cast<CkptIndex>(value);
    }
  }
  if (shape_.simple)
    slot.simple.words()[0] =
        dec_.simple[ch] ^
        get_mask(bytes, at, end, mask_bytes, keep, "simple flip mask");
  if (shape_.causal) {
    std::uint64_t* rows = slot.causal.row(0).words();
    std::memcpy(rows, dec_.causal.data() + ch * n, n * sizeof(std::uint64_t));
    for (std::uint64_t changed = get_mask(bytes, at, end, mask_bytes, keep,
                                          "causal changed-row mask");
         changed != 0; changed &= changed - 1) {
      const auto r = static_cast<std::size_t>(std::countr_zero(changed));
      const std::size_t mask_at = at;
      const std::uint64_t mask =
          get_mask(bytes, at, end, mask_bytes, keep, "causal row mask");
      if (mask == 0) fail(mask_at, "all-zero causal row mask is non-canonical");
      rows[r] ^= mask;
    }
  }
  if (shape_.index) {
    const CkptIndex shadow = dec_.index[ch];
    const std::size_t d_at = at;
    const std::uint64_t d = get_varint(bytes, at, end, "scalar index delta");
    const std::uint64_t value = static_cast<std::uint64_t>(shadow) + d;
    if (d >= static_cast<std::uint64_t>(kMaxPiggybackIndex) ||
        value >= static_cast<std::uint64_t>(kMaxPiggybackIndex))
      fail(d_at, "scalar index delta pushes the index past the piggyback cap");
    *slot.index = static_cast<CkptIndex>(value);
  }
  // Full success: advance the channel's decoder shadow to the new planes.
  if (shape_.tdv)
    std::memcpy(dec_.tdv.data() + ch * n, slot.tdv.data(),
                n * sizeof(CkptIndex));
  if (shape_.simple) dec_.simple[ch] = slot.simple.words()[0];
  if (shape_.causal)
    std::memcpy(dec_.causal.data() + ch * n, slot.causal.row(0).words(),
                n * sizeof(std::uint64_t));
  if (shape_.index) dec_.index[ch] = *slot.index;
  return at;
}

}  // namespace rdt
