// Dense bit vectors, bit matrices, and non-owning bit spans.
//
// These back the boolean control structures the checkpointing protocols
// piggyback on messages (the `causal` n×n matrix, the `simple` and `sent_to`
// arrays) as well as the reachability closures computed on R-graphs, where a
// row-per-node bitset makes transitive closure an O(V^3 / 64) word-parallel
// sweep.
//
// Storage model: every row (and every span) is a word-aligned block of
// 64-bit words whose tail bits beyond size() are kept zero — that invariant
// makes equality and popcount plain word operations. BitMatrix stores all
// rows contiguously (row-major, (cols+63)/64 words per row), so a matrix is
// also addressable as one flat block — the layout the replay engine's
// payload arena shares via ConstBitMatrixSpan without copying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bit_kernels.hpp"
#include "util/check.hpp"

namespace rdt {

namespace bitdetail {

inline std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

// Mask of the bits a block of `bits` bits may hold in its last word.
inline std::uint64_t tail_mask(std::size_t bits) {
  return bits % 64 == 0 ? ~0ULL : (1ULL << (bits % 64)) - 1;
}

// Zero the bits beyond `bits` in the block's last word.
inline void trim_tail(std::uint64_t* words, std::size_t bits) {
  if (bits % 64 != 0) words[bits / 64] &= (1ULL << (bits % 64)) - 1;
}

// True iff the bits beyond `bits` in the block's last word are all zero —
// the invariant that makes word-parallel equality and popcount exact.
inline bool tail_zero(const std::uint64_t* words, std::size_t bits) {
  if (bits % 64 == 0) return true;
  return (words[bits / 64] & ~((1ULL << (bits % 64)) - 1)) == 0;
}

inline std::size_t find_next(const std::uint64_t* words, std::size_t size,
                             std::size_t from) {
  return bitkern::find_next(words, size, from);
}

// Index of the highest set bit in [lo, hi), or `hi` when the range holds
// none. A backward word scan: masks the two boundary words, reads only the
// words the range covers.
inline std::size_t find_last(const std::uint64_t* words, std::size_t lo,
                             std::size_t hi) {
  if (lo >= hi) return hi;
  const std::size_t lo_word = lo >> 6;
  std::size_t w = (hi - 1) >> 6;
  std::uint64_t word = words[w] & (~0ULL >> (63 - ((hi - 1) & 63)));
  for (;;) {
    if (w == lo_word) word &= ~0ULL << (lo & 63);
    if (word != 0)
      return (w << 6) + 63 - static_cast<std::size_t>(__builtin_clzll(word));
    if (w == lo_word) return hi;
    word = words[--w];
  }
}

// Sets every bit in [lo, hi): boundary words masked, interior words filled.
inline void set_range(std::uint64_t* words, std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  const std::size_t first = lo >> 6;
  const std::size_t last = (hi - 1) >> 6;
  const std::uint64_t head = ~0ULL << (lo & 63);
  const std::uint64_t tail = ~0ULL >> (63 - ((hi - 1) & 63));
  if (first == last) {
    words[first] |= head & tail;
    return;
  }
  words[first] |= head;
  for (std::size_t w = first + 1; w < last; ++w) words[w] = ~0ULL;
  words[last] |= tail;
}

}  // namespace bitdetail

// Read-only view over a word-aligned block of bits. Cheap to copy; never
// owns storage. All producers maintain the zero-tail invariant, so equality
// and count are word-parallel.
class ConstBitSpan {
 public:
  ConstBitSpan() = default;
  ConstBitSpan(const std::uint64_t* words, std::size_t size)
      : words_(words), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint64_t* words() const { return words_; }
  std::size_t num_words() const { return bitdetail::words_for(size_); }

  bool get(std::size_t i) const {
    RDT_REQUIRE(i < size_, "bit index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  // True iff the bits beyond size() in the last word are all zero. Always
  // expected to hold; word-parallel count/equality silently break otherwise.
  bool tail_zero() const { return empty() || bitdetail::tail_zero(words_, size_); }

  std::size_t count() const {
    RDT_AUDIT(tail_zero(), "zero-tail invariant violated before popcount");
    return bitkern::popcount(words_, num_words());
  }

  bool any() const { return bitkern::any(words_, num_words()); }

  // Index of first set bit at or after `from`, or size() if none. Accepts
  // any `from`, including from >= size() (returns size() without reading
  // past the last word).
  std::size_t find_next(std::size_t from) const {
    return bitdetail::find_next(words_, size_, from);
  }

  // Index of the highest set bit in [lo, hi), or hi if none.
  std::size_t find_last(std::size_t lo, std::size_t hi) const {
    RDT_REQUIRE(lo <= hi && hi <= size_, "bit range out of range");
    return bitdetail::find_last(words_, lo, hi);
  }

  friend bool operator==(ConstBitSpan a, ConstBitSpan b) {
    if (a.size_ != b.size_) return false;
    RDT_AUDIT(a.tail_zero() && b.tail_zero(),
              "zero-tail invariant violated before word-parallel equality");
    return bitkern::equal(a.words_, b.words_, a.num_words());
  }

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t size_ = 0;
};

// Mutable view over a word-aligned block of bits. The view itself is a
// value; mutators are const because they write through the pointer, which
// lets arena slots hand rows out by value.
class BitSpan {
 public:
  BitSpan() = default;
  BitSpan(std::uint64_t* words, std::size_t size) : words_(words), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t* words() const { return words_; }
  std::size_t num_words() const { return bitdetail::words_for(size_); }

  operator ConstBitSpan() const { return {words_, size_}; }  // NOLINT(*-explicit-*)

  bool get(std::size_t i) const {
    RDT_REQUIRE(i < size_, "bit index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::size_t i, bool value = true) const {
    RDT_REQUIRE(i < size_, "bit index out of range");
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void reset() const {
    for (std::size_t w = 0; w < num_words(); ++w) words_[w] = 0;
  }
  void fill(bool value) const {
    for (std::size_t w = 0; w < num_words(); ++w) words_[w] = value ? ~0ULL : 0ULL;
    bitdetail::trim_tail(words_, size_);
  }
  // Sets every bit in [lo, hi).
  void set_range(std::size_t lo, std::size_t hi) const {
    RDT_REQUIRE(lo <= hi && hi <= size_, "bit range out of range");
    bitdetail::set_range(words_, lo, hi);
  }
  void assign(ConstBitSpan other) const {
    RDT_REQUIRE(other.size() == size_, "size mismatch");
    for (std::size_t w = 0; w < num_words(); ++w) words_[w] = other.words()[w];
    trim();
  }

  // *this |= other without change detection — cheaper than or_with in
  // sweeps that visit each edge exactly once and never test for a fixpoint.
  void merge(ConstBitSpan other) const {
    RDT_REQUIRE(other.size() == size_, "size mismatch");
    bitkern::or_into(words_, other.words(), num_words());
    trim();
  }

  // *this |= other; returns true iff any bit changed.
  bool or_with(ConstBitSpan other) const {
    RDT_REQUIRE(other.size() == size_, "size mismatch");
    const bool changed = bitkern::or_into_changed(words_, other.words(), num_words());
    trim();
    return changed;
  }

  void and_with(ConstBitSpan other) const {
    RDT_REQUIRE(other.size() == size_, "size mismatch");
    bitkern::and_into(words_, other.words(), num_words());
  }

  bool tail_zero() const { return ConstBitSpan(*this).tail_zero(); }
  std::size_t count() const { return ConstBitSpan(*this).count(); }
  bool any() const { return ConstBitSpan(*this).any(); }
  std::size_t find_next(std::size_t from) const {
    return bitdetail::find_next(words_, size_, from);
  }

 private:
  // Same-size sources that honor the invariant cannot set tail bits, but a
  // span over foreign storage (arena, piggyback buffer) may not — re-trim
  // after every op that ORs or copies whole words so the invariant is
  // enforced here rather than assumed of every producer.
  void trim() const {
    if (!empty()) bitdetail::trim_tail(words_, size_);
  }

 private:
  std::uint64_t* words_ = nullptr;
  std::size_t size_ = 0;
};

// Fixed-size vector of bits with word-parallel bulk operations.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t size, bool value = false)
      : size_(size), words_(bitdetail::words_for(size), value ? ~0ULL : 0ULL) {
    trim();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  operator ConstBitSpan() const { return {words_.data(), size_}; }  // NOLINT(*-explicit-*)
  ConstBitSpan span() const { return {words_.data(), size_}; }
  BitSpan span() { return {words_.data(), size_}; }

  bool get(std::size_t i) const {
    RDT_REQUIRE(i < size_, "bit index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::size_t i, bool value = true) {
    RDT_REQUIRE(i < size_, "bit index out of range");
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void reset() {
    for (auto& w : words_) w = 0;
  }
  void fill(bool value) {
    for (auto& w : words_) w = value ? ~0ULL : 0ULL;
    trim();
  }

  // *this |= other without change detection — cheaper than or_with in
  // sweeps that visit each edge exactly once and never test for a fixpoint.
  void merge(ConstBitSpan other) { span().merge(other); }

  // *this |= other; returns true iff any bit changed.
  bool or_with(ConstBitSpan other) { return span().or_with(other); }

  void and_with(ConstBitSpan other) { span().and_with(other); }

  void assign(ConstBitSpan other) { span().assign(other); }

  std::size_t count() const { return span().count(); }

  bool any() const { return span().any(); }

  // Index of first set bit at or after `from`, or size() if none.
  std::size_t find_next(std::size_t from) const {
    return bitdetail::find_next(words_.data(), size_, from);
  }

  // Index of the highest set bit in [lo, hi), or hi if none.
  std::size_t find_last(std::size_t lo, std::size_t hi) const {
    return span().find_last(lo, hi);
  }

  // Sets every bit in [lo, hi).
  void set_range(std::size_t lo, std::size_t hi) { span().set_range(lo, hi); }

  friend bool operator==(const BitVector&, const BitVector&) = default;

 private:
  void trim() {
    if (!words_.empty()) bitdetail::trim_tail(words_.data(), size_);
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

// Read-only view over a block-strided bit matrix: `rows` word-aligned rows
// of `cols` bits, laid out contiguously (stride = words_for(cols)). Both
// BitMatrix and the replay payload arena produce these.
class ConstBitMatrixSpan {
 public:
  ConstBitMatrixSpan() = default;
  ConstBitMatrixSpan(const std::uint64_t* words, std::size_t rows,
                     std::size_t cols)
      : words_(words), rows_(rows), cols_(cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t row_words() const { return bitdetail::words_for(cols_); }

  ConstBitSpan row(std::size_t r) const {
    RDT_REQUIRE(r < rows_, "row index out of range");
    return {words_ + r * row_words(), cols_};
  }
  bool get(std::size_t r, std::size_t c) const { return row(r).get(c); }

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

// Mutable counterpart of ConstBitMatrixSpan (same layout contract).
class BitMatrixSpan {
 public:
  BitMatrixSpan() = default;
  BitMatrixSpan(std::uint64_t* words, std::size_t rows, std::size_t cols)
      : words_(words), rows_(rows), cols_(cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t row_words() const { return bitdetail::words_for(cols_); }

  operator ConstBitMatrixSpan() const {  // NOLINT(*-explicit-*)
    return {words_, rows_, cols_};
  }

  BitSpan row(std::size_t r) const {
    RDT_REQUIRE(r < rows_, "row index out of range");
    return {words_ + r * row_words(), cols_};
  }
  bool get(std::size_t r, std::size_t c) const { return row(r).get(c); }
  void set(std::size_t r, std::size_t c, bool value = true) const {
    row(r).set(c, value);
  }

  // Whole-matrix copy (dimensions must match) — one contiguous word copy,
  // then a per-row tail trim in case the source block carried tail garbage.
  void assign(ConstBitMatrixSpan other) const {
    RDT_REQUIRE(other.rows() == rows_ && other.cols() == cols_,
                "matrix dimensions mismatch");
    const std::size_t total = rows_ * row_words();
    const std::uint64_t* src = other.row(0).words();
    for (std::size_t w = 0; w < total; ++w) words_[w] = src[w];
    if (cols_ % 64 != 0)
      for (std::size_t r = 0; r < rows_; ++r)
        bitdetail::trim_tail(words_ + r * row_words(), cols_);
  }

 private:
  std::uint64_t* words_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

// Row-major matrix of bits over one contiguous word block. Rows are
// word-aligned so closure algorithms can OR whole rows together and views
// can address the matrix as a flat, block-strided plane.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols, bool value = false)
      : rows_(rows),
        cols_(cols),
        row_words_(bitdetail::words_for(cols)),
        words_(rows * bitdetail::words_for(cols), value ? ~0ULL : 0ULL) {
    trim_rows();
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  bool get(std::size_t r, std::size_t c) const { return row(r).get(c); }
  void set(std::size_t r, std::size_t c, bool value = true) { row(r).set(c, value); }

  ConstBitSpan row(std::size_t r) const {
    RDT_REQUIRE(r < rows_, "row index out of range");
    return {words_.data() + r * row_words_, cols_};
  }
  BitSpan row(std::size_t r) {
    RDT_REQUIRE(r < rows_, "row index out of range");
    return {words_.data() + r * row_words_, cols_};
  }

  ConstBitMatrixSpan view() const { return {words_.data(), rows_, cols_}; }
  BitMatrixSpan view() { return {words_.data(), rows_, cols_}; }
  operator ConstBitMatrixSpan() const { return view(); }  // NOLINT(*-explicit-*)

  void fill(bool value) {
    for (auto& w : words_) w = value ? ~0ULL : 0ULL;
    trim_rows();
  }

  void set_diagonal(bool value) {
    RDT_REQUIRE(rows_ == cols_, "diagonal requires a square matrix");
    for (std::size_t i = 0; i < rows_; ++i) row(i).set(i, value);
  }

  std::size_t count() const {
    return bitkern::popcount(words_.data(), words_.size());
  }

  // Reflexive-transitive closure of the adjacency matrix (Warshall with
  // word-parallel row OR). Requires a square matrix.
  void close_transitively();

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

 private:
  void trim_rows() {
    if (cols_ % 64 == 0) return;
    for (std::size_t r = 0; r < rows_; ++r)
      bitdetail::trim_tail(words_.data() + r * row_words_, cols_);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rdt
