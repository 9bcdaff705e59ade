#include "protocols/bhmr.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.hpp"

namespace rdt {

namespace bhmr {

namespace {

struct TdvMasks {
  std::uint64_t newer = 0;  // bit b: m[b] > t[b]
  std::uint64_t same = 0;   // bit b: m[b] == t[b]
};

// Compares the `count` <= 64 entries starting at m and t.
TdvMasks compare_tdv(const CkptIndex* m, const CkptIndex* t, std::size_t count) {
  TdvMasks out;
  for (std::size_t b = 0; b < count; ++b) {
    out.newer |= static_cast<std::uint64_t>(m[b] > t[b]) << b;
    out.same |= static_cast<std::uint64_t>(m[b] == t[b]) << b;
  }
  return out;
}

}  // namespace

void require_shape(const PiggybackView& msg, std::size_t n, bool with_simple) {
  RDT_REQUIRE(msg.tdv.size() == n, "piggyback size mismatch");
  RDT_REQUIRE(msg.causal.rows() == n && msg.causal.cols() == n,
              "piggybacked causal matrix size mismatch");
  RDT_REQUIRE(!with_simple || msg.simple.size() == n,
              "piggybacked simple array size mismatch");
}

bool c1(const PiggybackView& msg, const Tdv& tdv, ConstBitSpan sent_to) {
  // A non-causal chain from P_k to some P_j we already messaged would form,
  // and the sender did not know a causal sibling for it.
  if (!sent_to.any()) return false;
  const std::size_t n = tdv.size();
  const std::size_t rw = msg.causal.row_words();
  const std::uint64_t* st = sent_to.words();
  const std::uint64_t* rows = msg.causal.row(0).words();
  for (std::size_t base = 0; base < n; base += 64) {
    std::uint64_t newer =
        compare_tdv(msg.tdv.data() + base, tdv.data() + base,
                    std::min<std::size_t>(64, n - base))
            .newer;
    for (; newer != 0; newer &= newer - 1) {
      const std::uint64_t* row =
          rows + (base + static_cast<std::size_t>(std::countr_zero(newer))) * rw;
      for (std::size_t w = 0; w < rw; ++w)
        if ((st[w] & ~row[w]) != 0) return true;
    }
  }
  return false;
}

void merge(const PiggybackView& msg, const Tdv& tdv, std::size_t self,
           std::size_t sender, bool with_simple, BitVector& simple,
           BitMatrix& causal) {
  const std::size_t n = tdv.size();
  const std::size_t rw = msg.causal.row_words();
  const std::uint64_t keep = bitdetail::tail_mask(n);
  std::uint64_t* rows = causal.view().row(0).words();
  const std::uint64_t* msg_rows = msg.causal.row(0).words();
  std::uint64_t* s = simple.span().words();
  const std::uint64_t* ms = with_simple ? msg.simple.words() : nullptr;

  // Figure 6, the per-k case statement: a new dependency replaces our
  // knowledge about I_{k,m.TDV[k]}, the same interval accumulates the
  // sender's knowledge.
  for (std::size_t base = 0, w = 0; base < n; base += 64, ++w) {
    const TdvMasks m = compare_tdv(msg.tdv.data() + base, tdv.data() + base,
                                   std::min<std::size_t>(64, n - base));
    if (with_simple)
      s[w] = (s[w] & ~m.newer & (~m.same | ms[w])) | (ms[w] & m.newer);
    for (std::uint64_t touched = m.newer | m.same; touched != 0;
         touched &= touched - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(touched));
      std::uint64_t* dst = rows + (base + b) * rw;
      const std::uint64_t* src = msg_rows + (base + b) * rw;
      if ((m.newer >> b) & 1ULL)
        std::copy(src, src + rw, dst);
      else
        for (std::size_t x = 0; x < rw; ++x) dst[x] |= src[x];
      dst[rw - 1] &= keep;  // a foreign row may carry tail bits
    }
  }
  if (with_simple) s[self >> 6] |= 1ULL << (self & 63);  // permanently true

  // The delivery itself ends a causal chain from the sender's current
  // interval: record it and close transitively through the sender.
  const std::size_t sw = sender >> 6;
  const std::size_t sb = sender & 63;
  const std::size_t iw = self >> 6;
  const std::size_t ib = self & 63;
  rows[sender * rw + iw] |= 1ULL << ib;
  for (std::size_t l = 0; l < n; ++l) {
    std::uint64_t* row = rows + l * rw;
    row[iw] |= ((row[sw] >> sb) & 1ULL) << ib;
  }
}

void reset_on_checkpoint(std::size_t self, BitVector& simple, BitMatrix& causal) {
  const std::size_t iw = self >> 6;
  const std::uint64_t bit = 1ULL << (self & 63);
  for (const BitSpan span : {simple.span(), causal.row(self)}) {
    std::uint64_t* words = span.words();
    for (std::size_t w = 0; w < span.num_words(); ++w)
      words[w] = w == iw ? words[w] & bit : 0;
  }
}

}  // namespace bhmr

BhmrProtocol::BhmrProtocol(int num_processes, ProcessId self, Variant variant)
    : CicProtocol(num_processes, self),
      variant_(variant),
      simple_(static_cast<std::size_t>(num_processes)),
      causal_(static_cast<std::size_t>(num_processes),
              static_cast<std::size_t>(num_processes)) {
  // (S0): the constructed state is the post-initial-checkpoint state of
  // Figure 6 — simple[i] true and all other entries false; causal diagonal
  // true (kept permanently false in the kC1Only variant, Section 5.1).
  simple_.set(static_cast<std::size_t>(self));
  if (variant_ != Variant::kC1Only) causal_.set_diagonal(true);
}

ProtocolKind BhmrProtocol::kind() const {
  switch (variant_) {
    case Variant::kFull: return ProtocolKind::kBhmr;
    case Variant::kNoSimple: return ProtocolKind::kBhmrNoSimple;
    case Variant::kC1Only: return ProtocolKind::kBhmrC1Only;
  }
  RDT_ASSERT(false);
}

ForceReason BhmrProtocol::force_reason(const PiggybackView& msg,
                                       ProcessId) const {
  // Runs before on_deliver()'s own size check, so it validates the shape.
  bhmr::require_shape(msg, static_cast<std::size_t>(n_),
                      variant_ == Variant::kFull);
  if (bhmr::c1(msg, tdv_, sent_to())) return ForceReason::kC1;
  const auto self = static_cast<std::size_t>(self_);
  switch (variant_) {
    case Variant::kFull:
      // C2: a causal chain left this very interval and came back non-simply
      // (some process checkpointed between a delivery and its next send) —
      // the signature of a chain from C_{k,z} to C_{k,z-1} only breakable
      // here.
      return msg.tdv[self] == tdv_[self] && !msg.simple.get(self)
                 ? ForceReason::kC2
                 : ForceReason::kNone;
    case Variant::kNoSimple:
      return msg.tdv[self] == tdv_[self] && brings_new_dependency(msg)
                 ? ForceReason::kC2
                 : ForceReason::kNone;
    case Variant::kC1Only:
      return ForceReason::kNone;
  }
  RDT_ASSERT(false);
}

void BhmrProtocol::fill_payload(const PiggybackSlot& out) const {
  if (variant_ == Variant::kFull) out.simple.assign(simple_);
  out.causal.assign(causal_.view());
}

void BhmrProtocol::merge_payload(const PiggybackView& msg, ProcessId sender) {
  const bool with_simple = variant_ == Variant::kFull;
  bhmr::require_shape(msg, static_cast<std::size_t>(n_), with_simple);
  // Runs against the pre-merge TDV; the base class merges the TDV itself
  // afterwards.
  const auto self = static_cast<std::size_t>(self_);
  bhmr::merge(msg, tdv_, self, static_cast<std::size_t>(sender), with_simple,
              simple_, causal_);
  if (variant_ == Variant::kC1Only) causal_.set(self, self, false);
}

void BhmrProtocol::reset_on_checkpoint(bool /*forced*/) {
  bhmr::reset_on_checkpoint(static_cast<std::size_t>(self_), simple_, causal_);
}

}  // namespace rdt
