// The paper's communication-induced checkpointing protocol (Figure 6) and
// its two weaker variants (Section 5.1).
//
// On top of the TDV, each process keeps
//  * sent_to[1..n]   — destinations messaged in the current interval (base
//                      class);
//  * simple[1..n]    — simple[j] true iff, to P_i's knowledge, all causal
//                      chains from C_{j,TDV[j]} to here are *simple* (no
//                      checkpoint inside);
//  * causal[1..n][1..n] — causal[k][j] true iff, to P_i's knowledge, there
//                      is an on-line trackable R-path
//                      C_{k,TDV[k]} -> C_{j,TDV[j]}.
//
// A forced checkpoint is taken before delivering m iff
//   C1: exists j: sent_to[j] ^ exists k: (m.TDV[k] > TDV[k] ^ !m.causal[k][j])
//       — a non-causal message chain from P_k to P_j, breakable here and
//       with no *visible* causal sibling, would otherwise form;
//   C2: m.TDV[i] = TDV[i] ^ !m.simple[i]
//       — a non-causal chain from some C_{k,z} back to C_{k,z-1}, breakable
//       only here, would otherwise form.
//
// Variants:
//  * kFull     — C1 v C2 (piggybacks TDV + simple + causal);
//  * kNoSimple — C1 v C2' with C2' = (m.TDV[i] = TDV[i] ^ exists k:
//                m.TDV[k] > TDV[k]); drops the simple array;
//  * kC1Only   — C1 alone with the causal diagonal pinned false, which makes
//                C1 itself subsume the same-process case.
//
// All three satisfy (C) => (C_FDAS): they force at most as often as FDAS on
// identical control states.
//
// The bookkeeping is word-parallel: each call compares m.TDV against TDV
// once per 64 entries into the masks newer = {k : m.TDV[k] > TDV[k]} and
// same = {k : m.TDV[k] = TDV[k]}, and the rules below become word
// operations over those masks. The per-bit statements of Figure 6 are kept
// in tests/bhmr_reference_test.cpp as the reference they must match.
#pragma once

#include "protocols/protocol.hpp"

namespace rdt {

// Figure 6's rules over the `simple` vector and `causal` matrix, shared by
// BhmrProtocol and AdaptiveProtocol (which runs the full BHMR bookkeeping
// in both of its modes). `tdv` is the receiver's pre-merge TDV; every
// function expects a payload that passed require_shape().
namespace bhmr {

// Throws std::invalid_argument unless the payload carries an n-entry TDV,
// an n x n causal matrix and, when `with_simple`, an n-bit simple vector.
void require_shape(const PiggybackView& msg, std::size_t n, bool with_simple);

// C1: some k in newer has sent_to & ~m.causal[k] != 0.
bool c1(const PiggybackView& msg, const Tdv& tdv, ConstBitSpan sent_to);

// The per-k case statement (rows in newer are replaced, rows in same are
// ORed, simple follows the same split), then simple[self] and the causal
// column of `self` closed through the sender.
void merge(const PiggybackView& msg, const Tdv& tdv, std::size_t self,
           std::size_t sender, bool with_simple, BitVector& simple,
           BitMatrix& causal);

// After a checkpoint of `self`: simple and causal[self] keep only bit self.
void reset_on_checkpoint(std::size_t self, BitVector& simple, BitMatrix& causal);

}  // namespace bhmr

class BhmrProtocol final : public CicProtocol {
 public:
  enum class Variant { kFull, kNoSimple, kC1Only };

  BhmrProtocol(int num_processes, ProcessId self, Variant variant);

  ProtocolKind kind() const override;
  Variant variant() const { return variant_; }

  PayloadShape payload_shape() const override {
    return {.tdv = true, .simple = variant_ == Variant::kFull, .causal = true};
  }

  // C1 is checked first: when both predicates hold, the forced checkpoint
  // is attributed to C1 (the junction-breaking predicate).
  ForceReason force_reason(const PiggybackView& msg,
                           ProcessId sender) const override;

  // Exposed for white-box tests of the bookkeeping rules.
  const BitVector& simple_state() const { return simple_; }
  const BitMatrix& causal_state() const { return causal_; }

 private:
  void fill_payload(const PiggybackSlot& out) const override;
  void merge_payload(const PiggybackView& msg, ProcessId sender) override;
  void reset_on_checkpoint(bool forced) override;

  Variant variant_;
  BitVector simple_;
  BitMatrix causal_;
};

}  // namespace rdt
