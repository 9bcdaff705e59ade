// The contract tiers (util/check.hpp) and the RDT_AUDIT cross-validation
// entry points. The audit tests deliberately corrupt otherwise-valid values
// — via the testing_internal::PatternCorrupter backdoor for Pattern's
// private state — and prove the audits catch them; they skip themselves in
// builds without -DRDT_AUDITS=ON, where every audit is a no-op by contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ccp/audit.hpp"
#include "ccp/consistency.hpp"
#include "core/tdv.hpp"
#include "fixtures.hpp"
#include "protocol_net.hpp"
#include "protocols/codec.hpp"
#include "protocols/protocol.hpp"
#include "recovery/recovery_line.hpp"
#include "sim/payload_arena.hpp"
#include "util/check.hpp"

namespace rdt {
namespace testing_internal {

// Friend of Pattern (see pattern.hpp): mutates private state so the tests
// can manufacture exactly the corruption each audit clause guards against.
struct PatternCorrupter {
  // Swaps the recorded event positions of C_{p,1} and C_{p,2}, breaking the
  // strictly-increasing checkpoint-position invariant.
  static void swap_ckpt_positions(Pattern& pat, ProcessId p) {
    auto& pos = pat.ckpt_event_pos_[static_cast<std::size_t>(p)];
    ASSERT_GE(pos.size(), 2u);
    std::swap(pos[0], pos[1]);
  }

  // Reverses the cached topological order, violating program order.
  static void reverse_topo(Pattern& pat) {
    std::reverse(pat.topo_.begin(), pat.topo_.end());
  }

  // Desynchronizes a message's cached send interval from its send event.
  static void shift_send_interval(Pattern& pat, MsgId m) {
    pat.messages_[static_cast<std::size_t>(m)].send_interval += 1;
  }
};

}  // namespace testing_internal

namespace {

#define SKIP_WITHOUT_AUDITS()                                        \
  if (!audits_enabled())                                             \
  GTEST_SKIP() << "audit tier disabled (build with -DRDT_AUDITS=ON)"

TEST(ContractTiers, CheckIsAlwaysOn) {
  EXPECT_NO_THROW(RDT_CHECK(2 + 2 == 4, "arithmetic"));
  EXPECT_THROW(RDT_CHECK(2 + 2 == 5, "arithmetic"), contract_violation);
}

TEST(ContractTiers, AuditMatchesBuildMode) {
  EXPECT_EQ(kAuditsEnabled, audits_enabled());
  if (audits_enabled()) {
    EXPECT_THROW(RDT_AUDIT(false, "must fire in audit builds"), audit_failure);
  } else {
    EXPECT_NO_THROW(RDT_AUDIT(false, "must compile out"));
  }
  EXPECT_NO_THROW(RDT_AUDIT(true, "never fires"));
}

TEST(ContractTiers, AuditFailureIsALogicError) {
  // Callers treating audit failures as internal bugs can catch logic_error.
  SKIP_WITHOUT_AUDITS();
  EXPECT_THROW(RDT_AUDIT(false, "x"), std::logic_error);
}

TEST(AuditPattern, AcceptsAValidPattern) {
  const Pattern p = test::figure1().pattern;
  EXPECT_NO_THROW(audit_pattern(p));
}

TEST(AuditPattern, CatchesSwappedCheckpointPositions) {
  SKIP_WITHOUT_AUDITS();
  Pattern p = test::figure1().pattern;
  testing_internal::PatternCorrupter::swap_ckpt_positions(p, 0);
  EXPECT_THROW(audit_pattern(p), audit_failure);
}

TEST(AuditPattern, CatchesScrambledTopologicalOrder) {
  SKIP_WITHOUT_AUDITS();
  Pattern p = test::figure1().pattern;
  testing_internal::PatternCorrupter::reverse_topo(p);
  EXPECT_THROW(audit_pattern(p), audit_failure);
}

TEST(AuditPattern, CatchesDesynchronizedMessageInterval) {
  SKIP_WITHOUT_AUDITS();
  const test::Figure1 f = test::figure1();
  Pattern p = f.pattern;
  testing_internal::PatternCorrupter::shift_send_interval(p, f.m1);
  EXPECT_THROW(audit_pattern(p), audit_failure);
}

TEST(AuditPattern, CorruptionIsIgnoredWhenAuditsAreOff) {
  if (audits_enabled()) GTEST_SKIP() << "covers the no-audit build only";
  Pattern p = test::figure1().pattern;
  testing_internal::PatternCorrupter::reverse_topo(p);
  EXPECT_NO_THROW(audit_pattern(p));
}

TEST(AuditGlobalCkpt, AcceptsAConsistentCut) {
  const Pattern p = test::figure1().pattern;
  // (C_i1, C_j1, C_k1) is consistent: every message crossing it is not yet
  // delivered on the right of the cut.
  EXPECT_NO_THROW(audit_consistent_global_ckpt(p, {{1, 1, 1}}, "the cut"));
}

TEST(AuditGlobalCkpt, CatchesAnOrphanMessage) {
  SKIP_WITHOUT_AUDITS();
  const Pattern p = test::figure1().pattern;
  // (C_i2, C_j2, C_k2) orphans m5: delivered in I_j2 but sent in I_i3.
  EXPECT_THROW(audit_consistent_global_ckpt(p, {{2, 2, 2}}, "the cut"),
               audit_failure);
}

TEST(AuditRecoveryLine, RecoverAfterFailurePassesItsOwnAudit) {
  const Pattern p = test::figure1().pattern;
  for (ProcessId failed = 0; failed < p.num_processes(); ++failed)
    EXPECT_NO_THROW(recover_after_failure(p, failed));
}

TEST(AuditRecoveryLine, CatchesACorruptedLine) {
  SKIP_WITHOUT_AUDITS();
  const Pattern p = test::figure1().pattern;
  const GlobalCkpt upper = last_durable(p);
  const RecoveryOutcome outcome = recover_after_failure(p, 0);
  EXPECT_NO_THROW(audit_recovery_line(p, upper, outcome.line));

  // Rolling P_i one interval further than the fixpoint demands is still a
  // valid-looking global checkpoint, but disagrees with the independent
  // R-graph rollback propagation (and orphans m5 into the bargain).
  GlobalCkpt corrupted = outcome.line;
  corrupted.indices[0] -= 1;
  EXPECT_THROW(audit_recovery_line(p, upper, corrupted), audit_failure);
}

TEST(AuditTdvMerge, AcceptsAComponentwiseMax) {
  const Tdv before{1, 0, 2};
  const Tdv piggyback{0, 3, 1};
  EXPECT_NO_THROW(audit_tdv_merge(before, piggyback, Tdv{1, 3, 2}));
}

TEST(AuditTdvMerge, CatchesAShrunkenEntry) {
  SKIP_WITHOUT_AUDITS();
  const Tdv before{1, 0, 2};
  const Tdv piggyback{0, 3, 1};
  // Entry 2 went backwards: a merge may only raise dependency knowledge.
  EXPECT_THROW(audit_tdv_merge(before, piggyback, Tdv{1, 3, 1}), audit_failure);
  // A merge that loses an entry is equally corrupt.
  EXPECT_THROW(audit_tdv_merge(before, piggyback, Tdv{1, 3}), audit_failure);
}

// The decode-back check every audited replay runs after each send
// (PayloadArena::commit_send): the encoded bytes must decode to exactly the
// slot's planes and be used up by that decode.
TEST(AuditDecodeBack, CatchesBytesThatDoNotReproduceTheSlot) {
  SKIP_WITHOUT_AUDITS();
  constexpr int kN = 4;
  constexpr PayloadShape kShape{.tdv = true, .simple = true};
  // Slot 0 is the sent payload, slot 1 the decode scratch.
  PayloadArena arena = test::payload_slots(kN, kShape, 2);
  const PiggybackSlot sent = arena.slot(0);
  for (std::size_t k = 0; k < kN; ++k) sent.tdv[k] = static_cast<CkptIndex>(k + 1);
  sent.simple.set(2);
  std::vector<std::uint8_t> bytes;
  PiggybackCodec(PiggybackCodecKind::kFlat, kN, kShape)
      .encode(0, 1, arena.view(0), bytes);
  const auto check = [&](std::span<const std::uint8_t> wire) {
    PiggybackCodec receiver(PiggybackCodecKind::kFlat, kN, kShape);
    audit_decode_back(receiver, 0, 1, wire, arena.view(0), arena.slot(1));
  };
  EXPECT_NO_THROW(check(bytes));

  std::vector<std::uint8_t> corrupted = bytes;
  corrupted[0] ^= 1;  // the flat layout's first TDV entry: 1 -> 0
  EXPECT_THROW(check(corrupted), audit_failure);
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(check(trailing), audit_failure);
  // A truncated payload does not decode at all.
  EXPECT_THROW(check(std::span(bytes).first(bytes.size() - 1)), audit_failure);

  // The slot changed after it was encoded.
  sent.simple.set(3);
  EXPECT_THROW(check(bytes), audit_failure);
}

}  // namespace
}  // namespace rdt
