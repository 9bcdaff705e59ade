// Edge cases of the protocol bookkeeping that the scenario tests do not
// reach: self-row handling in the BHMR merge, stale/equal dependency
// merges, BCS timestamp races, FDI dirty-flag lifecycle, and the exact
// Figure 6 ordering (forced checkpoint strictly before the merge).
#include <gtest/gtest.h>

#include "protocols/bhmr.hpp"
#include "protocols/index_based.hpp"
#include "protocols/protocol.hpp"
#include "protocols/registry.hpp"
#include "protocols/wang.hpp"
#include "protocol_net.hpp"

namespace rdt {
namespace {

using test::Net;

TEST(BhmrEdge, EqualDependencyAccumulatesCausalKnowledge) {
  // Two messages from the same interval of P0 arrive at P2 via different
  // routes; the second brings *equal* TDV entries, so its causal rows must
  // OR into (not overwrite) the local ones.
  Net net(ProtocolKind::kBhmr, 4);
  // P0 messages P1 and P3 in the same interval.
  const MsgId to1 = net.send(0, 1);
  const MsgId to3 = net.send(0, 3);
  net.deliver(to1, 0, 1);
  net.deliver(to3, 0, 3);
  // P1 and P3 both forward to P2.
  const MsgId via1 = net.send(1, 2);
  const MsgId via3 = net.send(3, 2);
  net.deliver(via1, 1, 2);
  const auto& p2 = dynamic_cast<const BhmrProtocol&>(net.at(2));
  EXPECT_TRUE(p2.causal_state().get(0, 1));   // learned from via1
  EXPECT_FALSE(p2.causal_state().get(0, 3));  // not yet known
  net.deliver(via3, 3, 2);                    // equal TDV[0]: accumulate
  EXPECT_TRUE(p2.causal_state().get(0, 1));   // survived the merge
  EXPECT_TRUE(p2.causal_state().get(0, 3));   // added by the second route
}

TEST(BhmrEdge, StaleDependencyLeavesKnowledgeUntouched) {
  // A message carrying an *older* interval of P0 must not clobber fresher
  // causal knowledge.
  Net net(ProtocolKind::kBhmr, 3);
  const MsgId old_info = net.send(0, 2);  // carries I_{0,1}
  net.checkpoint(0);
  const MsgId fresh = net.send(0, 1);     // carries I_{0,2}
  net.deliver(fresh, 0, 1);
  const MsgId fwd = net.send(1, 2);
  net.deliver(fwd, 1, 2);                     // P2 now tracks I_{0,2}
  EXPECT_EQ(net.at(2).tdv()[0], 2);
  const auto& p2 = dynamic_cast<const BhmrProtocol&>(net.at(2));
  const bool knew = p2.causal_state().get(0, 1);
  net.deliver(old_info, 0, 2);                // stale: skip case in Figure 6
  EXPECT_EQ(net.at(2).tdv()[0], 2);           // not lowered
  EXPECT_EQ(p2.causal_state().get(0, 1), knew);
}

TEST(BhmrEdge, SimpleSelfEntrySurvivesEverything) {
  Net net(ProtocolKind::kBhmr, 3);
  const auto& p0 = dynamic_cast<const BhmrProtocol&>(net.at(0));
  const MsgId in = net.send(1, 0);
  net.deliver(in, 1, 0);
  EXPECT_TRUE(p0.simple_state().get(0));
  net.checkpoint(0);
  EXPECT_TRUE(p0.simple_state().get(0));
  const MsgId in2 = net.send(2, 0);
  net.deliver(in2, 2, 0);
  EXPECT_TRUE(p0.simple_state().get(0));
}

TEST(BhmrEdge, ForcedCheckpointPrecedesMerge) {
  // Figure 6 order: the forced checkpoint happens BEFORE the control-data
  // merge, so the saved TDV must NOT include the triggering message's
  // dependencies.
  Net net(ProtocolKind::kBhmr, 3);
  // Build the C1 situation at P0: it sent to P2, then a fresh dependency
  // arrives from P1.
  net.send(0, 2);
  net.checkpoint(1);  // P1 now in interval 2
  const MsgId m = net.send(1, 0);
  ASSERT_TRUE(net.deliver(m, 1, 0));
  // The checkpoint taken by the force is C_{0,1}; its saved vector predates
  // the merge of m.tdv (which carries P1's interval 2).
  EXPECT_EQ(net.at(0).saved_tdv(1)[1], 0);
  EXPECT_EQ(net.at(0).tdv()[1], 2);  // merged afterwards
}

TEST(FdiEdge, DirtyFlagResetsAtEveryCheckpoint) {
  Net net(ProtocolKind::kFdi, 3);
  const MsgId a = net.send(1, 0);
  net.deliver(a, 1, 0);             // interval now dirty
  net.checkpoint(0);  // fresh interval
  net.checkpoint(1);
  const MsgId b = net.send(1, 0);
  EXPECT_FALSE(net.deliver(b, 1, 0));  // first delivery of a clean interval
  net.checkpoint(2);
  const MsgId c = net.send(2, 0);
  EXPECT_TRUE(net.deliver(c, 2, 0));   // second delivery: dirty again
}

TEST(BcsEdge, ConcurrentTimestampRace) {
  // Two processes advance their scalar clocks independently; whoever is
  // behind when a message lands is forced, the other is not.
  Net net(ProtocolKind::kBcs, 2);
  net.checkpoint(0);
  net.checkpoint(0);  // lc_0 = 2
  net.checkpoint(1);  // lc_1 = 1
  const MsgId down = net.send(0, 1);
  const MsgId up = net.send(1, 0);
  EXPECT_FALSE(net.deliver(up, 1, 0));   // 1 < 2: no force at P0
  EXPECT_TRUE(net.deliver(down, 0, 1));  // 2 > 1: force at P1
  const auto& p1 = dynamic_cast<const BcsProtocol&>(net.at(1));
  EXPECT_EQ(p1.timestamp(), 2);          // adopted, not incremented
}

TEST(BcsEdge, ForcedCheckpointDoesNotDoubleAdvanceClock) {
  Net net(ProtocolKind::kBcs, 2);
  net.checkpoint(0);  // lc_0 = 1
  const MsgId m = net.send(0, 1);
  net.deliver(m, 0, 1);             // forced; lc_1 adopts 1
  const auto& p1 = dynamic_cast<const BcsProtocol&>(net.at(1));
  EXPECT_EQ(p1.timestamp(), 1);
  net.checkpoint(1);
  EXPECT_EQ(p1.timestamp(), 2);     // basic checkpoints still increment
}

TEST(CasEdge, IntervalAfterSendIsSendFree) {
  // After CAS's post-send checkpoint, new sends land in fresh intervals:
  // current_interval advances once per send.
  Net net(ProtocolKind::kCas, 2);
  for (int k = 1; k <= 4; ++k) {
    net.send(0, 1);
    EXPECT_EQ(net.at(0).current_interval(), k + 1);
    EXPECT_FALSE(net.at(0).after_first_send());  // reset by the checkpoint
  }
}

TEST(ProtocolEdge, DeliverRejectsForeignPayloadShape) {
  // A TDV-carrying protocol rejects a payload without one (defensive check
  // against mixing protocol kinds in one run).
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const PiggybackView empty;  // no tdv, no causal
  EXPECT_THROW(registry.create(ProtocolKind::kBhmr, 2, 0)->on_deliver(empty, 1),
               std::invalid_argument);
  const CkptIndex tdv[] = {1, 1};
  const PiggybackView with_tdv{.tdv = tdv};
  EXPECT_THROW(registry.create(ProtocolKind::kNras, 2, 0)->on_deliver(with_tdv, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace rdt
