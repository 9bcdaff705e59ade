// AdaptiveProtocol — the lattice-travelling meta-protocol. White-box mode
// switching (deterministic, windowed, purely local), the soundness of the
// lean mode's zeroed planes, and the black-box property that every run it
// produces is RDT regardless of which modes the traffic shape visited.
#include <gtest/gtest.h>

#include <string>

#include "core/rdt_checker.hpp"
#include "protocols/adaptive.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "protocol_net.hpp"

namespace rdt {
namespace {

using Mode = AdaptiveProtocol::Mode;

TEST(AdaptiveProtocol_, RegistryMetadata) {
  const ProtocolInfo& info =
      ProtocolRegistry::instance().info(ProtocolKind::kAdaptive);
  EXPECT_EQ(info.id, "adaptive");
  EXPECT_TRUE(info.ensures_rdt);
  EXPECT_TRUE(info.transmits_tdv);
  EXPECT_EQ(info.codec, PiggybackCodecKind::kDelta);
  // Both modes' predicates are declared: the rich pair and the lean one.
  EXPECT_EQ(info.predicates,
            (std::vector<ForceReason>{ForceReason::kC1, ForceReason::kC2,
                                      ForceReason::kNewDependency}));
  const auto p = ProtocolRegistry::instance().create(ProtocolKind::kAdaptive,
                                                     4, 2);
  EXPECT_EQ(p->kind(), ProtocolKind::kAdaptive);
  EXPECT_TRUE(p->payload_shape() == info.shape);
  EXPECT_TRUE(info.shape == (PayloadShape{.tdv = true, .simple = true, .causal = true}));
}

// With n = 2 the causal diagonal alone already makes the matrix "dense"
// (2 of 4 cells known), so the sparseness trigger stays quiet and the mode
// is governed purely by the send/deliver ratio — the axis this test walks.
TEST(AdaptiveProtocol_, SwitchesOnTrafficShapeDeterministically) {
  AdaptiveProtocol a(2, 0);
  AdaptiveProtocol b(2, 1);
  EXPECT_EQ(a.mode(), Mode::kRich);

  // 63 sends + 1 delivery close a's window decisively send-heavy.
  PayloadArena slots = test::payload_slots(2, a.payload_shape(), 2);
  const PiggybackSlot out = slots.slot(0);
  const PiggybackSlot in = slots.slot(1);
  for (int i = 0; i < 63; ++i) a.on_send(1, out);
  b.on_send(0, in);
  a.on_deliver(slots.view(1), 1);
  EXPECT_EQ(a.mode(), Mode::kLean);
  EXPECT_EQ(a.switches_to_lean(), 1);
  EXPECT_EQ(a.switches_to_rich(), 0);

  // A delivery-only window flips it back to rich.
  for (int i = 0; i < AdaptiveProtocol::kWindow; ++i) {
    b.on_send(0, in);
    a.on_deliver(slots.view(1), 1);
  }
  EXPECT_EQ(a.mode(), Mode::kRich);
  EXPECT_EQ(a.switches_to_rich(), 1);

  // The trajectory is a pure function of the local event sequence: an
  // identical replay on fresh instances lands in the same state.
  AdaptiveProtocol a2(2, 0);
  AdaptiveProtocol b2(2, 1);
  for (int i = 0; i < 63; ++i) a2.on_send(1, out);
  b2.on_send(0, in);
  a2.on_deliver(slots.view(1), 1);
  for (int i = 0; i < AdaptiveProtocol::kWindow; ++i) {
    b2.on_send(0, in);
    a2.on_deliver(slots.view(1), 1);
  }
  EXPECT_EQ(a2.mode(), a.mode());
  EXPECT_EQ(a2.switches_to_lean(), a.switches_to_lean());
  EXPECT_EQ(a2.switches_to_rich(), a.switches_to_rich());
}

// Lean mode claims no knowledge: the outgoing simple/causal planes are
// zero even though the internal BHMR bookkeeping is intact, and the
// forcing predicate degrades to FDAS's new-dependency test.
TEST(AdaptiveProtocol_, LeanModeZeroesPlanesAndForcesLikeFdas) {
  AdaptiveProtocol a(2, 0);
  AdaptiveProtocol b(2, 1);
  PayloadArena slots = test::payload_slots(2, a.payload_shape(), 3);
  for (int i = 0; i < 63; ++i) a.on_send(1, slots.slot(0));
  b.on_send(0, slots.slot(1));
  a.on_deliver(slots.view(1), 1);
  ASSERT_EQ(a.mode(), Mode::kLean);

  // Internal state still tracks knowledge (diagonal + merged sender row)...
  EXPECT_TRUE(a.causal_state().get(0, 0));
  EXPECT_TRUE(a.simple_state().get(0));
  // ...but the wire planes deny all of it.
  a.on_send(1, slots.slot(0));
  const PiggybackView out = slots.view(0);
  EXPECT_EQ(out.simple.count(), 0u);
  for (std::size_t r = 0; r < out.causal.rows(); ++r)
    EXPECT_EQ(out.causal.row(r).count(), 0u);

  // Lean forcing: a payload whose TDV is ahead forces as a new dependency
  // (a has sent in this interval), exactly FDAS's predicate.
  b.on_send(0, slots.slot(2));
  slots.slot(2).tdv[1] = 1000;
  EXPECT_EQ(a.force_reason(slots.view(2), 1), ForceReason::kNewDependency);
}

// The meta-protocol's contract: whatever modes the run visits, the
// resulting pattern is RDT — understated knowledge only ever forces MORE.
TEST(AdaptiveProtocol_, EveryReplayIsRdt) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    {
      RandomEnvConfig cfg;
      cfg.num_processes = 6;
      cfg.duration = 120.0;
      cfg.basic_ckpt_mean = 8.0;
      cfg.seed = seed;
      const ReplayResult r =
          replay(random_environment(cfg), ProtocolKind::kAdaptive);
      SCOPED_TRACE("random/seed=" + std::to_string(seed));
      EXPECT_TRUE(satisfies_rdt(r.pattern));
    }
    {
      // Request chains are send-heavy at the clients — the lean-mode
      // habitat; the run must stay RDT through the switches.
      ClientServerEnvConfig cfg;
      cfg.num_servers = 5;
      cfg.num_requests = 120;
      cfg.basic_ckpt_mean = 8.0;
      cfg.seed = seed;
      const ReplayResult r =
          replay(client_server_environment(cfg), ProtocolKind::kAdaptive);
      SCOPED_TRACE("client_server/seed=" + std::to_string(seed));
      EXPECT_TRUE(satisfies_rdt(r.pattern));
    }
  }
}

// On delivery-balanced traffic the adaptive protocol must not do worse
// than the always-lean endpoint of its lattice: BHMR-rich predicates fire
// strictly less often, and the switches only move between the two.
TEST(AdaptiveProtocol_, ForcedCountBracketedByLatticeEndpoints) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomEnvConfig cfg;
    cfg.num_processes = 6;
    cfg.duration = 120.0;
    cfg.basic_ckpt_mean = 8.0;
    cfg.seed = seed;
    const Trace trace = random_environment(cfg);
    const ReplayResult adaptive =
        replay_metrics(trace, ProtocolKind::kAdaptive);
    const ReplayResult bhmr = replay_metrics(trace, ProtocolKind::kBhmr);
    const ReplayResult fdas = replay_metrics(trace, ProtocolKind::kFdas);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_GE(adaptive.forced, bhmr.forced);
    EXPECT_LE(adaptive.forced, fdas.forced);
    // Every forced checkpoint is attributed to one of the declared
    // predicates of the two modes.
    EXPECT_EQ(adaptive.forced_by(ForceReason::kC1) +
                  adaptive.forced_by(ForceReason::kC2) +
                  adaptive.forced_by(ForceReason::kNewDependency),
              adaptive.forced);
  }
}

}  // namespace
}  // namespace rdt
