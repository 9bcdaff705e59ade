#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <vector>

#include "protocols/baselines.hpp"
#include "protocols/bhmr.hpp"
#include "protocols/protocol.hpp"
#include "protocols/registry.hpp"
#include "protocols/wang.hpp"
#include "protocol_net.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

using test::Net;

// ------------------------------------------------------------- plumbing

TEST(ProtocolFactory, NamesRoundTrip) {
  for (ProtocolKind kind : all_protocol_kinds()) {
    EXPECT_EQ(protocol_from_string(to_string(kind)), kind);
    const auto p = ProtocolRegistry::instance().create(kind, 3, 1);
    EXPECT_EQ(p->kind(), kind);
    EXPECT_EQ(p->self(), 1);
    EXPECT_EQ(p->num_processes(), 3);
  }
  EXPECT_THROW(protocol_from_string("nope"), std::invalid_argument);
  EXPECT_EQ(all_protocol_kinds().size(), 11u);
  EXPECT_EQ(rdt_protocol_kinds().size(), 9u);
}

TEST(ProtocolBase, InitialStateMatchesS0) {
  const auto p = ProtocolRegistry::instance().create(ProtocolKind::kBhmr, 4, 2);
  EXPECT_EQ(p->current_interval(), 1);           // inside I_{2,1}
  EXPECT_EQ(p->saved_tdv(0), (Tdv{0, 0, 0, 0}));  // C_{2,0} saved all-zero
  EXPECT_FALSE(p->after_first_send());
  EXPECT_FALSE(p->sent_to().any());
  EXPECT_EQ(p->basic_count(), 0);
  EXPECT_EQ(p->forced_count(), 0);
}

TEST(ProtocolBase, CheckpointSavesAndResets) {
  Net net(ProtocolKind::kFdas, 3);
  net.send(0, 1);
  EXPECT_TRUE(net.at(0).after_first_send());
  EXPECT_TRUE(net.at(0).sent_to().get(1));
  net.checkpoint(0);
  EXPECT_EQ(net.at(0).current_interval(), 2);
  EXPECT_FALSE(net.at(0).after_first_send());
  EXPECT_FALSE(net.at(0).sent_to().any());
  EXPECT_EQ(net.at(0).basic_count(), 1);
  EXPECT_EQ(net.at(0).saved_tdv(1), (Tdv{1, 0, 0}));
}

TEST(ProtocolBase, TdvMergesOnDelivery) {
  Net net(ProtocolKind::kFdas, 3);
  const MsgId m = net.send(0, 1);
  const PiggybackView pb = net.view(m);
  EXPECT_EQ(Tdv(pb.tdv.begin(), pb.tdv.end()), (Tdv{1, 0, 0}));
  net.deliver(m, 0, 1);
  EXPECT_EQ(net.at(1).tdv(), (Tdv{1, 1, 0}));
}

TEST(ProtocolBase, ArgumentValidation) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const auto p = registry.create(ProtocolKind::kFdas, 3, 0);
  EXPECT_THROW(p->on_send(0, PiggybackSlot{}), std::invalid_argument);  // self
  EXPECT_THROW(p->on_send(3, PiggybackSlot{}), std::invalid_argument);
  EXPECT_THROW(p->saved_tdv(5), std::invalid_argument);
  EXPECT_THROW(registry.create(ProtocolKind::kFdas, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(registry.create(ProtocolKind::kFdas, 2, 2),
               std::invalid_argument);
}

TEST(ProtocolBase, MinGlobalCkptRequiresTdvTracking) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const auto nras = registry.create(ProtocolKind::kNras, 3, 0);
  EXPECT_THROW(nras->min_global_ckpt(0), std::invalid_argument);
  const auto fdas = registry.create(ProtocolKind::kFdas, 3, 0);
  EXPECT_EQ(fdas->min_global_ckpt(0), (GlobalCkpt{{0, 0, 0}}));
}

// Whether a kind piggybacks its TDV is fixed by the kind: the constructors a
// TDV-based kind inherits take only (num_processes, self), so none can be
// built with an empty TDV shape (which would silence its predicate).
TEST(ProtocolBase, TransmitsTdvIsFixedPerKind) {
  static_assert(std::is_constructible_v<FdasProtocol, int, ProcessId>);
  static_assert(!std::is_constructible_v<FdasProtocol, int, ProcessId, bool>);
  static_assert(!std::is_constructible_v<FdiProtocol, int, ProcessId, bool>);
  static_assert(!std::is_constructible_v<BhmrProtocol, int, ProcessId, bool>);
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  for (const ProtocolKind kind : all_protocol_kinds()) {
    const auto p = registry.create(kind, 3, 0);
    EXPECT_EQ(p->transmits_tdv(), p->payload_shape().tdv) << p->name();
  }
}

TEST(Piggyback, FlatBitsPerProtocol) {
  // The analytic flat-plane figure: 32 bits per TDV entry, one bit per
  // simple/causal plane cell, 32 for a scalar index.
  const unsigned n = 5;
  auto bits = [&](ProtocolKind kind) {
    return ProtocolRegistry::instance().info(kind).flat_piggyback_bits(
        static_cast<int>(n));
  };
  EXPECT_EQ(bits(ProtocolKind::kNoForce), 0u);
  EXPECT_EQ(bits(ProtocolKind::kCbr), 0u);
  EXPECT_EQ(bits(ProtocolKind::kCas), 0u);
  EXPECT_EQ(bits(ProtocolKind::kNras), 0u);
  EXPECT_EQ(bits(ProtocolKind::kFdi), 32u * n);
  EXPECT_EQ(bits(ProtocolKind::kFdas), 32u * n);
  EXPECT_EQ(bits(ProtocolKind::kBhmr), 32u * n + n + n * n);
  EXPECT_EQ(bits(ProtocolKind::kBhmrNoSimple), 32u * n + n * n);
  EXPECT_EQ(bits(ProtocolKind::kBhmrC1Only), 32u * n + n * n);
  EXPECT_EQ(bits(ProtocolKind::kBcs), 32u);
  EXPECT_EQ(bits(ProtocolKind::kAdaptive), 32u * n + n + n * n);
}

TEST(Piggyback, MeasuredWireBitsPerProtocol) {
  // The measured figure: the declared codec's encoding of each protocol's
  // first message (P0 -> P1, n = 5), sent through a ProtocolDriver. Exact
  // byte-level expectations pin the wire formats down; see codec.hpp for
  // the grammar.
  auto bits = [&](ProtocolKind kind) { return piggyback_bits(kind, 5); };
  // Empty shape encodes to zero bytes under any codec.
  EXPECT_EQ(bits(ProtocolKind::kNoForce), 0u);
  EXPECT_EQ(bits(ProtocolKind::kCbr), 0u);
  EXPECT_EQ(bits(ProtocolKind::kCas), 0u);
  EXPECT_EQ(bits(ProtocolKind::kNras), 0u);
  // Delta TDV, one changed entry: change mask(0b1) + increment(1) = 2
  // bytes.
  EXPECT_EQ(bits(ProtocolKind::kFdi), 16u);
  EXPECT_EQ(bits(ProtocolKind::kFdas), 16u);
  // Full BHMR adds the simple flip mask (1 byte) and the five diagonal
  // causal rows (changed-row mask + 5 one-byte XOR masks = 6 bytes): 9
  // bytes.
  EXPECT_EQ(bits(ProtocolKind::kBhmr), 72u);
  EXPECT_EQ(bits(ProtocolKind::kBhmrNoSimple), 64u);
  // Delta TDV (2 bytes as above) plus an empty changed-row mask for the
  // causal matrix, whose diagonal stays false: 3 bytes.
  EXPECT_EQ(bits(ProtocolKind::kBhmrC1Only), 24u);
  // Sparse scalar index: a single varint.
  EXPECT_EQ(bits(ProtocolKind::kBcs), 8u);
  EXPECT_EQ(bits(ProtocolKind::kAdaptive), bits(ProtocolKind::kBhmr));
}

// Golden pin of the first message's measured wire bits and analytic flat
// bits for every kind, on both sides of the delta cap (n = 64 | 65).
TEST(PiggybackBits, FirstMessageGolden) {
  constexpr std::array<int, 5> kNs = {2, 5, 64, 65, 128};
  struct Row {
    ProtocolKind kind;
    std::array<std::size_t, 5> wire, flat;
  };
  const Row rows[] = {
      {ProtocolKind::kNoForce, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}},
      {ProtocolKind::kCbr, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}},
      {ProtocolKind::kCas, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}},
      {ProtocolKind::kNras, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}},
      {ProtocolKind::kFdi, {16, 16, 72, 520, 1024}, {64, 160, 2048, 2080, 4096}},
      {ProtocolKind::kFdas, {16, 16, 72, 520, 1024}, {64, 160, 2048, 2080, 4096}},
      {ProtocolKind::kBhmr, {48, 72, 4296, 1064, 3096}, {70, 190, 6208, 6370, 20608}},
      {ProtocolKind::kBhmrNoSimple, {40, 64, 4232, 1048, 3080}, {68, 185, 6144, 6305, 20480}},
      {ProtocolKind::kBhmrC1Only, {24, 24, 136, 528, 1032}, {68, 185, 6144, 6305, 20480}},
      {ProtocolKind::kBcs, {8, 8, 8, 8, 8}, {32, 32, 32, 32, 32}},
      {ProtocolKind::kAdaptive, {48, 72, 4296, 1064, 3096}, {70, 190, 6208, 6370, 20608}},
  };
  ASSERT_EQ(std::size(rows), all_protocol_kinds().size());
  for (const Row& row : rows) {
    const ProtocolInfo& info = ProtocolRegistry::instance().info(row.kind);
    for (std::size_t i = 0; i < kNs.size(); ++i) {
      SCOPED_TRACE(info.id + " n=" + std::to_string(kNs[i]));
      EXPECT_EQ(piggyback_bits(row.kind, kNs[i]), row.wire[i]);
      EXPECT_EQ(info.flat_piggyback_bits(kNs[i]), row.flat[i]);
    }
  }
}

// ------------------------------------------------------------- baselines

TEST(Baselines, CbrForcesBeforeEveryDelivery) {
  Net net(ProtocolKind::kCbr, 2);
  for (int round = 0; round < 3; ++round) {
    const MsgId pb = net.send(0, 1);
    EXPECT_TRUE(net.deliver(pb, 0, 1));
  }
  EXPECT_EQ(net.at(1).forced_count(), 3);
}

TEST(Baselines, CasCheckpointsAfterEverySend) {
  Net net(ProtocolKind::kCas, 2);
  EXPECT_TRUE(net.at(0).checkpoint_after_send());
  const MsgId pb1 = net.send(0, 1);
  const MsgId pb2 = net.send(0, 1);
  EXPECT_EQ(net.at(0).forced_count(), 2);
  EXPECT_EQ(net.at(0).current_interval(), 3);
  EXPECT_FALSE(net.deliver(pb1, 0, 1));  // receiver never forces
  EXPECT_FALSE(net.deliver(pb2, 0, 1));
}

TEST(Baselines, NrasForcesOnlyAfterASend) {
  Net net(ProtocolKind::kNras, 3);
  const MsgId in1 = net.send(1, 0);
  EXPECT_FALSE(net.deliver(in1, 1, 0));  // no send yet: receive freely
  net.send(0, 2);
  const MsgId in2 = net.send(1, 0);
  EXPECT_TRUE(net.deliver(in2, 1, 0));   // send happened: break the interval
  // After the forced checkpoint the next delivery is free again.
  const MsgId in3 = net.send(1, 0);
  EXPECT_FALSE(net.deliver(in3, 1, 0));
}

TEST(Baselines, NoForceNeverForces) {
  Net net(ProtocolKind::kNoForce, 2);
  for (int round = 0; round < 5; ++round) {
    net.send(1, 0);
    const MsgId pb = net.send(0, 1);
    net.checkpoint(1);
    EXPECT_FALSE(net.deliver(pb, 0, 1));
  }
  EXPECT_EQ(net.at(1).forced_count(), 0);
}

// ------------------------------------------------------------ Wang family

TEST(Fdas, ForcesOnlyOnNewDependencyAfterSend) {
  Net net(ProtocolKind::kFdas, 3);
  // New dependency but no send in the interval: no force.
  const MsgId a = net.send(1, 0);
  EXPECT_FALSE(net.deliver(a, 1, 0));
  // Send, then a message with NO new dependency: no force.
  net.send(0, 2);
  const MsgId b = net.send(1, 0);  // P1 interval unchanged? its tdv[1]=1 already known
  EXPECT_FALSE(net.deliver(b, 1, 0));
  // Send, then a message with a new dependency: force.
  net.checkpoint(1);     // bump P1's interval to 2
  const MsgId c = net.send(1, 0);
  EXPECT_TRUE(net.deliver(c, 1, 0));
}

TEST(Fdi, ForcesOnceIntervalIsDirty) {
  Net net(ProtocolKind::kFdi, 3);
  // First delivery of the interval fixes the dependency set: no force.
  const MsgId a = net.send(1, 0);
  EXPECT_FALSE(net.deliver(a, 1, 0));
  // Second delivery brings a new dependency into the now-dirty interval.
  const MsgId b = net.send(2, 0);
  EXPECT_TRUE(net.deliver(b, 2, 0));
}

TEST(Fdi, MoreConservativeThanFdas) {
  // FDI forces on receive-after-receive, FDAS does not (no send happened).
  Net fdi(ProtocolKind::kFdi, 3);
  Net fdas(ProtocolKind::kFdas, 3);
  for (auto* net : {&fdi, &fdas}) {
    const MsgId a = net->send(1, 0);
    net->deliver(a, 1, 0);
    net->checkpoint(2);
  }
  const MsgId f1 = fdi.send(2, 0);
  const MsgId f2 = fdas.send(2, 0);
  EXPECT_TRUE(fdi.at(0).must_force(fdi.view(f1), 2));
  EXPECT_FALSE(fdas.at(0).must_force(fdas.view(f2), 2));
}

// ---------------------------------------------------- BHMR scenario tests

// The Figure 2 situation: P_i sent m' to P_j, then receives m bringing a new
// dependency on P_k with no known causal sibling -> C1 fires.
TEST(Bhmr, C1ForcesWhenNoSiblingIsKnown) {
  Net net(ProtocolKind::kBhmr, 4);
  constexpr ProcessId k = 0, l = 1, i = 2, j = 3;
  // A chain from P_k reaches P_l; P_l forwards to P_i.
  const MsgId mk = net.send(k, l);
  net.deliver(mk, k, l);
  const MsgId m = net.send(l, i);
  // P_i already messaged P_j in this interval.
  net.send(i, j);
  // m brings dependencies on k and l; nobody knows a trackable path to P_j.
  EXPECT_TRUE(net.deliver(m, l, i));
  EXPECT_EQ(net.at(i).forced_count(), 1);
}

// The Figure 3 situation: the sender of m knows a causal sibling (matrix
// entry causal[k][j] true), so the junction is visibly doubled -> no force,
// while FDAS (blind to siblings) would force. This is the generality
// separation the paper claims.
TEST(Bhmr, C1SparedByKnownCausalSibling) {
  constexpr ProcessId k = 0, i = 1, j = 2;
  Net bhmr(ProtocolKind::kBhmr, 3);
  // P_k's chain reaches P_j directly: P_j then knows causal[k][j].
  const MsgId direct = bhmr.send(k, j);
  bhmr.deliver(direct, k, j);
  // P_j tells P_i about it (this message also carries dep on k).
  const MsgId m = bhmr.send(j, i);
  // P_i has already sent to P_j in its current interval.
  bhmr.send(i, j);
  // C1: new deps on k and j; causal[k][j] and causal[j][j] are both known
  // true aboard m -> no force.
  EXPECT_FALSE(bhmr.at(i).must_force(bhmr.view(m), j));

  // FDAS in the identical situation forces.
  Net fdas(ProtocolKind::kFdas, 3);
  const MsgId d2 = fdas.send(k, j);
  fdas.deliver(d2, k, j);
  const MsgId m2 = fdas.send(j, i);
  fdas.send(i, j);
  EXPECT_TRUE(fdas.at(i).must_force(fdas.view(m2), j));
}

// The Figure 4 situation: a causal chain leaves P_i and comes back with a
// checkpoint taken inside (non-simple) -> C2 fires; without the inner
// checkpoint the chain is simple -> no force.
TEST(Bhmr, C2DetectsNonSimpleReturnChain) {
  constexpr ProcessId i = 0, k = 1;
  {
    Net net(ProtocolKind::kBhmr, 2);
    const MsgId out = net.send(i, k);
    net.deliver(out, i, k);
    net.checkpoint(k);  // checkpoint inside the return chain
    const MsgId back = net.send(k, i);
    EXPECT_FALSE(net.view(back).simple.get(i));
    EXPECT_TRUE(net.deliver(back, k, i));  // C2
  }
  {
    Net net(ProtocolKind::kBhmr, 2);
    const MsgId out = net.send(i, k);
    net.deliver(out, i, k);
    const MsgId back = net.send(k, i);  // no checkpoint: simple chain
    EXPECT_TRUE(net.view(back).simple.get(i));
    EXPECT_FALSE(net.deliver(back, k, i));
  }
}

TEST(Bhmr, VariantsForceWhereFullDoesNot) {
  // Same "simple return chain" situation: C2' (variant 1) fires because it
  // cannot distinguish simple from non-simple; variant 2's pinned-false
  // diagonal makes C1 fire. The full protocol stays quiet — it is the least
  // conservative of the three.
  for (ProtocolKind kind :
       {ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmrC1Only}) {
    Net net(kind, 2);
    const MsgId out = net.send(0, 1);
    net.deliver(out, 0, 1);
    const MsgId back = net.send(1, 0);
    EXPECT_TRUE(net.deliver(back, 1, 0)) << to_string(kind);
  }
}

TEST(Bhmr, CausalMatrixBookkeeping) {
  Net net(ProtocolKind::kBhmr, 3);
  const auto& p1 = dynamic_cast<const BhmrProtocol&>(net.at(1));
  // Delivery records the sender-to-self trackable path.
  const MsgId pb = net.send(0, 1);
  net.deliver(pb, 0, 1);
  EXPECT_TRUE(p1.causal_state().get(0, 1));
  // Transitive closure through the sender.
  const MsgId fwd = net.send(1, 2);
  net.deliver(fwd, 1, 2);
  const auto& p2 = dynamic_cast<const BhmrProtocol&>(net.at(2));
  EXPECT_TRUE(p2.causal_state().get(1, 2));
  EXPECT_TRUE(p2.causal_state().get(0, 2));  // closed through P1
  // Checkpoint resets the own row (except the diagonal).
  net.checkpoint(1);
  EXPECT_FALSE(p1.causal_state().get(1, 0));
  EXPECT_TRUE(p1.causal_state().get(1, 1));
}

TEST(Bhmr, SimpleArrayBookkeeping) {
  Net net(ProtocolKind::kBhmr, 3);
  const auto& p1 = dynamic_cast<const BhmrProtocol&>(net.at(1));
  EXPECT_TRUE(p1.simple_state().get(1));  // permanently true
  const MsgId pb = net.send(0, 1);
  net.deliver(pb, 0, 1);
  EXPECT_TRUE(p1.simple_state().get(0));  // [m] alone is simple
  net.checkpoint(1);
  EXPECT_FALSE(p1.simple_state().get(0));  // reset
  EXPECT_TRUE(p1.simple_state().get(1));   // own entry survives
}

TEST(Bhmr, C1OnlyVariantKeepsDiagonalFalse) {
  Net net(ProtocolKind::kBhmrC1Only, 2);
  const MsgId out = net.send(0, 1);
  net.deliver(out, 0, 1);
  const MsgId back = net.send(1, 0);
  net.deliver(back, 1, 0);
  for (ProcessId p = 0; p < 2; ++p) {
    const auto& mat =
        dynamic_cast<const BhmrProtocol&>(net.at(p)).causal_state();
    EXPECT_FALSE(mat.get(0, 0));
    EXPECT_FALSE(mat.get(1, 1));
  }
}

// --------------------------------------------- predicate generality sweep

// Drive two protocols through an identical randomized history. Whenever
// EITHER wants a forced checkpoint, BOTH checkpoint (a checkpoint is always
// legal — it could have been basic), keeping their dependency state aligned
// so the pointwise implication C_general => C_conservative is testable at
// every delivery.
void expect_pointwise_implication(ProtocolKind general,
                                  ProtocolKind conservative,
                                  std::uint64_t seed) {
  const int n = 4;
  Rng rng(seed);
  Net a(general, n);
  Net b(conservative, n);
  struct InFlight {
    MsgId id;  // the same in both nets: they send in lockstep
    ProcessId from, to;
  };
  std::vector<InFlight> flying;
  int deliveries = 0;
  int fires_general = 0;
  for (int step = 0; step < 600; ++step) {
    const auto p = static_cast<ProcessId>(rng.below(n));
    const double roll = rng.uniform();
    if (roll < 0.4) {
      auto to = static_cast<ProcessId>(rng.below(n - 1));
      if (to >= p) ++to;
      const MsgId id = a.send(p, to);
      b.send(p, to);
      flying.push_back({id, p, to});
    } else if (roll < 0.8 && !flying.empty()) {
      const std::size_t pick = rng.index(flying.size());
      const InFlight m = flying[pick];
      flying.erase(flying.begin() + static_cast<std::ptrdiff_t>(pick));
      const bool fa = a.at(m.to).must_force(a.view(m.id), m.from);
      const bool fb = b.at(m.to).must_force(b.view(m.id), m.from);
      if (fa) {
        EXPECT_TRUE(fb) << to_string(general) << " fired but "
                        << to_string(conservative) << " did not (step "
                        << step << ")";
        ++fires_general;
      }
      // The side whose predicate stayed quiet checkpoints too; after it no
      // predicate fires again, so both deliveries merge at aligned state.
      if (fb && !fa) a.checkpoint(m.to);
      if (fa && !fb) b.checkpoint(m.to);
      a.deliver(m.id, m.from, m.to);
      b.deliver(m.id, m.from, m.to);
      ++deliveries;
    } else if (roll < 0.9) {
      a.checkpoint(p);
      b.checkpoint(p);
    }
  }
  EXPECT_GT(deliveries, 50);
}

class Generality
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, std::uint64_t>> {
};

TEST_P(Generality, BhmrFamilyImpliesFdas) {
  expect_pointwise_implication(std::get<0>(GetParam()), ProtocolKind::kFdas,
                               std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, Generality,
    ::testing::Combine(::testing::Values(ProtocolKind::kBhmr,
                                         ProtocolKind::kBhmrNoSimple,
                                         ProtocolKind::kBhmrC1Only),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param)) + "_seed" +
                         std::to_string(std::get<1>(param_info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Generality, FdasImpliesFdiAndNras) {
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    expect_pointwise_implication(ProtocolKind::kFdas, ProtocolKind::kFdi, seed);
    expect_pointwise_implication(ProtocolKind::kFdas, ProtocolKind::kNras, seed);
    expect_pointwise_implication(ProtocolKind::kNras, ProtocolKind::kCbr, seed);
  }
}

}  // namespace
}  // namespace rdt
