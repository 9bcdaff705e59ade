// ProtocolRegistry — the single construction path. Round-trips kind <-> id
// <-> instance, checks the capability metadata against what the instances
// actually report, verifies observer wiring at creation, and cross-checks
// each protocol's declared predicate set (ProtocolInfo::predicates) against
// the ForceReasons a live replay attributes its forced checkpoints to.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "protocols/observer.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/protocol_driver.hpp"
#include "sim/replay.hpp"

namespace rdt {
namespace {

TEST(ProtocolRegistry, CoversAllKindsBaselineFirst) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const std::vector<ProtocolKind>& kinds = all_protocol_kinds();
  ASSERT_EQ(registry.all().size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(registry.all()[i].kind, kinds[i]);
    EXPECT_EQ(registry.all()[i].id, to_string(kinds[i]));
    EXPECT_FALSE(registry.all()[i].description.empty());
  }
}

TEST(ProtocolRegistry, IdRoundTrip) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  for (const ProtocolInfo& info : registry.all()) {
    const ProtocolInfo* found = registry.find(info.id);
    ASSERT_NE(found, nullptr) << info.id;
    EXPECT_EQ(found->kind, info.kind);
    // info() by kind and find() by id agree on one entry.
    EXPECT_EQ(&registry.info(info.kind), found);
    // The string-id factory produces the same protocol.
    const auto p = registry.create(info.id, 4, 2);
    EXPECT_EQ(p->kind(), info.kind);
    EXPECT_EQ(p->self(), 2);
    EXPECT_EQ(p->num_processes(), 4);
  }
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_THROW(registry.create("nope", 2, 0), std::invalid_argument);
}

TEST(ProtocolRegistry, MetadataMatchesInstances) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  for (const ProtocolInfo& info : registry.all()) {
    const auto p = registry.create(info.kind, 5, 0);
    EXPECT_EQ(info.transmits_tdv, p->transmits_tdv()) << info.id;
    EXPECT_EQ(info.checkpoint_after_send, p->checkpoint_after_send())
        << info.id;
    // The declared shape is what the protocol's payload carries.
    EXPECT_TRUE(info.shape == p->payload_shape()) << info.id;
    // The measured figure never exceeds the flat one (a codec that inflates
    // its payload would be a bug), and it vanishes when no channel exists.
    EXPECT_LE(piggyback_bits(info.kind, 5), info.flat_piggyback_bits(5)) << info.id;
    EXPECT_EQ(piggyback_bits(info.kind, 1), 0u) << info.id;
  }
  // The RDT claims: every kind except the no-force baseline and BCS (which
  // only prevents useless checkpoints) ensures RDT.
  EXPECT_FALSE(registry.info(ProtocolKind::kNoForce).ensures_rdt);
  EXPECT_FALSE(registry.info(ProtocolKind::kBcs).ensures_rdt);
  for (ProtocolKind kind : rdt_protocol_kinds())
    EXPECT_TRUE(registry.info(kind).ensures_rdt) << to_string(kind);
}

// The declared codec resolves per process count: delta is capped at
// kMaxDeltaProcesses, so past it the measured figure comes from sparse and
// experiment E5's n = 128 row exists for every kind.
TEST(ProtocolRegistry, PiggybackBitsPastTheDeltaCap) {
  for (const ProtocolInfo& info : ProtocolRegistry::instance().all()) {
    const bool carries = info.shape.tdv || info.shape.simple || info.shape.causal ||
                         info.shape.index;
    for (int n : {kMaxDeltaProcesses, kMaxDeltaProcesses + 1, 2 * kMaxDeltaProcesses}) {
      SCOPED_TRACE(info.id + " n=" + std::to_string(n));
      const bool falls_back = info.codec == PiggybackCodecKind::kDelta && n > kMaxDeltaProcesses;
      EXPECT_EQ(info.codec_for(n), falls_back ? PiggybackCodecKind::kSparse : info.codec);
      std::size_t bits = 0;
      EXPECT_NO_THROW(bits = piggyback_bits(info.kind, n));
      EXPECT_EQ(bits > 0, carries);
    }
  }
}

TEST(ProtocolRegistry, DeclaredPredicates) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  auto predicates = [&](ProtocolKind kind) {
    return registry.info(kind).predicates;
  };
  using enum ForceReason;
  EXPECT_TRUE(predicates(ProtocolKind::kNoForce).empty());
  EXPECT_EQ(predicates(ProtocolKind::kCbr),
            (std::vector<ForceReason>{kEveryDelivery}));
  EXPECT_EQ(predicates(ProtocolKind::kCas),
            (std::vector<ForceReason>{kCheckpointAfterSend}));
  EXPECT_EQ(predicates(ProtocolKind::kNras),
            (std::vector<ForceReason>{kAfterSend}));
  EXPECT_EQ(predicates(ProtocolKind::kFdi),
            (std::vector<ForceReason>{kNewDependency}));
  EXPECT_EQ(predicates(ProtocolKind::kFdas),
            (std::vector<ForceReason>{kNewDependency}));
  // C1 before C2: the priority the protocol reports reasons in.
  EXPECT_EQ(predicates(ProtocolKind::kBhmr),
            (std::vector<ForceReason>{kC1, kC2}));
  EXPECT_EQ(predicates(ProtocolKind::kBhmrNoSimple),
            (std::vector<ForceReason>{kC1, kC2}));
  EXPECT_EQ(predicates(ProtocolKind::kBhmrC1Only),
            (std::vector<ForceReason>{kC1}));
  EXPECT_EQ(predicates(ProtocolKind::kBcs),
            (std::vector<ForceReason>{kIndexAhead}));
}

TEST(ProtocolRegistry, ForceReasonIdsAreStableAndDistinct) {
  std::set<std::string> ids;
  for (std::size_t i = 0; i < kNumForceReasons; ++i)
    ids.insert(to_cstring(static_cast<ForceReason>(i)));
  EXPECT_EQ(ids.size(), kNumForceReasons);  // distinct, non-empty
  EXPECT_STREQ(to_cstring(ForceReason::kNone), "none");
  EXPECT_STREQ(to_cstring(ForceReason::kC1), "c1");
  EXPECT_STREQ(to_cstring(ForceReason::kC2), "c2");
}

TEST(ProtocolRegistry, ObserverIsWiredAtCreation) {
  CountingObserver counting;
  PayloadArena arena;
  ProtocolDriver driver(ProtocolKind::kCbr, 2, 1, PiggybackCodecKind::kFlat,
                        arena, &counting, /*save_tdv_history=*/true);
  EXPECT_EQ(driver.protocol(0).observer(), &counting);
  driver.send(0, 1, 0);
  EXPECT_TRUE(driver.deliver(0, 1, 0));  // CBR forces before every delivery
  driver.basic_checkpoint(1);

  EXPECT_EQ(counting.sends(), 1);
  EXPECT_EQ(counting.deliveries(), 1);
  EXPECT_EQ(counting.forced(), 1);
  EXPECT_EQ(counting.basic(), 1);
  EXPECT_EQ(counting.forced_by(ForceReason::kEveryDelivery), 1);
  EXPECT_EQ(counting.forced_by(ForceReason::kC1), 0);
}

TEST(ProtocolRegistry, NoObserverByDefault) {
  const auto p =
      ProtocolRegistry::instance().create(ProtocolKind::kBhmr, 3, 0);
  EXPECT_EQ(p->observer(), nullptr);
}

// Live cross-check of the declared predicate sets: replay every protocol
// over a random environment and require (a) the per-reason attribution to
// account for every forced checkpoint and (b) every reason that fired to
// be declared in ProtocolInfo::predicates.
TEST(ProtocolRegistry, ReplayReasonsStayWithinDeclaredPredicates) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  RandomEnvConfig cfg;
  cfg.num_processes = 6;
  cfg.duration = 200;
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 7;
  const Trace trace = random_environment(cfg);
  for (const ProtocolInfo& info : registry.all()) {
    SCOPED_TRACE(info.id);
    const ReplayResult r = replay(trace, info.kind);
    const long long attributed =
        std::accumulate(r.forced_by_reason.begin(), r.forced_by_reason.end(),
                        0ll);
    EXPECT_EQ(attributed, r.forced);
    EXPECT_EQ(r.forced_by(ForceReason::kNone), 0);
    for (std::size_t i = 0; i < kNumForceReasons; ++i) {
      const auto reason = static_cast<ForceReason>(i);
      if (r.forced_by(reason) == 0) continue;
      EXPECT_NE(std::find(info.predicates.begin(), info.predicates.end(),
                          reason),
                info.predicates.end())
          << "undeclared predicate " << to_cstring(reason);
    }
  }
}

// The replay engine's per-reason counters and an installed observer see
// the same events — one stream, two consumers.
TEST(ProtocolRegistry, ReplayObserverAgreesWithReplayCounters) {
  RandomEnvConfig cfg;
  cfg.num_processes = 5;
  cfg.duration = 150;
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 3;
  const Trace trace = random_environment(cfg);
  for (ProtocolKind kind :
       {ProtocolKind::kBhmr, ProtocolKind::kFdas, ProtocolKind::kCas,
        ProtocolKind::kBcs}) {
    SCOPED_TRACE(to_string(kind));
    CountingObserver counting;
    ReplayOptions options;
    options.observer = &counting;
    const ReplayResult r = replay(trace, kind, options);
    EXPECT_EQ(counting.sends(), r.messages);
    EXPECT_EQ(counting.deliveries(), r.messages);
    EXPECT_EQ(counting.forced(), r.forced);
    EXPECT_EQ(counting.basic(), r.basic);
    for (std::size_t i = 0; i < kNumForceReasons; ++i) {
      const auto reason = static_cast<ForceReason>(i);
      EXPECT_EQ(counting.forced_by(reason), r.forced_by(reason))
          << to_cstring(reason);
    }
  }
}

}  // namespace
}  // namespace rdt
