// The discrete-event runtime: determinism, middleware interposition, the
// application semantics surviving the protocol, and end-to-end RDT
// enforcement for live applications (not replayed traces).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rdt_checker.hpp"
#include "core/tdv.hpp"
#include "des/apps.hpp"
#include "des/simulator.hpp"
#include "golden_hash.hpp"
#include "recovery/recovery_line.hpp"

namespace rdt {
namespace {

using des::SimConfig;
using des::SimResult;

SimConfig base_config(ProtocolKind kind, std::uint64_t seed,
                      double horizon = 60.0) {
  SimConfig cfg;
  cfg.protocol = kind;
  cfg.horizon = horizon;
  cfg.seed = seed;
  return cfg;
}

TEST(Des, DeterministicPerSeed) {
  auto stats1 = std::make_shared<des::TokenRingStats>();
  auto stats2 = std::make_shared<des::TokenRingStats>();
  const SimResult a = des::run_simulation(
      5, des::token_ring_app(stats1), base_config(ProtocolKind::kBhmr, 7));
  const SimResult b = des::run_simulation(
      5, des::token_ring_app(stats2), base_config(ProtocolKind::kBhmr, 7));
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.basic, b.basic);
  EXPECT_EQ(a.forced, b.forced);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(stats1->token_hops, stats2->token_hops);
  EXPECT_EQ(stats1->gossips, stats2->gossips);
}

TEST(Des, DifferentSeedsDiverge) {
  auto stats = std::make_shared<des::TokenRingStats>();
  const SimResult a = des::run_simulation(
      5, des::token_ring_app(stats), base_config(ProtocolKind::kBhmr, 1));
  const SimResult b = des::run_simulation(
      5, des::token_ring_app(stats), base_config(ProtocolKind::kBhmr, 2));
  EXPECT_NE(a.messages, b.messages);
}

TEST(Des, TokenRingSemanticsSurviveTheMiddleware) {
  auto stats = std::make_shared<des::TokenRingStats>();
  const SimResult r = des::run_simulation(
      6, des::token_ring_app(stats, /*work_mean=*/0.4, /*gossip_prob=*/0.3,
                             /*ckpt_every=*/3),
      base_config(ProtocolKind::kFdas, 3, 80.0));
  // Exactly one token: hops + gossips account for every message sent, save
  // at most the one token in flight when the horizon froze the application.
  const long long accounted = stats->token_hops + stats->gossips;
  EXPECT_GE(r.messages, accounted);
  EXPECT_LE(r.messages - accounted, 1);
  EXPECT_GT(stats->token_hops, 50);
  // The app checkpoints every 3rd receipt (plus nothing else; no Poisson).
  EXPECT_NEAR(static_cast<double>(r.basic),
              static_cast<double>(stats->token_hops) / 3.0, 4.0);
}

TEST(Des, CooldownFreezesTheApplication) {
  // All application activity stops at the horizon: the last send time is
  // bounded by it, while deliveries may trail in.
  auto stats = std::make_shared<des::GossipStats>();
  const SimResult r = des::run_simulation(
      4, des::gossip_app(stats), base_config(ProtocolKind::kNras, 5, 30.0));
  EXPECT_GT(r.end_time, 30.0);  // trailing deliveries
  // Pattern is a complete computation: every message delivered (otherwise
  // PatternBuilder::build inside the runtime would have thrown).
  EXPECT_EQ(r.pattern.num_messages(), r.messages);
}

TEST(Des, PoissonBasicCheckpointsWhenConfigured) {
  auto stats = std::make_shared<des::GossipStats>();
  SimConfig cfg = base_config(ProtocolKind::kNoForce, 11, 100.0);
  cfg.basic_ckpt_mean = 5.0;
  // ckpt_prob = 0: only the runtime's Poisson checkpoints fire,
  // ~ horizon / mean per process = 80 total.
  const SimResult r = des::run_simulation(
      4, des::gossip_app(stats, 1.0, 0.4, /*ckpt_prob=*/0.0), cfg);
  EXPECT_NEAR(static_cast<double>(r.basic), 80.0, 30.0);
}

TEST(Des, RequestChainIsSynchronous) {
  auto stats = std::make_shared<des::RequestChainStats>();
  const SimResult r = des::run_simulation(
      5, des::request_chain_app(stats), base_config(ProtocolKind::kBhmr, 13, 120.0));
  EXPECT_GT(stats->requests, 10);
  // One outstanding request: replies never outnumber requests, and at most
  // one request is cut off by the horizon.
  EXPECT_LE(stats->replies_to_client, stats->requests);
  EXPECT_GE(stats->replies_to_client, stats->requests - 1);
}

TEST(Des, PingPongUnderNoForceDominos) {
  SimConfig cfg = base_config(ProtocolKind::kNoForce, 17, 40.0);
  const SimResult r = des::run_simulation(2, des::ping_pong_app(), cfg);
  EXPECT_FALSE(satisfies_rdt(r.pattern));
  const RecoveryOutcome out = recover_after_failure(r.pattern, 0);
  EXPECT_DOUBLE_EQ(out.worst_fraction, 1.0);  // full domino
}

TEST(Des, PingPongUnderBhmrIsSafe) {
  SimConfig cfg = base_config(ProtocolKind::kBhmr, 17, 40.0);
  const SimResult r = des::run_simulation(2, des::ping_pong_app(), cfg);
  EXPECT_TRUE(satisfies_rdt(r.pattern));
  EXPECT_LE(recover_after_failure(r.pattern, 0).total_rollback, 2);
}

// End-to-end enforcement across live applications and protocols.
class DesEnforcement
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int>> {};

TEST_P(DesEnforcement, LiveApplicationsSatisfyRdt) {
  const auto [kind, app] = GetParam();
  SimConfig cfg = base_config(kind, 23, 50.0);
  cfg.basic_ckpt_mean = 6.0;  // extra independent checkpoints in the mix
  SimResult r;
  switch (app) {
    case 0:
      r = des::run_simulation(
          5, des::token_ring_app(std::make_shared<des::TokenRingStats>()), cfg);
      break;
    case 1:
      r = des::run_simulation(
          5, des::gossip_app(std::make_shared<des::GossipStats>()), cfg);
      break;
    default:
      r = des::run_simulation(
          5, des::request_chain_app(std::make_shared<des::RequestChainStats>()),
          cfg);
  }
  const RdtReport report = analyze_rdt(r.pattern);
  EXPECT_TRUE(report.definitional.ok) << report.summary();
  EXPECT_TRUE(report.vcm.ok);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, DesEnforcement,
    ::testing::Combine(::testing::ValuesIn(rdt_protocol_kinds()),
                       ::testing::Values(0, 1, 2)),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param)) + "_app" +
                         std::to_string(std::get<1>(param_info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Des, SavedTdvsMatchOfflineAnalysis) {
  auto stats = std::make_shared<des::TokenRingStats>();
  SimConfig cfg = base_config(ProtocolKind::kBhmr, 31, 60.0);
  const SimResult r = des::run_simulation(4, des::token_ring_app(stats), cfg);
  const TdvAnalysis offline(r.pattern);
  for (ProcessId i = 0; i < r.pattern.num_processes(); ++i) {
    const auto& saved = r.saved_tdvs[static_cast<std::size_t>(i)];
    for (CkptIndex x = 0; x < static_cast<CkptIndex>(saved.size()); ++x)
      EXPECT_EQ(saved[static_cast<std::size_t>(x)], offline.at_ckpt({i, x}));
  }
}

// Pinned outputs of every bundled app under four protocols at a fixed seed:
// the counters, the per-predicate breakdown, and hashes of the saved TDVs
// and of each process's event sequence. Any change to how the runtime
// drives the protocol (or records the pattern) shows up here.
std::string golden_line(const SimResult& r) {
  test::Fnv1a tdvs;
  for (const auto& row : r.saved_tdvs) {
    tdvs.add(row.size());
    for (const Tdv& tdv : row)
      for (const CkptIndex x : tdv) tdvs.add(static_cast<std::uint64_t>(x));
  }
  test::Fnv1a events;
  for (ProcessId p = 0; p < r.pattern.num_processes(); ++p) {
    events.add(static_cast<std::uint64_t>(r.pattern.num_events(p)));
    for (EventIndex e = 0; e < r.pattern.num_events(p); ++e) {
      const Event& ev = r.pattern.event(p, e);
      events.add(static_cast<std::uint64_t>(ev.kind));
      events.add(static_cast<std::uint64_t>(ev.msg));
      events.add(static_cast<std::uint64_t>(ev.ckpt));
    }
  }
  std::string reasons;
  for (std::size_t k = 1; k < kNumForceReasons; ++k)
    if (r.forced_by_reason[k] != 0)
      reasons += std::string(to_cstring(static_cast<ForceReason>(k))) + "=" +
                 std::to_string(r.forced_by_reason[k]) + " ";
  return "msgs=" + std::to_string(r.messages) +
         " basic=" + std::to_string(r.basic) +
         " forced=" + std::to_string(r.forced) + " [" + reasons +
         "] tdvs=" + tdvs.hex() + " events=" + events.hex();
}

TEST(DesGolden, BundledAppsMatchPinnedOutputs) {
  struct App {
    const char* name;
    int processes;
    std::function<des::AppFactory()> make;
  };
  const std::vector<App> apps = {
      {"token_ring", 5,
       [] { return des::token_ring_app(std::make_shared<des::TokenRingStats>()); }},
      {"gossip", 5,
       [] { return des::gossip_app(std::make_shared<des::GossipStats>()); }},
      {"request_chain", 5,
       [] {
         return des::request_chain_app(
             std::make_shared<des::RequestChainStats>());
       }},
      {"ping_pong", 2, [] { return des::ping_pong_app(); }},
  };
  const std::vector<std::string> expected = {
      "token_ring nras: msgs=39 basic=38 forced=14 [after-send=14 ] tdvs=0x40d69e0cf0f65c45 events=0x396ffe2b0d5f1f97",
      "token_ring bcs: msgs=39 basic=38 forced=30 [index-ahead=30 ] tdvs=0x40d69e0cf0f65c45 events=0xb87409bb081b5b0b",
      "token_ring fdas: msgs=39 basic=38 forced=14 [new-dependency=14 ] tdvs=0x024e9abaa42b7423 events=0x7934fbb905334587",
      "token_ring bhmr: msgs=39 basic=38 forced=14 [c1=14 ] tdvs=0x024e9abaa42b7423 events=0x7934fbb905334587",
      "gossip nras: msgs=304 basic=88 forced=165 [after-send=165 ] tdvs=0x40d69e0cf0f65c45 events=0x8280d357d7a32272",
      "gossip bcs: msgs=304 basic=88 forced=65 [index-ahead=65 ] tdvs=0x40d69e0cf0f65c45 events=0xa59713bbc0146ddb",
      "gossip fdas: msgs=304 basic=88 forced=134 [new-dependency=134 ] tdvs=0x6f2d21adb5c7b672 events=0xa9e0689cbfc8dc6e",
      "gossip bhmr: msgs=304 basic=88 forced=117 [c1=116 c2=1 ] tdvs=0x630a08e16354ebb0 events=0x960e90e0b8cab687",
      "request_chain nras: msgs=22 basic=30 forced=13 [after-send=13 ] tdvs=0x40d69e0cf0f65c45 events=0x052080df56ae3089",
      "request_chain bcs: msgs=22 basic=30 forced=4 [index-ahead=4 ] tdvs=0x40d69e0cf0f65c45 events=0x2013a2bb253d8650",
      "request_chain fdas: msgs=22 basic=30 forced=13 [new-dependency=13 ] tdvs=0xc799a00dd6ddd2cd events=0x052080df56ae3089",
      "request_chain bhmr: msgs=22 basic=30 forced=3 [c2=3 ] tdvs=0xa1c316ca470c9e88 events=0x56d848ce214cb9b3",
      "ping_pong nras: msgs=63 basic=74 forced=52 [after-send=52 ] tdvs=0x88201fb960ff6465 events=0x92a0e26ae4c315c9",
      "ping_pong bcs: msgs=63 basic=74 forced=52 [index-ahead=52 ] tdvs=0x88201fb960ff6465 events=0x92a0e26ae4c315c9",
      "ping_pong fdas: msgs=63 basic=74 forced=52 [new-dependency=52 ] tdvs=0x391de22531939afc events=0x92a0e26ae4c315c9",
      "ping_pong bhmr: msgs=63 basic=74 forced=52 [c2=52 ] tdvs=0x391de22531939afc events=0x92a0e26ae4c315c9",
  };
  std::vector<std::string> got;
  for (const App& app : apps)
    for (const ProtocolKind kind : {ProtocolKind::kNras, ProtocolKind::kBcs,
                                    ProtocolKind::kFdas, ProtocolKind::kBhmr}) {
      SimConfig cfg = base_config(kind, 5, 40.0);
      cfg.basic_ckpt_mean = 6.0;
      got.push_back(std::string(app.name) + " " + to_string(kind) + ": " +
                    golden_line(des::run_simulation(app.processes, app.make(),
                                                    cfg)));
    }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

// An app addressing itself or a process that does not exist is rejected
// at the send, before the message enters the run.
TEST(Des, SendNeedsAnotherProcess) {
  struct Sender final : des::ProcessApp {
    explicit Sender(ProcessId peer) : to(peer) {}
    void start(des::Context& ctx) override { ctx.send(to, 0); }
    ProcessId to;
  };
  for (const ProcessId to : {0, 2, -1}) {
    const des::AppFactory factory = [to](ProcessId) {
      return std::make_unique<Sender>(to);
    };
    EXPECT_THROW(des::run_simulation(2, factory, SimConfig{}),
                 std::invalid_argument);
  }
}

TEST(Des, ConfigValidation) {
  auto factory = des::ping_pong_app();
  SimConfig cfg;
  cfg.horizon = 0;
  EXPECT_THROW(des::run_simulation(2, factory, cfg), std::invalid_argument);
  cfg = SimConfig{};
  EXPECT_THROW(des::run_simulation(0, factory, cfg), std::invalid_argument);
  // Ping-pong itself rejects a wrong process count at start().
  EXPECT_THROW(des::run_simulation(3, factory, SimConfig{}),
               std::invalid_argument);
  EXPECT_THROW(des::token_ring_app(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace rdt
