// Integration tests: environments -> replay -> offline RDT analysis. This
// is where the paper's central claims are checked end to end: every
// protocol in the RDT family produces RDT (indeed visibly-doubled)
// patterns; the basic-only baseline does not; the protocols' conservatism
// is ordered; the on-the-fly Corollary 4.5 output matches the offline
// computation.
#include <gtest/gtest.h>

#include "ccp/shrink.hpp"
#include "core/rdt_checker.hpp"
#include "core/global_checkpoint.hpp"
#include "core/tdv.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "sim/runner.hpp"

namespace rdt {
namespace {

Trace small_random_trace(std::uint64_t seed, int n = 4, double duration = 120) {
  RandomEnvConfig cfg;
  cfg.num_processes = n;
  cfg.duration = duration;
  cfg.basic_ckpt_mean = 8.0;
  cfg.send_gap_mean = 1.0;
  cfg.seed = seed;
  return random_environment(cfg);
}

TEST(Replay, PatternMirrorsTrace) {
  const Trace t = small_random_trace(1);
  const ReplayResult r = replay(t, ProtocolKind::kNoForce);
  EXPECT_EQ(r.pattern.num_processes(), t.num_processes);
  EXPECT_EQ(r.pattern.num_messages(), t.num_messages());
  EXPECT_EQ(r.messages, t.num_messages());
  EXPECT_EQ(r.basic, t.basic_ckpts());
  EXPECT_EQ(r.forced, 0);
  // Message endpoints survive the translation.
  for (MsgId m = 0; m < t.num_messages(); ++m) {
    EXPECT_EQ(r.pattern.message(m).sender,
              t.messages[static_cast<std::size_t>(m)].sender);
    EXPECT_EQ(r.pattern.message(m).receiver,
              t.messages[static_cast<std::size_t>(m)].receiver);
  }
}

TEST(Replay, DeterministicPerTrace) {
  const Trace t = small_random_trace(2);
  const ReplayResult a = replay(t, ProtocolKind::kBhmr);
  const ReplayResult b = replay(t, ProtocolKind::kBhmr);
  EXPECT_EQ(a.forced, b.forced);
  EXPECT_EQ(a.basic, b.basic);
  EXPECT_EQ(a.saved_tdvs, b.saved_tdvs);
}

TEST(Replay, CbrForcesPerDeliveryAndCasPerSend) {
  const Trace t = small_random_trace(3);
  EXPECT_EQ(replay(t, ProtocolKind::kCbr).forced, t.num_messages());
  EXPECT_EQ(replay(t, ProtocolKind::kCas).forced, t.num_messages());
}

TEST(Replay, PiggybackAccounting) {
  const Trace t = small_random_trace(4);
  EXPECT_EQ(replay(t, ProtocolKind::kNras).flat_bits_per_message(), 0.0);
  EXPECT_EQ(replay(t, ProtocolKind::kFdas).flat_bits_per_message(),
            32.0 * t.num_processes);
  const double bhmr = replay(t, ProtocolKind::kBhmr).flat_bits_per_message();
  EXPECT_EQ(bhmr, 32.0 * t.num_processes + t.num_processes +
                      t.num_processes * t.num_processes);
  // Every replay measures wire bits; the default codec is the declared one.
  const PiggybackCodecKind codec = ProtocolRegistry::instance().info(ProtocolKind::kBhmr).codec;
  const ReplayResult by_default = replay(t, ProtocolKind::kBhmr);
  const ReplayResult declared = replay(t, ProtocolKind::kBhmr, {.wire_codec = codec});
  EXPECT_EQ(by_default.wire_bits_total, declared.wire_bits_total);
  EXPECT_GT(by_default.wire_bits_per_message(), 0.0);
}

// Past kMaxDeltaProcesses a declared delta codec falls back to sparse, so
// every kind replays a 65-process trace by default, and the codec changes
// no counter: each matches the flat reference replay.
TEST(Replay, DefaultCodecPastTheDeltaCapMatchesFlat) {
  const Trace t = small_random_trace(6, kMaxDeltaProcesses + 1, 4);
  ASSERT_GT(t.num_messages(), 0);
  for (ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult by_default = replay_metrics(t, kind);
    const ReplayResult flat = replay_metrics(t, kind, nullptr, PiggybackCodecKind::kFlat);
    EXPECT_EQ(by_default.messages, flat.messages);
    EXPECT_EQ(by_default.basic, flat.basic);
    EXPECT_EQ(by_default.forced, flat.forced);
    EXPECT_EQ(by_default.forced_by_reason, flat.forced_by_reason);
    EXPECT_EQ(by_default.flat_bits_total, flat.flat_bits_total);
  }
}

// Replay inherits the codecs' kMaxCodecProcesses cap.
TEST(Replay, RejectsTracesPastTheCodecCap) {
  Trace t;
  t.num_processes = kMaxCodecProcesses + 1;
  EXPECT_THROW(replay(t, ProtocolKind::kBhmr), std::invalid_argument);
  EXPECT_THROW(replay_metrics(t, ProtocolKind::kFdas, nullptr, PiggybackCodecKind::kFlat),
               std::invalid_argument);
}

// --- the central integration sweep: protocol x environment x seed ---------

enum class Env { kRandom, kRandomFifo, kGroup, kClientServer };

std::string env_name(Env e) {
  switch (e) {
    case Env::kRandom: return "random";
    case Env::kRandomFifo: return "randomfifo";
    case Env::kGroup: return "group";
    case Env::kClientServer: return "clientserver";
  }
  return "?";
}

Trace make_env_trace(Env e, std::uint64_t seed) {
  switch (e) {
    case Env::kRandom:
    case Env::kRandomFifo: {
      RandomEnvConfig cfg;
      cfg.num_processes = 5;
      cfg.duration = 80;
      cfg.basic_ckpt_mean = 6.0;
      cfg.fifo_channels = e == Env::kRandomFifo;
      cfg.seed = seed;
      return random_environment(cfg);
    }
    case Env::kGroup: {
      GroupEnvConfig cfg;
      cfg.num_groups = 3;
      cfg.group_size = 3;
      cfg.overlap = 1;
      cfg.duration = 60;
      cfg.basic_ckpt_mean = 6.0;
      cfg.seed = seed;
      return group_environment(cfg);
    }
    case Env::kClientServer: {
      ClientServerEnvConfig cfg;
      cfg.num_servers = 4;
      cfg.num_requests = 40;
      cfg.basic_ckpt_mean = 6.0;
      cfg.seed = seed;
      return client_server_environment(cfg);
    }
  }
  throw std::logic_error("unreachable");
}

class RdtEnforcement
    : public ::testing::TestWithParam<
          std::tuple<ProtocolKind, Env, std::uint64_t>> {};

TEST_P(RdtEnforcement, ProtocolOutputSatisfiesRdtAndVisibility) {
  const auto [kind, env, seed] = GetParam();
  const Trace trace = make_env_trace(env, seed);
  const ReplayResult result = replay(trace, kind);
  const RdtReport report = analyze_rdt(result.pattern);
  EXPECT_TRUE(report.definitional.ok) << report.summary();
  EXPECT_TRUE(report.mm.ok);
  // The enforced property is in fact the visible one.
  EXPECT_TRUE(report.vcm.ok) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RdtEnforcement,
    ::testing::Combine(
        ::testing::ValuesIn(rdt_protocol_kinds()),
        ::testing::Values(Env::kRandom, Env::kRandomFifo, Env::kGroup,
                          Env::kClientServer),
        ::testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param)) + "_" +
                         env_name(std::get<1>(param_info.param)) + "_s" +
                         std::to_string(std::get<2>(param_info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(RdtEnforcement, NoForceBaselineViolatesRdtSomewhere) {
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ReplayResult r =
        replay(make_env_trace(Env::kRandom, seed), ProtocolKind::kNoForce);
    violations += !satisfies_rdt(r.pattern);
  }
  EXPECT_GE(violations, 5);  // independent checkpointing almost always breaks
}

TEST(Ordering, ConservatismAcrossProtocolsOnSharedTraces) {
  // Run-for-run on identical traces, the documented generality order must
  // show up as forced-checkpoint counts: BHMR <= V1 <= FDAS (V1 differs
  // from FDAS only by C1's sibling knowledge and C2' subsuming), and
  // FDAS <= FDI <= CBR; NRAS <= CBR.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace t = small_random_trace(seed, 5, 100);
    const auto forced = [&](ProtocolKind kind) {
      return replay(t, kind).forced;
    };
    const long long bhmr = forced(ProtocolKind::kBhmr);
    const long long v1 = forced(ProtocolKind::kBhmrNoSimple);
    const long long v2 = forced(ProtocolKind::kBhmrC1Only);
    const long long fdas = forced(ProtocolKind::kFdas);
    const long long fdi = forced(ProtocolKind::kFdi);
    const long long cbr = forced(ProtocolKind::kCbr);
    const long long nras = forced(ProtocolKind::kNras);
    EXPECT_LE(bhmr, fdas) << "seed " << seed;
    EXPECT_LE(v1, fdas) << "seed " << seed;
    EXPECT_LE(v2, fdas) << "seed " << seed;
    EXPECT_LE(fdas, fdi) << "seed " << seed;
    EXPECT_LE(fdi, cbr) << "seed " << seed;
    EXPECT_LE(nras, cbr) << "seed " << seed;
    EXPECT_LE(bhmr, v1) << "seed " << seed;
  }
}

TEST(Corollary45, OnTheFlyMatchesOfflineForTdvProtocols) {
  for (ProtocolKind kind : {ProtocolKind::kFdas, ProtocolKind::kBhmr,
                            ProtocolKind::kBhmrNoSimple}) {
    const Trace t = small_random_trace(77, 4, 60);
    const ReplayResult r = replay(t, kind);
    const TdvAnalysis offline_tdv(r.pattern);
    for (ProcessId i = 0; i < r.pattern.num_processes(); ++i) {
      const auto& saved = r.saved_tdvs[static_cast<std::size_t>(i)];
      for (CkptIndex x = 0; x < static_cast<CkptIndex>(saved.size()); ++x) {
        // The protocol's saved vector equals the offline replayed one.
        EXPECT_EQ(saved[static_cast<std::size_t>(x)],
                  offline_tdv.at_ckpt({i, x}))
            << to_string(kind) << " C(" << i << ',' << x << ")";
        // And it is the true minimum consistent global checkpoint.
        GlobalCkpt claimed;
        claimed.indices = saved[static_cast<std::size_t>(x)];
        claimed.indices[static_cast<std::size_t>(i)] = x;
        const std::vector<CkptId> pins{{i, x}};
        const auto offline = min_consistent_containing(r.pattern, pins);
        ASSERT_TRUE(offline.has_value());
        EXPECT_EQ(claimed, *offline) << to_string(kind);
      }
    }
  }
}

TEST(Runner, SweepAggregatesAcrossSeeds) {
  const std::vector<ProtocolKind> kinds{ProtocolKind::kFdas,
                                        ProtocolKind::kBhmr};
  const auto stats = sweep(
      [](std::uint64_t seed) { return small_random_trace(seed, 4, 60); },
      kinds, 5, /*threads=*/1, /*seed0=*/100);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].kind, ProtocolKind::kFdas);
  EXPECT_EQ(stats[0].r_forced_per_basic.count, 5u);
  EXPECT_GT(stats[0].total_messages, 0);
  EXPECT_EQ(stats[0].total_messages, stats[1].total_messages);
  EXPECT_LE(stats[1].total_forced, stats[0].total_forced);
  const std::optional<double> reduction = forced_reduction_percent(
      stats, ProtocolKind::kBhmr, ProtocolKind::kFdas);
  ASSERT_TRUE(reduction.has_value());
  EXPECT_GE(*reduction, 0.0);
  EXPECT_THROW(
      forced_reduction_percent(stats, ProtocolKind::kCbr, ProtocolKind::kFdas),
      std::invalid_argument);
}

TEST(Runner, ForcedReductionSignalsUndefinedBaseline) {
  // Hand-built sweep results: the baseline forced nothing. A protocol that
  // also forced nothing reduces by 0%; one that forced checkpoints the
  // baseline avoided has no meaningful percentage (previously this was
  // silently reported as 0.0 too).
  std::vector<ProtocolStats> stats(3);
  stats[0].kind = ProtocolKind::kNoForce;
  stats[0].total_forced = 0;
  stats[1].kind = ProtocolKind::kCbr;
  stats[1].total_forced = 7;
  stats[2].kind = ProtocolKind::kFdas;
  stats[2].total_forced = 0;

  EXPECT_EQ(forced_reduction_percent(stats, ProtocolKind::kCbr,
                                     ProtocolKind::kNoForce),
            std::nullopt);
  EXPECT_EQ(forced_reduction_percent(stats, ProtocolKind::kFdas,
                                     ProtocolKind::kNoForce),
            std::optional<double>(0.0));
}

TEST(Replay, ForcedCheckpointInventoryIsExact) {
  const Trace t = small_random_trace(5, 4, 60);
  for (ProtocolKind kind : {ProtocolKind::kCbr, ProtocolKind::kFdas,
                            ProtocolKind::kBhmr, ProtocolKind::kNoForce}) {
    const ReplayResult r = replay(t, kind);
    EXPECT_EQ(static_cast<long long>(r.forced_ckpts.size()), r.forced);
    for (const CkptId& c : r.forced_ckpts) {
      EXPECT_GE(c.index, 1);
      EXPECT_LE(c.index, r.pattern.last_ckpt(c.process));
      EXPECT_FALSE(r.pattern.ckpt_is_virtual(c.process, c.index));
    }
  }
}

TEST(Hindsight, WasteShrinksWithPiggybackedKnowledge) {
  // E12 in miniature: removing any single forced checkpoint of a protocol
  // run and re-checking RDT measures how conservative the on-line decision
  // was. CBR (blind) must waste more than FDAS, which must waste at least
  // as much as the full BHMR protocol.
  auto waste = [](ProtocolKind kind) {
    long long forced = 0;
    long long removable = 0;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const ReplayResult run = replay(small_random_trace(seed, 4, 30), kind);
      forced += static_cast<long long>(run.forced_ckpts.size());
      for (const CkptId& c : run.forced_ckpts)
        removable += satisfies_rdt(drop_elements(run.pattern, {}, {c}));
    }
    return std::pair{removable, forced};
  };
  const auto [cbr_rm, cbr_f] = waste(ProtocolKind::kCbr);
  const auto [fdas_rm, fdas_f] = waste(ProtocolKind::kFdas);
  const auto [bhmr_rm, bhmr_f] = waste(ProtocolKind::kBhmr);
  ASSERT_GT(cbr_f, 0);
  ASSERT_GT(fdas_f, 0);
  const double cbr = static_cast<double>(cbr_rm) / static_cast<double>(cbr_f);
  const double fdas =
      static_cast<double>(fdas_rm) / static_cast<double>(fdas_f);
  const double bhmr =
      bhmr_f > 0 ? static_cast<double>(bhmr_rm) / static_cast<double>(bhmr_f)
                 : 0.0;
  EXPECT_GT(cbr, fdas);
  EXPECT_GE(fdas + 0.05, bhmr);  // small tolerance: single-removal metric
}

// The single-thread run on the calling thread and any worker count fold
// per-seed rows in the same seed order.
TEST(Runner, ParallelSweepIsBitIdenticalToSerial) {
  const std::vector<ProtocolKind> kinds{ProtocolKind::kFdas,
                                        ProtocolKind::kBhmr,
                                        ProtocolKind::kNras};
  auto generate = [](std::uint64_t seed) {
    return small_random_trace(seed, 4, 50);
  };
  const auto serial = sweep(generate, kinds, 8, /*threads=*/1, /*seed0=*/42);
  for (int threads : {2, 4, 16}) {
    const auto parallel = sweep(generate, kinds, 8, threads, /*seed0=*/42);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].kind, serial[i].kind);
      EXPECT_EQ(parallel[i].total_forced, serial[i].total_forced);
      EXPECT_EQ(parallel[i].total_basic, serial[i].total_basic);
      EXPECT_DOUBLE_EQ(parallel[i].r_forced_per_basic.mean,
                       serial[i].r_forced_per_basic.mean);
      EXPECT_DOUBLE_EQ(parallel[i].r_forced_per_basic.stddev,
                       serial[i].r_forced_per_basic.stddev);
    }
  }
}

TEST(Runner, SweepReportsTheCodecItRan) {
  // BHMR declares the delta codec, which stops at kMaxDeltaProcesses; the
  // sweep's row names the codec its replays actually used.
  const std::vector<ProtocolKind> kinds{ProtocolKind::kBhmr};
  const auto at = [&](int n) {
    return sweep([n](std::uint64_t s) { return small_random_trace(s, n, 4); },
                 kinds, 2, /*threads=*/1)
        .front()
        .codec;
  };
  EXPECT_EQ(at(8), PiggybackCodecKind::kDelta);
  EXPECT_EQ(at(65), PiggybackCodecKind::kSparse);
  // One row, one codec: seeds whose traces differ in size are rejected.
  const auto mixed = [](std::uint64_t s) {
    return small_random_trace(s, s == 1 ? 8 : 65, 4);
  };
  EXPECT_THROW(sweep(mixed, kinds, 2, /*threads=*/1), std::invalid_argument);
}

TEST(Runner, RejectsBadArguments) {
  const auto generate = [](std::uint64_t s) { return small_random_trace(s); };
  const std::vector<ProtocolKind> kinds{ProtocolKind::kFdas};
  EXPECT_THROW(sweep(generate, kinds, 0, 1), std::invalid_argument);
  EXPECT_THROW(sweep(generate, kinds, 1, 0), std::invalid_argument);
  EXPECT_THROW(sweep(generate, std::vector<ProtocolKind>{}, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace rdt
