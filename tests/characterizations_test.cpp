// The characterization hierarchy — the paper's core theory — validated on
// hand-built witnesses and randomized sweeps:
//
//   { VCM <=> VPCM }  =>  { RDT_def <=> CM <=> PCM <=> MM }  =>  no Z-cycle
//
// with both implications strict.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rdt_checker.hpp"
#include "fixtures.hpp"
#include "protocols/protocol.hpp"
#include "recovery/domino.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

// ------------------------------------------------------------ hand witnesses

TEST(Characterizations, EmptyishPatternsSatisfyEverything) {
  PatternBuilder b(2);
  const MsgId m = b.send(0, 1);
  b.deliver(m);
  b.checkpoint(1);
  const RdtReport r = analyze_rdt(b.build());
  EXPECT_TRUE(r.definitional.ok);
  EXPECT_TRUE(r.cm.ok);
  EXPECT_TRUE(r.pcm.ok);
  EXPECT_TRUE(r.mm.ok);
  EXPECT_TRUE(r.vcm.ok);
  EXPECT_TRUE(r.vpcm.ok);
  EXPECT_TRUE(r.no_z_cycle.ok);
}

TEST(Characterizations, CausalSiblingMakesAJunctionHarmless) {
  // P0 sends mp to P2, then delivers mc from P1 — a non-causal junction.
  // P1 also sent a sibling md to P2 *before* mc, delivered before mp, so the
  // dependency is causally doubled and visible at the junction.
  PatternBuilder b(3);
  const MsgId md = b.send(1, 2);
  const MsgId mc = b.send(1, 0);
  const MsgId mp = b.send(0, 2);
  b.deliver(md);
  b.deliver(mc);
  b.deliver(mp);
  const RdtReport r = analyze_rdt(b.build());
  EXPECT_TRUE(r.definitional.ok);
  EXPECT_TRUE(r.vcm.ok);
}

TEST(Characterizations, InvisibleDoublingSeparatesVcmFromRdt) {
  // The doubling chain exists (pattern is RDT) but was not in the causal
  // past of the junction decision: VCM and VPCM reject, everything in the
  // RDT-equivalent block accepts.
  const RdtReport r = analyze_rdt(test::rdt_but_not_visibly_doubled());
  EXPECT_TRUE(r.definitional.ok);
  EXPECT_TRUE(r.cm.ok);
  EXPECT_TRUE(r.pcm.ok);
  EXPECT_TRUE(r.mm.ok);
  EXPECT_TRUE(r.no_z_cycle.ok);
  EXPECT_FALSE(r.vcm.ok);
  EXPECT_FALSE(r.vpcm.ok);
}

TEST(Characterizations, Figure1SeparatesNoZCycleFromRdt) {
  const RdtReport r = analyze_rdt(test::figure1().pattern);
  EXPECT_TRUE(r.no_z_cycle.ok);
  EXPECT_FALSE(r.definitional.ok);
}

TEST(Characterizations, DominoPatternFailsEverything) {
  const RdtReport r = analyze_rdt(domino_pattern(3));
  EXPECT_FALSE(r.definitional.ok);
  EXPECT_FALSE(r.cm.ok);
  EXPECT_FALSE(r.pcm.ok);
  EXPECT_FALSE(r.mm.ok);
  EXPECT_FALSE(r.vcm.ok);
  EXPECT_FALSE(r.vpcm.ok);
  EXPECT_FALSE(r.no_z_cycle.ok);
}

TEST(Characterizations, SameProcessHiddenDependency) {
  // A chain from C_{k,2} back to C_{k,1}: undoublable by definition, the
  // situation predicate C2 guards against (Section 4.1, k = j case).
  //   P0 (k): D(m3) [C_01] S(m1)
  //   P1:     S(m2) D(m1)        <- junction (m1, m2)
  //   P2:     S(m3) D(m2)        <- junction (m2, m3)
  PatternBuilder b(3);
  const MsgId m2 = b.send(1, 2);
  const MsgId m3 = b.send(2, 0);
  b.deliver(m3);
  b.checkpoint(0);
  const MsgId m1 = b.send(0, 1);
  b.deliver(m1);
  b.deliver(m2);
  const Pattern p = b.build();
  const RdtReport r = analyze_rdt(p);
  EXPECT_FALSE(r.definitional.ok);
  // The Z-path is a zigzag cycle at C_{0,1}: send after it, delivery before.
  EXPECT_FALSE(r.no_z_cycle.ok);
  ASSERT_TRUE(r.no_z_cycle.witness.has_value());
  EXPECT_EQ(r.no_z_cycle.witness->from, (CkptId{0, 1}));
  EXPECT_EQ(r.no_z_cycle.witness->to, (CkptId{0, 1}));
  // The same-process dependency C_{0,2} -> C_{0,1} itself is untrackable.
  const TdvAnalysis tdv(p);
  EXPECT_FALSE(tdv.trackable({0, 2}, {0, 1}));
}

TEST(Characterizations, WitnessDescribesJunction) {
  const auto f = test::figure1();
  const RdtAnalyses analyses(f.pattern);
  const CheckResult cm = check_cm_doubled(analyses);
  ASSERT_TRUE(cm.witness.has_value());
  const std::string text = cm.witness->describe();
  EXPECT_NE(text.find("not on-line trackable"), std::string::npos);
  EXPECT_NE(text.find("non-causal junction"), std::string::npos);
}

TEST(Characterizations, ReportSummaryMentionsEveryChecker) {
  const std::string s = analyze_rdt(test::figure1().pattern).summary();
  EXPECT_NE(s.find("violates"), std::string::npos);
  EXPECT_NE(s.find("definitional"), std::string::npos);
  EXPECT_NE(s.find("MM-paths"), std::string::npos);
  EXPECT_NE(s.find("visibly doubled"), std::string::npos);
  EXPECT_NE(s.find("zigzag"), std::string::npos);
}

// ------------------------------------------------------------ random sweeps

class HierarchySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchySweep, ImplicationsHoldOnRandomPatterns) {
  Rng rng(GetParam());
  int violated = 0;
  int satisfied = 0;
  for (int round = 0; round < 150; ++round) {
    const int n = 2 + static_cast<int>(rng.below(4));
    const int steps = 20 + static_cast<int>(rng.below(140));
    const double p_ckpt = 0.03 + rng.uniform() * 0.25;
    const Pattern p = test::random_pattern(rng, n, steps, 0.35, 0.4, p_ckpt);
    const RdtReport r = analyze_rdt(p);
    (r.definitional.ok ? satisfied : violated) += 1;

    // The RDT-equivalent block moves together.
    EXPECT_EQ(r.cm.ok, r.definitional.ok);
    EXPECT_EQ(r.pcm.ok, r.definitional.ok);
    EXPECT_EQ(r.mm.ok, r.definitional.ok);  // Wang's elementary form
    // Visible doubling is sufficient (and prime-visible == visible).
    if (r.vcm.ok) {
      EXPECT_TRUE(r.definitional.ok);
    }
    EXPECT_EQ(r.vpcm.ok, r.vcm.ok);
    // No Z-cycle is necessary.
    if (r.definitional.ok) {
      EXPECT_TRUE(r.no_z_cycle.ok);
    }
    // Counting sanity: ok iff all checked paths satisfied.
    for (const CheckResult* c :
         {&r.definitional, &r.cm, &r.pcm, &r.mm, &r.vcm, &r.vpcm,
          &r.no_z_cycle}) {
      EXPECT_EQ(c->ok, c->paths_checked == c->paths_satisfied);
      EXPECT_LE(c->paths_satisfied, c->paths_checked);
      EXPECT_EQ(c->ok, !c->witness.has_value());
    }
    // The prime family is never larger than the full CM family.
    EXPECT_LE(r.pcm.paths_checked, r.cm.paths_checked);
    // MM checks exactly one start per junction.
    EXPECT_LE(r.mm.paths_checked, r.cm.paths_checked);
  }
  // The generator must exercise both outcomes for the sweep to mean much.
  EXPECT_GT(violated, 0);
  EXPECT_GT(satisfied, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Characterizations, StrictnessWitnessesExistInRandomSweep) {
  // Over a sweep we must find patterns that are RDT but not VCM (visibility
  // is strictly stronger) and patterns that are cycle-free but not RDT
  // (no-Z-cycle is strictly weaker).
  Rng rng(424242);
  int rdt_not_vcm = 0;
  int cyclefree_not_rdt = 0;
  for (int round = 0; round < 400; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 60);
    const RdtReport r = analyze_rdt(p);
    rdt_not_vcm += r.definitional.ok && !r.vcm.ok;
    cyclefree_not_rdt += r.no_z_cycle.ok && !r.definitional.ok;
  }
  EXPECT_GT(rdt_not_vcm, 0);
  EXPECT_GT(cyclefree_not_rdt, 0);
}

void expect_same(const CheckResult& a, const CheckResult& b,
                 const char* label) {
  EXPECT_EQ(a.ok, b.ok) << label;
  EXPECT_EQ(a.paths_checked, b.paths_checked) << label;
  EXPECT_EQ(a.paths_satisfied, b.paths_satisfied) << label;
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value()) << label;
  if (a.witness) {
    EXPECT_EQ(a.witness->from, b.witness->from) << label;
    EXPECT_EQ(a.witness->to, b.witness->to) << label;
    EXPECT_EQ(a.witness->junction, b.witness->junction) << label;
  }
}

TEST(Characterizations, FusedPassMatchesIndividualCheckers) {
  // check_junction_families shares per-junction work between the five
  // families; its per-family counters and first witness must be exactly
  // what each standalone checker produces.
  Rng rng(7777);
  for (int round = 0; round < 60; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 80);
    const RdtAnalyses a(p);
    const JunctionReport fused = check_junction_families(a);
    expect_same(fused.cm, check_cm_doubled(a), "cm");
    expect_same(fused.pcm, check_pcm_doubled(a), "pcm");
    expect_same(fused.mm, check_mm_doubled(a), "mm");
    expect_same(fused.vcm, check_cm_visibly_doubled(a), "vcm");
    expect_same(fused.vpcm, check_pcm_visibly_doubled(a), "vpcm");
  }
}

// ------------------------------------------------- per-bit reference oracle
//
// The checkers as first written: one TdvAnalysis::trackable call per
// checked pair or start, start sets expanded bit by bit through
// Pattern::node_ckpt, and the visible-doubling scan over every message
// delivered to the target process. The library evaluates the same
// definitions a word at a time (suffix/prefix range masks and masked
// popcounts); these loops pin it to the definitions, counter for counter
// and witness for witness.

CheckResult reference_definitional(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  const ReachabilityClosure& closure = a.closure();
  CheckResult result;
  for (int u = 0; u < p.total_ckpts(); ++u) {
    const CkptId cu = p.node_ckpt(u);
    const ConstBitSpan row = closure.msg_reach_row(u);
    for (std::size_t v = row.find_next(0); v < row.size();
         v = row.find_next(v + 1)) {
      const CkptId cv = p.node_ckpt(static_cast<int>(v));
      ++result.paths_checked;
      if (a.tdv().trackable(cu, cv)) {
        ++result.paths_satisfied;
      } else if (result.ok) {
        result.ok = false;
        result.witness = RdtViolation{cu, cv, std::nullopt};
      }
    }
  }
  return result;
}

std::vector<CkptId> reference_starts(const Pattern& p, const BitVector& bits) {
  std::vector<CkptId> starts;
  for (std::size_t node = bits.find_next(0); node < bits.size();
       node = bits.find_next(node + 1))
    starts.push_back(p.node_ckpt(static_cast<int>(node)));
  return starts;
}

JunctionReport reference_junction_families(const RdtAnalyses& a) {
  const Pattern& p = a.pattern();
  const ChainAnalysis& chains = a.chains();
  const TdvAnalysis& tdv = a.tdv();
  JunctionReport report;

  std::vector<std::vector<MsgId>> delivered_to(
      static_cast<std::size_t>(p.num_processes()));
  for (const Message& m : p.messages())
    delivered_to[static_cast<std::size_t>(m.receiver)].push_back(m.id);

  const auto charge = [](CheckResult& result, bool ok, const CkptId& start,
                         const CkptId& target, const NonCausalJunction& jn) {
    ++result.paths_checked;
    if (ok) {
      ++result.paths_satisfied;
    } else if (result.ok) {
      result.ok = false;
      result.witness = RdtViolation{start, target, jn};
    }
  };

  for (const NonCausalJunction& jn : chains.noncausal_junctions()) {
    const Message& mc = p.message(jn.incoming);
    const Message& mp = p.message(jn.outgoing);
    const ProcessId j = mp.receiver;
    const CkptIndex y = mp.deliver_interval;
    const CkptId target{j, y};

    std::vector<CkptIndex> best_visible(
        static_cast<std::size_t>(p.num_processes()), 0);
    for (MsgId cand : delivered_to[static_cast<std::size_t>(j)]) {
      const Message& m2 = p.message(cand);
      if (m2.deliver_interval > y) continue;
      if (!p.happened_before(m2.send_event(), mc.deliver_event())) continue;
      for (ProcessId k = 0; k < p.num_processes(); ++k) {
        const CkptIndex z = chains.max_causal_start(cand, k);
        if (z > best_visible[static_cast<std::size_t>(k)])
          best_visible[static_cast<std::size_t>(k)] = z;
      }
    }
    const auto visible = [&](const CkptId& start) {
      if (start.process == j) return start.index <= y;
      return best_visible[static_cast<std::size_t>(start.process)] >=
             start.index;
    };

    const CkptId mm_start{mc.sender, mc.send_interval};
    charge(report.mm, tdv.trackable(mm_start, target), mm_start, target, jn);
    for (const CkptId& start :
         reference_starts(p, chains.causal_starts(jn.incoming))) {
      charge(report.cm, tdv.trackable(start, target), start, target, jn);
      charge(report.vcm, visible(start), start, target, jn);
    }
    for (const CkptId& start :
         reference_starts(p, chains.simple_causal_starts(jn.incoming))) {
      charge(report.pcm, tdv.trackable(start, target), start, target, jn);
      charge(report.vpcm, visible(start), start, target, jn);
    }
  }
  return report;
}

// Highest z with bit {k, z} set in `bits` (0 if none), scanning every bit.
CkptIndex reference_max_start(const Pattern& p, const BitVector& bits,
                              ProcessId k) {
  CkptIndex best = 0;
  for (const CkptId& c : reference_starts(p, bits))
    if (c.process == k) best = std::max(best, c.index);
  return best;
}

void expect_matches_reference(const Pattern& p) {
  const RdtAnalyses a(p);
  expect_same(check_rdt_definitional(a), reference_definitional(a), "def");
  const JunctionReport ref = reference_junction_families(a);
  const JunctionReport fused = check_junction_families(a);
  expect_same(fused.cm, ref.cm, "cm");
  expect_same(fused.pcm, ref.pcm, "pcm");
  expect_same(fused.mm, ref.mm, "mm");
  expect_same(fused.vcm, ref.vcm, "vcm");
  expect_same(fused.vpcm, ref.vpcm, "vpcm");
  // The standalone checkers run single-query passes of the same engine.
  expect_same(check_cm_doubled(a), ref.cm, "cm alone");
  expect_same(check_pcm_doubled(a), ref.pcm, "pcm alone");
  expect_same(check_mm_doubled(a), ref.mm, "mm alone");
  expect_same(check_cm_visibly_doubled(a), ref.vcm, "vcm alone");
  expect_same(check_pcm_visibly_doubled(a), ref.vpcm, "vpcm alone");

  const ChainAnalysis& chains = a.chains();
  for (MsgId m = 0; m < p.num_messages(); ++m)
    for (ProcessId k = 0; k < p.num_processes(); ++k) {
      EXPECT_EQ(chains.max_causal_start(m, k),
                reference_max_start(p, chains.causal_starts(m), k))
          << "m" << m << " P" << k;
      EXPECT_EQ(chains.max_simple_start(m, k),
                reference_max_start(p, chains.simple_causal_starts(m), k))
          << "m" << m << " P" << k;
    }
}

TEST(CheckerReference, EveryProtocolOnEveryEnvironment) {
  // no-force and bcs violate RDT, so their patterns exercise the witness
  // paths; the RDT protocols exercise the all-satisfied counters.
  int violated = 0;
  for (ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RandomEnvConfig rnd;
      rnd.num_processes = 5;
      rnd.duration = 40.0;
      rnd.basic_ckpt_mean = 4.0;
      rnd.seed = seed;
      GroupEnvConfig grp;
      grp.num_groups = 3;
      grp.group_size = 3;
      grp.overlap = 1;
      grp.duration = 40.0;
      grp.basic_ckpt_mean = 4.0;
      grp.seed = seed;
      ClientServerEnvConfig cs;
      cs.num_servers = 4;
      cs.num_requests = 30;
      cs.basic_ckpt_mean = 4.0;
      cs.seed = seed;
      const struct {
        const char* name;
        Trace trace;
      } envs[] = {{"random", random_environment(rnd)},
                  {"group", group_environment(grp)},
                  {"client_server", client_server_environment(cs)}};
      for (const auto& env : envs) {
        SCOPED_TRACE(to_string(kind) + "/" + env.name + "/seed " +
                     std::to_string(seed));
        const Pattern p = replay(env.trace, kind).pattern;
        violated += !analyze_rdt(p).definitional.ok;
        expect_matches_reference(p);
      }
    }
  }
  EXPECT_GT(violated, 0);
}

TEST(CheckerReference, RandomPatternsAndHandWitnesses) {
  Rng rng(31337);
  for (int round = 0; round < 60; ++round) {
    const int n = 2 + static_cast<int>(rng.below(5));
    const int steps = 20 + static_cast<int>(rng.below(200));
    const double p_ckpt = 0.03 + rng.uniform() * 0.25;
    SCOPED_TRACE("round " + std::to_string(round));
    expect_matches_reference(
        test::random_pattern(rng, n, steps, 0.35, 0.4, p_ckpt));
  }
  expect_matches_reference(test::figure1().pattern);
  expect_matches_reference(domino_pattern(3));
  expect_matches_reference(test::rdt_but_not_visibly_doubled());
}

}  // namespace
}  // namespace rdt
