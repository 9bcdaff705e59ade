#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern_stats.hpp"
#include "core/tdv.hpp"
#include "fixtures.hpp"
#include "rgraph/reachability.hpp"
#include "rgraph/rgraph.hpp"
#include "rgraph/zigzag.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

using test::Figure1;

TEST(RGraph, NodeCountMatchesPattern) {
  const auto f = test::figure1();
  const RGraph g(f.pattern);
  EXPECT_EQ(g.num_nodes(), f.pattern.total_ckpts());
  EXPECT_EQ(g.num_nodes(), 12);  // 3 processes x 4 checkpoints
}

TEST(RGraph, SuccessorsAndPredecessorsAgree) {
  Rng rng(1);
  const Pattern p = test::random_pattern(rng, 4, 150);
  const RGraph g(p);
  for (int u = 0; u < g.num_nodes(); ++u)
    for (int v : g.successors(u)) {
      const auto& preds = g.predecessors(v);
      EXPECT_NE(std::find(preds.begin(), preds.end(), u), preds.end());
    }
}

TEST(RGraph, EdgesAreDeduplicated) {
  // Two messages with identical interval endpoints induce one edge.
  PatternBuilder b(2);
  const MsgId m1 = b.send(0, 1);
  const MsgId m2 = b.send(0, 1);
  b.deliver(m1);
  b.deliver(m2);
  const Pattern p = b.build();
  const RGraph g(p);
  EXPECT_EQ(g.successors(p.node_id({0, 1})).size(), 1u);
}

TEST(RGraph, ReachableFromFollowsPaths) {
  const auto f = test::figure1();
  const RGraph g(f.pattern);
  const BitVector from_k1 = g.reachable_from(g.node({Figure1::k, 1}));
  // C_k1 -> C_j1 (m3) -> C_i2 (m2) and onward through process edges.
  EXPECT_TRUE(from_k1.get(static_cast<std::size_t>(g.node({Figure1::k, 1}))));
  EXPECT_TRUE(from_k1.get(static_cast<std::size_t>(g.node({Figure1::j, 1}))));
  EXPECT_TRUE(from_k1.get(static_cast<std::size_t>(g.node({Figure1::i, 2}))));
  EXPECT_TRUE(from_k1.get(static_cast<std::size_t>(g.node({Figure1::i, 3}))));
  // But not backwards.
  EXPECT_FALSE(from_k1.get(static_cast<std::size_t>(g.node({Figure1::i, 1}))));
  EXPECT_FALSE(from_k1.get(static_cast<std::size_t>(g.node({Figure1::k, 0}))));
}

TEST(RGraph, ReachingToIsReverse) {
  Rng rng(2);
  const Pattern p = test::random_pattern(rng, 3, 100);
  const RGraph g(p);
  for (int u = 0; u < g.num_nodes(); ++u) {
    const BitVector fwd = g.reachable_from(u);
    for (std::size_t v = fwd.find_next(0); v < fwd.size(); v = fwd.find_next(v + 1))
      EXPECT_TRUE(g.reaching_to(static_cast<int>(v))
                      .get(static_cast<std::size_t>(u)));
  }
}

TEST(Closure, MatchesBfs) {
  Rng rng(3);
  for (int round = 0; round < 10; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 80);
    const RGraph g(p);
    const ReachabilityClosure closure(g);
    for (int u = 0; u < g.num_nodes(); ++u) {
      const BitVector bfs = g.reachable_from(u);
      for (int v = 0; v < g.num_nodes(); ++v)
        EXPECT_EQ(closure.reach(u, v), bfs.get(static_cast<std::size_t>(v)))
            << u << " -> " << v;
    }
  }
}

TEST(Closure, ReachIsReflexiveAndTransitive) {
  Rng rng(4);
  const Pattern p = test::random_pattern(rng, 3, 60);
  const RGraph g(p);
  const ReachabilityClosure closure(g);
  for (int u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(closure.reach(u, u));
    for (int v = 0; v < g.num_nodes(); ++v)
      for (int w = 0; w < g.num_nodes(); ++w)
        if (closure.reach(u, v) && closure.reach(v, w)) {
          EXPECT_TRUE(closure.reach(u, w));
        }
  }
}

TEST(Closure, MsgReachRequiresAMessageEdge) {
  const auto f = test::figure1();
  const RGraph g(f.pattern);
  const ReachabilityClosure closure(g);
  // The chain [m1, m2] leaves I_i1 and re-enters P_i at I_i2, so even the
  // same-process pair (i,0) -> (i,3) is message-reachable...
  EXPECT_TRUE(closure.msg_reach({Figure1::i, 0}, {Figure1::i, 3}));
  // ...but pairs whose only connection is process edges are not: P_k sends
  // nothing after I_k2 and P_j nothing after I_j2.
  EXPECT_TRUE(closure.reach({Figure1::k, 2}, {Figure1::k, 3}));
  EXPECT_FALSE(closure.msg_reach({Figure1::k, 2}, {Figure1::k, 3}));
  EXPECT_TRUE(closure.reach({Figure1::j, 3}, {Figure1::j, 3}));
  EXPECT_FALSE(closure.msg_reach({Figure1::j, 3}, {Figure1::j, 3}));
  // Reflexive reach, but no message cycle at C_i1.
  EXPECT_TRUE(closure.reach({Figure1::i, 1}, {Figure1::i, 1}));
  EXPECT_FALSE(closure.msg_reach({Figure1::i, 1}, {Figure1::i, 1}));
  // Paths through messages appear in both.
  EXPECT_TRUE(closure.reach({Figure1::k, 1}, {Figure1::i, 2}));
  EXPECT_TRUE(closure.msg_reach({Figure1::k, 1}, {Figure1::i, 2}));
  // Message chains tolerate leading/trailing process edges.
  EXPECT_TRUE(closure.msg_reach({Figure1::k, 0}, {Figure1::i, 3}));
}

TEST(Closure, MsgReachSubsetOfReach) {
  Rng rng(5);
  const Pattern p = test::random_pattern(rng, 4, 120);
  const RGraph g(p);
  const ReachabilityClosure closure(g);
  for (int u = 0; u < g.num_nodes(); ++u)
    for (int v = 0; v < g.num_nodes(); ++v)
      if (closure.msg_reach(u, v)) {
        EXPECT_TRUE(closure.reach(u, v));
      }
}

TEST(Closure, OutOfRangeThrows) {
  const auto f = test::figure1();
  const RGraph g(f.pattern);
  const ReachabilityClosure closure(g);
  EXPECT_THROW(closure.reach(-1, 0), std::invalid_argument);
  EXPECT_THROW(closure.reach(0, g.num_nodes()), std::invalid_argument);
}

// The full-rebuild reference for both closure planes: the Warshall closure
// of the R-graph adjacency, then, per source row, the OR of the closure
// rows of every message-edge head the source reaches.
std::pair<BitMatrix, BitMatrix> warshall_planes(const RGraph& g) {
  const Pattern& p = g.pattern();
  const auto nodes = static_cast<std::size_t>(g.num_nodes());
  BitMatrix reach(nodes, nodes);
  for (std::size_t u = 0; u < nodes; ++u)
    for (int v : g.successors(static_cast<int>(u)))
      reach.set(u, static_cast<std::size_t>(v));
  reach.close_transitively();
  BitMatrix msg_reach(nodes, nodes);
  for (std::size_t a = 0; a < nodes; ++a)
    for (const Message& m : p.messages())
      if (reach.get(a, static_cast<std::size_t>(
                           p.node_id({m.sender, m.send_interval}))))
        msg_reach.row(a).or_with(std::as_const(reach).row(static_cast<std::size_t>(
            p.node_id({m.receiver, m.deliver_interval}))));
  return {std::move(reach), std::move(msg_reach)};
}

TEST(Closure, MatchesWarshallOnZCyclePatterns) {
  // no-force and bcs leave Z-cycles (useless checkpoints) and hidden
  // dependencies in place, so the condensation sees non-trivial SCCs.
  int useless_seen = 0;
  for (const ProtocolKind kind : {ProtocolKind::kNoForce, ProtocolKind::kBcs})
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(to_string(kind) + "/seed " + std::to_string(seed));
      RandomEnvConfig cfg;
      cfg.num_processes = 5;
      cfg.duration = 60.0;
      cfg.basic_ckpt_mean = 4.0;
      cfg.seed = seed;
      const Pattern p = replay(random_environment(cfg), kind).pattern;
      const RGraph g(p);
      const ReachabilityClosure closure(g);
      const auto [reach, msg_reach] = warshall_planes(g);
      for (int u = 0; u < g.num_nodes(); ++u) {
        const auto row = static_cast<std::size_t>(u);
        EXPECT_TRUE(closure.reach_row(u) == reach.row(row)) << "reach row " << u;
        EXPECT_TRUE(closure.msg_reach_row(u) == msg_reach.row(row))
            << "msg_reach row " << u;
      }

      // Useless checkpoints and pattern stats, re-derived from the planes.
      std::vector<CkptId> useless;
      long long hidden = 0;
      const TdvAnalysis tdv(p);
      for (int u = 0; u < g.num_nodes(); ++u) {
        const CkptId c = p.node_ckpt(u);
        if (c.index < p.last_ckpt(c.process) &&
            msg_reach.get(static_cast<std::size_t>(u + 1),
                          static_cast<std::size_t>(u)))
          useless.push_back(c);
        for (int v = 0; v < g.num_nodes(); ++v)
          if (msg_reach.get(static_cast<std::size_t>(u),
                            static_cast<std::size_t>(v)) &&
              !tdv.trackable(c, p.node_ckpt(v)))
            ++hidden;
      }
      EXPECT_EQ(useless_checkpoints(closure), useless);
      const PatternStats stats = compute_stats(p);
      EXPECT_EQ(stats.useless_checkpoints, static_cast<int>(useless.size()));
      EXPECT_EQ(stats.hidden_dependencies, hidden);
      useless_seen += static_cast<int>(useless.size());
    }
  EXPECT_GT(useless_seen, 0);
}

}  // namespace
}  // namespace rdt
