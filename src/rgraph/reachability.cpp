#include "rgraph/reachability.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/scc.hpp"

namespace rdt {

namespace {

// Message edges of the pattern as (tail, head) node pairs, sorted and
// deduplicated (several messages may share interval endpoints).
std::vector<std::pair<int, int>> message_edges(const Pattern& p) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(p.messages().size());
  for (const Message& m : p.messages())
    edges.emplace_back(p.node_id({m.sender, m.send_interval}),
                       p.node_id({m.receiver, m.deliver_interval}));
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace

ReachabilityClosure::ReachabilityClosure(const RGraph& graph) : graph_(&graph) {
  const int nodes = graph.num_nodes();
  const auto count = static_cast<std::size_t>(nodes);
  const Pattern& p = graph.pattern();
  reach_ = BitMatrix(count, count);
  msg_reach_ = BitMatrix(count, count);

  // Layer 1 (paths that already used a message edge) is the R-graph itself,
  // so its closure is the reflexive-transitive one. Condense the R-graph and
  // OR rows in ascending component id, which is reverse-topological: every
  // successor component's row is final before it is read. Each node of a
  // component gets the component's row.
  std::vector<int> comp;
  const int comps = strongly_connected_components(
      nodes,
      [&](int v) { return std::pair<std::size_t, std::size_t>{0, graph.successors(v).size()}; },
      [&](int v, std::size_t i) { return graph.successors(v)[i]; }, comp);
  std::vector<std::vector<int>> members(static_cast<std::size_t>(comps));
  for (int v = 0; v < nodes; ++v)
    members[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])]
        .push_back(v);
  for (const std::vector<int>& group : members) {
    const BitSpan row = reach_.row(static_cast<std::size_t>(group.front()));
    const int c = comp[static_cast<std::size_t>(group.front())];
    for (int v : group) {
      row.set(static_cast<std::size_t>(v));
      for (int w : graph.successors(v))
        if (comp[static_cast<std::size_t>(w)] != c)
          row.merge(std::as_const(reach_).row(static_cast<std::size_t>(w)));
    }
    for (std::size_t i = 1; i < group.size(); ++i)
      reach_.row(static_cast<std::size_t>(group[i])).assign(row);
  }

  // Layer 0 holds process edges only, one chain per process, so from
  // C_{i,x} it is the node range C_{i,x..last}; a path enters layer 1
  // through a message edge leaving one of those nodes. msg_reach(C_{i,x})
  // is therefore msg_reach(C_{i,x+1}) plus reach of every message-edge head
  // out of C_{i,x}: one backward sweep per process.
  const std::vector<std::pair<int, int>> edges = message_edges(p);
  auto edge = edges.end();
  for (ProcessId i = p.num_processes() - 1; i >= 0; --i) {
    for (CkptIndex x = p.last_ckpt(i); x >= 0; --x) {
      const int u = p.node_id({i, x});
      const BitSpan row = msg_reach_.row(static_cast<std::size_t>(u));
      if (x < p.last_ckpt(i))
        row.assign(std::as_const(msg_reach_).row(static_cast<std::size_t>(u + 1)));
      // `edges` is sorted by tail and tails are visited in descending order.
      while (edge != edges.begin() && std::prev(edge)->first == u) {
        --edge;
        row.merge(std::as_const(reach_).row(static_cast<std::size_t>(edge->second)));
      }
    }
  }

  if constexpr (kAuditsEnabled) audit_reachability_closure(*this);
}

void audit_reachability_closure(const ReachabilityClosure& closure) {
  if constexpr (!kAuditsEnabled) return;
  const RGraph& graph = closure.graph();
  const Pattern& p = graph.pattern();
  const auto nodes = static_cast<std::size_t>(graph.num_nodes());

  // reach: each condensed row must equal an independent BFS from the node.
  std::vector<BitVector> bfs_rows(nodes);
  for (std::size_t u = 0; u < nodes; ++u) {
    bfs_rows[u] = graph.reachable_from(static_cast<int>(u));
    RDT_AUDIT(closure.reach_row(static_cast<int>(u)) == bfs_rows[u],
              "condensed reach closure disagrees with BFS at node " +
                  std::to_string(u));
  }

  // The historical full rebuild: word-parallel Warshall closure plus the
  // message-edge OR pass — an independent derivation of both planes the
  // condensed sweep must reproduce bit for bit.
  BitMatrix warshall(nodes, nodes);
  for (std::size_t u = 0; u < nodes; ++u)
    for (int v : graph.successors(static_cast<int>(u)))
      warshall.set(u, static_cast<std::size_t>(v));
  warshall.close_transitively();

  BitMatrix msg_warshall(nodes, nodes);
  const std::vector<std::pair<int, int>> edges = message_edges(p);
  for (std::size_t a = 0; a < nodes; ++a) {
    const ConstBitSpan from_a = std::as_const(warshall).row(a);
    const BitSpan out = msg_warshall.row(a);
    for (const auto& [u, v] : edges)
      if (from_a.get(static_cast<std::size_t>(u)))
        out.or_with(std::as_const(warshall).row(static_cast<std::size_t>(v)));
  }
  for (std::size_t a = 0; a < nodes; ++a) {
    RDT_AUDIT(closure.reach_row(static_cast<int>(a)) ==
                  std::as_const(warshall).row(a),
              "condensed reach closure disagrees with the Warshall rebuild "
              "at node " +
                  std::to_string(a));
    RDT_AUDIT(closure.msg_reach_row(static_cast<int>(a)) ==
                  std::as_const(msg_warshall).row(a),
              "condensed msg_reach closure disagrees with the Warshall "
              "rebuild at node " +
                  std::to_string(a));
  }

  // msg_reach: re-derive from the BFS rows — msg_reach(a, b) iff some
  // message edge (u, v) has bfs(a, u) and bfs(v, b).
  for (std::size_t a = 0; a < nodes; ++a) {
    BitVector expect(nodes);
    for (const auto& [u, v] : edges)
      if (bfs_rows[a].get(static_cast<std::size_t>(u)))
        expect.or_with(bfs_rows[static_cast<std::size_t>(v)]);
    RDT_AUDIT(closure.msg_reach_row(static_cast<int>(a)) == expect,
              "msg_reach closure disagrees with BFS re-derivation at node " +
                  std::to_string(a));
  }
}

bool ReachabilityClosure::reach(int from, int to) const {
  RDT_REQUIRE(from >= 0 && from < graph_->num_nodes(), "node id out of range");
  RDT_REQUIRE(to >= 0 && to < graph_->num_nodes(), "node id out of range");
  return reach_.get(static_cast<std::size_t>(from), static_cast<std::size_t>(to));
}

bool ReachabilityClosure::reach(const CkptId& from, const CkptId& to) const {
  return reach(graph_->node(from), graph_->node(to));
}

bool ReachabilityClosure::msg_reach(int from, int to) const {
  RDT_REQUIRE(from >= 0 && from < graph_->num_nodes(), "node id out of range");
  RDT_REQUIRE(to >= 0 && to < graph_->num_nodes(), "node id out of range");
  return msg_reach_.get(static_cast<std::size_t>(from), static_cast<std::size_t>(to));
}

bool ReachabilityClosure::msg_reach(const CkptId& from, const CkptId& to) const {
  return msg_reach(graph_->node(from), graph_->node(to));
}

}  // namespace rdt
