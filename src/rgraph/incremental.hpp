// Incrementally extended two-layer reachability over a growing R-graph.
//
// IncrementalReach serves the online engine's zreach: nodes and edges are
// appended one at a time (never removed — an R-graph only grows as the
// computation runs), and msg_reach(a, b) — an R-path from a to b with >= 1
// message edge, as the batch ReachabilityClosure (rgraph/reachability.hpp)
// derives it by SCC condensation — stays queryable after every append. The
// engine's recovery sweep walks its published logs in place instead.
//
// Representation: per source node, two bit layers
//   l0 = nodes reachable via paths with NO message edge (process edges only);
//   l1 = nodes reachable via paths with >= 1 message edge;
// so msg_reach = l1 (l0 is reflexive). The split makes the "at least one
// message edge" qualifier a plain 2-state product construction instead of
// a separate fixpoint.
//
// Incrementality: every appended edge goes into a global typed edge log.
// A source row is materialized lazily on first query and then *catches up*
// by scanning the log from its private cursor: a logged edge (u, v) whose
// tail u the row already reaches seeds new frontier work, and one BFS drain
// over the full adjacency completes the propagation. Each row consumes each
// log entry exactly once and sets each (node, layer) bit at most once, so
// the total work per row is O(V + E) over the row's whole lifetime —
// amortized O(1) per appended edge per live row, with no recomputation of
// already-known reachability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/bit_matrix.hpp"

namespace rdt {

class IncrementalReach {
 public:
  IncrementalReach() = default;

  int num_nodes() const { return static_cast<int>(adj_.size()); }

  // Append a new node; returns its id (dense, starting at 0).
  int add_node();

  // Back to the empty graph, keeping the outer containers' capacity so a
  // recycled instance regrows without reallocating its spines. The
  // one-argument form additionally moves up to `max_pooled_rows`
  // materialized closure rows into an internal pool (their word buffers
  // keep their capacity) and trims the pool to that cap — the engine's
  // compaction pass rebuilds the graph through this, so the post-rebuild
  // queries re-materialize rows without reallocating. reset(0) pools
  // nothing and frees any existing pool: full release.
  void reset(std::size_t max_pooled_rows);

  // Append a directed edge. Both endpoints must already exist. Duplicate
  // edges are tolerated (they cost one log entry each but change nothing).
  void add_edge(int from, int to, bool message);

  // Closure query. Non-const: the first query for a source materializes its
  // row, later ones catch it up with the edge log.
  bool msg_reach(int from, int to);

  // Heap payload of the graph: adjacency, edge log, materialized and pooled
  // closure rows (capacities, per util/mem_accounting.hpp's convention).
  std::size_t resident_bytes() const;

 private:
  // One source node's closure state. l0/l1 are word arrays sized lazily to
  // the current node count; edge_pos is the row's cursor into edges_.
  struct Row {
    std::vector<std::uint64_t> l0, l1;
    std::size_t edge_pos = 0;
  };

  Row& row_for(int from);
  void catch_up(int from, Row& row);

  // adj_[u] holds successors encoded (v << 1) | is_message.
  std::vector<std::vector<std::uint32_t>> adj_;
  // Append-only log of every edge: (u, (v << 1) | is_message).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<std::unique_ptr<Row>> rows_;
  // Rows recycled by reset(max_pooled_rows): cleared (so a reuse looks
  // fresh to catch_up) but capacity-bearing.
  std::vector<std::unique_ptr<Row>> row_pool_;
  // BFS scratch, entries encoded (node << 1) | layer.
  std::vector<std::uint32_t> queue_;
};

}  // namespace rdt
