// All-pairs reachability closures over the R-graph.
//
// Two relations are pre-computed:
//  * reach(a, b)     — an R-path (possibly empty) from a to b;
//  * msg_reach(a, b) — an R-path from a to b containing at least one message
//                      edge, i.e. an actual message chain (Z-path) leaving an
//                      interval at or after a and entering one at or before b.
//
// msg_reach is the relation Z-path theory needs: reflexivity and pure
// process-edge paths carry no rollback dependency through messages, so e.g.
// Z-cycle detection (msg_reach(c, c)) and Netzer–Xu compatibility must
// exclude them.
//
// Construction, O((V + E) * V / 64) word operations: the two relations are
// the layers of a product graph over (node, "message edge used yet?").
// Layer 1 is the R-graph itself, so reach is its reflexive-transitive
// closure: one SCC condensation (util/scc.hpp), then rows ORed together in
// reverse topological order. Layer 0 has only process edges, one chain per
// process, so msg_reach(C_{i,x}) is msg_reach(C_{i,x+1}) plus the reach
// rows of the message-edge heads leaving C_{i,x} — one backward sweep per
// process. The online engine's IncrementalReach maintains the same
// relations by a different method; neither is built from the other.
#pragma once

#include <utility>

#include "rgraph/rgraph.hpp"
#include "util/bit_matrix.hpp"

namespace rdt {

class ReachabilityClosure {
 public:
  explicit ReachabilityClosure(const RGraph& graph);
  // The closure keeps a reference to the graph; a temporary would dangle.
  explicit ReachabilityClosure(RGraph&&) = delete;

  const RGraph& graph() const { return *graph_; }

  // R-path (reflexive-transitive) from `from` to `to`?
  bool reach(const CkptId& from, const CkptId& to) const;
  bool reach(int from, int to) const;

  // R-path with >= 1 message edge from `from` to `to`?
  bool msg_reach(const CkptId& from, const CkptId& to) const;
  bool msg_reach(int from, int to) const;

  // Rows for bulk consumers (views into the contiguous closure planes).
  ConstBitSpan reach_row(int from) const {
    return std::as_const(reach_).row(static_cast<std::size_t>(from));
  }
  ConstBitSpan msg_reach_row(int from) const {
    return std::as_const(msg_reach_).row(static_cast<std::size_t>(from));
  }

 private:
  const RGraph* graph_;
  BitMatrix reach_;      // reflexive-transitive closure
  BitMatrix msg_reach_;  // closure restricted to paths using a message edge
};

// Audit-tier (RDT_AUDIT) cross-validation: re-derives both closures from
// independent per-node BFS sweeps over the R-graph and from a word-parallel
// Warshall rebuild, and compares them to the condensed result row by row.
// No-op unless the build defines RDT_AUDITS; a mismatch throws
// rdt::audit_failure. O(V * (V + E)). Also invoked automatically by the
// ReachabilityClosure constructor in audit builds.
void audit_reachability_closure(const ReachabilityClosure& closure);

}  // namespace rdt
