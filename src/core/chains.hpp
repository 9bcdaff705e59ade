// Message-chain (Z-path) machinery — Sections 3.2/3.3 of the paper.
//
// A message chain [m_1 ... m_q] composes consecutive messages at a common
// process: delivery(m_a) in I_{k,s}, send(m_{a+1}) in I_{k,t}, s <= t
// (Definition 3.1, Netzer–Xu's zigzag). A *junction* is:
//  * causal      — delivery(m_a) locally precedes send(m_{a+1});
//  * non-causal  — send(m_{a+1}) precedes delivery(m_a) in the same interval.
// A chain is causal iff all junctions are; it is *simple* iff every junction
// has delivery and next send in the same interval (no checkpoint crossed
// inside the chain — the property the protocol's `simple` array tracks).
//
// ChainAnalysis computes, per message m, the set of checkpoints C_{k,z} such
// that a causal (resp. simple causal) chain starting with a send in I_{k,z}
// ends exactly with m. From this every characterization checker is built:
//
//  * MM-path  — a two-message chain across a non-causal junction;
//  * CM-path  — a causal chain followed by one message across a non-causal
//               junction (MM is the special case of a one-message prefix);
//  * doubling — a CM/MM/Z-path from C_{k,z} to C_{j,y} is *doubled* when the
//               R-path it induces is on-line trackable (a causal chain from
//               an interval of P_k at or after z reaches P_j at or before y);
//  * visible doubling — doubled by a causal chain whose last send is in the
//               causal past of the junction's delivery event, i.e. the
//               doubling is knowable at the moment a protocol must decide
//               whether to break the junction.
//
// Chain reachability (`zpath_between_intervals`, `find_chain`) runs on the
// *junction graph*: one node per message, an edge a -> b whenever [a, b] can
// appear consecutively in a chain. Because a message's successors are always
// sends of its receiving process — the sends of the delivery interval that
// precede the delivery (non-causal), then every later send (causal) — the
// adjacency of each node is a contiguous suffix of the receiver's
// position-sorted send list. The graph is therefore stored implicitly in CSR
// fashion: per-process send lists plus two range offsets per message, built
// in O(M log M) without the all-pairs junction scan. Reachability condenses
// this graph with Tarjan's SCC algorithm (util/scc.hpp; zigzag cycles
// collapse to single condensation nodes) and propagates checkpoint bitsets
// in one reverse-topological word-parallel sweep — no fixpoint iteration.
#pragma once

#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "ccp/pattern.hpp"
#include "core/tdv.hpp"
#include "util/bit_matrix.hpp"

namespace rdt {

// A non-causal junction: `incoming` is delivered at a process after
// `outgoing` was sent by that process in the same checkpoint interval.
// Every Z-path that is not causal crosses at least one such junction.
struct NonCausalJunction {
  MsgId incoming = kNoMsg;   // the paper's m (ends the chain prefix)
  MsgId outgoing = kNoMsg;   // the paper's m' (already sent to P_j)
  ProcessId at = -1;         // the process that could break the chain here
  friend auto operator<=>(const NonCausalJunction&, const NonCausalJunction&) = default;
};

class ChainAnalysis {
 public:
  explicit ChainAnalysis(const Pattern& pattern);
  // The analysis keeps a reference to the pattern; a temporary would dangle.
  explicit ChainAnalysis(Pattern&&) = delete;
  // The lazily built reachability tables are guarded by std::once_flag,
  // which pins the object in place.
  ChainAnalysis(const ChainAnalysis&) = delete;
  ChainAnalysis& operator=(const ChainAnalysis&) = delete;

  const Pattern& pattern() const { return *pattern_; }

  // Can [a, b] appear consecutively in a chain (Definition 3.1)?
  bool junction(MsgId a, MsgId b) const;
  bool causal_junction(MsgId a, MsgId b) const;
  bool noncausal_junction(MsgId a, MsgId b) const;

  // All non-causal junctions of the pattern.
  const std::vector<NonCausalJunction>& noncausal_junctions() const {
    return noncausal_;
  }

  // Bitset over the pattern's dense checkpoint-node numbering: bit
  // node_id({k,z}) is set iff a causal chain from C_{k,z} (first send in
  // I_{k,z}) ends exactly with message m. Includes the trivial chain [m]
  // itself (bit {sender(m), send_interval(m)}).
  const BitVector& causal_starts(MsgId m) const;
  // Same restricted to simple causal chains.
  const BitVector& simple_causal_starts(MsgId m) const;

  // Does a causal (resp. simple causal) chain from C_{k,z'} with z' >= z end
  // exactly with m? (The doubling relation tolerates later start intervals.)
  bool causal_start_at_or_after(MsgId m, ProcessId k, CkptIndex z) const;
  bool simple_causal_start_at_or_after(MsgId m, ProcessId k, CkptIndex z) const;

  // Highest z such that a causal chain from C_{k,z} ends exactly with m
  // (0 if none). O(1): the per-process maxima are precomputed.
  CkptIndex max_causal_start(MsgId m, ProcessId k) const;
  // Same over simple causal chains.
  CkptIndex max_simple_start(MsgId m, ProcessId k) const;

  // ---- Z-path reachability over the junction graph ------------------------
  // Exists a chain whose first send is in I_{from} and last delivery in
  // I_{to} (endpoint intervals exact)? `causal_only` restricts to causal
  // chains. The SCC-condensed reachability table is built on first use
  // (std::call_once; safe to share one analysis across threads).
  bool zpath_between_intervals(const IntervalId& from, const IntervalId& to,
                               bool causal_only = false) const;

  // An explicit witness chain [m_1 ... m_q] with send(m_1) in I_{from} and
  // delivery(m_q) in I_{to}, or nullopt if none exists. BFS over the
  // junction-graph CSR adjacency, so the witness has minimal message count.
  std::optional<std::vector<MsgId>> find_chain(const IntervalId& from,
                                               const IntervalId& to,
                                               bool causal_only = false) const;

  // ---- engine introspection ------------------------------------------------
  struct ZReachStats {
    long long edges = 0;         // junction-graph edges (causal + non-causal)
    long long causal_edges = 0;  // causal subgraph edges
    int sccs = 0;                // condensation nodes of the full graph
    int largest_scc = 0;         // messages in the largest zigzag cycle
    double sweep_ms = 0.0;       // SCC + bit-propagation time, full graph
  };
  // Forces the full-graph reachability build and reports its shape/cost.
  ZReachStats zreach_stats() const;
  // Edge counts alone are known from construction (no reachability build).
  long long junction_edges() const { return edges_; }
  long long causal_junction_edges() const { return causal_edges_; }

 private:
  // Condensed reachability: per message its condensation node, per
  // condensation node the interval-end checkpoints its chains can reach.
  struct ZReachTable {
    std::vector<int> comp;        // per message
    std::vector<BitVector> rows;  // per condensation node
    int largest_scc = 0;
    double sweep_ms = 0.0;
  };

  void build_zreach(bool causal_only) const;
  const ZReachTable& zreach(bool causal_only) const;
  // Successor range of message m in sends_by_proc_[receiver(m)]:
  // [succ_begin_, size) for general chains, [succ_causal_begin_, size) for
  // causal-only ones (non-causal successors occupy the gap between the two).
  std::pair<std::size_t, std::size_t> succ_range(MsgId m, bool causal_only) const;

  const Pattern* pattern_;
  std::vector<NonCausalJunction> noncausal_;
  std::vector<BitVector> causal_starts_;         // per message
  std::vector<BitVector> simple_causal_starts_;  // per message
  // max_causal_start_[m * n + k] = highest z with causal_starts bit {k,z}
  // set (0 if none); same layout for the simple variant.
  std::vector<CkptIndex> max_causal_start_;
  std::vector<CkptIndex> max_simple_start_;

  // Implicit junction-graph CSR (see file comment).
  std::vector<std::vector<MsgId>> sends_by_proc_;  // sorted by send_pos
  std::vector<std::size_t> succ_begin_;            // per message
  std::vector<std::size_t> succ_causal_begin_;     // per message
  long long edges_ = 0;
  long long causal_edges_ = 0;

  // Built on demand under call_once: [0] = general chains, [1] = causal.
  mutable ZReachTable zreach_[2];
  mutable std::once_flag zreach_once_[2];
};

}  // namespace rdt
