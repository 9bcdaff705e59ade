// The pure rollback-propagation step shared by the batch recovery-line
// computation and the online engine.
//
// Wang's rule: rolling P_i back to C_{i,x} invalidates every checkpoint
// R-reachable from C_{i,x+1}. propagate_rollback() runs that multi-source
// sweep over any adjacency (a finished RGraph or the out-edge chains of the
// engine's published logs) and reports each invalidated node exactly once.
//
// The scratch object makes repeated sweeps cheap for a long-lived caller:
// the visited set is a stamped-generation array, so a new sweep is O(live
// frontier) with no O(V) clear — the online engine reruns it per graph-epoch
// miss of its recovery_line() memo, which compaction also asks.
#pragma once

#include <span>
#include <vector>

namespace rdt {

struct RollbackScratch {
  std::vector<long long> stamp;  // stamp[n] == generation <=> n visited
  long long generation = 0;
  std::vector<int> stack;
};

// Marks every node reachable (reflexively) from `seeds` and calls
// on_invalid(node) exactly once per marked node. `for_each_succ(node, emit)`
// must call emit(v) for each successor v of `node`; duplicate emissions are
// fine. Seeds may repeat.
template <typename ForEachSucc, typename OnInvalid>
void propagate_rollback(RollbackScratch& scratch, int num_nodes,
                        std::span<const int> seeds, ForEachSucc&& for_each_succ,
                        OnInvalid&& on_invalid) {
  scratch.stamp.resize(static_cast<std::size_t>(num_nodes), 0);
  const long long gen = ++scratch.generation;
  scratch.stack.clear();

  const auto visit = [&](int n) {
    long long& s = scratch.stamp[static_cast<std::size_t>(n)];
    if (s == gen) return;
    s = gen;
    on_invalid(n);
    scratch.stack.push_back(n);
  };

  for (const int s : seeds) visit(s);
  while (!scratch.stack.empty()) {
    const int u = scratch.stack.back();
    scratch.stack.pop_back();
    for_each_succ(u, visit);
  }
}

}  // namespace rdt
