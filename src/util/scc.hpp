// Strongly connected components — the one condensation routine behind the
// batch oracle's word-parallel sweeps (the R-graph closure in
// rgraph/reachability.cpp and the junction-graph Z-reach table in
// core/chains.cpp).
//
// Iterative Tarjan over an implicit adjacency: the successors of node v are
// the positions [first, last) of some caller-owned sequence, `range(v)`
// returns that pair and `at(v, i)` the successor at position i. Callers
// store their graphs in whatever form is cheapest (deduplicated successor
// vectors, CSR suffix ranges) and never materialize an edge list for the
// condensation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace rdt {

// Writes each node's component id into `comp` (resized to `nodes`) and
// returns the number of components. Ids are assigned in completion order,
// i.e. reverse-topologically: every successor component of a component c
// has an id < c, so one ascending pass over the ids visits every
// component after all of its successors. O(V + E) time, no recursion.
template <typename Range, typename At>
int strongly_connected_components(int nodes, Range&& range, At&& at,
                                  std::vector<int>& comp) {
  struct Frame {
    int v;
    std::size_t next;
    std::size_t end;
  };
  const auto count = static_cast<std::size_t>(nodes);
  comp.assign(count, -1);
  std::vector<int> index(count, -1);
  std::vector<int> low(count, 0);
  std::vector<char> on_stack(count, 0);
  std::vector<int> stack;
  std::vector<Frame> dfs;
  int next_index = 0;
  int num_comps = 0;

  const auto push_node = [&](int v) {
    const auto sv = static_cast<std::size_t>(v);
    index[sv] = low[sv] = next_index++;
    stack.push_back(v);
    on_stack[sv] = 1;
    const auto [begin, end] = range(v);
    dfs.push_back({v, static_cast<std::size_t>(begin),
                   static_cast<std::size_t>(end)});
  };

  for (int root = 0; root < nodes; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    push_node(root);
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      if (f.next < f.end) {
        const int w = at(f.v, f.next++);
        const auto sw = static_cast<std::size_t>(w);
        if (index[sw] == -1) {
          push_node(w);
        } else if (on_stack[sw]) {
          const auto sv = static_cast<std::size_t>(f.v);
          low[sv] = std::min(low[sv], index[sw]);
        }
        continue;
      }
      const int v = f.v;
      const auto sv = static_cast<std::size_t>(v);
      if (low[sv] == index[sv]) {
        int member;
        do {
          member = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(member)] = 0;
          comp[static_cast<std::size_t>(member)] = num_comps;
        } while (member != v);
        ++num_comps;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        const auto parent = static_cast<std::size_t>(dfs.back().v);
        low[parent] = std::min(low[parent], low[sv]);
      }
    }
  }
  return num_comps;
}

}  // namespace rdt
