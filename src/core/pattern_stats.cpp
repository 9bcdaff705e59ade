#include "core/pattern_stats.hpp"

#include <ostream>
#include <vector>

#include "core/chains.hpp"
#include "rgraph/zigzag.hpp"

namespace rdt {

PatternStats compute_stats(const RdtAnalyses& analyses) {
  const Pattern& pattern = analyses.pattern();
  PatternStats stats;
  stats.processes = pattern.num_processes();
  stats.messages = pattern.num_messages();
  stats.events = pattern.total_events();
  stats.checkpoints = pattern.total_ckpts();
  for (ProcessId i = 0; i < pattern.num_processes(); ++i)
    if (pattern.last_ckpt(i) > 0 &&
        pattern.ckpt_is_virtual(i, pattern.last_ckpt(i)))
      ++stats.virtual_finals;

  // Causal junctions in one sweep: every send pairs with every earlier
  // delivery of its process.
  std::vector<long long> deliveries_so_far(
      static_cast<std::size_t>(pattern.num_processes()), 0);
  for (const EventRef& e : pattern.topological_order()) {
    const Event& ev = pattern.event(e);
    if (ev.kind == EventKind::kDeliver)
      ++deliveries_so_far[static_cast<std::size_t>(e.process)];
    else if (ev.kind == EventKind::kSend)
      stats.causal_junctions +=
          deliveries_so_far[static_cast<std::size_t>(e.process)];
  }

  const ChainAnalysis& chains = analyses.chains();
  stats.noncausal_junctions =
      static_cast<long long>(chains.noncausal_junctions().size());
  const ChainAnalysis::ZReachStats zreach = chains.zreach_stats();
  stats.zreach_edges = zreach.edges;
  stats.zreach_sccs = zreach.sccs;
  stats.zreach_largest_scc = zreach.largest_scc;
  stats.zreach_sweep_ms = zreach.sweep_ms;

  // Hidden dependencies are exactly the definitional check's failing pairs.
  const CheckResult definitional = check_rdt_definitional(analyses);
  stats.hidden_dependencies =
      definitional.paths_checked - definitional.paths_satisfied;
  stats.useless_checkpoints = static_cast<int>(
      useless_checkpoints(analyses.closure()).size());
  return stats;
}

PatternStats compute_stats(const Pattern& pattern) {
  const RdtAnalyses analyses(pattern);
  return compute_stats(analyses);
}

std::ostream& operator<<(std::ostream& os, const PatternStats& stats) {
  os << "pattern: " << stats.processes << " processes, " << stats.messages
     << " messages, " << stats.events << " events, " << stats.checkpoints
     << " checkpoints (" << stats.virtual_finals << " virtual)\n"
     << "junctions: " << stats.causal_junctions << " causal, "
     << stats.noncausal_junctions << " non-causal\n"
     << "z-reach engine: " << stats.zreach_edges << " edges, "
     << stats.zreach_sccs << " SCCs (largest " << stats.zreach_largest_scc
     << "), sweep " << stats.zreach_sweep_ms << " ms\n"
     << "hidden dependencies: " << stats.hidden_dependencies
     << ", useless checkpoints: " << stats.useless_checkpoints << " — RDT "
     << (stats.rdt() ? "holds" : "violated") << '\n';
  return os;
}

}  // namespace rdt
