// Experiment E3 — "R in client/server environments" (the companion study's
// Figure 9).
//
// A client's request walks a chain of servers, each forwarding with
// probability 1/2 and waiting for the reply; "the causal past of any
// message contains all the messages of the computation", making this the
// stress case for dependency tracking. Expected shape: R grows with chain
// length for the blind protocols while the causal-sibling knowledge of the
// BHMR family pays off most here (every doubling is visible because
// everything is in everyone's causal past).
#include <iostream>

#include "bench_common.hpp"
#include "sim/environments.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

void sweep_chain_length(BenchReport& report, int seeds, int threads) {
  Table table({"servers", "CBR", "NRAS", "FDI", "FDAS", "BHMR-V2", "BHMR-V1",
               "BHMR", "ADAPT"});
  for (int servers : {2, 4, 8, 12}) {
    auto generate = [&](std::uint64_t seed) {
      ClientServerEnvConfig cfg = client_server_env_preset();
      cfg.num_servers = servers;
      cfg.seed = seed;
      return client_server_environment(cfg);
    };
    const auto stats = sweep(generate, study_protocols(), seeds, threads);
    report.add_sweep("chain_length",
                     {{"num_servers", servers}, {"seeds", seeds}}, stats);
    table.begin_row().add(servers);
    for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
  }
  std::cout << "\n250 requests, forward probability 0.5, basic-checkpoint "
               "period = 10, "
            << seeds << " seeds per point\n";
  table.print(std::cout);
}

void sweep_forward_prob(BenchReport& report, int seeds, int threads) {
  Table table({"fwd prob", "CBR", "NRAS", "FDI", "FDAS", "BHMR-V2", "BHMR-V1",
               "BHMR", "ADAPT"});
  for (double prob : {0.25, 0.5, 0.75, 1.0}) {
    auto generate = [&](std::uint64_t seed) {
      ClientServerEnvConfig cfg = client_server_env_preset();
      cfg.forward_prob = prob;
      cfg.seed = seed;
      return client_server_environment(cfg);
    };
    const auto stats = sweep(generate, study_protocols(), seeds, threads);
    report.add_sweep("forward_prob",
                     {{"forward_prob", prob}, {"seeds", seeds}}, stats);
    table.begin_row().add(prob, 2);
    for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
  }
  std::cout << "\n8 servers, 250 requests, basic-checkpoint period = 10, "
            << seeds << " seeds per point\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) try {
  constexpr BenchFlag kFlags[] = {{"--seeds", "N"}, {"--threads", "N"}};
  const BenchArgs args(argc, argv, kFlags);
  const int seeds = args.seeds(10);
  const int threads = args.threads();
  BenchReport report("client_server", args);
  banner("E3 (client/server chains)",
         "forced-checkpoint overhead under synchronous request chains");
  sweep_chain_length(report, seeds, threads);
  sweep_forward_prob(report, seeds, threads);
  report.finish();
  return 0;
} catch (const UsageError&) {
  return 2;
}
