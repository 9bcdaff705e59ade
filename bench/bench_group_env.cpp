// Experiment E2 — "R in overlapping group communication environments"
// (the companion study's Figure 8).
//
// Processes communicate only inside their groups; neighbouring groups on
// the ring share `overlap` members through which dependencies leak.
// Expected shape: localized traffic keeps R below the random environment at
// the same rates, and more overlap (more leakage, longer hidden chains)
// raises R for every dependency-tracking protocol while the BHMR family
// stays below FDAS throughout.
#include <iostream>

#include "bench_common.hpp"
#include "sim/environments.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

void sweep_overlap(BenchReport& report, int seeds, int threads) {
  Table table({"overlap", "n", "CBR", "NRAS", "FDI", "FDAS", "BHMR-V2",
               "BHMR-V1", "BHMR", "ADAPT"});
  for (int overlap : {0, 1, 2}) {
    GroupEnvConfig base = group_env_preset();
    base.overlap = overlap;
    auto generate = [&](std::uint64_t seed) {
      GroupEnvConfig cfg = base;
      cfg.seed = seed;
      return group_environment(cfg);
    };
    const auto stats = sweep(generate, study_protocols(), seeds, threads);
    report.add_sweep("overlap",
                     {{"num_groups", base.num_groups},
                      {"group_size", base.group_size},
                      {"overlap", overlap},
                      {"seeds", seeds}},
                     stats);
    table.begin_row().add(overlap).add(base.num_processes());
    for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
  }
  std::cout << "\n4 groups of 4, basic-checkpoint period = 10, " << seeds
            << " seeds per point\n";
  table.print(std::cout);
}

void sweep_group_count(BenchReport& report, int seeds, int threads) {
  Table table({"groups", "n", "CBR", "NRAS", "FDI", "FDAS", "BHMR-V2",
               "BHMR-V1", "BHMR", "ADAPT"});
  for (int groups : {2, 4, 6}) {
    GroupEnvConfig base = group_env_preset();
    base.num_groups = groups;
    auto generate = [&](std::uint64_t seed) {
      GroupEnvConfig cfg = base;
      cfg.seed = seed;
      return group_environment(cfg);
    };
    const auto stats = sweep(generate, study_protocols(), seeds, threads);
    report.add_sweep("group_count",
                     {{"num_groups", groups},
                      {"group_size", base.group_size},
                      {"overlap", base.overlap},
                      {"seeds", seeds}},
                     stats);
    table.begin_row().add(groups).add(base.num_processes());
    for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
  }
  std::cout << "\ngroup size 4, overlap 1, basic-checkpoint period = 10, "
            << seeds << " seeds per point\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) try {
  constexpr BenchFlag kFlags[] = {{"--seeds", "N"}, {"--threads", "N"}};
  const BenchArgs args(argc, argv, kFlags);
  const int seeds = args.seeds(10);
  const int threads = args.threads();
  BenchReport report("group_env", args);
  banner("E2 (overlapping group communication)",
         "forced-checkpoint overhead with group-local traffic");
  sweep_overlap(report, seeds, threads);
  sweep_group_count(report, seeds, threads);
  report.finish();
  return 0;
} catch (const UsageError&) {
  return 2;
}
