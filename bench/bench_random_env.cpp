// Experiment E1 — "R in random (uniform point-to-point) environments".
//
// Reproduces the study's first simulation figure: the forced-checkpoint
// overhead R of every protocol as the basic-checkpoint period and the
// process count vary, under uniformly random communication. Expected shape:
// R(CBR) >> R(NRAS) >= R(FDI) >= R(FDAS) >= R(V2) >= R(V1) >= R(BHMR), with
// R rising as basic checkpoints become rarer (more messages per interval
// means more junctions to break).
#include <iostream>

#include "bench_common.hpp"
#include "sim/environments.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

void sweep_ckpt_period(BenchReport& report, int num_processes, int seeds, int threads) {
  Table table({"basic-ckpt period", "msgs/interval", "CBR", "NRAS", "FDI",
               "FDAS", "BHMR-V2", "BHMR-V1", "BHMR", "ADAPT"});
  for (double period : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    auto generate = [&](std::uint64_t seed) {
      RandomEnvConfig cfg = random_env_preset();
      cfg.num_processes = num_processes;
      cfg.basic_ckpt_mean = period;
      cfg.seed = seed;
      return random_environment(cfg);
    };
    const auto stats = sweep(generate, study_protocols(), seeds, threads);
    report.add_sweep("ckpt_period",
                     {{"num_processes", num_processes},
                      {"basic_ckpt_mean", period},
                      {"seeds", seeds}},
                     stats);
    table.begin_row().add(period, 1);
    // Messages a process handles per basic-checkpoint interval: sends plus
    // deliveries, i.e. 2 * period / send_gap_mean in expectation.
    table.add(2.0 * period, 1);
    for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
  }
  std::cout << "\nn = " << num_processes << " processes, " << seeds
            << " seeds per point\n";
  table.print(std::cout);
}

void sweep_process_count(BenchReport& report, int seeds, int threads) {
  Table table({"n", "CBR", "NRAS", "FDI", "FDAS", "BHMR-V2", "BHMR-V1",
               "BHMR", "ADAPT"});
  for (int n : {4, 8, 16}) {
    auto generate = [&](std::uint64_t seed) {
      RandomEnvConfig cfg = random_env_preset();
      cfg.num_processes = n;
      cfg.seed = seed;
      return random_environment(cfg);
    };
    const auto stats = sweep(generate, study_protocols(), seeds, threads);
    report.add_sweep("process_count",
                     {{"num_processes", n}, {"seeds", seeds}}, stats);
    table.begin_row().add(n);
    for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
  }
  std::cout << "\nbasic-checkpoint period = 10 x send gap, " << seeds
            << " seeds per point\n";
  table.print(std::cout);
}

void fifo_ablation(BenchReport& report, int seeds, int threads) {
  Table table({"channels", "NRAS", "FDAS", "BHMR"});
  const std::vector<ProtocolKind> kinds{ProtocolKind::kNras,
                                        ProtocolKind::kFdas,
                                        ProtocolKind::kBhmr};
  for (bool fifo : {false, true}) {
    auto generate = [&](std::uint64_t seed) {
      RandomEnvConfig cfg = random_env_preset();
      cfg.fifo_channels = fifo;
      cfg.seed = seed;
      return random_environment(cfg);
    };
    const auto stats = sweep(generate, kinds, seeds, threads);
    report.add_sweep("fifo_ablation",
                     {{"fifo_channels", fifo}, {"seeds", seeds}}, stats);
    table.begin_row().add(fifo ? "FIFO" : "non-FIFO");
    for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
  }
  std::cout << "\nchannel-discipline ablation (n=8, period 10): the model "
               "assumes nothing about\nchannel order; FIFO links barely move "
               "R because non-causal junctions come from\ncross-channel "
               "races, not per-channel reordering\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) try {
  constexpr BenchFlag kFlags[] = {{"--seeds", "N"}, {"--threads", "N"}};
  const BenchArgs args(argc, argv, kFlags);
  const int seeds = args.seeds(10);
  const int threads = args.threads();
  BenchReport report("random_env", args);
  banner("E1 (random environments)",
         "forced-checkpoint overhead under uniform point-to-point traffic");
  sweep_ckpt_period(report, /*num_processes=*/8, seeds, threads);
  sweep_process_count(report, seeds, threads);
  fifo_ablation(report, seeds, threads);
  report.finish();
  return 0;
} catch (const UsageError&) {
  return 2;
}
