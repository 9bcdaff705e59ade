// Experiment E4 — the headline claim: "the reduction of forced checkpoints
// taken by the proposed protocol with respect to FDAS ... is never less
// than 10%", quantified per environment for the full protocol and its two
// variants (positive % = fewer forced checkpoints than FDAS).
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "sim/environments.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

struct EnvCase {
  std::string name;
  std::function<Trace(std::uint64_t)> generate;
};

std::vector<EnvCase> environments() {
  std::vector<EnvCase> envs;
  envs.push_back({"random n=4", [](std::uint64_t seed) {
                    RandomEnvConfig cfg;
                    cfg.num_processes = 4;
                    cfg.duration = 400;
                    cfg.basic_ckpt_mean = 10.0;
                    cfg.seed = seed;
                    return random_environment(cfg);
                  }});
  envs.push_back({"random n=8", [](std::uint64_t seed) {
                    RandomEnvConfig cfg;
                    cfg.num_processes = 8;
                    cfg.duration = 400;
                    cfg.basic_ckpt_mean = 10.0;
                    cfg.seed = seed;
                    return random_environment(cfg);
                  }});
  envs.push_back({"random n=16", [](std::uint64_t seed) {
                    RandomEnvConfig cfg;
                    cfg.num_processes = 16;
                    cfg.duration = 300;
                    cfg.basic_ckpt_mean = 10.0;
                    cfg.seed = seed;
                    return random_environment(cfg);
                  }});
  envs.push_back({"groups 4x4 ov=1", [](std::uint64_t seed) {
                    GroupEnvConfig cfg;
                    cfg.num_groups = 4;
                    cfg.group_size = 4;
                    cfg.overlap = 1;
                    cfg.duration = 400;
                    cfg.basic_ckpt_mean = 10.0;
                    cfg.seed = seed;
                    return group_environment(cfg);
                  }});
  envs.push_back({"client/server 8", [](std::uint64_t seed) {
                    ClientServerEnvConfig cfg;
                    cfg.num_servers = 8;
                    cfg.num_requests = 300;
                    cfg.basic_ckpt_mean = 10.0;
                    cfg.seed = seed;
                    return client_server_environment(cfg);
                  }});
  return envs;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  BenchReport report("reduction", args);
  banner("E4 (reduction vs FDAS)",
         "percentage of forced checkpoints saved w.r.t. FDAS per environment");
  const int seeds = 12;
  const std::vector<ProtocolKind> kinds{
      ProtocolKind::kFdas, ProtocolKind::kBhmrC1Only,
      ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmr};

  Table table({"environment", "FDAS forced", "BHMR-V2 %", "BHMR-V1 %",
               "BHMR %"});
  double min_bhmr_reduction = 100.0;
  for (const auto& env : environments()) {
    const auto stats = sweep(env.generate, kinds, seeds, args.threads());
    report.add_sweep(env.name, {{"seeds", seeds}}, stats);
    table.begin_row().add(env.name);
    table.add(stats[0].total_forced);
    for (ProtocolKind kind : {ProtocolKind::kBhmrC1Only,
                              ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmr}) {
      const auto red = forced_reduction_percent(stats, kind, ProtocolKind::kFdas);
      if (red)
        table.add(*red, 1);
      else
        table.add("n/a");
    }
    const auto bhmr = forced_reduction_percent(stats, ProtocolKind::kBhmr,
                                               ProtocolKind::kFdas);
    if (bhmr) min_bhmr_reduction = std::min(min_bhmr_reduction, *bhmr);
  }
  std::cout << '\n' << seeds << " seeds per environment\n";
  table.print(std::cout);
  std::cout << "\npaper claim: the reduction of the full protocol w.r.t. FDAS "
               "is never less than ~10%\nmeasured minimum across "
               "environments: "
            << min_bhmr_reduction << "%  ("
            << (min_bhmr_reduction >= 10.0 ? "claim holds" : "below claim")
            << ")\n";
  report.add_metrics("claim",
                     JsonObject{{"min_bhmr_reduction_percent",
                                 min_bhmr_reduction},
                                {"claim_holds", min_bhmr_reduction >= 10.0}});
  report.finish();
  return 0;
}
