// End-to-end sweep throughput — the canonical wall-clock workload for the
// replay engine: the full study protocol set over all three environment
// families, timed per environment. This is the number the zero-allocation
// arena and the counters-only fast path exist to improve; run it with
// `--json BENCH_sweep.json` to record machine-readable timings (the
// perf-smoke CI job does, and docs/benchmarks.md shows how to compare two
// runs).
//
// Usage: bench_sweep [--seeds N] [--threads N] [--json <path>]
//                    [--trace <path>]
#include <chrono>
#include <iostream>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;
using Clock = std::chrono::steady_clock;

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  BenchReport report("sweep", args);
  const int seeds = args.seeds(20);
  const int threads = args.threads();

  banner("sweep throughput",
         "wall time of the full protocol-study sweep per environment");
  std::cout << seeds << " seeds, " << threads << " thread(s), "
            << study_protocols().size() << " protocols\n\n";

  Table table({"environment", "wall s", "traces/s", "BHMR R"});
  auto run = [&](const std::string& name,
                 const std::function<Trace(std::uint64_t)>& generate) {
    const auto t0 = Clock::now();
    const auto stats = sweep(generate, study_protocols(), seeds, threads);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double replays =
        static_cast<double>(seeds) *
        static_cast<double>(study_protocols().size());
    table.begin_row()
        .add(name)
        .add(wall, 3)
        .add(replays / wall, 1)
        .add(stats.back().r_forced_per_basic.mean, 4);
    report.add_sweep(name, {{"seeds", seeds}, {"threads", threads}}, stats);
    report.add_metrics(name + "_timing",
                       JsonObject{{"wall_seconds", wall},
                                  {"replays_per_second", replays / wall}});
  };

  for (const EnvPreset& env : env_presets()) run(env.name, env.generate);

  table.print(std::cout);
  std::cout << "\n'traces/s' counts protocol replays (seeds x protocols) per "
               "second;\nthe R column is a determinism checksum — it must not "
               "move between runs\nor thread counts.\n";
  report.finish();
  return 0;
}
