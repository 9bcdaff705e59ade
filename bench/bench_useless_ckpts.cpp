// Experiment E10 — useless checkpoints, storage, and where BCS sits.
//
// A checkpoint on a zigzag cycle belongs to no consistent global checkpoint
// — taking it was wasted work. This experiment measures, per protocol:
//  * the fraction of checkpoints that end up useless;
//  * how often the resulting pattern satisfies RDT at all;
//  * the fraction of stable storage the recovery line lets a garbage
//    collector reclaim.
// The index-based BCS protocol is the interesting middle point: zero
// useless checkpoints (its guarantee) with O(1) piggybacking, yet RDT —
// a strictly stronger property — still fails without dependency vectors.
#include <iostream>

#include "bench_common.hpp"
#include "core/rdt_checker.hpp"
#include "recovery/gc.hpp"
#include "rgraph/zigzag.hpp"
#include "sim/environments.hpp"
#include "sim/protocol_driver.hpp"
#include "sim/replay.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

}  // namespace

int main(int argc, char** argv) try {
  BenchReport report("useless_ckpts", argc, argv);
  std::cout
      << "==================================================================\n"
         "E10 (useless checkpoints & storage) — no-force vs BCS vs RDT family\n"
         "==================================================================\n";
  const int seeds = 8;
  Table table({"protocol", "wire bits/msg", "useless ckpt %", "RDT runs",
               "GC-collectable %", "forced/basic"});
  for (ProtocolKind kind :
       {ProtocolKind::kNoForce, ProtocolKind::kBcs, ProtocolKind::kNras,
        ProtocolKind::kFdas, ProtocolKind::kBhmr}) {
    RunningStats useless_frac;
    RunningStats gc_frac;
    RunningStats r_metric;
    int rdt_runs = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      RandomEnvConfig cfg;
      cfg.num_processes = 6;
      cfg.duration = 150;
      cfg.basic_ckpt_mean = 8.0;
      cfg.seed = seed;
      const ReplayResult r = replay(random_environment(cfg), kind);
      const RGraph graph(r.pattern);
      const ReachabilityClosure closure(graph);
      const auto useless = useless_checkpoints(closure);
      useless_frac.add(100.0 * static_cast<double>(useless.size()) /
                       static_cast<double>(r.pattern.total_ckpts()));
      gc_frac.add(100.0 * collect_obsolete(r.pattern).obsolete_fraction);
      r_metric.add(r.forced_per_basic());
      rdt_runs += satisfies_rdt(r.pattern);
    }
    report.add_metrics(
        "useless_ckpts",
        JsonObject{{"protocol", to_string(kind)},
                   {"wire_bits",
                    static_cast<unsigned long long>(piggyback_bits(kind, 6))},
                   {"useless_pct", to_json(useless_frac.summary())},
                   {"rdt_runs", static_cast<long long>(rdt_runs)},
                   {"seeds", static_cast<long long>(seeds)},
                   {"gc_collectable_pct", to_json(gc_frac.summary())},
                   {"r_mean", r_metric.summary().mean}});
    table.begin_row()
        .add(to_string(kind))
        .add(piggyback_bits(kind, 6))
        .add(pm(useless_frac.summary(), 1))
        .add(std::to_string(rdt_runs) + "/" + std::to_string(seeds))
        .add(pm(gc_frac.summary(), 1))
        .add(r_metric.summary().mean, 3);
  }
  table.print(std::cout);
  std::cout
      << "\nno-force wastes a large share of its checkpoints and lets stable\n"
         "storage grow; BCS eliminates useless checkpoints with 32 bits of\n"
         "piggyback but leaves hidden dependencies (RDT fails); the\n"
         "dependency-vector family delivers full RDT, the BHMR protocol at\n"
         "the lowest forced-checkpoint rate.\n";
  report.finish();
  return 0;
} catch (const UsageError&) {
  return 2;
}
