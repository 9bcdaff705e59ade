// Experiment E12 — hindsight necessity: how conservative is each protocol?
//
// A forced checkpoint is taken on the spot, from local knowledge; with the
// whole pattern in hand we can ask, for each one, whether RDT would still
// hold had it been skipped (remove the single checkpoint, merge its
// intervals, re-check). The fraction of individually-removable forced
// checkpoints is a protocol's *hindsight waste* — an upper bound on how
// much a cleverer on-line rule could still save (removals interact, so the
// jointly-removable set is smaller). This quantifies the paper's central
// design argument: the richer the piggybacked knowledge, the closer the
// on-line decision gets to the offline oracle.
#include <iostream>

#include "bench_common.hpp"
#include "ccp/shrink.hpp"
#include "core/rdt_checker.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

struct Hindsight {
  long long forced = 0;
  long long removable = 0;
};

Hindsight analyze(const ReplayResult& run) {
  Hindsight h;
  h.forced = static_cast<long long>(run.forced_ckpts.size());
  for (const CkptId& c : run.forced_ckpts) {
    const Pattern without = drop_elements(run.pattern, {}, {c});
    h.removable += satisfies_rdt(without);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) try {
  BenchReport report("hindsight", argc, argv);
  std::cout
      << "==================================================================\n"
         "E12 (hindsight necessity) — % of forced checkpoints an offline\n"
         "oracle could have skipped one at a time (lower = closer to optimal)\n"
         "==================================================================\n";
  const int seeds = 4;
  Table table({"protocol", "forced", "removable", "hindsight waste %"});
  for (ProtocolKind kind :
       {ProtocolKind::kCbr, ProtocolKind::kNras, ProtocolKind::kFdi,
        ProtocolKind::kFdas, ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmr}) {
    Hindsight total;
    for (int s = 1; s <= seeds; ++s) {
      RandomEnvConfig cfg;
      cfg.num_processes = 4;
      cfg.duration = 40;  // small on purpose: each forced ckpt costs a re-check
      cfg.basic_ckpt_mean = 8.0;
      cfg.seed = static_cast<std::uint64_t>(s);
      const ReplayResult run = replay(random_environment(cfg), kind);
      const Hindsight h = analyze(run);
      total.forced += h.forced;
      total.removable += h.removable;
    }
    report.add_metrics(
        "hindsight",
        JsonObject{{"protocol", to_string(kind)},
                   {"forced", total.forced},
                   {"removable", total.removable}});
    table.begin_row()
        .add(to_string(kind))
        .add(total.forced)
        .add(total.removable)
        .add(total.forced > 0 ? 100.0 * static_cast<double>(total.removable) /
                                    static_cast<double>(total.forced)
                              : 0.0,
             1);
  }
  table.print(std::cout);
  std::cout << "\nCBR's blind checkpoints are mostly skippable in hindsight; "
               "the dependency-\nvector protocols waste progressively less, "
               "with the full protocol the closest\nto the offline oracle — "
               "knowledge piggybacked is conservatism avoided.\n";
  report.finish();
  return 0;
} catch (const UsageError&) {
  return 2;
}
