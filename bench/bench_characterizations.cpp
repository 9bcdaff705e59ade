// Experiment E7 — the characterization hierarchy, empirically: agreement
// of every checker with the definitional RDT test over randomized patterns
// (the PODC paper's equivalences), plus the cost of each checker as the
// pattern grows. Also reports how often raw independent checkpointing
// satisfies RDT at all — the motivation for forcing checkpoints.
//
// Exits 1 when any equivalence the paper proves (MM, CM, PCM == DEF;
// VCM => DEF; VPCM == VCM) fails on some pattern, after writing the report.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/rdt_checker.hpp"
#include "util/rng.hpp"

// The randomized-pattern generator shared with the test suite.
#include "../tests/fixtures.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;
using Clock = std::chrono::steady_clock;

// Returns false when a proven equivalence failed on some pattern.
bool agreement_sweep(BenchReport& report) {
  Table table({"patterns", "RDT holds", "MM==DEF", "CM==DEF", "PCM==DEF",
               "VCM=>DEF", "VPCM==VCM", "DEF w/o VCM", "cycle-free w/o RDT"});
  Rng rng(20260705);
  const int patterns = 3000;
  long long rdt_ok = 0, mm_eq = 0, cm_eq = 0, pcm_eq = 0, vcm_impl = 0,
            vpcm_eq = 0, def_not_vcm = 0, nozc_not_def = 0;
  for (int round = 0; round < patterns; ++round) {
    const int n = 2 + static_cast<int>(rng.below(4));
    const int steps = 20 + static_cast<int>(rng.below(150));
    const Pattern p = test::random_pattern(rng, n, steps);
    const RdtReport r = analyze_rdt(p);
    rdt_ok += r.definitional.ok;
    mm_eq += r.mm.ok == r.definitional.ok;
    cm_eq += r.cm.ok == r.definitional.ok;
    pcm_eq += r.pcm.ok == r.definitional.ok;
    vcm_impl += !r.vcm.ok || r.definitional.ok;
    vpcm_eq += r.vpcm.ok == r.vcm.ok;
    def_not_vcm += r.definitional.ok && !r.vcm.ok;
    nozc_not_def += r.no_z_cycle.ok && !r.definitional.ok;
  }
  table.begin_row()
      .add(patterns)
      .add(rdt_ok)
      .add(mm_eq)
      .add(cm_eq)
      .add(pcm_eq)
      .add(vcm_impl)
      .add(vpcm_eq)
      .add(def_not_vcm)
      .add(nozc_not_def);
  report.add_metrics(
      "agreement",
      JsonObject{{"patterns", static_cast<long long>(patterns)},
                 {"rdt_holds", rdt_ok},
                 {"mm_eq_def", mm_eq},
                 {"cm_eq_def", cm_eq},
                 {"pcm_eq_def", pcm_eq},
                 {"vcm_implies_def", vcm_impl},
                 {"vpcm_eq_vcm", vpcm_eq},
                 {"def_without_vcm", def_not_vcm},
                 {"cycle_free_without_rdt", nozc_not_def}});
  table.print(std::cout);
  std::cout << "MM/CM/PCM agree with the definitional check on every pattern "
               "(the equivalences);\nVCM implies RDT but not conversely "
               "(visibility is strictly stronger); cycle-freedom\nis strictly "
               "weaker. Independent checkpointing yields RDT on only a small "
               "fraction.\n";
  const bool agreed = mm_eq == patterns && cm_eq == patterns &&
                      pcm_eq == patterns && vcm_impl == patterns &&
                      vpcm_eq == patterns;
  if (!agreed)
    std::cerr << "bench_characterizations: a proven equivalence failed on "
                 "at least one pattern\n";
  return agreed;
}

void cost_sweep(BenchReport& report) {
  std::cout << "\nchecker cost (ms per pattern, single run) and junction-graph "
               "shape\n";
  Table table({"steps", "ckpts", "junctions", "edges", "SCCs", "zreach ms",
               "DEF ms", "MM ms", "CM ms", "PCM ms", "VCM ms", "fused ms"});
  Rng rng(99);
  for (int steps : {200, 400, 800, 1600, 3200}) {
    const Pattern p = test::random_pattern(rng, 6, steps);
    const RdtAnalyses analyses(p);
    auto ms = [&](auto&& checker) {
      const auto t0 = Clock::now();
      const auto r = checker(analyses);
      (void)r;
      return static_cast<double>(
                 std::chrono::duration_cast<std::chrono::microseconds>(
                     Clock::now() - t0)
                     .count()) /
             1000.0;
    };
    // DEF runs first, so its figure includes building the closure; the
    // chain analysis is built before the junction checkers are timed. Each
    // checker is timed once and that one figure goes to both the JSON
    // report and the table.
    const double def_ms = ms(check_rdt_definitional);
    (void)analyses.chains();
    const double mm_ms = ms(check_mm_doubled);
    const double cm_ms = ms(check_cm_doubled);
    const double pcm_ms = ms(check_pcm_doubled);
    const double vcm_ms = ms(check_cm_visibly_doubled);
    const double fused_ms = ms(check_junction_families);
    const auto zs = analyses.chains().zreach_stats();
    report.add_metrics(
        "checker_cost",
        JsonObject{{"steps", steps},
                   {"total_ckpts", static_cast<long long>(p.total_ckpts())},
                   {"def_ms", def_ms},
                   {"mm_ms", mm_ms},
                   {"cm_ms", cm_ms},
                   {"pcm_ms", pcm_ms},
                   {"vcm_ms", vcm_ms},
                   {"fused_ms", fused_ms}});
    table.begin_row()
        .add(steps)
        .add(p.total_ckpts())
        .add(static_cast<long long>(
            analyses.chains().noncausal_junctions().size()))
        .add(zs.edges)
        .add(zs.sccs)
        .add(zs.sweep_ms, 2)
        .add(def_ms, 2)
        .add(mm_ms, 2)
        .add(cm_ms, 2)
        .add(pcm_ms, 2)
        .add(vcm_ms, 2)
        .add(fused_ms, 2);
  }
  table.print(std::cout);
  std::cout << "'fused ms' runs all five junction families in one pass — "
               "compare with the sum of MM..VCM.\n";
}

}  // namespace

int main(int argc, char** argv) try {
  BenchReport report("characterizations", argc, argv);
  std::cout
      << "==================================================================\n"
         "E7 (visible characterizations) — checker agreement and cost\n"
         "hierarchy: {VCM<=>VPCM} => {DEF<=>CM<=>PCM<=>MM} => no Z-cycle\n"
         "==================================================================\n";
  const bool agreed = agreement_sweep(report);
  cost_sweep(report);
  report.finish();
  return agreed ? 0 : 1;
} catch (const UsageError&) {
  return 2;
}
