// Experiment W1 — the piggyback codec trade-off, measured end to end.
//
// Three sections, all over the standard environment presets:
//  * pareto_<env>: the forced-checkpoints-vs-wire-bits Pareto sweep. Every
//    protocol replays through its *declared* codec (ProtocolRegistry
//    metadata), so the bits column is what the codec actually put on the
//    wire — the flat column keeps the paper's analytic figure for scale.
//    A protocol dominates when it sits below-left of another: fewer forced
//    checkpoints for fewer piggybacked bits.
//  * equivalence: the codec soundness contract, checked the expensive way.
//    For each env x protocol, one full replay through the flat reference
//    codec and one through the declared codec must agree on every
//    analysis output: forced/basic counts, the per-predicate attribution,
//    the complete RDT characterization verdict (analyze_rdt), and the
//    recovery line after a failure of process 0. Codecs change representation, never
//    semantics; `all_ok` is the bit CI gates on.
//  * codec_comparison: every payload-carrying protocol forced through all
//    three codecs on the random environment — the off-diagonal cells the
//    registry's default assignment rejected, kept honest by measurement.
//
// Usage: bench_wire [--seeds N] [--threads N] [--json <path>]
//                   [--trace <path>]
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/rdt_checker.hpp"
#include "recovery/recovery_line.hpp"
#include "sim/replay.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

// The Pareto population: the study set plus BCS, the index-only outlier
// that anchors the cheap end of the wire axis.
std::vector<ProtocolKind> pareto_protocols() {
  std::vector<ProtocolKind> kinds = study_protocols();
  kinds.push_back(ProtocolKind::kBcs);
  return kinds;
}

// One flat-codec (the reference layout) and one declared-codec replay over
// the same trace, compared on every analysis output. Returns the per-field comparison for the JSON
// report; `ok` only when every field agrees.
struct EquivalenceRow {
  bool counts_ok = false;    // messages / basic / forced
  bool reasons_ok = false;   // forced_by_reason, slot by slot
  bool verdict_ok = false;   // the full analyze_rdt report
  bool recovery_ok = false;  // recovery line after process 0 fails
  double wire_bits_per_message = 0.0;
  double flat_bits_per_message = 0.0;
  bool ok() const {
    return counts_ok && reasons_ok && verdict_ok && recovery_ok;
  }
};

EquivalenceRow check_equivalence(const Trace& trace, ProtocolKind kind) {
  const ReplayResult flat = replay(trace, kind, {.wire_codec = PiggybackCodecKind::kFlat});
  const ReplayResult wire = replay(trace, kind);

  EquivalenceRow row;
  row.counts_ok = flat.messages == wire.messages &&
                  flat.basic == wire.basic && flat.forced == wire.forced;
  row.reasons_ok = flat.forced_by_reason == wire.forced_by_reason;
  const RdtReport flat_report = analyze_rdt(flat.pattern);
  const RdtReport wire_report = analyze_rdt(wire.pattern);
  row.verdict_ok =
      flat_report.definitional.ok == wire_report.definitional.ok &&
      flat_report.cm.ok == wire_report.cm.ok &&
      flat_report.pcm.ok == wire_report.pcm.ok &&
      flat_report.mm.ok == wire_report.mm.ok &&
      flat_report.vcm.ok == wire_report.vcm.ok &&
      flat_report.vpcm.ok == wire_report.vpcm.ok &&
      flat_report.no_z_cycle.ok == wire_report.no_z_cycle.ok;
  const RecoveryOutcome flat_rec = recover_after_failure(flat.pattern, 0);
  const RecoveryOutcome wire_rec = recover_after_failure(wire.pattern, 0);
  row.recovery_ok = flat_rec.line == wire_rec.line &&
                    flat_rec.total_rollback == wire_rec.total_rollback;
  row.wire_bits_per_message = wire.wire_bits_per_message();
  row.flat_bits_per_message = flat.flat_bits_per_message();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  BenchReport report("wire", args);
  const int seeds = args.seeds(20);
  const int threads = args.threads();
  const std::vector<ProtocolKind> kinds = pareto_protocols();
  const ProtocolRegistry& registry = ProtocolRegistry::instance();

  banner("W1 (wire codecs)",
         "forced checkpoints vs measured piggyback bits, per codec");
  std::cout << seeds << " seeds, " << threads << " thread(s), "
            << kinds.size() << " protocols\n\n";

  // --- Section 1: the Pareto sweep, one table per environment. -----------
  for (const EnvPreset& env : env_presets()) {
    const std::vector<ProtocolStats> stats = sweep(env.generate, kinds, seeds, threads);
    Table table({"protocol", "codec", "R = forced/basic", "wire bits/msg",
                 "flat bits/msg", "wire/flat"});
    for (const ProtocolStats& s : stats) {
      const double ratio = s.flat_bits.mean > 0.0
                               ? s.wire_bits.mean / s.flat_bits.mean
                               : 0.0;
      table.begin_row()
          .add(to_string(s.kind))
          .add(to_cstring(registry.info(s.kind).codec))
          .add(pm(s.r_forced_per_basic))
          .add(s.wire_bits.mean, 1)
          .add(s.flat_bits.mean, 1)
          .add(ratio, 3);
    }
    std::cout << "environment: " << env.name << '\n';
    table.print(std::cout);
    std::cout << '\n';
    report.add_sweep("pareto_" + env.name,
                     {{"seeds", seeds}, {"threads", threads}}, stats);
  }

  // --- Section 2: flat codec vs declared codec, full analysis. -----------
  // One trace per environment (fixed seed): the expensive O(C^2)
  // characterization suite runs twice per cell, so this section stays
  // narrow and deterministic rather than sweeping.
  bool all_ok = true;
  JsonArray equivalence_rows;
  Table eq_table({"environment", "protocol", "codec", "counts", "reasons",
                  "verdict", "recovery"});
  for (const EnvPreset& env : env_presets()) {
    const Trace trace = env.generate(1);
    for (ProtocolKind kind : kinds) {
      const EquivalenceRow row = check_equivalence(trace, kind);
      all_ok = all_ok && row.ok();
      eq_table.begin_row()
          .add(env.name)
          .add(to_string(kind))
          .add(to_cstring(registry.info(kind).codec))
          .add(row.counts_ok ? "ok" : "MISMATCH")
          .add(row.reasons_ok ? "ok" : "MISMATCH")
          .add(row.verdict_ok ? "ok" : "MISMATCH")
          .add(row.recovery_ok ? "ok" : "MISMATCH");
      equivalence_rows.push_back(JsonObject{
          {"environment", env.name},
          {"protocol", to_string(kind)},
          {"codec", to_cstring(registry.info(kind).codec)},
          {"counts_ok", row.counts_ok},
          {"reasons_ok", row.reasons_ok},
          {"verdict_ok", row.verdict_ok},
          {"recovery_ok", row.recovery_ok},
          {"equivalence_ok", row.ok()},
          {"wire_bits_per_message", row.wire_bits_per_message},
          {"flat_bits_per_message", row.flat_bits_per_message}});
    }
  }
  std::cout << "declared-codec replay vs flat-codec replay (seed 1):\n";
  eq_table.print(std::cout);
  std::cout << (all_ok ? "\nall cells bit-identical — codecs changed "
                         "representation only.\n\n"
                       : "\nMISMATCH: a codec changed analysis results — "
                         "this is a bug.\n\n");
  report.add_metrics("equivalence",
                     JsonObject{{"all_ok", all_ok},
                                {"rows", std::move(equivalence_rows)}});

  // --- Section 3: every payload-carrying protocol x every codec. ---------
  {
    const int codec_seeds = std::min(seeds, 5);
    Table table({"protocol", "flat bits/msg", "delta bits/msg",
                 "sparse bits/msg", "declared"});
    JsonArray rows;
    PayloadArena arena;
    for (ProtocolKind kind : kinds) {
      const ProtocolInfo& info = registry.info(kind);
      if (!info.shape.tdv && !info.shape.simple && !info.shape.causal &&
          !info.shape.index)
        continue;  // nothing on the wire; all codecs encode 0 bits
      table.begin_row().add(to_string(kind));
      JsonObject row{{"protocol", to_string(kind)}};
      for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
        const auto codec = static_cast<PiggybackCodecKind>(c);
        unsigned long long bits = 0;
        long long messages = 0;
        for (int s = 0; s < codec_seeds; ++s) {
          const Trace trace = env_presets()[0].generate(1 + s);
          const ReplayResult r = replay_metrics(trace, kind, &arena, codec);
          bits += r.wire_bits_total;
          messages += r.messages;
        }
        const double per_message =
            messages > 0 ? static_cast<double>(bits) /
                               static_cast<double>(messages)
                         : 0.0;
        table.add(per_message, 1);
        row.emplace_back(std::string(to_cstring(codec)) +
                             "_bits_per_message",
                         per_message);
      }
      table.add(to_cstring(info.codec));
      row.emplace_back("declared", to_cstring(info.codec));
      rows.push_back(std::move(row));
    }
    std::cout << "all codecs over the random environment (" << codec_seeds
              << " seeds):\n";
    table.print(std::cout);
    report.add_metrics("codec_comparison",
                       JsonObject{{"environment", "random"},
                                  {"seeds", codec_seeds},
                                  {"rows", std::move(rows)}});
  }

  std::cout << "\nthe delta codec wins wherever traffic revisits channels "
               "(TDV entries move\nslowly); sparse wins one-shot payloads "
               "and costs no per-channel state —\nwhich is why bhmr-v2 and "
               "bcs keep it even where delta edges it out.\n";
  report.finish();
  return all_ok ? 0 : 1;
}
