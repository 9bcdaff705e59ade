// The sweep binary: every experiment that sweeps protocols over generated
// environments, as a table of named presets (--preset NAME). Each preset
// keeps its banner, default seed count and report name (the JSON
// "experiment"):
//
//   sweep          (default) end-to-end sweep throughput — the canonical
//                  wall-clock workload for the replay engine: the full study
//                  protocol set over all three environment families, timed
//                  per environment. Run it with `--json BENCH_sweep.json` to
//                  record machine-readable timings (docs/benchmarks.md shows
//                  how to compare two runs).
//   random_env     E1: R in random (uniform point-to-point) environments
//   group_env      E2: R in overlapping group communication (Figure 8)
//   client_server  E3: R in client/server chains (Figure 9)
//   reduction      E4: forced checkpoints saved w.r.t. FDAS ("never less
//                  than 10%")
//   overhead       E5: piggyback control bits per message (Section 5.2)
//
// EXPERIMENTS.md states each experiment's expected shape next to its table.
//
// Usage: bench_sweep [--preset NAME] [--seeds N] [--threads N]
//                    [--json <path>] [--trace <path>]
#include <algorithm>
#include <cctype>
#include <chrono>
#include <iostream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/protocol_driver.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;
using Clock = std::chrono::steady_clock;
using Generator = std::function<Trace(std::uint64_t seed)>;

// What every preset runs with.
struct Run {
  BenchReport& report;
  int seeds;
  int threads;
};

// A protocol's table column: its upper-cased id ("BHMR-V2"); the adaptive
// meta-protocol's is abbreviated to ADAPT.
std::string column(ProtocolKind kind) {
  if (kind == ProtocolKind::kAdaptive) return "ADAPT";
  std::string id = to_string(kind);
  std::ranges::transform(id, id.begin(),
                         [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return id;
}

// An R table: the leading columns, then one column per protocol.
Table r_table(std::vector<std::string> head, std::span<const ProtocolKind> kinds) {
  for (ProtocolKind kind : kinds) head.push_back(column(kind));
  return Table(std::move(head));
}

// One E1–E3 row: sweep `generate` over `kinds`, record the sweep under
// `section` with `params` and the seed count, and finish the row the caller
// began with one R cell per protocol.
void r_row(const Run& run, const std::string& section, JsonObject params,
           const Generator& generate, std::span<const ProtocolKind> kinds, Table& table) {
  const auto stats = sweep(generate, kinds, run.seeds, run.threads);
  params.emplace_back("seeds", run.seeds);
  run.report.add_sweep(section, std::move(params), stats);
  for (const ProtocolStats& s : stats) table.add(pm(s.r_forced_per_basic));
}

// The default: wall time of the full protocol-study sweep per environment.
void throughput(const Run& run) {
  banner("sweep throughput", "wall time of the full protocol-study sweep per environment");
  std::cout << run.seeds << " seeds, " << run.threads << " thread(s), "
            << study_protocols().size() << " protocols\n\n";

  Table table({"environment", "wall s", "traces/s", "BHMR R"});
  for (const EnvPreset& env : env_presets()) {
    const auto t0 = Clock::now();
    const auto stats = sweep(env.generate, study_protocols(), run.seeds, run.threads);
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    const double replays =
        static_cast<double>(run.seeds) * static_cast<double>(study_protocols().size());
    table.begin_row()
        .add(env.name)
        .add(wall, 3)
        .add(replays / wall, 1)
        .add(stats.back().r_forced_per_basic.mean, 4);
    run.report.add_sweep(env.name, {{"seeds", run.seeds}, {"threads", run.threads}}, stats);
    run.report.add_metrics(
        env.name + "_timing",
        JsonObject{{"wall_seconds", wall}, {"replays_per_second", replays / wall}});
  }

  table.print(std::cout);
  std::cout << "\n'traces/s' counts protocol replays (seeds x protocols) per "
               "second;\nthe R column is a determinism checksum — it must not "
               "move between runs\nor thread counts.\n";
}

// E1 — R under uniformly random communication as the basic-checkpoint
// period and the process count vary. Expected shape: R(CBR) >> R(NRAS) >=
// R(FDI) >= R(FDAS) >= R(V2) >= R(V1) >= R(BHMR), with R rising as basic
// checkpoints become rarer (more messages per interval means more junctions
// to break).
void random_env(const Run& run) {
  banner("E1 (random environments)",
         "forced-checkpoint overhead under uniform point-to-point traffic");
  const std::vector<ProtocolKind>& all = study_protocols();
  const int n = random_env_preset().num_processes;

  Table periods = r_table({"basic-ckpt period", "msgs/interval"}, all);
  for (double period : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    RandomEnvConfig cfg = random_env_preset();
    cfg.basic_ckpt_mean = period;
    // Messages a process handles per basic-checkpoint interval: sends plus
    // deliveries, i.e. 2 * period / send_gap_mean in expectation.
    periods.begin_row().add(period, 1).add(2.0 * period, 1);
    r_row(run, "ckpt_period", {{"num_processes", n}, {"basic_ckpt_mean", period}},
          seeded(cfg, random_environment), all, periods);
  }
  std::cout << "\nn = " << n << " processes, " << run.seeds << " seeds per point\n";
  periods.print(std::cout);

  Table counts = r_table({"n"}, all);
  for (int processes : {4, 8, 16}) {
    RandomEnvConfig cfg = random_env_preset();
    cfg.num_processes = processes;
    counts.begin_row().add(processes);
    r_row(run, "process_count", {{"num_processes", processes}},
          seeded(cfg, random_environment), all, counts);
  }
  std::cout << "\nbasic-checkpoint period = 10 x send gap, " << run.seeds << " seeds per point\n";
  counts.print(std::cout);

  const std::vector<ProtocolKind> kinds{ProtocolKind::kNras, ProtocolKind::kFdas,
                                        ProtocolKind::kBhmr};
  Table fifo_table = r_table({"channels"}, kinds);
  for (bool fifo : {false, true}) {
    RandomEnvConfig cfg = random_env_preset();
    cfg.fifo_channels = fifo;
    fifo_table.begin_row().add(fifo ? "FIFO" : "non-FIFO");
    r_row(run, "fifo_ablation", {{"fifo_channels", fifo}}, seeded(cfg, random_environment),
          kinds, fifo_table);
  }
  std::cout << "\nchannel-discipline ablation (n=8, period 10): the model "
               "assumes nothing about\nchannel order; FIFO links barely move "
               "R because non-causal junctions come from\ncross-channel "
               "races, not per-channel reordering\n";
  fifo_table.print(std::cout);
}

// E2 — processes communicate only inside their groups; neighbouring groups
// on the ring share `overlap` members through which dependencies leak.
// Expected shape: localized traffic keeps R below the random environment at
// the same rates, and more overlap (more leakage, longer hidden chains)
// raises R for every dependency-tracking protocol while the BHMR family
// stays below FDAS throughout.
void group_env(const Run& run) {
  banner("E2 (overlapping group communication)",
         "forced-checkpoint overhead with group-local traffic");
  const std::vector<ProtocolKind>& all = study_protocols();
  // Finishes a row the caller began with its swept knob.
  const auto row = [&](Table& table, const std::string& section, const GroupEnvConfig& cfg) {
    table.add(cfg.num_processes());
    r_row(run, section,
          {{"num_groups", cfg.num_groups},
           {"group_size", cfg.group_size},
           {"overlap", cfg.overlap}},
          seeded(cfg, group_environment), all, table);
  };

  Table overlaps = r_table({"overlap", "n"}, all);
  for (int overlap : {0, 1, 2}) {
    GroupEnvConfig cfg = group_env_preset();
    cfg.overlap = overlap;
    row(overlaps.begin_row().add(overlap), "overlap", cfg);
  }
  std::cout << "\n4 groups of 4, basic-checkpoint period = 10, " << run.seeds
            << " seeds per point\n";
  overlaps.print(std::cout);

  Table groups = r_table({"groups", "n"}, all);
  for (int num_groups : {2, 4, 6}) {
    GroupEnvConfig cfg = group_env_preset();
    cfg.num_groups = num_groups;
    row(groups.begin_row().add(num_groups), "group_count", cfg);
  }
  std::cout << "\ngroup size 4, overlap 1, basic-checkpoint period = 10, " << run.seeds
            << " seeds per point\n";
  groups.print(std::cout);
}

// E3 — a client's request walks a chain of servers, each forwarding with
// probability 1/2 and waiting for the reply; "the causal past of any message
// contains all the messages of the computation", making this the stress
// case for dependency tracking. Expected shape: R grows with chain length
// for the blind protocols while the causal-sibling knowledge of the BHMR
// family pays off most here (every doubling is visible because everything
// is in everyone's causal past).
void client_server(const Run& run) {
  banner("E3 (client/server chains)",
         "forced-checkpoint overhead under synchronous request chains");
  const std::vector<ProtocolKind>& all = study_protocols();

  Table chains = r_table({"servers"}, all);
  for (int servers : {2, 4, 8, 12}) {
    ClientServerEnvConfig cfg = client_server_env_preset();
    cfg.num_servers = servers;
    chains.begin_row().add(servers);
    r_row(run, "chain_length", {{"num_servers", servers}},
          seeded(cfg, client_server_environment), all, chains);
  }
  std::cout << "\n250 requests, forward probability 0.5, basic-checkpoint "
               "period = 10, "
            << run.seeds << " seeds per point\n";
  chains.print(std::cout);

  Table probs = r_table({"fwd prob"}, all);
  for (double prob : {0.25, 0.5, 0.75, 1.0}) {
    ClientServerEnvConfig cfg = client_server_env_preset();
    cfg.forward_prob = prob;
    probs.begin_row().add(prob, 2);
    r_row(run, "forward_prob", {{"forward_prob", prob}},
          seeded(cfg, client_server_environment), all, probs);
  }
  std::cout << "\n8 servers, 250 requests, basic-checkpoint period = 10, " << run.seeds
            << " seeds per point\n";
  probs.print(std::cout);
}

// E4 — the headline claim: "the reduction of forced checkpoints taken by
// the proposed protocol with respect to FDAS ... is never less than 10%",
// quantified per environment for the full protocol and its two variants
// (positive % = fewer forced checkpoints than FDAS).
void reduction(const Run& run) {
  banner("E4 (reduction vs FDAS)",
         "percentage of forced checkpoints saved w.r.t. FDAS per environment");
  const std::vector<ProtocolKind> kinds{ProtocolKind::kFdas, ProtocolKind::kBhmrC1Only,
                                        ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmr};
  const auto random_n = [](int n) {
    RandomEnvConfig cfg = random_env_preset();
    cfg.num_processes = n;
    if (n == 16) cfg.duration = 300.0;
    return seeded(cfg, random_environment);
  };
  ClientServerEnvConfig requests = client_server_env_preset();
  requests.num_requests = 300;
  const EnvPreset environments[] = {
      {"random n=4", random_n(4)},
      {"random n=8", random_n(8)},
      {"random n=16", random_n(16)},
      {"groups 4x4 ov=1", seeded(group_env_preset(), group_environment)},
      {"client/server 8", seeded(requests, client_server_environment)}};

  const std::span<const ProtocolKind> variants = std::span(kinds).subspan(1);  // vs kinds[0]
  std::vector<std::string> head{"environment", "FDAS forced"};
  for (ProtocolKind kind : variants) head.push_back(column(kind) + " %");
  Table table(std::move(head));
  double min_bhmr_reduction = 100.0;
  for (const EnvPreset& env : environments) {
    const auto stats = sweep(env.generate, kinds, run.seeds, run.threads);
    run.report.add_sweep(env.name, {{"seeds", run.seeds}}, stats);
    table.begin_row().add(env.name).add(stats[0].total_forced);
    for (ProtocolKind kind : variants) {
      const auto red = forced_reduction_percent(stats, kind, ProtocolKind::kFdas);
      if (red)
        table.add(*red, 1);
      else
        table.add("n/a");
    }
    const auto bhmr = forced_reduction_percent(stats, ProtocolKind::kBhmr, ProtocolKind::kFdas);
    if (bhmr) min_bhmr_reduction = std::min(min_bhmr_reduction, *bhmr);
  }
  std::cout << '\n' << run.seeds << " seeds per environment\n";
  table.print(std::cout);
  std::cout << "\npaper claim: the reduction of the full protocol w.r.t. FDAS "
               "is never less than ~10%\nmeasured minimum across "
               "environments: "
            << min_bhmr_reduction << "%  ("
            << (min_bhmr_reduction >= 10.0 ? "claim holds" : "below claim") << ")\n";
  run.report.add_metrics("claim", JsonObject{{"min_bhmr_reduction_percent", min_bhmr_reduction},
                                             {"claim_holds", min_bhmr_reduction >= 10.0}});
}

// E5 — the piggyback-size trade-off of Section 5.2: "the price to be paid is
// in terms of increased size of piggybacked information". Control bits each
// protocol adds to every application message, as a function of the process
// count. The flat columns are the paper's analytic figures (TDV entries
// counted as 32-bit integers, one bit per plane cell); the wire columns are
// what the protocol's declared codec actually puts on a first message — the
// honest number the sweeps now report. Past kMaxDeltaProcesses (64) a
// declared delta codec is carried by sparse (ProtocolInfo::codec_for), so
// the n = 128 row is sparse-coded. Reads no seeds or threads.
void overhead(const Run& run) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  std::cout << "==================================================================\n"
               "E5 (piggyback overhead) — control bits per application message\n"
               "flat: TDV = n x 32-bit integers; simple = n bits; causal = n^2\n"
               "wire: the declared codec's first-message encoding (measured;\n"
               "      delta is capped at n = 64, sparse carries larger n)\n"
               "==================================================================\n";
  const ProtocolKind shown[] = {ProtocolKind::kFdas, ProtocolKind::kBhmrNoSimple,
                                ProtocolKind::kBhmr};
  std::vector<std::string> head{"n"};
  for (ProtocolKind kind : shown) {
    head.push_back(column(kind) + " flat");
    head.push_back(column(kind) + " wire");
  }
  head.emplace_back("BHMR wire bytes");
  Table table(std::move(head));
  JsonArray rows;
  for (int n : {4, 8, 16, 32, 64, 128}) {
    table.begin_row().add(n);
    for (ProtocolKind kind : shown) {
      // This bench IS the flat-vs-wire comparison table.
      table.add(registry.info(kind).flat_piggyback_bits(n));  // rdt-lint: allow(flat-piggyback)
      table.add(piggyback_bits(kind, n));
    }
    table.add(static_cast<long long>(piggyback_bits(ProtocolKind::kBhmr, n) / 8));
    JsonObject row{{"num_processes", n}};
    for (ProtocolKind kind : {ProtocolKind::kNras, ProtocolKind::kFdi, ProtocolKind::kFdas,
                              ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmr,
                              ProtocolKind::kAdaptive}) {
      const ProtocolInfo& info = registry.info(kind);
      row.emplace_back(info.id + "_flat",
                       static_cast<unsigned long long>(
                           info.flat_piggyback_bits(n)));  // rdt-lint: allow(flat-piggyback)
      row.emplace_back(info.id + "_wire",
                       static_cast<unsigned long long>(piggyback_bits(kind, n)));
    }
    rows.push_back(std::move(row));
  }
  run.report.add_metrics("first_message_bits", std::move(rows));
  table.print(std::cout);
  std::cout << "\nthe BHMR family trades O(n^2) piggyback bits for fewer "
               "forced checkpoints;\nthe quadratic term overtakes the TDV "
               "itself beyond n = 32 — on the wire the delta codec\n"
               "defers that cost to what a message actually changes.\n";
}

struct Preset {
  std::string_view name;  // --preset NAME, and the report's "experiment"
  int default_seeds;      // when --seeds is absent (E5 reads none)
  void (*run)(const Run&);
};

constexpr Preset kPresets[] = {
    {"sweep", 20, throughput},
    {"random_env", 10, random_env},
    {"group_env", 10, group_env},
    {"client_server", 10, client_server},
    {"reduction", 12, reduction},
    {"overhead", 0, overhead},
};

}  // namespace

int main(int argc, char** argv) try {
  constexpr BenchFlag kFlags[] = {{"--preset", "NAME"}, {"--seeds", "N"}, {"--threads", "N"}};
  const BenchArgs args(argc, argv, kFlags);
  const std::string name = args.flag_or("--preset", std::string(kPresets[0].name));
  const Preset* preset = std::ranges::find(kPresets, std::string_view(name), &Preset::name);
  if (preset == std::end(kPresets)) {
    std::string names;
    for (const Preset& p : kPresets) names += (names.empty() ? "" : ", ") + std::string(p.name);
    args.usage_error("--preset takes one of " + names);
  }
  const int seeds = args.seeds(preset->default_seeds);
  const int threads = args.threads();
  BenchReport report(std::string(preset->name), args);
  preset->run({report, seeds, threads});
  report.finish();
  return 0;
} catch (const UsageError&) {
  return 2;
}
