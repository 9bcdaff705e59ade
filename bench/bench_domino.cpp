// Experiment E9 — the domino effect, quantified (the paper's Section 1
// motivation): rollback distance after a failure, with independent (basic
// only) checkpointing versus the RDT-ensuring protocols, on the adversarial
// ping-pong workload and on random traffic.
#include <iostream>

#include "bench_common.hpp"
#include "logging/message_log.hpp"
#include "recovery/recovery_line.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

Trace ping_pong_trace(int rounds) {
  TraceBuilder tb(2);
  double t = 0;
  for (int round = 0; round < rounds; ++round) {
    tb.send(0, 1, t + 0.1, t + 0.4);
    tb.basic_ckpt(1, t + 0.5);
    tb.send(1, 0, t + 0.6, t + 0.9);
    tb.basic_ckpt(0, t + 1.0);
    t += 1.0;
  }
  return tb.build();
}

void ping_pong_table(BenchReport& report) {
  std::cout << "\nadversarial ping-pong workload, failure of P0 at the end;\n"
               "cells: total checkpoint intervals rolled back (all "
               "processes)\n";
  Table table({"rounds", "no-force", "NRAS", "FDAS", "BHMR"});
  for (int rounds : {4, 8, 16, 32, 64}) {
    const Trace t = ping_pong_trace(rounds);
    table.begin_row().add(rounds);
    JsonObject row{{"rounds", rounds}};
    for (ProtocolKind kind : {ProtocolKind::kNoForce, ProtocolKind::kNras,
                              ProtocolKind::kFdas, ProtocolKind::kBhmr}) {
      const ReplayResult r = replay(t, kind);
      const long long rollback = recover_after_failure(r.pattern, 0).total_rollback;
      table.add(rollback);
      row.emplace_back(to_string(kind), rollback);
    }
    report.add_metrics("ping_pong_rollback", std::move(row));
  }
  table.print(std::cout);
  std::cout << "no-force grows linearly with the computation (unbounded "
               "domino); every\nRDT-ensuring protocol keeps the loss "
               "constant.\n";
}

void random_table(BenchReport& report) {
  std::cout << "\nrandom environment (n=6), failure of P0; averages over 10 "
               "seeds\n";
  Table table({"protocol", "rollback intervals", "worst fraction",
               "forced ckpts"});
  for (ProtocolKind kind : {ProtocolKind::kNoForce, ProtocolKind::kNras,
                            ProtocolKind::kFdi, ProtocolKind::kFdas,
                            ProtocolKind::kBhmr}) {
    RunningStats rollback;
    RunningStats worst;
    long long forced = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RandomEnvConfig cfg;
      cfg.num_processes = 6;
      cfg.duration = 200;
      cfg.basic_ckpt_mean = 10.0;
      cfg.seed = seed;
      const ReplayResult r = replay(random_environment(cfg), kind);
      const RecoveryOutcome out = recover_after_failure(r.pattern, 0);
      rollback.add(static_cast<double>(out.total_rollback));
      worst.add(out.worst_fraction);
      forced += r.forced;
    }
    report.add_metrics(
        "random_rollback",
        JsonObject{{"protocol", to_string(kind)},
                   {"rollback_intervals", to_json(rollback.summary())},
                   {"worst_fraction", to_json(worst.summary())},
                   {"forced", forced}});
    table.begin_row()
        .add(to_string(kind))
        .add(pm(rollback.summary(), 1))
        .add(pm(worst.summary(), 3))
        .add(forced);
  }
  table.print(std::cout);
}

void logging_table(BenchReport& report) {
  std::cout << "\ncheckpointing alone vs checkpointing + sender-based message "
               "logs\n(random n=6, single failure of P0, 10 seeds): work "
               "LOST vs work RE-EXECUTED\n";
  Table table({"protocol", "lost (ckpt only)", "lost (with logs)",
               "replayed events (logs)"});
  for (ProtocolKind kind : {ProtocolKind::kNoForce, ProtocolKind::kBhmr}) {
    RunningStats lost_plain;
    RunningStats lost_logs;
    RunningStats replayed;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RandomEnvConfig cfg;
      cfg.num_processes = 6;
      cfg.duration = 200;
      cfg.basic_ckpt_mean = 10.0;
      cfg.seed = seed;
      const ReplayResult r = replay(random_environment(cfg), kind);
      lost_plain.add(static_cast<double>(
          recover_after_failure(r.pattern, 0).total_rollback));
      const std::vector<ProcessId> failed{0};
      const LoggedRecoveryOutcome logged =
          recover_with_logging(r.pattern, failed);
      lost_logs.add(static_cast<double>(logged.rollback.total_rollback));
      replayed.add(static_cast<double>(logged.total_replayed));
    }
    report.add_metrics(
        "logging_rollback",
        JsonObject{{"protocol", to_string(kind)},
                   {"lost_ckpt_only", to_json(lost_plain.summary())},
                   {"lost_with_logs", to_json(lost_logs.summary())},
                   {"replayed_events", to_json(replayed.summary())}});
    table.begin_row()
        .add(to_string(kind))
        .add(pm(lost_plain.summary(), 1))
        .add(pm(lost_logs.summary(), 1))
        .add(pm(replayed.summary(), 1));
  }
  table.print(std::cout);
  std::cout << "with logs a single failure loses nothing regardless of the "
               "protocol — the failed\nprocess deterministically replays from "
               "the surviving senders' logs (piecewise\ndeterminism, Section 1 "
               "of the paper).\n";
}

}  // namespace

int main(int argc, char** argv) try {
  BenchReport report("domino", argc, argv);
  std::cout
      << "==================================================================\n"
         "E9 (domino effect) — rollback after a failure, baseline vs RDT\n"
         "==================================================================\n";
  ping_pong_table(report);
  random_table(report);
  logging_table(report);
  report.finish();
  return 0;
} catch (const UsageError&) {
  return 2;
}
