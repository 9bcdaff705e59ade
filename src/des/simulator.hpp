// The discrete-event runtime: processes, channels, timers, and the
// checkpointing middleware, in one deterministic simulator.
//
// Model (Section 2.1 of the paper): n sequential processes connected by
// reliable, non-FIFO, directed channels with unpredictable but finite
// transmission delays; no shared memory, no bound on relative speeds. The
// runtime executes one event at a time in global timestamp order, so each
// process is sequential and every run is a valid distributed computation.
//
// The checkpointing protocol is app-invisible middleware, and none of its
// decisions takes simulated time or draws from the RNG, so it cannot change
// a run: the runtime records the run as a Trace, in processing order (ties
// at equal times keep it), and returns replay() of it (sim/replay.hpp) —
// the same per-event steps, wire codec, audits and kMaxCodecProcesses cap
// as any replay. Optionally, basic checkpoints also fire per process as a
// Poisson process — the papers' simulation model — in addition to any the
// application takes itself.
//
// After `horizon`, the computation "cools down": messages still in the
// channels are delivered (so the pattern stays a complete computation) but
// the application callbacks are no longer invoked, so no new work is
// generated and the run terminates.
#pragma once

#include <functional>
#include <memory>

#include "des/app.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

namespace rdt::des {

struct SimConfig {
  ProtocolKind protocol = ProtocolKind::kBhmr;
  double horizon = 100.0;         // application activity stops here
  double delay_min = 0.05;        // channel transmission delay: min + exp(mean)
  double delay_mean = 0.5;
  double basic_ckpt_mean = 0.0;   // Poisson basic checkpoints; 0 = app-driven only
  // Clamp each directed channel's delivery order to its send order. The
  // paper's model is non-FIFO (the default); coordinated snapshotting
  // (des/snapshot.hpp) requires FIFO links.
  bool fifo_channels = false;
  std::uint64_t seed = 1;
  // Optional per-event observer and pattern stream subscriber (non-owning;
  // must outlive the run), passed to the run's replay as
  // ReplayOptions::observer and ReplayOptions::online. Both see the run's
  // events while its recorded trace is replayed, after the last event.
  ProtocolObserver* observer = nullptr;
  PatternListener* online = nullptr;
};

// The replay of the recorded run (pattern, counters, forced_by_reason,
// saved_tdvs, ...) plus the run's own figures.
struct SimResult : ReplayResult {
  long long timers_fired = 0;
  double end_time = 0.0;  // time of the last processed event
};

// Factory invoked once per process id.
using AppFactory = std::function<std::unique_ptr<ProcessApp>(ProcessId)>;

// Runs `num_processes` application instances under the configured protocol.
SimResult run_simulation(int num_processes, const AppFactory& factory,
                         const SimConfig& config);

}  // namespace rdt::des
