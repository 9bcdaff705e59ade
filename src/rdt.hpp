// librdt — rollback-dependency trackability, in one include.
//
// The single public entry point: everything an application, experiment or
// tool needs to build checkpoint-and-communication patterns, run and
// observe CIC protocols, and analyze the result. Layer by layer:
//
//   causality/   process/message/checkpoint identifiers, clocks
//   ccp/         checkpoint & communication patterns, consistency
//   rgraph/      rollback-dependency graphs, zigzag reachability
//   core/        the paper's characterizations: RDT checker, TDVs,
//                minimum consistent global checkpoints
//   protocols/   the CIC protocol family behind ProtocolRegistry — the
//                supported construction path (string id -> instance +
//                capability metadata + observer wiring)
//   sim/         trace generation, the replay engine, parallel sweeps
//   des/         the discrete-event runtime and example applications
//   recovery/    recovery lines, domino effect, garbage collection
//   online/      the incremental analysis kernel: OnlineEngine streams
//                events once and keeps RDT / recovery / z-reach answers
//                live at every prefix
//   serve/       the multi-tenant serving layer: a wire format for
//                StreamEvent frames and a session-sharded engine pool
//                that scales many concurrent streams across cores
//   logging/     message logging for deterministic replay
//   obs/         observability: metrics registry, span tracing, the
//                RDT_TRACE_SPAN / RDT_COUNT hooks (chrome://tracing export)
//
// Individual headers remain includable for finer-grained dependencies; new
// code should start from this one.
#pragma once

#include "causality/ids.hpp"
#include "causality/lamport.hpp"
#include "causality/vector_clock.hpp"
#include "ccp/builder.hpp"
#include "ccp/consistency.hpp"
#include "ccp/pattern.hpp"
#include "ccp/pattern_io.hpp"
#include "core/chains.hpp"
#include "core/characterizations.hpp"
#include "core/global_checkpoint.hpp"
#include "core/pattern_stats.hpp"
#include "core/rdt_checker.hpp"
#include "core/tdv.hpp"
#include "des/app.hpp"
#include "des/apps.hpp"
#include "des/simulator.hpp"
#include "des/snapshot.hpp"
#include "logging/message_log.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace_log.hpp"
#include "online/engine.hpp"
#include "protocols/observer.hpp"
#include "protocols/payload.hpp"
#include "protocols/protocol.hpp"
#include "protocols/registry.hpp"
#include "recovery/domino.hpp"
#include "recovery/gc.hpp"
#include "recovery/recovery_line.hpp"
#include "recovery/rollback.hpp"
#include "rgraph/reachability.hpp"
#include "rgraph/rgraph.hpp"
#include "rgraph/rgraph_dot.hpp"
#include "rgraph/zigzag.hpp"
#include "serve/driver.hpp"
#include "serve/pool.hpp"
#include "serve/wire.hpp"
#include "sim/environments.hpp"
#include "sim/payload_arena.hpp"
#include "sim/replay.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "sim/trace_io.hpp"
