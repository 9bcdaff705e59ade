// Application traces — the protocol-independent half of a simulation.
//
// The papers' simulation model assumes checkpoints are instantaneous and
// piggybacked control data does not perturb the computation, so the
// application behaviour (who sends what to whom when, when basic
// checkpoints fire) is independent of the checkpointing protocol. We
// exploit that for exact run-for-run comparability: an *environment*
// generates a Trace once, and the replay engine (replay.hpp) runs every
// protocol over the identical trace, the protocol contributing only the
// forced checkpoints.
//
// A Trace is a time-ordered stream of operations; the builder validates the
// physical constraints (a message is delivered after it is sent, exactly
// once, to the process it was addressed to).
#pragma once

#include <vector>

#include "causality/ids.hpp"

namespace rdt {

enum class TraceOpKind { kSend, kDeliver, kBasicCkpt };

struct TraceOp {
  TraceOpKind kind = TraceOpKind::kBasicCkpt;
  double time = 0.0;
  ProcessId process = -1;  // where the operation happens
  MsgId msg = kNoMsg;      // for kSend / kDeliver
};

struct TraceMessage {
  ProcessId sender = -1;
  ProcessId receiver = -1;
  double send_time = 0.0;
  double deliver_time = 0.0;
};

struct Trace {
  int num_processes = 0;
  std::vector<TraceOp> ops;            // globally ordered by (time, tiebreak)
  std::vector<TraceMessage> messages;  // messages[m] is the m-th send in ops

  int num_messages() const { return static_cast<int>(messages.size()); }
  long long basic_ckpts() const;
};

// Prefix of the trace at time `t`, with in-flight messages flushed: keeps
// every operation at time <= t plus the deliveries of already-sent messages
// (at their original, possibly later, times). The result is a complete
// computation again — the natural "state of the system at time t" used to
// study how recovery lines progress as a run unfolds.
Trace truncate_flush(const Trace& trace, double t);

// Accumulates operations in any order; build() sorts them into a global
// order, checks message well-formedness and returns the immutable trace.
class TraceBuilder {
 public:
  explicit TraceBuilder(int num_processes);

  MsgId send(ProcessId from, ProcessId to, double send_time, double deliver_time);
  void basic_ckpt(ProcessId p, double time);

  Trace build();

 private:
  int n_;
  std::vector<TraceOp> ops_;
  std::vector<TraceMessage> messages_;
  long long seq_ = 0;            // creation order, used as the tiebreak
  std::vector<long long> seqs_;  // parallel to ops_
};

}  // namespace rdt
