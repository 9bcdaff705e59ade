// Multi-seed experiment driver shared by the benchmark harnesses: generate
// a trace per seed, replay every requested protocol over it, aggregate the
// overhead metrics across seeds.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/replay.hpp"
#include "util/stats.hpp"

namespace rdt {

struct ProtocolStats {
  ProtocolKind kind = ProtocolKind::kNoForce;
  Summary r_forced_per_basic;     // the papers' R metric
  Summary forced_per_message;
  Summary wire_bits;              // measured encoded bits per message
  Summary flat_bits;              // analytic flat-plane bits per message
  // The wire codec the replays ran: ProtocolInfo::codec_for(n) at the
  // sweep's process count.
  PiggybackCodecKind codec = PiggybackCodecKind::kFlat;
  long long total_messages = 0;   // across seeds
  long long total_basic = 0;
  long long total_forced = 0;
};

// Runs `num_seeds` independent traces (seeds seed0, seed0+1, ...) through
// every protocol in `kinds` on `threads` workers. The generator must honour
// its seed argument. Each replay runs counters-only (no pattern) through
// the protocol's declared wire codec at the trace's process count
// (ProtocolInfo::codec_for), so wire_bits is a measured quantity and
// flat_bits keeps the analytic comparison column.
//
// Work is a fused (seed x protocol) queue: each item replays one protocol
// over one seed's trace. The trace is generated once per seed (under a
// per-slot mutex), shared *const* by the replays of that seed — replay()
// never mutates its Trace, see docs/api_tour.md — and released after its
// last replay. Each worker owns a private PayloadArena, so the steady-state
// replay loop does not touch the heap. Per-seed rows are folded in seed
// order, making the aggregate bit-identical for any thread count. With
// threads == 1 the worker runs on the calling thread and no thread is
// started; otherwise the generator must be callable concurrently — the
// built-in environments are, since each call owns its Rng. Throws
// std::invalid_argument unless num_seeds >= 1, threads >= 1 and `kinds` is
// non-empty, and when the seeds' traces differ in process count.
std::vector<ProtocolStats> sweep(
    const std::function<Trace(std::uint64_t seed)>& generate,
    std::span<const ProtocolKind> kinds, int num_seeds, int threads,
    std::uint64_t seed0 = 1);

// Percentage reduction of forced checkpoints of `kind` w.r.t. `baseline`
// within a sweep result (positive = kind forces fewer). When the baseline
// forced no checkpoints the percentage is undefined unless `kind` also
// forced none (then it is 0.0): a baseline of zero with a non-zero
// comparison yields nullopt rather than masquerading as "no reduction".
std::optional<double> forced_reduction_percent(
    std::span<const ProtocolStats> stats, ProtocolKind kind,
    ProtocolKind baseline);

}  // namespace rdt
