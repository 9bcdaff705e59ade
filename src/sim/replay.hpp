// Replay engine: runs a checkpointing protocol over an application trace.
//
// Walks the trace's global order once, driving one CicProtocol instance per
// process exactly as the paper's Figure 6 prescribes — payload capture at
// send, forced-checkpoint decision *before* each delivery, control-state
// merge after — and materializes the resulting checkpoint-and-communication
// pattern for offline analysis. Because the trace fixes the application
// behaviour, replaying different protocols over the same trace yields
// directly comparable forced-checkpoint counts.
//
// Every send travels through a PiggybackCodec: the sender's payload is
// encoded, decoded back into the PayloadArena, and the delivery reads the
// decoded planes, so ReplayResult::wire_bits_total is always measured.
// Codecs never change analysis results (cross-checked per message under
// RDT_AUDITS). Two knobs set what a replay costs (see docs/benchmarks.md):
//  * ReplayOptions::materialize_pattern = false skips the PatternBuilder,
//    the forced-checkpoint inventory and the saved-TDV extraction — the
//    counters (messages/basic/forced/piggyback bits) are unchanged;
//  * ReplayOptions::arena points at a caller-owned PayloadArena so the
//    steady-state replay loop performs no per-message heap allocation.
// Audit builds (RDT_AUDITS=ON) always materialize the pattern so the
// replay postconditions keep their offline cross-check.
//
// Precondition: the codec must accept the trace's process count — at most
// kMaxCodecProcesses (1024) processes, and at most kMaxDeltaProcesses (64)
// for an explicit delta codec. A trace beyond that is rejected with
// std::invalid_argument before any event is replayed.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "ccp/pattern.hpp"
#include "protocols/protocol.hpp"
#include "sim/payload_arena.hpp"
#include "sim/trace.hpp"

namespace rdt {

class PatternListener;  // ccp/builder.hpp

struct ReplayOptions {
  // Build the Pattern, the forced-checkpoint inventory and saved_tdvs.
  // When false (and audits are off) the replay returns counters only:
  // `pattern` stays empty, `forced_ckpts`/`saved_tdvs` stay empty, and the
  // protocols skip their per-checkpoint TDV history.
  bool materialize_pattern = true;

  // Optional reusable payload storage. When null the replay owns a
  // temporary arena internally; passing one amortizes its planes across
  // replays (zero steady-state allocations). Not thread-safe: one arena
  // per concurrent replay.
  PayloadArena* arena = nullptr;

  // Optional per-event observer, installed on every protocol instance for
  // the duration of the replay (non-owning; must outlive the call). The
  // observer sees each send, delivery and checkpoint — forced ones with the
  // ForceReason naming the predicate that fired.
  ProtocolObserver* observer = nullptr;

  // The wire codec every send is encoded with and decoded back through;
  // ReplayResult::wire_bits_total measures the encoded size. When unset,
  // the protocol's declared codec at the trace's process count
  // (ProtocolInfo::codec_for). kFlat is the byte-aligned reference layout.
  // Codecs never change analysis results.
  std::optional<PiggybackCodecKind> wire_codec = std::nullopt;

  // Optional pattern stream subscriber (non-owning; must outlive the call),
  // installed on the replay's PatternBuilder — typically an OnlineEngine
  // (online/engine.hpp), so live RDT/recovery/z-reach queries work while
  // the replay runs. Forces pattern materialization: the stream IS the
  // pattern being recorded.
  PatternListener* online = nullptr;
};

struct ReplayResult {
  ProtocolKind kind = ProtocolKind::kNoForce;
  Pattern pattern;  // includes basic + forced (+ virtual final) checkpoints

  // True when `pattern`/`forced_ckpts`/`saved_tdvs` were materialized.
  bool pattern_built = false;

  long long messages = 0;
  long long basic = 0;
  long long forced = 0;
  // Analytic flat-plane piggyback bits summed over sent messages (constant
  // per message for a given kind) — the labeled comparison column.
  unsigned long long flat_bits_total = 0;
  // Measured encoded bits summed over sent messages.
  unsigned long long wire_bits_total = 0;

  // `forced` broken down by the predicate that fired (indexed by
  // ForceReason; the kNone slot stays zero). The entries sum to `forced` —
  // the per-predicate view the observability export reports.
  std::array<long long, kNumForceReasons> forced_by_reason{};
  long long forced_by(ForceReason reason) const {
    return forced_by_reason[static_cast<std::size_t>(reason)];
  }

  // The forced checkpoints, as (process, index) into `pattern` — input for
  // hindsight/ablation analyses (e.g. experiment E12).
  std::vector<CkptId> forced_ckpts;

  // saved_tdvs[i][x] = the TDV copy saved at C_{i,x} (empty per process for
  // protocols that do not track dependencies). Under an RDT-ensuring,
  // TDV-carrying protocol this is the minimum consistent global checkpoint
  // containing C_{i,x} (Corollary 4.5).
  std::vector<std::vector<Tdv>> saved_tdvs;

  // The paper's overhead metric R plus companions.
  double forced_per_basic() const {
    return basic > 0 ? static_cast<double>(forced) / static_cast<double>(basic)
                     : 0.0;
  }
  double forced_per_message() const {
    return messages > 0
               ? static_cast<double>(forced) / static_cast<double>(messages)
               : 0.0;
  }
  double flat_bits_per_message() const {
    return messages > 0 ? static_cast<double>(flat_bits_total) /
                              static_cast<double>(messages)
                        : 0.0;
  }
  double wire_bits_per_message() const {
    return messages > 0 ? static_cast<double>(wire_bits_total) /
                              static_cast<double>(messages)
                        : 0.0;
  }
};

ReplayResult replay(const Trace& trace, ProtocolKind kind,
                    const ReplayOptions& options = {});

// Counters-only convenience wrapper: replay(trace, kind) without the
// pattern/TDV materialization (unless audits force it). Pass a codec kind
// to override the protocol's declared one.
inline ReplayResult replay_metrics(
    const Trace& trace, ProtocolKind kind, PayloadArena* arena = nullptr,
    std::optional<PiggybackCodecKind> wire_codec = std::nullopt) {
  return replay(trace, kind,
                {.materialize_pattern = false, .arena = arena,
                 .wire_codec = wire_codec});
}

}  // namespace rdt
