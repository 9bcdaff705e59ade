// ProtocolDriver — the paper's protocol rule (Figure 6), one event at a time.
//
// Owns one CicProtocol instance per process. At a send the sender fills the
// message's PayloadArena slot, which the arena's codec encodes; at a
// delivery the receiver decides on a forced checkpoint *before* merging
// that payload. replay() drives it from trace ops (and through replay, the
// DES), serve::build_piggyback_sections from StreamEvents, the protocol
// tests by hand and piggyback_bits() for one message, so forced decisions,
// per-predicate counters and wire bytes cannot drift between them. The
// steps are inline: they are replay's hot loop body.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "protocols/registry.hpp"
#include "sim/payload_arena.hpp"

namespace rdt {

class ProtocolDriver {
 public:
  // Resets `arena` (which must outlive the driver) for `num_messages`
  // messages carried by `codec` — throwing std::invalid_argument before any
  // instance is built when the codec does not accept the process count —
  // then builds one `kind` instance per process with `observer` installed.
  ProtocolDriver(ProtocolKind kind, int num_processes, std::size_t num_messages,
                 PiggybackCodecKind codec, PayloadArena& arena,
                 ProtocolObserver* observer, bool save_tdv_history)
      : arena_(&arena) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    arena.reset(num_processes, registry.info(kind).shape, num_messages, codec);
    procs_.reserve(static_cast<std::size_t>(num_processes));
    for (ProcessId i = 0; i < num_processes; ++i) {
      procs_.push_back(registry.create(kind, num_processes, i, observer));
      procs_.back()->set_save_tdv_history(save_tdv_history);
    }
  }

  // Message m from -> to: capture into m's slot and encode it (the bytes
  // stay readable through PayloadArena::last_encoded()), then the
  // checkpoint-after-send decision. Returns true when it forced one. Sends
  // come in stream order (the delta codec's channel shadows).
  bool send(ProcessId from, ProcessId to, MsgId m) {
    CicProtocol& self = at(from);
    self.on_send(to, arena_->slot(m));
    wire_bits_total_ += arena_->commit_send(m, from, to);
    if (!self.checkpoint_after_send()) return false;
    force(self, ForceReason::kCheckpointAfterSend);
    return true;
  }

  // Delivery of m at `to`: returns true when a forced checkpoint was taken
  // before the merge.
  bool deliver(ProcessId from, ProcessId to, MsgId m) {
    CicProtocol& self = at(to);
    const PiggybackView payload = arena_->view(m);
    const ForceReason reason = self.force_reason(payload, from);
    if (reason != ForceReason::kNone) force(self, reason);
    self.on_deliver(payload, from);
    return reason != ForceReason::kNone;
  }

  void basic_checkpoint(ProcessId p) { at(p).on_basic_checkpoint(); }

  const CicProtocol& protocol(ProcessId p) const {
    return *procs_[static_cast<std::size_t>(p)];
  }
  // Indexed by ForceReason; the kNone slot stays zero.
  const std::array<long long, kNumForceReasons>& forced_by_reason() const {
    return forced_by_reason_;
  }
  // Measured encoded bits, summed over sends.
  unsigned long long wire_bits_total() const { return wire_bits_total_; }

 private:
  CicProtocol& at(ProcessId p) { return *procs_[static_cast<std::size_t>(p)]; }
  void force(CicProtocol& self, ForceReason reason) {
    self.on_forced_checkpoint(reason);
    forced_by_reason_[static_cast<std::size_t>(reason)] += 1;
  }

  PayloadArena* arena_;
  std::vector<std::unique_ptr<CicProtocol>> procs_;
  unsigned long long wire_bits_total_ = 0;
  std::array<long long, kNumForceReasons> forced_by_reason_{};
};

// *Measured* control bits one message carries for an n-process computation:
// the codec_for(n) encoding of the protocol's first message (P_0 -> P_1 on
// fresh state), sent through a one-message driver. Per-replay means come
// from ReplayResult::wire_bits_total; with fewer than two processes no
// message can exist and this is 0.
inline std::size_t piggyback_bits(ProtocolKind kind, int num_processes) {
  if (num_processes < 2) return 0;
  PayloadArena arena;
  ProtocolDriver driver(
      kind, num_processes, /*num_messages=*/1,
      ProtocolRegistry::instance().info(kind).codec_for(num_processes), arena,
      /*observer=*/nullptr, /*save_tdv_history=*/false);
  driver.send(/*from=*/0, /*to=*/1, /*m=*/0);
  return driver.wire_bits_total();
}

}  // namespace rdt
