// Index-based communication-induced checkpointing: the
// Briatico–Ciuffoletti–Simoncini (BCS) protocol.
//
// Each process keeps a scalar checkpoint timestamp `lc` (a Lamport clock
// over checkpoints): basic checkpoints increment it, every message carries
// it, and a message arriving with a larger timestamp forces a checkpoint
// (adopting the timestamp) before delivery. The induced pattern has no
// zigzag cycle — no checkpoint is useless, the consistent recovery line
// always advances — but hidden dependencies remain possible: BCS sits
// strictly *below* the RDT family in the characterization hierarchy, which
// is exactly why it is in this library (tests and experiment E10 use it to
// separate "no useless checkpoints" from "rollback-dependency
// trackability").
#pragma once

#include "protocols/protocol.hpp"

namespace rdt {

class BcsProtocol final : public CicProtocol {
 public:
  BcsProtocol(int num_processes, ProcessId self)
      : CicProtocol(num_processes, self, /*transmits_tdv=*/false) {}
  ProtocolKind kind() const override { return ProtocolKind::kBcs; }
  PayloadShape payload_shape() const override { return {.index = true}; }

  CkptIndex timestamp() const { return lc_; }

  ForceReason force_reason(const PiggybackView& msg, ProcessId) const override {
    return msg.index > lc_ ? ForceReason::kIndexAhead : ForceReason::kNone;
  }

 private:
  void fill_payload(const PiggybackSlot& out) const override { *out.index = lc_; }
  void merge_payload(const PiggybackView& msg, ProcessId) override {
    if (msg.index > lc_) lc_ = msg.index;
  }
  void reset_on_checkpoint(bool forced) override {
    // A basic checkpoint opens a new timestamp; a forced one adopts the
    // sender's (raised in merge_payload right after this call).
    if (!forced) ++lc_;
  }

  CkptIndex lc_ = 0;
};

}  // namespace rdt
