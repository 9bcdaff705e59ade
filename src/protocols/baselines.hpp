// The classic piggyback-free checkpointing disciplines the paper's related
// work compares against (Section 5.2's "protocols previously proposed").
//
//  * NoForce — takes only basic checkpoints; the do-nothing baseline that
//    exhibits hidden dependencies, useless checkpoints and the domino
//    effect.
//  * CBR (Checkpoint-Before-Receive) — a forced checkpoint before *every*
//    delivery. Each delivery opens a fresh interval, so no send can precede
//    a delivery inside an interval: there are no non-causal junctions and
//    every Z-path is causal. Ensures RDT at maximal cost.
//  * CAS (Checkpoint-After-Send, Wu & Fuchs) — a checkpoint right after
//    every send, so a send is always the last event of its interval; again
//    no non-causal junction can form.
//  * NRAS (No-Receive-After-Send, Russell) — a forced checkpoint before a
//    delivery iff some send already happened in the current interval; this
//    breaks every would-be non-causal junction at the moment it would
//    appear, without looking at any dependency information.
#pragma once

#include "protocols/protocol.hpp"

namespace rdt {

class NoForceProtocol final : public CicProtocol {
 public:
  NoForceProtocol(int num_processes, ProcessId self)
      : CicProtocol(num_processes, self, /*transmits_tdv=*/false) {}
  ProtocolKind kind() const override { return ProtocolKind::kNoForce; }
  ForceReason force_reason(const PiggybackView&, ProcessId) const override {
    return ForceReason::kNone;
  }
};

class CbrProtocol final : public CicProtocol {
 public:
  CbrProtocol(int num_processes, ProcessId self)
      : CicProtocol(num_processes, self, /*transmits_tdv=*/false) {}
  ProtocolKind kind() const override { return ProtocolKind::kCbr; }
  ForceReason force_reason(const PiggybackView&, ProcessId) const override {
    return ForceReason::kEveryDelivery;
  }
};

class CasProtocol final : public CicProtocol {
 public:
  CasProtocol(int num_processes, ProcessId self)
      : CicProtocol(num_processes, self, /*transmits_tdv=*/false) {}
  ProtocolKind kind() const override { return ProtocolKind::kCas; }
  ForceReason force_reason(const PiggybackView&, ProcessId) const override {
    return ForceReason::kNone;
  }
  bool checkpoint_after_send() const override { return true; }
};

class NrasProtocol final : public CicProtocol {
 public:
  NrasProtocol(int num_processes, ProcessId self)
      : CicProtocol(num_processes, self, /*transmits_tdv=*/false) {}
  ProtocolKind kind() const override { return ProtocolKind::kNras; }
  ForceReason force_reason(const PiggybackView&, ProcessId) const override {
    return after_first_send() ? ForceReason::kAfterSend : ForceReason::kNone;
  }
};

}  // namespace rdt
