// Wang's dependency-vector protocols (the FDAS family the paper improves
// upon — Section 5.2).
//
// Both piggyback the transitive dependency vector and force a checkpoint
// before delivering a message that would bring a *new* dependency
// (exists k : m.TDV[k] > TDV_i[k]) into an interval that must no longer
// change:
//  * FDI (Fixed-Dependency-Interval) — the interval's dependency set is
//    fixed as soon as any send or delivery happened in it;
//  * FDAS (Fixed-Dependency-After-Send) — fixed only after the first send
//    (C_FDAS = after_first_send ^ exists k: m.TDV[k] > TDV_i[k]).
//
// C_FDAS => C_FDI, so FDAS takes no more forced checkpoints than FDI; the
// paper proves C1 v C2 => C_FDAS, i.e. its protocol is strictly less
// conservative than the whole family.
#pragma once

#include "protocols/protocol.hpp"

namespace rdt {

class FdasProtocol : public CicProtocol {
 public:
  using CicProtocol::CicProtocol;
  ProtocolKind kind() const override { return ProtocolKind::kFdas; }

  ForceReason force_reason(const PiggybackView& msg, ProcessId) const override {
    return after_first_send() && brings_new_dependency(msg)
               ? ForceReason::kNewDependency
               : ForceReason::kNone;
  }
};

class FdiProtocol final : public FdasProtocol {
 public:
  using FdasProtocol::FdasProtocol;
  ProtocolKind kind() const override { return ProtocolKind::kFdi; }

  ForceReason force_reason(const PiggybackView& msg, ProcessId) const override {
    return (after_first_send() || delivered_in_interval_) &&
                   brings_new_dependency(msg)
               ? ForceReason::kNewDependency
               : ForceReason::kNone;
  }

 private:
  void merge_payload(const PiggybackView&, ProcessId) override {
    delivered_in_interval_ = true;
  }
  void reset_on_checkpoint(bool /*forced*/) override { delivered_in_interval_ = false; }

  bool delivered_in_interval_ = false;
};

}  // namespace rdt
