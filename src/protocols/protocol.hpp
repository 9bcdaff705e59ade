// The communication-induced checkpointing (CIC) protocol interface.
//
// One CicProtocol instance embodies one process P_i of the computation. The
// runtime (sim/protocol_driver.hpp) drives it through the three statements
// of the paper's Figure 6:
//   (S1) on_send(dest, slot)      -> writes the piggyback to attach to the
//        message into a slot pre-sized for payload_shape();
//   (S2) must_force(msg, sender)  -> take a forced checkpoint before
//        delivery? then on_deliver(msg, sender) updates control state;
//   plus on_basic_checkpoint() when the application decides to checkpoint.
//
// The base class maintains what *every* protocol variant shares: the
// transitive dependency vector, the sent_to / after_first_send send
// tracking, the saved per-checkpoint TDV copies (which, for RDT-ensuring
// protocols, are the minimum consistent global checkpoints of Corollary
// 4.5), and the basic/forced counters the experiments report.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "protocols/observer.hpp"
#include "protocols/payload.hpp"

namespace rdt {

enum class ProtocolKind {
  kNoForce,       // basic checkpoints only (baseline; violates RDT)
  kCbr,           // Checkpoint-Before-Receive
  kCas,           // Checkpoint-After-Send (Wu & Fuchs)
  kNras,          // No-Receive-After-Send (Russell)
  kFdi,           // Fixed-Dependency-Interval (Wang)
  kFdas,          // Fixed-Dependency-After-Send (Wang)
  kBhmr,          // the paper's protocol: predicate C1 v C2
  kBhmrNoSimple,  // variant 1: C1 v C2' (no `simple` array piggybacked)
  kBhmrC1Only,    // variant 2: C1 alone, `causal` diagonal pinned false
  kBcs,           // index-based (Briatico–Ciuffoletti–Simoncini): prevents
                  // useless checkpoints (Z-cycles) but NOT full RDT
  kAdaptive,      // meta-protocol: switches between family members (BHMR's
                  // rich predicates vs FDAS's lean one) from observed
                  // traffic shape; see protocols/adaptive.hpp
};

std::string to_string(ProtocolKind kind);
ProtocolKind protocol_from_string(const std::string& name);
// All kinds, baseline-first.
const std::vector<ProtocolKind>& all_protocol_kinds();
// The kinds that provably ensure RDT (everything except kNoForce).
const std::vector<ProtocolKind>& rdt_protocol_kinds();

class CicProtocol {
 public:
  CicProtocol(int num_processes, ProcessId self)
      : CicProtocol(num_processes, self, /*transmits_tdv=*/true) {}
  virtual ~CicProtocol() = default;
  CicProtocol(const CicProtocol&) = delete;
  CicProtocol& operator=(const CicProtocol&) = delete;

  virtual ProtocolKind kind() const = 0;
  std::string name() const { return to_string(kind()); }

  int num_processes() const { return n_; }
  ProcessId self() const { return self_; }

  // Which payload fields this protocol transmits (constant per kind). The
  // replay engine uses it to carve arena slots.
  virtual PayloadShape payload_shape() const { return {.tdv = transmits_tdv()}; }

  // (S1), canonical zero-allocation form — called at each application send;
  // writes the control data into a slot pre-sized for payload_shape() and
  // records the destination. Every present field is fully overwritten.
  void on_send(ProcessId dest, const PiggybackSlot& out);

  // (S2), decision half — must P_i take a forced checkpoint before
  // delivering this message? Reads only piggybacked + local state.
  // Implemented on top of force_reason(), which additionally names the
  // predicate that fired — the locally observable evidence the paper's
  // visibility results are about, and what the observability layer
  // reports per message.
  bool must_force(const PiggybackView& msg, ProcessId sender) const {
    return force_reason(msg, sender) != ForceReason::kNone;
  }
  virtual ForceReason force_reason(const PiggybackView& msg,
                                   ProcessId sender) const = 0;

  // (S2), update half — merge the piggybacked control data (called after
  // the forced checkpoint, if any, exactly as in Figure 6).
  void on_deliver(const PiggybackView& msg, ProcessId sender);

  // Application-driven (basic) checkpoint.
  void on_basic_checkpoint() { take_checkpoint(/*forced=*/false, ForceReason::kNone); }
  // Protocol-driven (forced) checkpoint; the runtime calls this when
  // must_force() returned true, before on_deliver(), passing the reason
  // force_reason() reported (kNone when the caller did not attribute it).
  void on_forced_checkpoint(ForceReason reason = ForceReason::kNone) {
    take_checkpoint(/*forced=*/true, reason);
  }

  // Install a per-event observer (non-owning; nullptr to remove). The
  // protocol reports sends, deliveries and checkpoints — with the forcing
  // predicate — as they happen; see protocols/observer.hpp.
  void set_observer(ProtocolObserver* observer) { observer_ = observer; }
  ProtocolObserver* observer() const { return observer_; }

  // Some protocols (CAS) checkpoint on the send side, right after sending.
  virtual bool checkpoint_after_send() const { return false; }

  // Whether this protocol piggybacks its TDV on messages. When false (the
  // baselines whose predicates need no dependency information), the local
  // TDV tracks only the own interval index and min_global_ckpt() is
  // unavailable.
  bool transmits_tdv() const { return transmits_tdv_; }

  // --- observable state -----------------------------------------------------
  // Index of the current checkpoint interval (== index of next checkpoint).
  CkptIndex current_interval() const {
    return tdv_[static_cast<std::size_t>(self_)];
  }
  const Tdv& tdv() const { return tdv_; }
  bool after_first_send() const { return after_first_send_; }
  const BitVector& sent_to() const { return sent_to_; }

  // Counters-only fast path: when disabled, take_checkpoint() stops saving
  // per-checkpoint TDV copies (saved_tdv()/min_global_ckpt() become
  // unavailable). Must be toggled before the first post-initial checkpoint.
  void set_save_tdv_history(bool save) { save_tdv_history_ = save; }
  bool save_tdv_history() const { return save_tdv_history_; }

  // TDV copy saved when C_{self,x} was taken (x = 0 .. current_interval-1).
  const Tdv& saved_tdv(CkptIndex x) const;
  // Corollary 4.5: the minimum consistent global checkpoint containing
  // C_{self,x}, available on the fly (meaningful for RDT-ensuring kinds).
  GlobalCkpt min_global_ckpt(CkptIndex x) const;

  long long basic_count() const { return basic_; }
  long long forced_count() const { return forced_; }

 protected:
  // For the kinds that piggyback no TDV (the baselines whose predicates
  // need no dependency information, and BCS). Protected so that the
  // constructors a subclass inherits with `using` expose only
  // (num_processes, self): a TDV-based kind cannot be built without its TDV.
  CicProtocol(int num_processes, ProcessId self, bool transmits_tdv);

  // Subclass hooks. fill_payload must fully overwrite every field its
  // payload_shape() declares (slots are recycled without clearing).
  virtual void fill_payload(const PiggybackSlot& /*out*/) const {}
  virtual void merge_payload(const PiggybackView& /*msg*/, ProcessId /*sender*/) {}
  virtual void reset_on_checkpoint(bool /*forced*/) {}

  void take_checkpoint(bool forced, ForceReason reason);

  // Some k has m.TDV[k] > TDV[k]: the message brings a new dependency
  // (FDAS's predicate, BHMR's C2').
  bool brings_new_dependency(const PiggybackView& msg) const {
    for (std::size_t k = 0; k < msg.tdv.size(); ++k)
      if (msg.tdv[k] > tdv_[k]) return true;
    return false;
  }

  int n_;
  ProcessId self_;
  Tdv tdv_;

 private:
  bool transmits_tdv_;
  std::vector<Tdv> saved_;
  BitVector sent_to_;
  ProtocolObserver* observer_ = nullptr;
  bool after_first_send_ = false;
  bool save_tdv_history_ = true;
  long long basic_ = 0;
  long long forced_ = 0;
};

std::unique_ptr<CicProtocol> make_protocol(ProtocolKind kind, int num_processes,
                                           ProcessId self);

// Audit-tier (RDT_AUDIT) check of one TDV merge step: `after` must dominate
// both `before` (a delivery never forgets a dependency) and the piggybacked
// vector (a delivery absorbs every transmitted dependency), componentwise.
// `piggyback` may be empty for protocols that do not transmit TDVs. No-op
// unless the build defines RDT_AUDITS; run by CicProtocol::on_deliver after
// every merge in audit builds.
void audit_tdv_merge(const Tdv& before, std::span<const CkptIndex> piggyback,
                     const Tdv& after);

}  // namespace rdt
