#include "protocols/protocol.hpp"

#include <algorithm>

#include "protocols/adaptive.hpp"
#include "protocols/baselines.hpp"
#include "protocols/bhmr.hpp"
#include "protocols/index_based.hpp"
#include "protocols/wang.hpp"
#include "util/check.hpp"

namespace rdt {

std::string to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kNoForce: return "no-force";
    case ProtocolKind::kCbr: return "cbr";
    case ProtocolKind::kCas: return "cas";
    case ProtocolKind::kNras: return "nras";
    case ProtocolKind::kFdi: return "fdi";
    case ProtocolKind::kFdas: return "fdas";
    case ProtocolKind::kBhmr: return "bhmr";
    case ProtocolKind::kBhmrNoSimple: return "bhmr-v1";
    case ProtocolKind::kBhmrC1Only: return "bhmr-v2";
    case ProtocolKind::kBcs: return "bcs";
    case ProtocolKind::kAdaptive: return "adaptive";
  }
  RDT_ASSERT(false);
}

const char* to_cstring(ForceReason reason) {
  switch (reason) {
    case ForceReason::kNone: return "none";
    case ForceReason::kEveryDelivery: return "every-delivery";
    case ForceReason::kAfterSend: return "after-send";
    case ForceReason::kCheckpointAfterSend: return "ckpt-after-send";
    case ForceReason::kNewDependency: return "new-dependency";
    case ForceReason::kC1: return "c1";
    case ForceReason::kC2: return "c2";
    case ForceReason::kIndexAhead: return "index-ahead";
  }
  RDT_ASSERT(false);
}

ProtocolKind protocol_from_string(const std::string& name) {
  for (ProtocolKind kind : all_protocol_kinds())
    if (to_string(kind) == name) return kind;
  throw std::invalid_argument("unknown protocol '" + name + "'");
}

const std::vector<ProtocolKind>& all_protocol_kinds() {
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kNoForce, ProtocolKind::kCbr,  ProtocolKind::kCas,
      ProtocolKind::kNras,    ProtocolKind::kFdi,  ProtocolKind::kFdas,
      ProtocolKind::kBhmr,    ProtocolKind::kBhmrNoSimple,
      ProtocolKind::kBhmrC1Only, ProtocolKind::kBcs,
      ProtocolKind::kAdaptive};
  return kinds;
}

const std::vector<ProtocolKind>& rdt_protocol_kinds() {
  // kAdaptive qualifies: both of its modes force at least whenever the
  // paper's C1 v C2 predicate holds on accurate knowledge (lean mode via
  // the proven implication C1 v C2 => C_FDAS), so every run it produces
  // is RDT — see protocols/adaptive.hpp.
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kCbr,  ProtocolKind::kCas,  ProtocolKind::kNras,
      ProtocolKind::kFdi,  ProtocolKind::kFdas, ProtocolKind::kBhmr,
      ProtocolKind::kBhmrNoSimple, ProtocolKind::kBhmrC1Only,
      ProtocolKind::kAdaptive};
  return kinds;
}

CicProtocol::CicProtocol(int num_processes, ProcessId self, bool transmits_tdv)
    : n_(num_processes), self_(self), transmits_tdv_(transmits_tdv) {
  RDT_REQUIRE(num_processes >= 1, "need at least one process");
  RDT_REQUIRE(self >= 0 && self < num_processes, "self id out of range");
  // Statement (S0): all-zero TDV, take the initial checkpoint C_{self,0}
  // (saving the zero vector), then the own entry names interval I_{self,1}.
  tdv_.assign(static_cast<std::size_t>(n_), 0);
  sent_to_ = BitVector(static_cast<std::size_t>(n_));
  saved_.push_back(tdv_);
  tdv_[static_cast<std::size_t>(self_)] = 1;
}

void CicProtocol::on_send(ProcessId dest, const PiggybackSlot& out) {
  RDT_REQUIRE(dest >= 0 && dest < n_ && dest != self_, "bad destination");
  sent_to_.set(static_cast<std::size_t>(dest));
  after_first_send_ = true;
  RDT_CHECK(static_cast<int>(out.tdv.size()) == (transmits_tdv() ? n_ : 0),
            "outgoing piggyback TDV size disagrees with the transmit mode");
  if (transmits_tdv()) std::copy(tdv_.begin(), tdv_.end(), out.tdv.begin());
  fill_payload(out);
  if (observer_) observer_->on_send(self_, dest);
}

void CicProtocol::on_deliver(const PiggybackView& msg, ProcessId sender) {
  RDT_REQUIRE(sender >= 0 && sender < n_ && sender != self_, "bad sender");
  RDT_REQUIRE(static_cast<int>(msg.tdv.size()) == (transmits_tdv() ? n_ : 0),
              "piggyback size mismatch");
  Tdv before;
  if constexpr (kAuditsEnabled) before = tdv_;
  // Subclasses merge their extra control data first: the Figure 6 rules
  // compare m.TDV against the *pre-merge* TDV_i.
  merge_payload(msg, sender);
  for (std::size_t k = 0; k < msg.tdv.size(); ++k)
    tdv_[k] = std::max(tdv_[k], msg.tdv[k]);
  if constexpr (kAuditsEnabled) audit_tdv_merge(before, msg.tdv, tdv_);
  if (observer_) observer_->on_deliver(self_, sender);
}

void CicProtocol::take_checkpoint(bool forced, ForceReason reason) {
  RDT_CHECK(forced || reason == ForceReason::kNone,
            "a basic checkpoint cannot carry a forcing reason");
  if (save_tdv_history_) {
    RDT_CHECK(static_cast<CkptIndex>(saved_.size()) == current_interval(),
              "saved-TDV history must have exactly one entry per past interval");
    saved_.push_back(tdv_);
  }
  ++tdv_[static_cast<std::size_t>(self_)];
  sent_to_.reset();
  after_first_send_ = false;
  (forced ? forced_ : basic_) += 1;
  reset_on_checkpoint(forced);
  if (observer_) observer_->on_checkpoint(self_, forced, reason);
}

const Tdv& CicProtocol::saved_tdv(CkptIndex x) const {
  RDT_REQUIRE(save_tdv_history_,
              "saved-TDV history disabled (counters-only fast path)");
  RDT_REQUIRE(x >= 0 && x < static_cast<CkptIndex>(saved_.size()),
              "checkpoint index out of range");
  return saved_[static_cast<std::size_t>(x)];
}

GlobalCkpt CicProtocol::min_global_ckpt(CkptIndex x) const {
  RDT_REQUIRE(transmits_tdv(),
              "this protocol does not track transitive dependencies");
  GlobalCkpt g;
  g.indices = saved_tdv(x);
  g.indices[static_cast<std::size_t>(self_)] = x;
  return g;
}

void audit_tdv_merge(const Tdv& before, std::span<const CkptIndex> piggyback,
                     const Tdv& after) {
  if constexpr (!kAuditsEnabled) return;
  RDT_AUDIT(after.size() == before.size(),
            "a TDV merge must not change the vector length");
  RDT_AUDIT(piggyback.empty() || piggyback.size() == before.size(),
            "piggybacked TDV length disagrees with the local vector");
  for (std::size_t k = 0; k < after.size(); ++k) {
    RDT_AUDIT(after[k] >= before[k],
              "TDV monotonicity violated: a delivery lowered a dependency");
    if (!piggyback.empty())
      RDT_AUDIT(after[k] >= piggyback[k],
                "TDV merge dropped a piggybacked dependency");
  }
}

std::unique_ptr<CicProtocol> make_protocol(ProtocolKind kind, int num_processes,
                                           ProcessId self) {
  switch (kind) {
    case ProtocolKind::kNoForce:
      return std::make_unique<NoForceProtocol>(num_processes, self);
    case ProtocolKind::kCbr:
      return std::make_unique<CbrProtocol>(num_processes, self);
    case ProtocolKind::kCas:
      return std::make_unique<CasProtocol>(num_processes, self);
    case ProtocolKind::kNras:
      return std::make_unique<NrasProtocol>(num_processes, self);
    case ProtocolKind::kFdi:
      return std::make_unique<FdiProtocol>(num_processes, self);
    case ProtocolKind::kFdas:
      return std::make_unique<FdasProtocol>(num_processes, self);
    case ProtocolKind::kBhmr:
      return std::make_unique<BhmrProtocol>(num_processes, self,
                                            BhmrProtocol::Variant::kFull);
    case ProtocolKind::kBhmrNoSimple:
      return std::make_unique<BhmrProtocol>(num_processes, self,
                                            BhmrProtocol::Variant::kNoSimple);
    case ProtocolKind::kBhmrC1Only:
      return std::make_unique<BhmrProtocol>(num_processes, self,
                                            BhmrProtocol::Variant::kC1Only);
    case ProtocolKind::kBcs:
      return std::make_unique<BcsProtocol>(num_processes, self);
    case ProtocolKind::kAdaptive:
      return std::make_unique<AdaptiveProtocol>(num_processes, self);
  }
  RDT_ASSERT(false);
}

}  // namespace rdt
